import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wulff_tvl1
from wulff_tvl1.certificate import certify_minimizer
from wulff_tvl1.cli import main
from wulff_tvl1.fileio import read_pgm, write_pgm
from wulff_tvl1.gauge import Gauge
from wulff_tvl1.grid import GridImage
from wulff_tvl1.shapes import wulff_tv_and_area
from wulff_tvl1.solver import SolverConfig, solve

from conftest import REFUSED_GAUGE_SPECS


def run(*argv):
    return main(list(argv))


def test_synth_disk_area(tmp_path):
    out = tmp_path / "disk.pgm"
    assert run("synth", "disk", "--size", "256", "--output", str(out)) == 0
    img = read_pgm(out, spacing=3.0 / 256)
    area = img.values.sum() * img.spacing**2
    assert area == pytest.approx(math.pi, rel=0.005)
    assert set(np.unique(img.values)) <= {0.0, 1.0}
    assert (tmp_path / "disk.pgm.json").exists()
    assert (tmp_path / "disk.pgm.manifest.json").exists()


def test_synth_wulff_area(tmp_path):
    hexagon = {"kind": "polyhedral", "wulff_vertices":
               [[2, 0], [1, 2], [-1, 1], [-2, -1], [0, -2], [1.5, -1]]}
    out = tmp_path / "w.pgm"
    assert run("synth", "wulff", "--gauge", json.dumps(hexagon), "--scale",
               "0.5", "--size", "128", "--output", str(out)) == 0
    img = read_pgm(out, spacing=3.0 / 128)
    assert set(np.unique(img.values)) <= {0.0, 1.0}
    _, area = wulff_tv_and_area(Gauge.from_json(json.dumps(hexagon)))
    assert img.values.sum() * img.spacing**2 == pytest.approx(
        0.25 * area, rel=0.02)


def test_synth_zero_noise_is_clean(tmp_path):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    run("synth", "disk", "--size", "64", "--output", str(a))
    run("synth", "disk", "--size", "64", "--noise", "0", "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_synth_seed_determinism(tmp_path):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    for out in (a, b):
        run("synth", "barcode", "--size", "64", "--noise", "0.1", "--seed", "7",
            "--output", str(out))
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.pgm"
    run("synth", "barcode", "--size", "64", "--noise", "0.1", "--seed", "8",
        "--output", str(c))
    assert a.read_bytes() != c.read_bytes()


def test_synth_rejects_unknown_shape(tmp_path):
    assert run("synth", "blob", "--output", str(tmp_path / "x.pgm")) == 1


def test_oracle_critical_lambda(capsys):
    assert run("oracle", "critical-lambda") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["critical_lambda"] == pytest.approx(2.4754, abs=1e-3)


def test_oracle_threshold(capsys):
    assert run("oracle", "threshold", "--R", "1", "--n", "2") == 0
    assert json.loads(capsys.readouterr().out)["lambda0"] == 2.0


def test_oracle_circle(capsys):
    assert run("oracle", "circle", "--lambda", "4") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tv"] == pytest.approx(7.745966692414834, abs=1e-9)
    assert payload["area"] == pytest.approx(3.099117469573333, abs=1e-9)
    assert payload["energy"] == pytest.approx(7.915867428480675, abs=1e-9)
    assert run("oracle", "circle", "--lambda", "nan") == 1


def test_oracle_wulff(tmp_path, capsys):
    out = tmp_path / "wulff.json"
    assert run("oracle", "wulff", "--gauge", '{"kind":"p-norm","p":1}',
               "--output", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["tv"], payload["area"]) == (8.0, 4.0)
    assert json.loads(out.read_text()) == payload


def test_oracle_output_has_its_manifest(tmp_path, capsys):
    out = tmp_path / "o.json"
    assert run("oracle", "circle", "--lambda", "4", "--output", str(out)) == 0
    assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert (manifest["command"], manifest["lam"], manifest["outputs"]) == (
        "oracle", 4.0, [str(out)])


@pytest.mark.parametrize("shape, flag, value", [
    ("wulff", "--scale", "0"),     # all ones: zero normals pass every half-plane
    ("wulff", "--scale", "-1"),    # -W instead of W
    ("wulff", "--scale", "nan"),   # empty, with RuntimeWarnings
    ("wulff", "--scale", "inf"),
    ("disk", "--radius", "-1"),    # the radius-1 disk
    ("disk", "--radius", "nan"),   # empty
    ("disk", "--radius", "0"),
], ids=["scale-0", "scale-negative", "scale-nan", "scale-inf", "radius-negative",
        "radius-nan", "radius-0"])
def test_synth_refuses_a_size_that_is_not_positive_and_finite(tmp_path, capsys,
                                                              shape, flag, value):
    out = tmp_path / "s.pgm"
    hexagon = ('{"kind": "polyhedral", "wulff_vertices": '
               '[[2, 0], [1, 2], [-1, 1], [-2, -1], [0, -2], [1.5, -1]]}')
    assert run("synth", shape, "--size", "32", "--gauge", hexagon, flag, value,
               "--output", str(out)) == 1
    assert f"{flag} must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point():
    # python -m wulff_tvl1 runs cli.main and exits with its code
    env = dict(os.environ,
               PYTHONPATH=str(Path(wulff_tvl1.__file__).resolve().parents[1]))

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "wulff_tvl1", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    done = module("oracle", "critical-lambda")
    assert done.returncode == 0
    assert json.loads(done.stdout)["critical_lambda"] == pytest.approx(
        2.4754, abs=1e-3)
    assert module("oracle", "threshold", "--R", "nan").returncode == 1


def test_denoise_circle_example(tmp_path, capsys):
    disk = tmp_path / "disk.pgm"
    run("synth", "disk", "--size", "128", "--output", str(disk))
    prefix = tmp_path / "out"
    code = run("denoise", "--input", str(disk),
               "--gauge", '{"kind":"p-norm","p":1}', "--lambda", "4",
               "--output-prefix", str(prefix), "--certify", "--threshold")
    assert code == 0
    report = json.loads((tmp_path / "out_report.json").read_text())
    assert report["energy"] == pytest.approx(7.915867428480675, rel=0.01)
    assert report["converged"] and report["stop_reason"] == "gap"
    # final_gap bounds energy_forward, the last energy_trace entry
    assert report["energy_forward"] == report["energy_trace"][-1]
    assert (max(report["energy_forward"] - report["lower_bound"], 0.0)
            == report["final_gap"])
    assert report["certificate"]["passed"]
    assert (tmp_path / "out.pgm").exists()
    assert (tmp_path / "out_dual.raw").exists()
    assert (tmp_path / "out_dual.raw.json").exists()
    assert (tmp_path / "out.manifest.json").exists()


def noisy_disk(tmp_path) -> tuple[Path, GridImage]:
    """A non-binary 32^2 input file and the image the CLI reads from it."""
    path = tmp_path / "noisy.pgm"
    run("synth", "disk", "--size", "32", "--output", str(path))
    spacing = json.loads(Path(f"{path}.json").read_text())["spacing"]
    clean = read_pgm(path, spacing=spacing)
    noise = np.random.default_rng(5).uniform(0.0, 0.4, size=clean.values.shape)
    write_pgm(path, GridImage(np.abs(clean.values - noise), spacing))
    return path, read_pgm(path, spacing=spacing)


@pytest.mark.parametrize("binary", [True, False], ids=["binary-disk", "noisy"])
def test_denoise_certifies_what_certify_minimizer_certifies(tmp_path, binary):
    if binary:
        path = tmp_path / "disk.pgm"
        run("synth", "disk", "--size", "32", "--output", str(path))
        f = read_pgm(path, spacing=3.0 / 32)
    else:
        path, f = noisy_disk(tmp_path)
    assert binary == bool(np.all((f.values == 0.0) | (f.values == 1.0)))
    prefix = tmp_path / "o"
    run("denoise", "--input", str(path), "--lambda", "3", "--max-iterations",
        "300", "--output-prefix", str(prefix), "--certify")
    report = json.loads((tmp_path / "o_report.json").read_text())
    _, expected = certify_minimizer(f, 3.0, Gauge.p_norm(1),
                                    SolverConfig(max_iterations=300))
    assert report["certificate"] == json.loads(json.dumps(expected.to_json()))


def test_threshold_writes_a_non_binary_minimiser_unchanged(tmp_path):
    path, f = noisy_disk(tmp_path)
    prefix = tmp_path / "o"
    run("denoise", "--input", str(path), "--lambda", "3", "--max-iterations",
        "300", "--output-prefix", str(prefix), "--threshold")
    report = json.loads((tmp_path / "o_report.json").read_text())
    assert report["thresholded_output"] is False
    expected = tmp_path / "expected.pgm"
    write_pgm(expected, solve(f, 3.0, Gauge.p_norm(1),
                              SolverConfig(max_iterations=300)).u, maxval=65535)
    assert (tmp_path / "o.pgm").read_bytes() == expected.read_bytes()


def test_denoise_rejects_bad_lambda(tmp_path):
    disk = tmp_path / "d.pgm"
    run("synth", "disk", "--size", "32", "--output", str(disk))
    for lam in ("0", "nan", "inf"):
        assert run("denoise", "--input", str(disk), "--lambda", lam,
                   "--output-prefix", str(tmp_path / "o")) == 1
        assert not (tmp_path / "o_report.json").exists()


def test_denoise_missing_input(tmp_path):
    assert run("denoise", "--input", str(tmp_path / "nope.pgm"),
               "--lambda", "1", "--output-prefix", str(tmp_path / "o")) == 1


def test_denoise_rejects_a_pgm_header_outside_the_format(tmp_path):
    # maxval 70000 is no PGM; it used to be read as 16-bit samples
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5 4 4 70000\n" + bytes(32))
    assert run("denoise", "--input", str(bad), "--lambda", "1",
               "--output-prefix", str(tmp_path / "o")) == 1
    assert not (tmp_path / "o_report.json").exists()


def test_denoise_rejects_a_pgm_sample_above_maxval(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5 2 2 1\n" + bytes([0, 1, 255, 0]))
    assert run("denoise", "--input", str(bad), "--lambda", "1",
               "--output-prefix", str(tmp_path / "o")) == 1
    assert not (tmp_path / "o_report.json").exists()


def test_denoise_zero_image(tmp_path):
    z = tmp_path / "z.pgm"
    write_pgm(z, GridImage(np.zeros((32, 32)), 1.0))
    prefix = tmp_path / "zo"
    assert run("denoise", "--input", str(z), "--lambda", "2",
               "--output-prefix", str(prefix)) == 0
    report = json.loads((tmp_path / "zo_report.json").read_text())
    assert report["energy"] == 0.0


def test_denoise_manifest_determinism(tmp_path):
    disk = tmp_path / "disk.pgm"
    run("synth", "disk", "--size", "48", "--output", str(disk))
    outputs = []
    for name in ("r1", "r2"):
        prefix = tmp_path / name
        assert run("denoise", "--input", str(disk), "--lambda", "3",
                   "--output-prefix", str(prefix)) == 0
        outputs.append((tmp_path / f"{name}.pgm").read_bytes()
                       + (tmp_path / f"{name}_dual.raw").read_bytes())
    assert outputs[0] == outputs[1]


def test_certify_example_circle_exit_codes(tmp_path):
    report = tmp_path / "cert.json"
    assert run("certify", "--example-circle", "3", "--size", "192",
               "--output", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["passed"]
    assert run("certify", "--example-circle", "2", "--size", "192") == 3


@pytest.mark.parametrize("spec, field", REFUSED_GAUGE_SPECS.values(),
                         ids=REFUSED_GAUGE_SPECS.keys())
def test_a_refused_gauge_is_a_configuration_error(tmp_path, capsys, spec, field):
    # NaN weights used to exit 2 from denoise, with a NaN energy and gap in
    # the report, and 3 from certify, with a NaN tv_value
    disk = tmp_path / "d.pgm"
    run("synth", "disk", "--size", "16", "--output", str(disk))
    capsys.readouterr()
    for argv in (["denoise", "--input", str(disk), "--lambda", "3",
                  "--output-prefix", str(tmp_path / "o")],
                 ["certify", "--example-circle", "3", "--size", "16",
                  "--output", str(tmp_path / "cert.json")]):
        assert run(*argv, "--gauge", spec) == 1
        assert field in capsys.readouterr().err
    assert not (tmp_path / "o_report.json").exists()
    assert not (tmp_path / "cert.json").exists()


def test_certify_lambda_zero_is_named(tmp_path, capsys):
    # --lambda 0 used to read as a missing --lambda
    disk = tmp_path / "d.pgm"
    run("synth", "disk", "--size", "16", "--output", str(disk))
    v = tmp_path / "v.raw"
    write_field_zeros(v, 16)
    capsys.readouterr()
    for lam in ("0", "-1"):
        assert run("certify", "--u0", str(disk), "--f", str(disk), "--v", str(v),
                   "--lambda", lam) == 1
        assert "lambda must be positive and finite" in capsys.readouterr().err
    assert run("certify", "--u0", str(disk), "--f", str(disk), "--v", str(v)) == 1
    assert "need --u0, --f, --v and --lambda" in capsys.readouterr().err


def write_field_zeros(path, size):
    from wulff_tvl1.fileio import write_field
    from wulff_tvl1.grid import DualField
    write_field(path, DualField(np.zeros((size, size, 2)), 3.0 / size))


def test_certify_mismatched_grids(tmp_path):
    from wulff_tvl1.fileio import write_field
    from wulff_tvl1.grid import DualField
    u0 = tmp_path / "u0.pgm"
    f = tmp_path / "f.pgm"
    v = tmp_path / "v.raw"
    write_pgm(u0, GridImage(np.zeros((16, 16)), 1.0))
    write_pgm(f, GridImage(np.zeros((8, 8)), 1.0))
    write_field(v, DualField(np.zeros((16, 16, 2)), 1.0))
    assert run("certify", "--u0", str(u0), "--f", str(f), "--v", str(v),
               "--lambda", "2", "--spacing", "1.0") == 1


def test_certify_file_inputs_pass(tmp_path):
    from wulff_tvl1.fileio import write_field
    from wulff_tvl1.grid import DualField
    u0 = tmp_path / "u0.pgm"
    v = tmp_path / "v.raw"
    write_pgm(u0, GridImage(np.zeros((16, 16)), 0.5))
    write_field(v, DualField(np.zeros((16, 16, 2)), 0.5))
    assert run("certify", "--u0", str(u0), "--f", str(u0), "--v", str(v),
               "--lambda", "2", "--spacing", "0.5") == 0


def _certify_field(tmp_path, values, lam="2"):
    """Runs certify on u0 = f = 0 against the field `values` at spacing 1;
    returns the exit code and the report."""
    from wulff_tvl1.fileio import write_field
    from wulff_tvl1.grid import DualField
    u0 = tmp_path / "u0.pgm"
    v = tmp_path / "v.raw"
    out = tmp_path / "cert.json"
    write_pgm(u0, GridImage(np.zeros(values.shape[:2]), 1.0))
    write_field(v, DualField(values, 1.0))
    code = run("certify", "--u0", str(u0), "--f", str(u0), "--v", str(v),
               "--lambda", lam, "--spacing", "1.0", "--output", str(out))
    return code, json.loads(out.read_text())


def test_certify_with_no_evaluated_cell_fails(tmp_path):
    # a 4x4 grid lies inside the 2-cell window frame: condition (a) is
    # evaluated at no cell, so it fails rather than pass over none
    code, report = _certify_field(tmp_path, np.full((4, 4, 2), 0.9), lam="0.01")
    assert code == 3
    assert report["excluded_fraction"] == 1.0
    assert report["conditions"]["a_div_bound"] is False
    assert [k for k, ok in report["conditions"].items() if not ok] == ["a_div_bound"]


def test_certify_non_finite_field_fails(tmp_path):
    # an inf entry fails condition (ii): exit 3 with a report, not exit 1
    values = np.zeros((8, 8, 2))
    values[4, 4, 0] = math.inf
    code, report = _certify_field(tmp_path, values)
    assert code == 3
    assert report["conditions"]["ii_bounded_divergence"] is False


def test_certify_overflowing_divergence_fails(tmp_path):
    # a finite field whose differences overflow fails (ii) the same way
    code, report = _certify_field(tmp_path, np.full((16, 16, 2), 1e308))
    assert code == 3
    assert report["conditions"]["i_wulff_membership"] is False
    assert report["conditions"]["ii_bounded_divergence"] is False
    for key in ("div_inf_norm", "div_bound_residual", "div_residual_above",
                "div_residual_below"):
        assert report[key] == math.inf, key
    assert report["excluded_fraction"] == 1.0


def test_non_p5_pgm_is_a_configuration_error(tmp_path, capsys):
    plain = tmp_path / "plain.pgm"
    plain.write_bytes(b"P2\n2 2\n255\n0 255 0 255\n")
    assert run("denoise", "--input", str(plain), "--lambda", "2",
               "--output-prefix", str(tmp_path / "o")) == 1
    assert "only binary (P5) PGM" in capsys.readouterr().err
    assert not (tmp_path / "o_report.json").exists()


def test_zero_spacing_is_a_configuration_error(tmp_path):
    from wulff_tvl1.fileio import write_field
    from wulff_tvl1.grid import DualField
    u0 = tmp_path / "u0.pgm"
    v = tmp_path / "v.raw"
    write_pgm(u0, GridImage(np.zeros((16, 16)), 1.0))
    write_field(v, DualField(np.zeros((16, 16, 2)), 1.0))
    for spacing in ("0", "inf"):
        assert run("denoise", "--input", str(u0), "--lambda", "2",
                   "--spacing", spacing,
                   "--output-prefix", str(tmp_path / "o")) == 1
        assert not (tmp_path / "o_report.json").exists()
        assert run("certify", "--u0", str(u0), "--f", str(u0), "--v", str(v),
                   "--lambda", "2", "--spacing", spacing) == 1


@pytest.mark.parametrize("sidecar", ["[1]", '"0.5"', "null",
                                     '{"spacing": "0.5"}', '{"spacing": null}',
                                     '{"spacing": true}'])
def test_a_malformed_image_sidecar_is_a_configuration_error(tmp_path, capsys,
                                                           sidecar):
    # a sidecar that is not an object raised AttributeError out of main,
    # and a string spacing exited with a message that named no file
    from wulff_tvl1.fileio import write_field
    from wulff_tvl1.grid import DualField
    image = tmp_path / "d.pgm"
    v = tmp_path / "v.raw"
    write_pgm(image, GridImage(np.zeros((16, 16)), 1.0))
    write_field(v, DualField(np.zeros((16, 16, 2)), 1.0))
    Path(f"{image}.json").write_text(sidecar)
    for argv in (["denoise", "--input", str(image), "--lambda", "2",
                  "--output-prefix", str(tmp_path / "o")],
                 ["certify", "--u0", str(image), "--f", str(image),
                  "--v", str(v), "--lambda", "2"]):
        assert run(*argv) == 1
        assert f"{image}.json must hold a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "o_report.json").exists()


def test_an_overflowing_sidecar_spacing_is_a_configuration_error(tmp_path, capsys):
    # a 400-digit spacing made float() raise OverflowError, a traceback out
    # of main, from both the image and the field sidecar
    image = tmp_path / "d.pgm"
    v = tmp_path / "v.raw"
    write_pgm(image, GridImage(np.zeros((16, 16)), 1.0))
    write_field_zeros(v, 16)
    huge = "1" + "0" * 400
    Path(f"{image}.json").write_text(f'{{"spacing": {huge}}}')
    assert run("denoise", "--input", str(image), "--lambda", "2",
               "--output-prefix", str(tmp_path / "o")) == 1
    assert f"{image}.json: spacing must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o_report.json").exists()
    Path(f"{v}.json").write_text(
        f'{{"width": 16, "height": 16, "components": 2, "spacing": {huge}}}')
    assert run("certify", "--u0", str(image), "--f", str(image), "--v", str(v),
               "--lambda", "2", "--spacing", "1") == 1
    assert f"{v}.json: spacing must be positive and finite" in capsys.readouterr().err


def test_an_image_sidecar_that_is_no_json_names_the_file(tmp_path, capsys):
    # it used to exit with only "Expecting property name enclosed in double
    # quotes: line 1 column 2 (char 1)"
    from wulff_tvl1.fileio import write_field
    from wulff_tvl1.grid import DualField
    image = tmp_path / "d.pgm"
    v = tmp_path / "v.raw"
    write_pgm(image, GridImage(np.zeros((16, 16)), 1.0))
    write_field(v, DualField(np.zeros((16, 16, 2)), 1.0))
    Path(f"{image}.json").write_text("{spacing: 1")
    for argv in (["denoise", "--input", str(image), "--lambda", "2",
                  "--output-prefix", str(tmp_path / "o")],
                 ["certify", "--u0", str(image), "--f", str(image),
                  "--v", str(v), "--lambda", "2"]):
        assert run(*argv) == 1
        assert f"{image}.json is not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "o_report.json").exists()


@pytest.mark.parametrize("sidecar, message", [
    ("{width: 16", "is not valid JSON"),
    ("[1]", "must hold a JSON object"),
    ('{"width": 16, "spacing": 1.0, "components": 2}', "must hold a JSON object"),
    ('{"width": 16, "height": 16.0, "spacing": 1.0, "components": 2}',
     "must hold a JSON object"),
    ('{"width": 16, "height": true, "spacing": 1.0, "components": 2}',
     "must hold a JSON object"),
    ('{"width": 16, "height": 16, "spacing": 1.0}', "must hold a JSON object"),
    ('{"width": 16, "height": 16, "spacing": 1.0, "components": 3}',
     "must hold a JSON object"),
    ('{"width": 16, "height": 16, "spacing": "x", "components": 2}',
     "must hold a JSON object"),
    ('{"width": 16, "height": 16, "components": 2}', "must hold a JSON object"),
], ids=["not-json", "not-an-object", "no-height", "float-height",
        "boolean-height", "no-components", "three-components",
        "string-spacing", "no-spacing"])
def test_a_malformed_field_sidecar_names_the_file(tmp_path, capsys, sidecar,
                                                  message):
    # these exited 1 with messages such as "'height'", "list indices must be
    # integers or slices, not str" or "could not convert string to float"
    from wulff_tvl1.fileio import write_field
    from wulff_tvl1.grid import DualField
    u0 = tmp_path / "u0.pgm"
    v = tmp_path / "v.raw"
    write_pgm(u0, GridImage(np.zeros((16, 16)), 1.0))
    write_field(v, DualField(np.zeros((16, 16, 2)), 1.0))
    Path(f"{v}.json").write_text(sidecar)
    out = tmp_path / "cert.json"
    assert run("certify", "--u0", str(u0), "--f", str(u0), "--v", str(v),
               "--lambda", "2", "--output", str(out)) == 1
    assert f"{v}.json {message}" in capsys.readouterr().err
    assert not out.exists()


def test_a_truncated_pgm_payload_names_the_file(tmp_path, capsys):
    # numpy's "buffer is smaller than requested size" named no file
    from wulff_tvl1.fileio import write_field
    from wulff_tvl1.grid import DualField
    good = tmp_path / "good.pgm"
    short = tmp_path / "short.pgm"
    v = tmp_path / "v.raw"
    write_pgm(good, GridImage(np.zeros((16, 16)), 1.0), maxval=255)
    short.write_bytes(good.read_bytes()[:-1])
    write_field(v, DualField(np.zeros((16, 16, 2)), 1.0))
    certify = ["certify", "--v", str(v), "--lambda", "2", "--spacing", "1"]
    for argv in (["denoise", "--input", str(short), "--lambda", "2",
                  "--output-prefix", str(tmp_path / "o")],
                 certify + ["--u0", str(short), "--f", str(good)],
                 certify + ["--u0", str(good), "--f", str(short)]):
        assert run(*argv) == 1
        assert (f"{short}: PGM payload holds 255 of the 256 samples"
                in capsys.readouterr().err)
    assert not (tmp_path / "o_report.json").exists()
    # bytes past the payload are allowed: Netpbm files may hold more images
    long = tmp_path / "long.pgm"
    long.write_bytes(good.read_bytes() + b"P5\n2 2\n255\n" + bytes(4))
    assert run(*certify, "--u0", str(long), "--f", str(good)) == 0


def test_unwritable_output_is_an_io_error(tmp_path):
    disk = tmp_path / "disk.pgm"
    run("synth", "disk", "--size", "16", "--output", str(disk))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert run("denoise", "--input", str(disk), "--lambda", "4",
               "--max-iterations", "5",
               "--output-prefix", str(blocker / "sub" / "o")) == 1
    assert run("synth", "disk", "--size", "16",
               "--output", str(blocker / "d.pgm")) == 1


@pytest.mark.parametrize("argv", [
    ["synth", "disk", "--size", "0"],
    ["synth", "disk", "--size", "1"],
    ["synth", "barcode", "--blocks", "0"],
    ["certify", "--example-circle", "4", "--size", "0"],
    ["certify", "--example-circle", "4", "--size", "16", "--tol", "nan"],
    ["certify", "--example-circle", "4", "--size", "16", "--tol", "-1"],
    ["oracle", "threshold", "--R", "nan"],
    ["oracle", "threshold", "--R", "inf"],
    ["synth", "disk", "--size", "16", "--noise", "nan"],
    ["synth", "disk", "--size", "16", "--noise", "1.5"],
    ["synth", "disk", "--size", "16", "--noise", "-0.1"],
    ["oracle", "wulff", "--gauge", "[1, 2]"],
    ["certify"],
], ids=["synth-size-0", "synth-size-1", "barcode-blocks-0", "certify-size-0",
        "certify-tol-nan", "certify-tol-negative", "threshold-R-nan",
        "threshold-R-inf", "synth-noise-nan", "synth-noise-above-1",
        "synth-noise-negative", "gauge-not-an-object", "certify-no-inputs"])
def test_degenerate_grid_option_is_a_configuration_error(tmp_path, argv):
    out = tmp_path / "x.pgm"
    assert run(*argv, "--output", str(out)) == 1
    assert not out.exists()


@pytest.mark.parametrize("shape", [(1, 8), (8, 1), (1, 1)],
                         ids=["1x8", "8x1", "1x1"])
def test_certify_degenerate_grid_is_a_configuration_error(tmp_path, shape):
    # no field of this shape can be built, so the files are written as bytes
    height, width = shape
    u0 = tmp_path / "u0.pgm"
    v = tmp_path / "v.raw"
    u0.write_bytes(f"P5\n{width} {height}\n255\n".encode() + bytes(height * width))
    v.write_bytes(np.zeros(shape + (2,)).astype("<f8").tobytes())
    Path(f"{v}.json").write_text(json.dumps(
        {"width": width, "height": height, "spacing": 1.0, "components": 2}))
    report = tmp_path / "report.json"
    assert run("certify", "--u0", str(u0), "--f", str(u0), "--v", str(v),
               "--lambda", "2", "--spacing", "1.0", "--output", str(report)) == 1
    assert not report.exists()


def test_denoise_single_cell_input_is_a_configuration_error(tmp_path):
    cell = tmp_path / "cell.pgm"
    cell.write_bytes(b"P5\n1 1\n255\n\xff")
    assert run("denoise", "--input", str(cell), "--lambda", "2",
               "--output-prefix", str(tmp_path / "o")) == 1
    assert not (tmp_path / "o_report.json").exists()


def test_denoise_nonconvergence_exit_code(tmp_path):
    disk = tmp_path / "disk.pgm"
    run("synth", "disk", "--size", "64", "--output", str(disk))
    prefix = tmp_path / "nc"
    code = run("denoise", "--input", str(disk), "--lambda", "4",
               "--output-prefix", str(prefix), "--max-iterations", "3")
    assert code == 2
    # outputs are still written, flagged as unconverged
    report = json.loads((tmp_path / "nc_report.json").read_text())
    assert not report["converged"] and report["stop_reason"] == "cap"
    assert (tmp_path / "nc.pgm").exists()


def test_denoise_stall_exit_code(tmp_path):
    # tiny steps stall the run far from the gap tolerance: exit 2, not 0
    disk = tmp_path / "disk.pgm"
    run("synth", "disk", "--size", "64", "--output", str(disk))
    prefix = tmp_path / "st"
    code = run("denoise", "--input", str(disk), "--lambda", "3",
               "--output-prefix", str(prefix),
               "--config", '{"tau": 1e-7, "sigma": 1e-7}')
    assert code == 2
    report = json.loads((tmp_path / "st_report.json").read_text())
    assert not report["converged"] and report["stop_reason"] == "stalled"
    assert report["final_gap_normalized"] > 1e-6


def test_denoise_config_json(tmp_path):
    disk = tmp_path / "disk.pgm"
    run("synth", "disk", "--size", "32", "--output", str(disk))
    prefix = tmp_path / "cfg"
    assert run("denoise", "--input", str(disk), "--lambda", "4",
               "--output-prefix", str(prefix),
               "--config", '{"max_iterations": 500, "gap_tolerance": 1e-5}') == 0
    assert run("denoise", "--input", str(disk), "--lambda", "4",
               "--output-prefix", str(prefix),
               "--config", '{"tau": 100.0, "sigma": 100.0}') == 1
    for bad in ('{"bogus": 1}', '[1]', '{"tau": NaN}', '{"sigma": NaN}'):
        assert run("denoise", "--input", str(disk), "--lambda", "4",
                   "--output-prefix", str(prefix), "--config", bad) == 1
    # the flags still hold for the keys the JSON does not name
    run("denoise", "--input", str(disk), "--lambda", "4",
        "--output-prefix", str(prefix), "--max-iterations", "100",
        "--config", '{"tau": 0.01, "sigma": 0.01}')
    report = json.loads((tmp_path / "cfg_report.json").read_text())
    assert report["iterations"] <= 100
    # and the JSON wins for the keys it names
    run("denoise", "--input", str(disk), "--lambda", "4",
        "--output-prefix", str(prefix), "--max-iterations", "7",
        "--config", '{"max_iterations": 5}')
    report = json.loads((tmp_path / "cfg_report.json").read_text())
    assert report["iterations"] == 5


@pytest.mark.parametrize("key", ["max_iterations", "gap_tolerance", "tau", "sigma"])
def test_a_bool_in_the_solver_config_is_refused(tmp_path, capsys, key):
    # true read as 1: "max_iterations" ran one iteration and exited 2, and
    # "gap_tolerance" stopped at once on a gap of 0.036 and exited 0
    disk = tmp_path / "disk.pgm"
    run("synth", "disk", "--size", "16", "--output", str(disk))
    capsys.readouterr()
    assert run("denoise", "--input", str(disk), "--lambda", "4",
               "--output-prefix", str(tmp_path / "o"),
               "--config", json.dumps({key: True})) == 1
    assert f'"{key}"' in capsys.readouterr().err
    assert not (tmp_path / "o_report.json").exists()


def test_thread_cap_env(tmp_path, monkeypatch):
    for bad in ("not-a-number", "0"):
        monkeypatch.setenv("WULFF_TVL1_THREADS", bad)
        assert run("oracle", "critical-lambda") == 1
    monkeypatch.setenv("WULFF_TVL1_THREADS", "2")
    assert run("oracle", "critical-lambda") == 0
