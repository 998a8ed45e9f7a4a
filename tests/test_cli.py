import json
import math

import numpy as np
import pytest

from wulff_tvl1.cli import main
from wulff_tvl1.fileio import read_pgm, write_pgm
from wulff_tvl1.grid import GridImage


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


def test_oracle_wulff(capsys):
    assert run("oracle", "wulff", "--gauge", '{"kind":"p-norm","p":1}') == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["tv"], payload["area"]) == (8.0, 4.0)


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
    assert report["certificate"]["passed"]
    assert (tmp_path / "out.pgm").exists()
    assert (tmp_path / "out_dual.raw").exists()
    assert (tmp_path / "out_dual.raw.json").exists()
    assert (tmp_path / "out.manifest.json").exists()


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
], ids=["synth-size-0", "synth-size-1", "barcode-blocks-0", "certify-size-0"])
def test_degenerate_grid_option_is_a_configuration_error(tmp_path, argv):
    out = tmp_path / "x.pgm"
    assert run(*argv, "--output", str(out)) == 1
    assert not out.exists()


def test_denoise_single_cell_input_is_a_configuration_error(tmp_path):
    cell = tmp_path / "cell.pgm"
    write_pgm(cell, GridImage(np.ones((1, 1)), 1.0))
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
    assert run("denoise", "--input", str(disk), "--lambda", "4",
               "--output-prefix", str(prefix),
               "--config", '{"bogus": 1}') == 1


def test_thread_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("WULFF_TVL1_THREADS", "not-a-number")
    assert run("oracle", "critical-lambda") == 1
    monkeypatch.setenv("WULFF_TVL1_THREADS", "2")
    assert run("oracle", "critical-lambda") == 0
