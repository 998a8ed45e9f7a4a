"""tools/ab.py: alternating pairs from two checkouts, and the summary and
gain rule it writes into BENCH_<n>.json."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

AB = Path(__file__).resolve().parents[1] / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_tool", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FAKE_RUN = textwrap.dedent('''\
    import json, sys
    from pathlib import Path
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    root = Path(__file__).resolve().parents[1]
    with open(root.parent / "order.txt", "a") as log:
        log.write(f"{root.name} {args['--seed']} {args['--seconds']}\\n")
    wall = {WALL} + int(args["--seed"]) / 1000
    print(f"x setup_s 0.1 s median of 3 fresh interpreters [0.100 0.090 0.110]")
    print(json.dumps({"attempted": 4, "failed": 0, "correct": True, "metrics": {
        "wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": 0.1, "unit": "s"},
        "peak_rss_mb": {"value": 40.0, "unit": "MB"},
        "ops_ok_frac": {"value": 1.0, "unit": "frac"}}}))
''')


def fake_tree(root: Path, name: str, wall: float, src_lines: int) -> Path:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(FAKE_RUN.replace("{WALL}", repr(wall)))
    (tree / "src" / "pkg").mkdir(parents=True)
    (tree / "src" / "pkg" / "m.py").write_text("x = 1\n" * src_lines)
    (tree / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 25, "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        {"name": "ops_ok_frac", "better": "higher", "bound": 0.1}]}))
    return tree


def test_pairs_alternate_and_the_claim_is_judged(ab, tmp_path):
    parent = fake_tree(tmp_path, "parent", 1.0, 10)
    change = fake_tree(tmp_path, "change", 0.5, 7)
    out = tmp_path / "BENCH.json"
    assert ab.main(["--parent", str(parent), "--change", str(change),
                    "--workload", "disk-l1", "--seed", "7",
                    "--claim", "disk-l1:wall_s", "--output", str(out)]) == 0
    order = (tmp_path / "order.txt").read_text().split("\n")[:-1]
    assert order[:6] == ["parent 7 25", "change 7 25", "change 8 25",
                         "parent 8 25", "parent 9 25", "change 9 25"]
    assert len(order) == 20 and order[-1] == "parent 16 25"
    record = json.loads(out.read_text())
    assert len(record["runs"]) == 20
    assert record["runs"][0]["setup_s_samples"] == [0.1, 0.09, 0.11]
    wall = record["summary"]["disk-l1"]["wall_s"]
    assert wall["change_better_pairs"] == 10 and wall["ties"] == 0
    assert wall["parent"]["median"] == pytest.approx(1.0115)
    assert wall["median_delta"] == pytest.approx(-0.5)
    rss = record["summary"]["disk-l1"]["peak_rss_mb"]
    assert rss["change_better_pairs"] == 0 and rss["ties"] == 10
    assert wall["regression"] == {"verdict": "within",
                                  "worse_by": pytest.approx(0.5 - 1.0), "bound": 0.25}
    assert rss["regression"] == {"verdict": "within", "worse_by": 0.0, "bound": 0.1}
    assert record["claim"]["met"]
    assert record["src_py_lines"] == {"parent": 10, "change": 7,
                                      "by_module": {"pkg/m.py": [10, 7]}}
    assert record["src_code_lines"] == record["src_py_lines"]  # all code
    # with or without .git, the digests name the code each side ran
    assert record["src_sha256"] == {"parent": ab.src_sha256(parent),
                                    "change": ab.src_sha256(change)}
    assert record["src_sha256"]["parent"] != record["src_sha256"]["change"]


def test_the_src_digest_follows_the_modules_and_their_paths(ab, tmp_path):
    a = fake_tree(tmp_path, "a", 1.0, 3)
    b = fake_tree(tmp_path, "b", 2.0, 3)
    # other files of the tree, perfbench/ included, do not count
    assert ab.src_sha256(a) == ab.src_sha256(b)
    assert len(ab.src_sha256(a)) == 64
    (b / "src" / "pkg" / "notes.txt").write_text("x")
    assert ab.src_sha256(a) == ab.src_sha256(b)
    before = ab.src_sha256(b)
    (b / "src" / "pkg" / "m.py").rename(b / "src" / "pkg" / "n.py")
    assert ab.src_sha256(b) != before
    (b / "src" / "pkg" / "n.py").rename(b / "src" / "pkg" / "m.py")
    assert ab.src_sha256(b) == before
    (b / "src" / "pkg" / "m.py").write_text("x = 1\n" * 3 + "\n")
    assert ab.src_sha256(b) != before


def test_code_lines_leave_out_blank_lines_comments_and_docstrings(ab):
    source = textwrap.dedent('''\
        """Module docstring,
        two lines."""
        import os  # a comment after code


        # a comment alone
        class A:
            """Class docstring."""
            x = """a string, not a docstring,
            over two lines"""

            def f(self):
                """Function
                docstring."""
                return (1 +
                        2)
        ''')
    # import, class, both lines of x, def and both lines of the return
    assert ab.code_lines(source) == 7
    assert ab.code_lines("") == 0


def test_modules_on_one_side_only_are_counted(ab):
    # a module the change deletes reads 0 on the change side, one it adds
    # 0 on the parent side; unchanged modules are left out
    parent = {"pkg/kept.py": 5, "pkg/gone.py": 7, "pkg/edited.py": 3}
    change = {"pkg/kept.py": 5, "pkg/new.py": 2, "pkg/edited.py": 4}
    assert ab.by_module(parent, change) == {
        "pkg/edited.py": [3, 4], "pkg/gone.py": [7, 0], "pkg/new.py": [0, 2]}


def runs(parent, change, metric="wall_s"):
    return [{"workload": "w", "side": side, "seed": i, "metrics": {metric: v}}
            for i, pair in enumerate(zip(parent, change))
            for side, v in zip(("parent", "change"), pair)]


def test_gain_rule(ab):
    better = {"wall_s": {"better": "lower", "bound": 0.25}}
    # nine of ten pairs won, medians 1.0 -> 0.9 apart by more than the IQR
    parent = [1.0] * 10
    change = [0.9] * 9 + [1.1]
    assert ab.claim_result(ab.summarize(runs(parent, change), better), "w", "wall_s")["met"]
    # eight of ten is too few
    change = [0.9] * 8 + [1.1] * 2
    assert not ab.claim_result(ab.summarize(runs(parent, change), better), "w", "wall_s")["met"]
    # so are fewer than ten pairs, all won
    assert not ab.claim_result(ab.summarize(runs([1.0] * 9, [0.9] * 9), better),
                               "w", "wall_s")["met"]
    # all pairs won, but the medians sit inside the parent's spread
    parent = [1.0 + 0.1 * i for i in range(10)]
    change = [v - 0.01 for v in parent]
    summary = ab.summarize(runs(parent, change), better)
    assert summary["w"]["wall_s"]["parent"]["iqr"] == pytest.approx(0.45)
    assert not ab.claim_result(summary, "w", "wall_s")["met"]


@pytest.mark.parametrize("metric, better, parent, change, verdict, worse_by", [
    # the change median 0.1 s slower, inside the 0.25 s bound
    ("wall_s", "lower", [1.0] * 10, [1.1] * 10, "within", 0.1),
    ("wall_s", "lower", [1.0] * 10, [1.3] * 10, "worse", 0.3),
    # the parent's IQR (0.45 s) is wider than the bound and the runs overlap
    ("wall_s", "lower", [1.0 + 0.1 * i for i in range(10)],
     [0.99 + 0.1 * i for i in range(10)], "unresolved", -0.01),
    # ... unless every change run beats every parent run
    ("wall_s", "lower", [1.0 + 0.1 * i for i in range(10)], [0.9] * 10, "within", -0.55),
    # a higher-is-better metric: lower is worse
    ("ops_ok_frac", "higher", [1.0] * 10, [0.8] * 10, "worse", 0.2),
    ("ops_ok_frac", "higher", [0.5 + 0.05 * i for i in range(10)], [1.0] * 10,
     "within", -0.275),
    ("ops_ok_frac", "higher", [0.5 + 0.05 * i for i in range(10)],
     [0.5 + 0.05 * i for i in range(10)], "unresolved", 0.0),
])
def test_regression_verdict(ab, metric, better, parent, change, verdict, worse_by):
    bound = 0.25 if metric == "wall_s" else 0.1
    summary = ab.summarize(runs(parent, change, metric),
                           {metric: {"better": better, "bound": bound}})
    got = summary["w"][metric]["regression"]
    assert got == {"verdict": verdict, "worse_by": pytest.approx(worse_by),
                   "bound": bound}
