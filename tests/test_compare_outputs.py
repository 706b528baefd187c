"""The round-off comparator (tools/compare_outputs.py): its probes, and the
current code against reference trees recorded from an earlier version."""
import json
import shutil
from pathlib import Path

import pytest

from mhd1d import cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCES = Path(__file__).resolve().parent / "data" / "roundoff"

RUN = """
grid.cells = 16
grid.mass = 8.0
params.preset = normalized
params.alpha = 1.0
params.beta = 1.0
initial.profile = gaussian_bump
initial.amp_v = -0.2
initial.amp_u = 0.2
initial.amp_theta = 0.3
initial.amp_b1 = 0.2
initial.amp_w1 = 0.1
time.t_end = 0.3
output.snapshot_interval = 0.1
"""


@pytest.fixture
def compare_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import compare_outputs

    return compare_outputs


def record_run(compare_outputs, cfg: Path, tree: Path, capsys) -> None:
    """Run the current code on cfg and record it as the comparator's tree."""
    out = tree / "out"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    compare_outputs.write_tree(tree, code, capsys.readouterr().out, out)


@pytest.fixture
def trees(tmp_path, capsys, compare_outputs):
    """A recorded run (the parent) and a copy of it (the change)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN)
    parent, change = tmp_path / "parent", tmp_path / "change"
    record_run(compare_outputs, cfg, parent, capsys)
    shutil.copytree(parent, change)
    return parent, change


def edit_record(tree, index, edit):
    path = tree / "out" / "diagnostics.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records, index)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def moved(x, by):
    """x moved by `by` relative to max(|x|, 1), the comparator's measure."""
    return x + by * max(abs(x), 1.0)


def test_identical_trees_agree(trees, compare_outputs):
    verdict = compare_outputs.compare_trees(*trees)
    assert verdict.ok, verdict.problems
    assert set(verdict.largest) == {"diagnostics", "snapshots", "stdout"}
    assert all(change == 0.0 for change, _ in verdict.largest.values())


@pytest.mark.parametrize("factor, agree", [(0.1, True), (10.0, False)])
def test_a_perturbed_diagnostic(trees, compare_outputs, factor, agree):
    parent, change = trees
    by = factor * compare_outputs.C

    def edit(records, i):
        records[i]["E_entropy"] = moved(records[i]["E_entropy"], by)

    edit_record(change, 2, edit)
    verdict = compare_outputs.compare_trees(parent, change)
    assert verdict.ok is agree, verdict.problems
    assert verdict.largest["diagnostics"][0] == pytest.approx(by, rel=1e-3)


@pytest.mark.parametrize("factor, agree", [(0.1, True), (10.0, False)])
def test_a_perturbed_snapshot_value(trees, compare_outputs, factor, agree):
    parent, change = trees
    path = change / "out" / "snapshot_final.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = "%.17g" % moved(float(cells[2]), factor * compare_outputs.C)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert compare_outputs.compare_trees(parent, change).ok is agree


def test_compare_says_whether_the_trees_are_byte_identical(trees, capsys,
                                                           compare_outputs):
    parent, change = trees
    args = ["compare", str(parent), str(change)]
    assert compare_outputs.main(args) == 0
    assert "byte-identical: yes\n" in capsys.readouterr().out
    # a number moved well inside C: the trees agree, but not byte for byte
    path = change / "out" / "snapshot_final.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = "%.17g" % moved(float(cells[2]), 0.1 * compare_outputs.C)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert compare_outputs.main(args) == 0
    out = capsys.readouterr().out
    assert "byte-identical: no\n" in out and out.endswith("PASS\n")
    # the same number written with more digits is not the same bytes either
    lines = (parent / "out" / "snapshot_final.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = "%.20e" % float(cells[2])
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    verdict = compare_outputs.compare_trees(parent, change)
    assert verdict.ok and not verdict.identical
    assert verdict.largest["snapshots"][0] == 0.0


def test_a_changed_newton_count_fails(trees, compare_outputs):
    parent, change = trees

    def edit(records, i):
        records[i]["newton_iterations"] += 1

    edit_record(change, 1, edit)
    verdict = compare_outputs.compare_trees(parent, change)
    assert not verdict.ok
    assert any("newton_iterations" in problem for problem in verdict.problems)


def test_a_missing_record_fails(trees, compare_outputs):
    parent, change = trees
    edit_record(change, -1, lambda records, i: records.pop(i))
    verdict = compare_outputs.compare_trees(parent, change)
    assert not verdict.ok
    assert any("records" in problem for problem in verdict.problems)


def test_a_different_exit_code_fails(trees, compare_outputs):
    parent, change = trees
    (change / "exit_code").write_text("3\n")
    verdict = compare_outputs.compare_trees(parent, change)
    assert verdict.problems == ["exit code 0 -> 3"]


def test_a_missing_snapshot_fails(trees, compare_outputs):
    parent, change = trees
    (change / "out" / "snapshot_final.csv").unlink()
    assert not compare_outputs.compare_trees(parent, change).ok


def test_check_records_both_versions_and_compares(tmp_path, capsys,
                                                  compare_outputs):
    # one source tree against itself, through the command line: record
    # adds --out to a sweep and writes its path in stdout as OUT
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN)
    src = str(ROOT / "src")
    assert compare_outputs.main(["check", src, src, "--", "sweep", "--config",
                                 str(cfg), "--axis", "beta=0.5,1"]) == 0
    assert capsys.readouterr().out.endswith("(C = 1e-12): PASS\n")
    tree = tmp_path / "tree"
    assert compare_outputs.main(["record", src, str(tree), "--", "sweep",
                                 "--config", str(cfg), "--axis", "beta=1"]) == 0
    assert (tree / "stdout.txt").read_text().endswith(
        "summary in OUT/summary.csv\n")
    assert (tree / "out" / "run_beta1" / "diagnostics.jsonl").is_file()


def test_check_set_prints_a_verdict_per_case(capsys, compare_outputs):
    # one tiny config, one source tree against itself
    src = str(ROOT / "src")
    case = ("tiny", RUN, ["run", "--config", compare_outputs.CFG_MARK])
    assert compare_outputs.check_set(src, src, [case]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["tiny: exit 0 -> 0, byte-identical: yes, round-off PASS",
                     "byte-identical: yes",
                     "round-off agreement (C = 1e-12): PASS"]


def test_the_standard_set_names_every_case(compare_outputs):
    cases = compare_outputs.standard_cases()
    names = [name for name, _, _ in cases]
    assert names[:6] == [f"{w}_seed{s}" for w in ("run_small", "run_large",
                                                  "sweep_matrix") for s in (0, 7)]
    assert names[6:-2] == [cfg.stem for cfg in sorted(REFERENCES.glob("*.cfg"))]
    assert names[-2] == "exit3" and "params.beta = 50" in cases[-2][1]
    assert all(compare_outputs.CFG_MARK in args and "--out" not in args
               for _, _, args in cases[:-1])
    assert cases[-1] == ("verify", "", ["verify"])


@pytest.mark.parametrize("cfg", sorted(REFERENCES.glob("*.cfg")),
                         ids=lambda path: path.stem)
def test_the_code_agrees_with_the_reference_trees(cfg, tmp_path, capsys,
                                                  compare_outputs):
    # every tree was recorded from the version whose heat flux is taken in
    # the Kirchhoff variable theta**(beta+1)/(beta+1). The two *_retries
    # trees retry steps at half the dt: cauchy_beta10_retries at its Newton
    # cap of six updates, isothermal_wall_beta35_retries on iterates that
    # overflow the conductivity or updates no damping keeps positive
    record_run(compare_outputs, cfg, tmp_path / "tree", capsys)
    verdict = compare_outputs.compare_trees(REFERENCES / cfg.stem,
                                            tmp_path / "tree")
    assert verdict.ok, verdict.problems
