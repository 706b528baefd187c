"""Judge whether two versions of mhd1d agree to round-off on one command.

A speed-up may change the order of floating-point operations, and so the
last bits of every output, but no decision of the solver. This tool records
what one version prints and writes for a command, then compares two such
records, a parent's and a change's:

    python3 tools/compare_outputs.py record SRC TREE -- run --config run.cfg
    python3 tools/compare_outputs.py compare PARENT_TREE CHANGE_TREE
    python3 tools/compare_outputs.py check PARENT_SRC CHANGE_SRC -- run --config run.cfg
    python3 tools/compare_outputs.py check-set PARENT_SRC CHANGE_SRC

``record`` runs ``python -m mhd1d.cli`` with ``SRC`` (a checkout's ``src``
directory) first on the import path and, for ``run`` and ``sweep``, with
``--out TREE/out``. It writes the tree: ``exit_code``, ``stdout.txt`` (with
the output directory's path written as ``OUT``) and the outputs under
``out/``. ``check`` records both versions into a temporary directory and
compares them. Compare exits 0 when the trees agree and 1 when they do not,
and prints each problem, the largest relative change of each kind and
whether the two trees are byte-identical (a change meant to alter no result,
such as a new memory layout, should print yes).

``check-set`` checks the standard set of commands (standard_cases), 20
cases: the benchmark's three workloads at seeds 0 and 7, with the configs
and arguments of ``perfbench/run.py``; every ``tests/data/roundoff/*.cfg``;
the exit-3 run ``tests/data/exit3.cfg``; the sweep of
``tests/data/sweep_jitter.cfg`` (explicit constants, jittered amplitudes)
over SWEEP_AXES; and ``verify``, which reads no config. It
prints one verdict line per case, with the case's largest relative change
of each kind, then the largest change of each kind over all cases, one
``byte-identical`` line and one round-off line over all of them, and exits
0 when every case agrees.

Two trees agree when all of these hold:

* the same exit code, the same output files and the same number of records
  in every diagnostics stream;
* the same ``step``, ``newton_iterations`` and ``retries`` on every record, and
  the same keys in the same order;
* every other number, in the diagnostics, the snapshots, ``summary.csv`` and
  stdout, satisfies ``|a - b| <= C * max(|a|, 1)`` with ``a`` the parent's;
  text around the numbers is equal, and NaN matches only NaN;
* where the parent's records keep the mass and momentum budget defects inside
  the acceptance bounds, the change's do too.

A round-off change that flips a discrete decision (a Newton stopping test, a
retry, the step that lands on ``t_end``) moves results by far more than ``C``
or changes a count, and is a failure: ``C`` is never widened to admit one.
"""
from __future__ import annotations

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

# the bound on |a - b| / max(|a|, 1). The largest change measured when the
# stage solves moved from gtsv to ptsv and the temperature Newton was
# rewritten was 1.1e-14, over the benchmark's workloads at two seeds, two
# wall runs and an exit-3 run; a flipped decision moves results by the
# Newton tolerance, far above C
C = 1e-12
EXACT_KEYS = ("step", "newton_iterations", "retries")
DEFECT_BOUNDS = {"mass_defect": 1e-13, "momentum_defect": 1e-12}
OUT_MARK = "OUT"
ROOT = Path(__file__).resolve().parents[1]
CHECK_SEEDS = (0, 7)
CFG_MARK = "{cfg}"  # the config file's path in a case's arguments
SWEEP_AXES = ("alpha=0,1.5", "beta=0.5,2", "amp=0.3,1,-0.5")

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


@dataclass
class Verdict:
    """The problems found, per kind of output the largest relative change
    |a - b| / max(|a|, 1) with where it was seen, and whether the exit codes,
    stdout and every output file are equal byte for byte."""

    problems: list = field(default_factory=list)
    largest: dict = field(default_factory=dict)
    identical: bool = True

    @property
    def ok(self) -> bool:
        return not self.problems

    def number(self, kind: str, where: str, a: float, b: float) -> None:
        if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                self.problems.append(f"{where}: {a!r} != {b!r}")
            return
        change = abs(a - b) / max(abs(a), 1.0)
        if change > self.largest.get(kind, (-1.0, ""))[0]:
            self.largest[kind] = (change, where)
        if change > C:
            self.problems.append(f"{where}: {a!r} -> {b!r}, relative change "
                                 f"{change:.3g} > C = {C:g}")


def _text(verdict: Verdict, kind: str, where: str, a: str, b: str) -> None:
    """Text with embedded numbers: equal text between them, numbers within C."""
    if _NUMBER.split(a) != _NUMBER.split(b):
        verdict.problems.append(f"{where}: the text around the numbers differs")
        return
    for k, (x, y) in enumerate(zip(_NUMBER.findall(a), _NUMBER.findall(b))):
        verdict.number(kind, f"{where} number {k}", float(x), float(y))


def _records(verdict: Verdict, where: str, a: str, b: str) -> None:
    """Two diagnostics streams, record by record."""
    ra, rb = a.splitlines(), b.splitlines()
    if len(ra) != len(rb):
        verdict.problems.append(f"{where}: {len(ra)} records -> {len(rb)}")
        return
    for line, (xa, xb) in enumerate(zip(ra, rb), start=1):
        da, db = json.loads(xa), json.loads(xb)
        at = f"{where}:{line}"
        if list(da) != list(db):
            verdict.problems.append(f"{at}: keys differ")
            continue
        for key, va in da.items():
            vb = db[key]
            if key in EXACT_KEYS or va is None or vb is None:
                if va != vb:
                    verdict.problems.append(f"{at}: {key} {va!r} -> {vb!r}")
            else:
                verdict.number("diagnostics", f"{at} {key}", float(va), float(vb))
        for key, bound in DEFECT_BOUNDS.items():
            if da.get(key) is not None and da[key] <= bound < db[key]:
                verdict.problems.append(f"{at}: {key} {db[key]!r} leaves the "
                                        f"acceptance bound {bound:g}")


def _kind(rel: str) -> str:
    name = Path(rel).name
    if name.endswith(".jsonl"):
        return "diagnostics"
    return "summary" if name == "summary.csv" else "snapshots"


def compare_trees(parent: Path, change: Path) -> Verdict:
    """Compare the record of a change against the record of its parent."""
    parent, change = Path(parent), Path(change)
    verdict = Verdict()

    def read(rel: str) -> tuple[str, str]:
        a, b = [(tree / rel).read_bytes() for tree in (parent, change)]
        verdict.identical &= a == b
        return a.decode(), b.decode()

    codes = [code.strip() for code in read("exit_code")]
    if codes[0] != codes[1]:
        verdict.problems.append(f"exit code {codes[0]} -> {codes[1]}")
    _text(verdict, "stdout", "stdout", *read("stdout.txt"))
    files = [{p.relative_to(tree / "out").as_posix()
              for p in (tree / "out").rglob("*") if p.is_file()}
             if (tree / "out").is_dir() else set() for tree in (parent, change)]
    for rel in sorted(files[0] ^ files[1]):
        verdict.identical = False
        verdict.problems.append(f"{rel}: only in the "
                                f"{'parent' if rel in files[0] else 'change'}")
    for rel in sorted(files[0] & files[1]):
        a, b = read(f"out/{rel}")
        kind = _kind(rel)
        if kind == "diagnostics":
            _records(verdict, rel, a, b)
        else:
            _text(verdict, kind, rel, a, b)
    return verdict


def write_tree(tree: Path, code: int, stdout: str, out: Path) -> None:
    """Save a command's exit code and stdout beside its outputs in out."""
    tree = Path(tree)
    tree.mkdir(parents=True, exist_ok=True)
    (tree / "exit_code").write_text(f"{code}\n")
    (tree / "stdout.txt").write_text(stdout.replace(str(out), OUT_MARK))


def record(src: Path, tree: Path, args: list) -> int:
    """Run mhd1d from src with args and record the result in tree."""
    tree = Path(tree)
    out = tree / "out"
    if args and args[0] in ("run", "sweep"):
        args = [*args, "--out", str(out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(src).resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "mhd1d.cli", *args], env=env,
                          capture_output=True, text=True)
    write_tree(tree, proc.returncode, proc.stdout, out)
    return proc.returncode


def standard_cases() -> list[tuple[str, str, list]]:
    """(name, config text, arguments) of every command check-set runs; the
    arguments name the config file as CFG_MARK, but verify's, and leave out
    --out."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(ROOT / "perfbench"))  # for its `import probes`
    try:
        spec.loader.exec_module(bench)
    finally:
        sys.path.pop(0)
    cases = []
    for workload in ("run_small", "run_large", "sweep_matrix"):
        cells, t_end, bump, _ = bench.WORKLOADS[workload]
        args = bench.cli_args(workload, Path(CFG_MARK), Path(OUT_MARK))
        args = args[:args.index("--out")]
        cases += [(f"{workload}_seed{seed}",
                   bench.config_text(cells, t_end, bump, seed), args)
                  for seed in CHECK_SEEDS]
    cfgs = sorted((ROOT / "tests" / "data" / "roundoff").glob("*.cfg"))
    cases += [(cfg.stem, cfg.read_text(), ["run", "--config", CFG_MARK])
              for cfg in cfgs + [ROOT / "tests" / "data" / "exit3.cfg"]]
    sweep = ["sweep", "--config", CFG_MARK]
    for axis in SWEEP_AXES:
        sweep += ["--axis", axis]
    text = (ROOT / "tests" / "data" / "sweep_jitter.cfg").read_text()
    return cases + [("sweep_jitter", text, sweep), ("verify", "", ["verify"])]


def check_set(parent_src: Path, change_src: Path, cases) -> int:
    """Record and compare each case on both versions; print its verdict and
    its largest relative change per kind, then report the set, with the
    largest change per kind over every case."""
    total = Verdict()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text, args in cases:
            case = Path(tmp) / name
            case.mkdir()
            cfg = case / "run.cfg"
            cfg.write_text(text)
            args = [str(cfg) if arg == CFG_MARK else arg for arg in args]
            trees = [case / "parent", case / "change"]
            codes = [record(src, tree, args)
                     for src, tree in zip((parent_src, change_src), trees)]
            verdict = compare_trees(*trees)
            total.problems += [f"{name}: {problem}" for problem in verdict.problems]
            total.identical &= verdict.identical
            for kind, (change, where) in verdict.largest.items():
                if change > total.largest.get(kind, (-1.0, ""))[0]:
                    total.largest[kind] = (change, f"{name}: {where}")
            largest = ", ".join(f"{kind} {change:.3g}" for kind, (change, _)
                                in sorted(verdict.largest.items()))
            print(f"{name}: exit {codes[0]} -> {codes[1]}, byte-identical: "
                  f"{'yes' if verdict.identical else 'no'}, round-off "
                  f"{'PASS' if verdict.ok else 'FAIL'}, largest change: "
                  f"{largest or 'none'}")
    return report(total)


def report(verdict: Verdict) -> int:
    for problem in verdict.problems:
        print(f"problem: {problem}")
    for kind, (change, where) in sorted(verdict.largest.items()):
        print(f"largest {kind} change: {change:.3g} ({where})")
    print(f"byte-identical: {'yes' if verdict.identical else 'no'}")
    print(f"round-off agreement (C = {C:g}): {'PASS' if verdict.ok else 'FAIL'}")
    return 0 if verdict.ok else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    cmd, rest = (argv[0], argv[1:]) if argv else ("", [])
    paths, args = (rest[:rest.index("--")], rest[rest.index("--") + 1:]) \
        if "--" in rest else (rest, [])
    if cmd == "compare" and len(paths) == 2 and not args:
        return report(compare_trees(*paths))
    if cmd == "record" and len(paths) == 2 and args:
        code = record(paths[0], Path(paths[1]), args)
        print(f"recorded exit code {code} in {paths[1]}")
        return 0
    if cmd == "check" and len(paths) == 2 and args:
        with tempfile.TemporaryDirectory() as tmp:
            trees = [Path(tmp) / name for name in ("parent", "change")]
            for src, tree in zip(paths, trees):
                record(src, tree, args)
            return report(compare_trees(*trees))
    if cmd == "check-set" and len(paths) == 2 and not args:
        return check_set(*paths, standard_cases())
    print("usage:" + __doc__.split("\n\n")[2], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
