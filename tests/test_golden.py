"""Golden reports: every report payload the benchmark's commands produce on
the benchmark's problem files, pinned byte for byte (minus ``timing_ms``).

The witness workload calls ``check_compatibility`` as a library; its
verdicts are pinned as the ``check-compat`` payload fields they would give.
Regenerate the pin, after a deliberate change of output only, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from qshift import cli, derham, quantise

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "perfbench" / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"

COHOMOLOGY = ("x3y3z3", "x5y7", "x3y3", "x3y5", "x2y3", "x4", "x3xy",
              "x4y4x2y", "x3x2y2")
OPERATORS = ("x2", "x3", "x4", "x2y2", "x3y3", "x3y5", "x2y3", "x2y2z2",
             "x3xy", "x3y3z3")
# every filtration kind at levels 0..2 on these; the rest take three pairs
FILTRATION_GRID = ("x3", "x3y3z3")
EIGEN = ("x3", "x3y3", "x3y3z3")
WITNESS = (("x3y3", (2, 2, 4)), ("x3y5", (2, 2, 4)), ("x2y3", (2, 2, 4)),
           ("x3y3z3", (1, 1, 3))) + tuple(
    (name, window) for name in ("x3y3", "x3y5")
    for window in ((0, 0, 2), (1, 0, 3), (2, 0, 4)))


def _problem(name):
    return cli.parse_problem((PROBLEMS / f"{name}.qs").read_text())


def _jobs():
    """(job id, problem name, command, flags) for every benchmark command."""
    for name in COHOMOLOGY:
        for cmd in ("milnor", "vc-dims", "koszul-dims"):
            yield f"{cmd}:{name}", name, cmd, {}
    for name in OPERATORS:
        for cmd in ("check-mc", "check-compat", "check-selfdual"):
            yield f"{cmd}:{name}", name, cmd, {}
        pairs = ((("g", 1), ("ftilde", 0), ("conv", 2))
                 if name not in FILTRATION_GRID else
                 [(kind, level) for kind in ("g", "ftilde", "conv")
                  for level in (0, 1, 2)])
        for kind, level in pairs:
            yield (f"filtration-{kind}{level}:{name}", name, "filtration",
                   {"kind": kind, "level": level})
    for window in (0, 1, 2):
        yield (f"check-compat-w{window}:x3y3", "x3y3", "check-compat",
               {"window": window})
    for name in EIGEN:
        for p in (0, 1, 2, 3):
            for k in (1, 2, 3):
                yield (f"eigen-p{p}-k{k}:{name}", name, "eigen",
                       {"p": p, "k": k})


def _witness(name, window):
    X = _problem(name).crit_locus()
    order_cap, ydeg_cap, hbar_max = window
    verdict = derham.check_compatibility(
        derham.DRWord.zero(X.m, 2), quantise.bv_quantisation(X), X,
        derham.SearchWindow(order_cap, ydeg_cap, hbar_max=hbar_max))
    out = {"verdict": verdict.kind}
    if verdict.witness is not None:
        out["witness_terms"] = cli._residual_terms(verdict.witness)
    if verdict.residual is not None:
        out["residual_terms"] = cli._residual_terms(verdict.residual)
    return out


def reports():
    out = {}
    for job_id, name, cmd, flags in _jobs():
        report = cli.run_command(cmd, _problem(name), flags).as_dict()
        del report["timing_ms"]
        out[job_id] = report
    for name, window in WITNESS:
        out[f"check_compatibility:{name}:{'-'.join(map(str, window))}"] = \
            _witness(name, window)
    return out


def test_every_benchmark_report_matches_the_pin():
    """Each report serialises to the same JSON text, key order included."""
    want = json.loads(GOLDEN.read_text())
    got = reports()
    assert list(got) == list(want)
    for job_id in want:
        assert json.dumps(got[job_id]) == json.dumps(want[job_id]), job_id


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(reports(), indent=1) + "\n")
