"""The three workloads: fixed job lists and the expectation each job meets.

A job is one command on one problem file, or one library-level check
instance.  ``Job.run`` is the timed call into the program; ``Job.check``
runs untimed afterwards and returns ``None`` when the outcome matches the
expectation, else a one-line reason.  Expectations are pinned values or
independent checks, never the program's own answer from the same run.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from qshift import cli, derham, diffops, quantise

import instances

HERE = Path(__file__).resolve().parent
PROBLEM_DIR = HERE / "problems"

# Milnor numbers, pinned.  For the Brieskorn-Pham sums x_1^a_1 + ... the
# exponents are listed as well, and mu = prod(a_i - 1) is checked against
# the pin.  x^4 + y^4 + x^2*y is not quasi-homogeneous; 9 is the global
# count (local mu = 5 at the origin plus 4 Morse points).
MILNOR = {
    "x3y3z3": (8, (3, 3, 3)),
    "x5y7": (24, (5, 7)),
    "x3y3": (4, (3, 3)),
    "x3y5": (8, (3, 5)),
    "x2y3": (2, (2, 3)),
    "x4": (3, (4,)),
    "x3xy": (1, None),
    "x4y4x2y": (9, None),
    "x3x2y2": (2, None),
}

# Quasi-homogeneity weights written down by hand, for the Milnor-Orlik
# closed form mu = prod(1/w_i - 1) (Milnor-Orlik 1970).
MILNOR_ORLIK_WEIGHTS = {
    "x3xy": (Fraction(1, 3), Fraction(2, 3)),
}

# The acceptance corpus of the test suite plus x^3+y^3+z^3.
OPERATOR_PROBLEMS = ("x2", "x3", "x4", "x2y2", "x3y3", "x3y5", "x2y3",
                     "x2y2z2", "x3xy", "x3y3z3")
FILTRATIONS = (("g", 1), ("ftilde", 0), ("conv", 2))
EIGEN_PS = (1, 2, 3)
EIGEN_K = 2
CHAIN_COUNT = 200
SCHOUTEN_COUNT = 200

# (problem, (order_cap, ydeg_cap, hbar_max), expected verdict).  The small
# windows hold no witness: the linear system is inconsistent.
WITNESS_JOBS = (
    ("x3y3", (2, 2, 4), derham.CompatVerdict.COBOUNDARY),
    ("x3y5", (2, 2, 4), derham.CompatVerdict.COBOUNDARY),
    ("x2y3", (2, 2, 4), derham.CompatVerdict.COBOUNDARY),
    ("x3y3z3", (1, 1, 3), derham.CompatVerdict.COBOUNDARY),
) + tuple((name, window, derham.CompatVerdict.FAILS)
          for name in ("x3y3", "x3y5")
          for window in ((0, 0, 2), (1, 0, 3), (2, 0, 4)))


def expected_mu(name):
    """The pinned Milnor number, checked against the Milnor-Orlik closed
    form mu = prod(1/w_i - 1) where the weights are known: w_i = 1/a_i for
    the Brieskorn-Pham sums, which makes it prod(a_i - 1)."""
    mu, exponents = MILNOR[name]
    weights = (tuple(Fraction(1, a) for a in exponents) if exponents
               else MILNOR_ORLIK_WEIGHTS.get(name))
    if weights is not None and mu != math.prod(1 / w - 1 for w in weights):
        raise ValueError(f"pinned mu of {name} disagrees with Milnor-Orlik")
    return mu


class Job:
    __slots__ = ("id", "run", "check")

    def __init__(self, job_id, run, check):
        self.id = job_id
        self.run = run
        self.check = check


class Workload:
    """Fixed job list, the warm-up subset, and what set-up must load."""

    def __init__(self, name, jobs, warmup, problem_names, info=None):
        self.name = name
        self.jobs = jobs
        self.warmup = warmup
        self.problem_names = problem_names
        self.info = info or {}

    def problem_paths(self):
        return [PROBLEM_DIR / f"{name}.qs" for name in self.problem_names]

    def setup_jobs(self):
        """Set-up as jobs, for the traced run: read, parse, build the locus."""
        def job(path):
            return Job(f"setup:{path.stem}",
                       lambda: cli.parse_problem(path.read_text()).crit_locus(),
                       lambda locus: None)
        return [job(path) for path in self.problem_paths()]


def load_problems(names):
    return {name: cli.parse_problem((PROBLEM_DIR / f"{name}.qs").read_text())
            for name in names}


def _expect_report(report, **fields):
    if report.status != "ok":
        return f"status {report.status}: {report.payload.get('reason', '')}"
    for key, want in fields.items():
        got = report.payload.get(key)
        if got != want:
            return f"{key} = {got!r}, expected {want!r}"
    return None


def _command_job(job_id, problem, cmd, flags, check):
    def run():
        return cli.run_command(cmd, problem, flags)
    return Job(job_id, run, check)


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

def cohomology(seed):
    names = list(MILNOR)
    problems = load_problems(names)
    jobs = []
    for name in names:
        mu = expected_mu(name)
        dims = {"0": mu}
        checks = {
            "milnor": lambda r, mu=mu: _expect_report(r, milnor=mu),
            "vc-dims": lambda r, dims=dims, mu=mu: _expect_report(
                r, dims=dims, total=mu, field="Q(hbar)", stabilised=True),
            "koszul-dims": lambda r, dims=dims, mu=mu: _expect_report(
                r, dims=dims, total=mu, field="Q", stabilised=True),
        }
        for cmd, check in checks.items():
            jobs.append(_command_job(f"{cmd}:{name}", problems[name], cmd, {},
                                     check))
    # one weight-mode and one degree-mode problem warm every code path
    warmup = [j for j in jobs if j.id.endswith((":x2y3", ":x3x2y2"))]
    return Workload("cohomology", jobs, warmup, names)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def _load_filtration_tables():
    with open(HERE / "expected" / "filtration.json") as fh:
        return json.load(fh)


def _filtration_check(table):
    def check(report):
        reason = _expect_report(report)
        if reason:
            return reason
        got = [[row["degree"], row["hbar_exp"], row["dim"]]
               for row in report.payload["dims"]]
        return None if got == table else "filtration table differs from the pin"
    return check


def _eigen_check(p, k):
    def check(report):
        return _expect_report(report, eigenvalues=[p], combined_scalar=1 - k,
                              invertible=True, diagonalisable=True)
    return check


def _chain_job(job_id, w, delta, X):
    def run():
        return derham.check_chain_identity(w, delta, X)

    def check(residual):
        return None if residual.is_zero() else "nonzero chain-identity residual"
    return Job(job_id, run, check)


def _schouten_job(job_id, P, Q, order):
    def run():
        return (diffops.schouten(P, Q),
                diffops.symbol(diffops.op_commutator(P.lift(), Q.lift()), order))

    def check(pair):
        bracket, via_commutator = pair
        return None if bracket == via_commutator else "Schouten routes disagree"
    return Job(job_id, run, check)


def operators(seed):
    names = list(OPERATOR_PROBLEMS)
    problems = load_problems(names)
    tables = _load_filtration_tables()
    jobs = []
    for name in names:
        problem = problems[name]
        jobs.append(_command_job(
            f"check-mc:{name}", problem, "check-mc", {},
            lambda r: _expect_report(r, residual_zero=True)
            or (None if not r.residual_terms else "residual terms reported")))
        jobs.append(_command_job(
            f"check-compat:{name}", problem, "check-compat", {},
            lambda r: _expect_report(r, verdict="ExactCocycleEquality")))
        jobs.append(_command_job(
            f"check-selfdual:{name}", problem, "check-selfdual", {},
            lambda r: _expect_report(r, verdict="Strict")))
        for kind, level in FILTRATIONS:
            label = f"{kind}{level}"
            jobs.append(_command_job(
                f"filtration-{label}:{name}", problem, "filtration",
                {"kind": kind, "level": level},
                _filtration_check(tables[f"{name}/{label}"])))
    for p in EIGEN_PS:
        jobs.append(_command_job(
            f"eigen-p{p}-k{EIGEN_K}:x3y3", problems["x3y3"], "eigen",
            {"p": p, "k": EIGEN_K}, _eigen_check(p, EIGEN_K)))

    draw = instances.Draw(seed)
    loci = {1: problems["x3"].crit_locus(), 2: problems["x3y3"].crit_locus()}
    non_mc = 0
    for i, (w, delta, m) in enumerate(instances.chain_instances(draw, CHAIN_COUNT)):
        X = loci[m]
        if not quantise.mc_residual(X, delta).is_zero():
            non_mc += 1
        jobs.append(_chain_job(f"chain:{i}", w, delta, X))
    for i, (P, Q, order) in enumerate(instances.schouten_pairs(draw, SCHOUTEN_COUNT)):
        jobs.append(_schouten_job(f"schouten:{i}", P, Q, order))

    # the first job of each kind; "eigen-p1-k2" stands for every eigen job
    first = {}
    for job in jobs:
        first.setdefault(job.id.split(":")[0].split("-p")[0], job)
    warmup = list(first.values())
    info = {"chain_instances": CHAIN_COUNT,
            "chain_non_mc": non_mc, "schouten_pairs": SCHOUTEN_COUNT}
    return Workload("operators", jobs, warmup, names, info)


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def _witness_job(name, X, window, expected):
    order_cap, ydeg_cap, hbar_max = window
    job_id = f"check_compatibility:{name}:{order_cap}-{ydeg_cap}-{hbar_max}"

    def run():
        omega = derham.DRWord.zero(X.m, 2)
        delta = quantise.bv_quantisation(X)
        verdict = derham.check_compatibility(
            omega, delta, X,
            derham.SearchWindow(order_cap, ydeg_cap, hbar_max=hbar_max))
        return omega, delta, verdict

    def check(out):
        omega, delta, verdict = out
        if verdict.kind != expected:
            return f"verdict {verdict.kind}, expected {expected}"
        if verdict.witness is None:
            return None
        target = (derham.mu(omega, delta, X)
                  - quantise.sigma_tangent(delta).eps_as_series())
        if quantise.centre_differential(X, delta, verdict.witness) != target:
            return "witness does not satisfy d(u) = mu(0) - sigma"
        return None
    return Job(job_id, run, check)


def witness(seed):
    names = sorted({name for name, _, _ in WITNESS_JOBS})
    loci = {name: p.crit_locus() for name, p in load_problems(names).items()}
    jobs = [_witness_job(name, loci[name], window, expected)
            for name, window, expected in WITNESS_JOBS]
    # the cheapest witness and the cheapest refusal
    warmup = [jobs[3], jobs[4]]
    return Workload("witness", jobs, warmup, names)


WORKLOADS = {"cohomology": cohomology, "operators": operators,
             "witness": witness}
