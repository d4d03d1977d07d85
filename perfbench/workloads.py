"""The benchmark's workloads: generated documents, job lists and known answers.

Every structure comes from the library's own constructors and is written
as an `hpc-1` document, so nothing is downloaded.  Every expected answer
below follows from theory (stated next to it), never from a recorded run:

* k[ℤ/n] is commutative and cocommutative, so its adjoint coaction is
  trivial, every right ideal in ker ε is ad-invariant and every calculus
  built from one is bicovariant.
* The universal calculus has Γ = A² = ker m, of dimension n² − n, and its
  left-invariant frame is a basis of ker ε, of size n − 1.
* In k[x]/(xⁿ − 1) the ideal generated by x^i − 1 (i ∈ S) is generated by
  x^d − 1 with d = gcd(S ∪ {n}), so dim R = n − d, and a calculus built
  from R has Γ_α ≅ A_α ⊗ (ker ε / R) of dimension n·(d − 1) at every
  grading α, on the left and on the right route alike.
* F_p[ℤ/4] ≅ F_p[x]/(x⁴ − 1) is a product of fields: four copies of F_p
  when p ≡ 1 (mod 4), and F_p × F_p × F_{p²} when p ≡ 3 (mod 4).  Its
  ideals inside ker ε are the sums of the nontrivial factors, so there are
  2³ = 8 of them (dims 0,1,1,1,2,2,2,3) or 2² = 4 (dims 0,1,2,3).
* S = id on k[ℤ/n], n ≥ 3, breaks m(S⊗id)Δ(g) = g² = ε(g)1 and its mirror,
  and nothing else: id is still an invertible, unital, antimultiplicative
  (A is commutative) coalgebra map with ε∘id = ε.
* A calculus built on the left route is left covariant by construction.
* The Taft algebra's antipode has order four, and the extraction of the
  right-invariant functionals needs an involutive one, so `structure` on
  it ends in a reported violation (exit 1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from hopfpi import (
    HopfPiCoalgebra,
    Matrix,
    PrimeField,
    QQ,
    constant_family,
    cyclic,
    group_algebra,
    group_from_table,
    save_document,
    taft_hopf_algebra,
)

WORKLOADS = ("ladder-q", "ladder-fp", "graded-enumerate")

# Axiom checks that must be present in every passing `verify` report.
CORE_AXIOMS = ("coassociativity", "counit-left", "counit-right",
               "antipode-axiom-left", "antipode-axiom-right")
CALCULUS_CHECKS = ("leibniz", "surjectivity", "left-covariant",
                   "right-covariant", "bicovariant")
STRUCTURE_CHECKS = ("bicovariant", "reconstruction-roundtrip")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the checker for its known answer.

    `check` receives the parsed JSON report and returns a list of
    problems; None means the answer is the exit code alone.
    """

    label: str
    command: str
    argv: tuple
    exit_code: int
    check: Callable[[dict], list] | None


# ---------------------------------------------------------------------------
# structures


def s3_group():
    """S₃ as permutations of {0,1,2}, composed right to left."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    return group_from_table(table, names=("e", "r", "r2", "s", "sr", "sr2"))


def _with_identity_antipode(h: HopfPiCoalgebra) -> HopfPiCoalgebra:
    f = h.field
    return HopfPiCoalgebra(h.group, f, h.dims, h.comult, h.counit, h.mult, h.unit,
                           [Matrix.identity(f, h.n(a)) for a in h.group.elements()],
                           psi=h.psi, basis_names=h.basis_names)


def ideal_divisor(n: int) -> int:
    """The gcd class d the seeded generators of k[ℤ/n] are drawn from.

    The smallest prime factor of a composite n, else 1; fixing d fixes
    the ideal, so every seed asks for the same amount of work.
    """
    for q in range(2, n):
        if n % q == 0:
            return q
    return 1


def seeded_generators(rng: random.Random, field, n: int) -> list:
    """Vectors c·(g_i − e), i ∈ S, with gcd(S ∪ {n}) = ideal_divisor(n).

    The exponents and the nonzero scalars c come from the seed; the ideal
    they generate does not.
    """
    d = ideal_divisor(n)
    pool = [i for i in range(d, n, d)]
    while True:
        exps = sorted(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
        if math.gcd(n, *exps) == d:
            break
    gens = []
    for i in exps:
        if isinstance(field, PrimeField):
            c = rng.randint(1, field.p - 1)
            minus_c = field.p - c
        else:
            c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 5))
            minus_c = -c
        vec = [0] * n
        vec[i] = c
        vec[0] = minus_c
        gens.append(vec)
    return gens


# ---------------------------------------------------------------------------
# known answers


def _checks(report: dict) -> dict:
    return {c["name"]: c["status"] for c in report.get("checks", [])}


def _require(problems: list, cond: bool, message: str) -> None:
    if not cond:
        problems.append(message)


def _all_pass(problems: list, report: dict, required) -> None:
    checks = _checks(report)
    _require(problems, report.get("result") == "pass", f"result {report.get('result')!r}")
    failing = sorted(k for k, v in checks.items() if v != "pass")
    _require(problems, not failing, f"failing checks {failing}")
    missing = [k for k in required if k not in checks]
    _require(problems, not missing, f"missing checks {missing}")


def _ideal_rows(report: dict) -> list:
    """The `enumerate` table as one dict per ideal, keyed by column name."""
    table = report.get("tables", {}).get("right ideals in ker ε", {})
    cols = table.get("columns", [])
    return [dict(zip(cols, row)) for row in table.get("rows", [])]


def expect_verified(order: int, n: int) -> Callable:
    """Every axiom holds; every component has dimension n."""
    def check(report):
        problems: list = []
        _all_pass(problems, report, CORE_AXIOMS)
        dims = [v for k, v in report.get("dims", {}).items() if k.startswith("A_")]
        _require(problems, dims == [n] * order, f"component dims {dims}")
        return problems
    return check


def expect_antipode_broken() -> Callable:
    """S = id fails exactly the two antipode axioms."""
    def check(report):
        checks = _checks(report)
        failing = sorted(k for k, v in checks.items() if v != "pass")
        want = ["antipode-axiom-left", "antipode-axiom-right"]
        return [] if failing == want else [f"failing checks {failing}, want {want}"]
    return check


def expect_calculus(order: int, n: int, d: int | None) -> Callable:
    """Universal (d None) or ideal calculus on k[ℤ/n] graded by `order` copies."""
    gamma = n * n - n if d is None else n * (d - 1)
    dim_r = 0 if d is None else n - d

    def check(report):
        problems: list = []
        _all_pass(problems, report, CALCULUS_CHECKS)
        dims = report.get("dims", {})
        _require(problems, dims.get("ideal") == dim_r, f"dim R {dims.get('ideal')} want {dim_r}")
        _require(problems, dims.get("A2") == [n * n - n] * order, f"A2 {dims.get('A2')}")
        _require(problems, dims.get("Gamma") == [gamma] * order, f"Gamma {dims.get('Gamma')}")
        _require(problems, dims.get("N") == [n * n - n - gamma] * order, f"N {dims.get('N')}")
        _require(problems, "covariance: bicovariant" in report.get("notes", []),
                 f"notes {report.get('notes')}")
        return problems
    return check


def expect_structure(order: int, n: int) -> Callable:
    """Universal calculus on k[ℤ/n]: bicovariant, frame size n − 1, round trip."""
    def check(report):
        problems: list = []
        _all_pass(problems, report, STRUCTURE_CHECKS)
        dims = report.get("dims", {})
        _require(problems, dims.get("frame size") == n - 1,
                 f"frame size {dims.get('frame size')} want {n - 1}")
        _require(problems, dims.get("Gamma") == [n * n - n] * order, f"Gamma {dims.get('Gamma')}")
        return problems
    return check


def expect_enumerate_z4(order: int, p: int) -> Callable:
    """Right ideals in ker ε of F_p[ℤ/4] (any constant family of it)."""
    want_dims = [0, 1, 1, 1, 2, 2, 2, 3] if p % 4 == 1 else [0, 1, 2, 3]

    def check(report):
        problems: list = []
        _all_pass(problems, report, ("ad-invariance-matches-bicovariance",))
        rows = _ideal_rows(report)
        dims = sorted(r.get("dim R") for r in rows)
        _require(problems, dims == want_dims, f"ideal dims {dims} want {want_dims}")
        for r in rows:
            want_gamma = str([4 * (3 - r.get("dim R", 0))] * order)
            _require(problems, r.get("dim Γ") == want_gamma,
                     f"{r.get('ideal')}: dim Γ {r.get('dim Γ')} want {want_gamma}")
            for col in ("ad-invariant", "left", "right", "bicovariant", "thm-agree"):
                _require(problems, r.get(col) == "yes", f"{r.get('ideal')}: {col} {r.get(col)}")
        return problems
    return check


def expect_enumerate_left() -> Callable:
    """Every left-route calculus is left covariant; ad-invariance ⇔ bicovariance."""
    def check(report):
        problems: list = []
        _all_pass(problems, report, ("ad-invariance-matches-bicovariance",))
        rows = _ideal_rows(report)
        _require(problems, bool(rows), "no ideals listed")
        for r in rows:
            _require(problems, r.get("left") == "yes", f"{r.get('ideal')}: left {r.get('left')}")
            _require(problems, r.get("thm-agree") == "yes",
                     f"{r.get('ideal')}: thm-agree {r.get('thm-agree')}")
        return problems
    return check


# ---------------------------------------------------------------------------
# workload construction

# Sizes per workload; the smoke sizes are the smallest that keep every job.
LADDER_Q = {"full": (4, 5, 6), "smoke": (3,)}
LADDER_FP = {"full": (6, 8, 9), "smoke": (3,)}
ENUM_PRIME = 11  # the largest prime `enumerate` accepts


class _Builder:
    def __init__(self, out_dir: Path, rng: random.Random):
        self.out_dir = out_dir
        self.rng = rng
        self.jobs: list = []

    def doc(self, stem: str, h: HopfPiCoalgebra, ideals=None) -> str:
        path = self.out_dir / f"{stem}.json"
        save_document(path, h, name=stem, ideals=ideals)
        return str(path)

    def job(self, label, command, path, extra, exit_code, check):
        argv = (command, path, *extra, "--format", "json")
        self.jobs.append(Job(label, command, argv, exit_code, check))


def _ladder(b: _Builder, field, tag: str, sizes) -> None:
    for n in sizes:
        h = group_algebra(cyclic(n), field)
        gens = seeded_generators(b.rng, field, n)
        path = b.doc(f"{tag}_z{n}", h, ideals={"seeded": gens})
        d = ideal_divisor(n)
        name = f"{tag}[Z/{n}]"
        b.job(f"verify {name}", "verify", path, (), 0, expect_verified(1, n))
        b.job(f"calculus --universal {name}", "calculus", path, ("--universal",), 0,
              expect_calculus(1, n, None))
        b.job(f"calculus --ideal {name}", "calculus", path, ("--ideal", "seeded"), 0,
              expect_calculus(1, n, d))
        b.job(f"structure --universal {name}", "structure", path, ("--universal",), 0,
              expect_structure(1, n))
    n = sizes[-1]
    bad = b.doc(f"{tag}_z{n}_s_id", _with_identity_antipode(group_algebra(cyclic(n), field)))
    b.job(f"verify {tag}[Z/{n}] with S = id", "verify", bad, (), 1, expect_antipode_broken())
    taft = b.doc(f"{tag}_taft", taft_hopf_algebra(field))
    b.job(f"structure --universal Taft/{tag}", "structure", taft, ("--universal",), 1, None)
    fp = PrimeField(ENUM_PRIME)
    z4 = b.doc(f"f{ENUM_PRIME}_z4", group_algebra(cyclic(4), fp))
    b.job(f"enumerate F{ENUM_PRIME}[Z/4]", "enumerate", z4, (), 0,
          expect_enumerate_z4(1, ENUM_PRIME))


def _graded(b: _Builder, smoke: bool) -> None:
    grading = cyclic(2, names=("e", "t")) if smoke else s3_group()
    order = grading.order
    for p in (5, 7):
        field = PrimeField(p)
        h = constant_family(group_algebra(cyclic(4), field), grading)
        gens = seeded_generators(b.rng, field, 4)
        path = b.doc(f"f{p}_z4_family", h, ideals={"seeded": gens})
        name = f"F{p}[Z/4] family"
        d = ideal_divisor(4)
        b.job(f"verify {name}", "verify", path, (), 0, expect_verified(order, 4))
        b.job(f"enumerate {name}", "enumerate", path, (), 0, expect_enumerate_z4(order, p))
        for side in ((), ("--right",)):
            b.job(f"calculus --ideal {' '.join(side)} {name}", "calculus", path,
                  ("--ideal", "seeded", *side), 0, expect_calculus(order, 4, d))
    taft = b.doc(f"taft_f{ENUM_PRIME}", taft_hopf_algebra(PrimeField(ENUM_PRIME)))
    b.job(f"enumerate Taft/F{ENUM_PRIME}", "enumerate", taft, (), 0, expect_enumerate_left())
    fam = constant_family(group_algebra(cyclic(3), PrimeField(101)), grading)
    path = b.doc("f101_z3_family", fam)
    b.job("structure --universal F101[Z/3] family", "structure", path, ("--universal",), 0,
          expect_structure(order, 3))


def build(name: str, seed: int, out_dir: Path, smoke: bool = False) -> tuple:
    """Generate the workload's documents into `out_dir` and return its jobs."""
    size = "smoke" if smoke else "full"
    b = _Builder(out_dir, random.Random(f"{name}/{seed}"))
    if name == "ladder-q":
        _ladder(b, QQ, "Q", LADDER_Q[size])
    elif name == "ladder-fp":
        _ladder(b, PrimeField(101), "F101", LADDER_FP[size])
    elif name == "graded-enumerate":
        _graded(b, smoke)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return tuple(b.jobs)
