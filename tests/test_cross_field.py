"""Cross-field oracle: one structure built over ℚ, F₇ and F₁₀₁ gets the
same answers everywhere the answer does not depend on the field.

k[ℤ/n] for n = 3…6 (no prime here divides n), the constant family of
k[ℤ/3] over ℤ/2 and the Taft algebra (characteristic ≠ 2) have the same
axiom verdicts, the same dim A², dim N and dim Γ for the universal
calculus and for the right ideals generated by g − e (and, on k[ℤ/n], by
g² − e, a proper ideal of ker ε when n is even) on both routes, the same
covariance and ad-invariance verdicts and the same frame size over each
field.  The Taft algebra fails its structure identities, and it must
fail them with the same check names over every field.  A slip in the one
elimination kernel that shows over one field only breaks the agreement.

The structure values themselves depend on the field, but only through
reduction: wherever f, g or R is extracted, its ℚ value reduces entrywise
mod p to its value over F_p.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from hopfpi import (
    Matrix,
    PrimeField,
    QQ,
    calculus_from_ideal,
    calculus_from_ideal_right,
    check_ad_invariant,
    check_bicovariant,
    check_left_covariant,
    check_right_covariant,
    constant_family,
    cyclic,
    extract_structure,
    group_algebra,
    right_ideal_from_generators,
    taft_hopf_algebra,
    verify_all,
    zero_ideal,
)

FIELDS = (QQ, PrimeField(7), PrimeField(101))

# name -> (structure over a field, the powers i of g whose g^i − e generate an ideal)
STRUCTURES = {
    **{f"k[Z/{n}]": (lambda f, n=n: group_algebra(cyclic(n), f), (1, 2)) for n in range(3, 7)},
    "k[Z/3] constant over Z/2":
        (lambda f: constant_family(group_algebra(cyclic(3), f), cyclic(2)), (1,)),
    "Taft": (taft_hopf_algebra, (1,)),
}


def _power_minus_e(h, i: int) -> tuple:
    """g^i − e in A_1: basis vector i minus basis vector 0, the unit (on
    k[ℤ/n] basis vector i is g^i; on Taft basis vector 1 is g)."""
    f = h.field
    return tuple(f.one() if k == i else f.neg(f.one()) if k == 0 else f.zero()
                 for k in range(h.n(h.group.identity)))


def _answers(h, powers) -> tuple[dict, dict]:
    """Every field-independent answer for one structure, and the structure
    data of each bicovariant calculus, keyed by (ideal label, route)."""
    verdict = verify_all(h)
    out: dict = {"axioms": (verdict.ok, sorted({v.check for v in verdict.violations}))}
    values: dict = {}
    ideals = {"universal": zero_ideal(h)}
    for i in powers:
        label = "g - e" if i == 1 else f"g^{i} - e"
        ideals[label] = right_ideal_from_generators(h, [_power_minus_e(h, i)])
    for label, ideal in ideals.items():
        out[label, "ideal"] = ideal.dim
        out[label, "ad-invariant"] = check_ad_invariant(h, ideal).ok
        for route, build in (("left", calculus_from_ideal), ("right", calculus_from_ideal_right)):
            calc = build(h, ideal)
            grp = h.group.elements()
            out[label, route, "dims"] = ([calc.asq.dim(a) for a in grp],
                                         [calc.kernels[a].dim for a in grp], calc.gamma_dims)
            bicov = check_bicovariant(calc).ok
            out[label, route, "covariance"] = (check_left_covariant(calc).ok,
                                               check_right_covariant(calc).ok, bicov)
            if not bicov:
                continue
            data = extract_structure(calc.to_bimodule())
            failed = sorted({v.check for v in data.report.violations})
            out[label, route, "structure"] = (data.size, failed, sorted(data.not_run))
            values[label, route] = data
    return out, values


@pytest.mark.parametrize("name", list(STRUCTURES))
def test_answers_agree_across_fields(name):
    build, powers = STRUCTURES[name]
    answers = [_answers(build(f), powers)[0] for f in FIELDS]
    for f, got in zip(FIELDS[1:], answers[1:]):
        assert got == answers[0], f"{name} over {f} differs from {FIELDS[0]}"
    first = answers[0]
    assert first["axioms"] == (True, [])
    assert any(key[-1] == "structure" for key in first), "no structure was extracted"


def test_group_algebra_answers_are_the_theory():
    """The agreed answers are the right ones: on k[ℤ/n] the universal
    calculus has dim Γ = n² − n and a frame of n − 1 elements; g − e
    generates ker ε (g generates ℤ/n), so its calculus is zero; g² − e
    generates the ideal of x^gcd(2,n) − 1 in k[x]/(x^n − 1), of dimension
    n − gcd(2, n), so for even n its calculus has dim Γ = n and a frame of
    one element."""
    for n in range(3, 7):
        got, _ = _answers(group_algebra(cyclic(n), PrimeField(101)), (1, 2))
        assert got["universal", "left", "dims"] == ([n * n - n], [0], [n * n - n])
        assert got["universal", "left", "structure"] == (n - 1, [], [])
        assert got["g - e", "ideal"] == n - 1
        assert got["g - e", "left", "dims"][2] == [0]
        d = 2 if n % 2 == 0 else 1
        assert got["g^2 - e", "ideal"] == n - d
        assert got["g^2 - e", "left", "dims"][2] == [n * (d - 1)]
        assert got["g^2 - e", "left", "structure"][0] == d - 1


def test_taft_fails_its_structure_identities_alike():
    """Taft's η left-multiplication rule needs an involutive antipode, so
    the universal calculus fails frame-multiplicativity over every field."""
    for f in FIELDS:
        got, _ = _answers(taft_hopf_algebra(f), (1,))
        size, failed, _ = got["universal", "left", "structure"]
        assert size == 3 and "frame-multiplicativity" in failed, f


def _reduce(m: Matrix, field: PrimeField) -> Matrix:
    """A matrix over ℚ reduced entrywise mod p; a denominator divisible by
    p has no reduction and raises ValueError."""
    p = field.p
    return Matrix(field, m.rows, m.cols, {
        k: Fraction(v).numerator * pow(Fraction(v).denominator, -1, p)
        for k, v in m.entries.items()})


@pytest.mark.parametrize("name", list(STRUCTURES))
def test_structure_values_reduce_mod_p(name):
    """Wherever f, g or R is extracted over ℚ it is extracted over F₇ and
    F₁₀₁ too, and reduces entrywise mod p to the value there."""
    build, powers = STRUCTURES[name]
    _, over_q = _answers(build(QQ), powers)
    assert any(data.f is not None and data.R is not None for data in over_q.values())
    for field in FIELDS[1:]:
        _, over_p = _answers(build(field), powers)
        assert over_p.keys() == over_q.keys()
        for key, data in over_q.items():
            for part in ("f", "g", "R"):
                want, got = getattr(data, part), getattr(over_p[key], part)
                assert (want is None) == (got is None), (key, part, field)
                if want is not None:
                    assert [_reduce(m, field) for m in want] == got, (key, part, field)
