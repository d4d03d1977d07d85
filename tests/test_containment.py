"""Containment decisions against the per-vector reference.

Covariance, sub-bimodule closure and ad-invariance are decided in
`calculus` by one product with a quotient projection per grading (pair).
The reference below decides the same containments one vector at a time:
each image vector is reduced against a target subspace built by
`oracles.subspace_tensor`.  Both must give the same violations, the same
`CodomainViolation` messages, the same ad-invariance reports and the same
induced coactions, on passing and on failing cases alike.
"""

from __future__ import annotations

import pytest

from hopfpi import (
    ad_map,
    calculus_from_ideal,
    calculus_from_ideal_right,
    calculus_from_kernels,
    check_ad_invariant,
    check_left_covariant,
    check_right_covariant,
    enumerate_right_ideals,
    induced_delta_l,
    induced_delta_r,
    load_document,
    phi_l,
    phi_r,
    r_inv,
    right_ideal_from_generators,
    t_inv,
    taft_hopf_algebra,
    universal_bimodule,
    universal_calculus,
    verify_all,
    zero_ideal,
)
from hopfpi.calculus import Fodc, RightIdeal
from hopfpi.errors import CodomainViolation, SingularMatrix, VerificationFailed
from hopfpi.hopf import Violation
from hopfpi.linalg import Matrix, PrimeField, Subspace, unit_vec, vec_kron
from oracles import (
    fodc_maps_by_two_quotients,
    full_space,
    left_action_ambient,
    right_action_ambient,
    subspace_contains,
    subspace_le,
    subspace_tensor,
)

STRUCTURES = [
    "kz2_rational.json", "f7_z3.json", "kz2_constant_z2.json", "f7z3_constant_z2.json",
    "taft4_rational.json", "q_z3_skew_basis.json", "kz2_bad_antipode.json",
    "taft over F7", "taft over F11"]


@pytest.fixture(scope="module", params=STRUCTURES)
def structure(request, fixture_dir):
    """Every fixture structure and the Taft algebra over F_7 and F_11."""
    if request.param.startswith("taft over F"):
        return taft_hopf_algebra(PrimeField(int(request.param[len("taft over F"):])))
    return load_document(fixture_dir / request.param).hopf


def _ideals(h) -> list[RightIdeal]:
    """All right ideals in ker ε where they can be enumerated; else the zero
    ideal, the ideal of each basis vector of ker ε and ker ε itself."""
    f = h.field
    ker_eps = h.counit_kernel()
    if isinstance(f, PrimeField) and f.p <= 11 and ker_eps.dim <= 3:
        return enumerate_right_ideals(h)
    gens = [[v] for v in ker_eps.basis.to_rows()] + [ker_eps.basis.to_rows()]
    return [zero_ideal(h)] + [right_ideal_from_generators(h, g) for g in gens]


# -- the per-vector reference ----------------------------------------------------


def _route_kernels(h, ideal: RightIdeal, side: str) -> list[Subspace]:
    """N_α = r_α^{-1}(A_α ⊗ R) (side "left") or t_α^{-1}(R ⊗ A_α) (side "right")."""
    f = h.field
    kernels = []
    for a in h.group.elements():
        full = full_space(f, h.n(a))
        if side == "left":
            m, domain = r_inv(h, a), subspace_tensor(full, ideal.subspace)
        else:
            m, domain = t_inv(h, a), subspace_tensor(ideal.subspace, full)
        kernels.append(Subspace.from_spanning(f, h.n(a) ** 2,
                                              [m.apply(v) for v in domain.basis.to_rows()]))
    return kernels


def _reference_sub_bimodule(h, kernels) -> str | None:
    """The CodomainViolation message of the first N_α outside A²_α, else of
    the first (α, w, e_i) whose product leaves N_α."""
    f = h.field
    asq = universal_bimodule(h)
    for a in h.group.elements():
        if not subspace_le(kernels[a], asq.sub[a]):
            return f"N_{a} is not contained in A²_{a}"
    for a in h.group.elements():
        n = h.n(a)
        la, ra = left_action_ambient(h, a), right_action_ambient(h, a)
        for w in kernels[a].basis.to_rows():
            for i in range(n):
                ei = unit_vec(f, n, i)
                if not subspace_contains(kernels[a], la.apply(vec_kron(f, ei, w))):
                    return f"N_{a} not closed under the left action"
                if not subspace_contains(kernels[a], ra.apply(vec_kron(f, w, ei))):
                    return f"N_{a} not closed under the right action"
    return None


def _reference_covariance(calc, side: str):
    """(violations, induced coactions or None) of one side, vector by vector."""
    h = calc.h
    f = h.field
    g = h.group
    left = side == "left"
    violations = []
    phis = {}
    for a in g.elements():
        for b in g.elements():
            if left:
                amb = phi_l(h, a, b)
                target = subspace_tensor(full_space(f, h.n(a)), calc.kernels[b])
            else:
                amb = phi_r(h, a, b)
                target = subspace_tensor(calc.kernels[a], full_space(f, h.n(b)))
            for j, w in enumerate(calc.kernels[g.mul(a, b)].basis.to_rows()):
                if not subspace_contains(target, amb.apply(w)):
                    violations.append(Violation(
                        f"{side}-covariance", (a, b), j,
                        "Φ^l maps an N basis vector outside A⊗N" if left
                        else "Φ^r maps an N basis vector outside N⊗A"))
            phis[(a, b)] = amb
    if violations:
        return violations, None
    coactions = {}
    for (a, b), amb in phis.items():
        outer = (Matrix.identity(f, h.n(a)).kron(calc.drop[b]) if left
                 else calc.drop[a].kron(Matrix.identity(f, h.n(b))))
        coactions[(a, b)] = outer @ amb @ calc.lift[g.mul(a, b)]
    return violations, coactions


def _reference_ad_invariance(h, ideal: RightIdeal) -> list[Violation]:
    f = h.field
    out = []
    for a in h.group.elements():
        ad = ad_map(h, a)
        target = subspace_tensor(ideal.subspace, full_space(f, h.n(a)))
        for j, v in enumerate(ideal.subspace.basis.to_rows()):
            if not subspace_contains(target, ad.apply(v)):
                out.append(Violation("ad-invariance", (a,), j,
                                     "ad maps an ideal basis vector outside R⊗A"))
    return out


# -- comparisons ----------------------------------------------------------------------


def _build(h, kernels):
    """(calculus or None, CodomainViolation message or None)."""
    try:
        return Fodc(h, kernels), None
    except CodomainViolation as exc:
        return None, str(exc)


def _assert_covariance_matches(calc) -> dict:
    h = calc.h
    pairs = [(a, b) for a in h.group.elements() for b in h.group.elements()]
    verdicts = {}
    for side, check, induced in (("left", check_left_covariant, induced_delta_l),
                                 ("right", check_right_covariant, induced_delta_r)):
        want, coactions = _reference_covariance(calc, side)
        assert check(calc).violations == want
        if coactions is not None:
            assert {(a, b): induced(calc, a, b) for a, b in pairs} == coactions
        verdicts[side] = not want
    return verdicts


def _zero_kernels(h) -> list[Subspace]:
    return [Subspace.zero_space(h.field, h.n(a) ** 2) for a in h.group.elements()]


def test_route_calculi_match_reference(structure):
    """Left- and right-route calculi of every ideal, and the universal
    calculus: same sub-bimodule verdict, violations and coactions.  On a
    structure that fails its axioms, which the routes refuse, the checked
    calculus of the same kernels is compared."""
    h = structure
    lawful = verify_all(h).ok
    seen = {"failed closure": 0, "failed covariance": 0}
    for ideal in _ideals(h):
        assert check_ad_invariant(h, ideal).violations == _reference_ad_invariance(h, ideal)
        for side, build in (("left", calculus_from_ideal), ("right", calculus_from_ideal_right)):
            try:
                kernels = _route_kernels(h, ideal, side)
            except SingularMatrix:              # t^{-1} needs an invertible antipode,
                assert not lawful               # which the axioms make it
                continue
            calc, message = _build(h, kernels)
            assert message == _reference_sub_bimodule(h, kernels)
            if calc is None:
                seen["failed closure"] += 1
                continue
            if lawful:
                assert build(h, ideal).kernels == calc.kernels
            verdicts = _assert_covariance_matches(calc)
            seen["failed covariance"] += not all(verdicts.values())
    universal = universal_calculus(h) if lawful else Fodc(h, _zero_kernels(h))
    assert _assert_covariance_matches(universal) == {"left": True, "right": True}
    if h.field == PrimeField(7) and h.n(0) == 4:       # Taft over F_7
        assert seen["failed covariance"] > 0


def test_taft_calculi_fail_one_side_like_the_reference():
    """On the Taft algebra the ideals that are not ad-invariant give left
    route calculi that are not right covariant and right route calculi that
    are not left covariant; both deciders list the same witnesses."""
    h = taft_hopf_algebra(PrimeField(11))
    failing = [i for i in enumerate_right_ideals(h) if not check_ad_invariant(h, i).ok]
    assert failing
    for ideal in failing:
        for side, build, other in (("left", calculus_from_ideal, "right"),
                                   ("right", calculus_from_ideal_right, "left")):
            calc = build(h, ideal)
            assert _assert_covariance_matches(calc) == {side: True, other: False}
            assert check_ad_invariant(h, ideal).violations == _reference_ad_invariance(h, ideal)


def _closure(h, alpha, vectors, action):
    """Smallest subspace of A_α⊗A_α containing `vectors` and closed under
    the left or right action of A_α."""
    f = h.field
    n = h.n(alpha)
    act = left_action_ambient(h, alpha) if action == "left" else right_action_ambient(h, alpha)
    span = Subspace.from_spanning(f, n * n, vectors)
    while True:
        grown = span.basis.to_rows()
        for w in span.basis.to_rows():
            for i in range(n):
                ei = unit_vec(f, n, i)
                grown.append(act.apply(vec_kron(f, ei, w) if action == "left" else vec_kron(f, w, ei)))
        bigger = Subspace.from_spanning(f, n * n, grown)
        if bigger.dim == span.dim:
            return span
        span = bigger


def test_kernel_families_that_are_not_sub_bimodules(structure):
    """Families with one nonzero N_α: one or two vectors of A²_α, and the
    closure of one under the left action only or the right action only,
    with a second vector added.  The CodomainViolation message (which
    action fails first) matches."""
    h = structure
    f = h.field
    asq = universal_bimodule(h)
    messages = set()
    for a in h.group.elements():
        basis = asq.sub[a].basis.to_rows()
        for k, w in enumerate(basis[:3]):
            other = basis[(k + 1) % len(basis)]
            left, right = _closure(h, a, [w], "left"), _closure(h, a, [w], "right")
            lrows, rrows = left.basis.to_rows(), right.basis.to_rows()
            for vectors in ([w], [w, other], lrows, rrows, [other, *lrows], [other, *rrows]):
                kernels = [Subspace.zero_space(f, h.n(b) ** 2) for b in h.group.elements()]
                kernels[a] = Subspace.from_spanning(f, h.n(a) ** 2, vectors)
                calc, message = _build(h, kernels)
                assert message == _reference_sub_bimodule(h, kernels)
                messages.add(message)
                if calc is not None:
                    _assert_covariance_matches(calc)
    if h.n(0) >= 3:
        assert {f"N_{a} not closed under the {side} action"
                for side in ("left", "right") for a in (0,)} <= messages


def test_calculus_maps_match_two_quotient_reference(structure):
    """Γ_α read off the projection P_α has the lift, drop, d and actions
    that a second quotient of A²_α by N_α in A² coordinates gives, for the
    universal calculus and the calculus of every ideal on both routes; on
    a structure that fails its axioms, for the checked calculus of the
    same kernels."""
    h = structure
    if verify_all(h).ok:
        calculi = [universal_calculus(h)]
        routes = [lambda ideal, build=build: build(h, ideal)
                  for build in (calculus_from_ideal, calculus_from_ideal_right)]
    else:
        calculi = [Fodc(h, _zero_kernels(h))]
        routes = [lambda ideal, side=side: Fodc(h, _route_kernels(h, ideal, side))
                  for side in ("left", "right")]
    for ideal in _ideals(h):
        for route in routes:
            try:
                calculi.append(route(ideal))
            except (SingularMatrix, CodomainViolation):
                continue
    for calc in calculi:
        want = fodc_maps_by_two_quotients(calc)
        assert (calc.lift, calc.drop, calc.d, calc.left, calc.right) == want


def _calculus_data(calc) -> dict:
    """Every map of a calculus, and the induced coactions of each side that
    is covariant (None for a side that is not)."""
    h = calc.h
    pairs = [(a, b) for a in h.group.elements() for b in h.group.elements()]
    data = {"kernels": calc.kernels, "lift": calc.lift, "drop": calc.drop,
            "d": calc.d, "left": calc.left, "right": calc.right}
    for side, check, induced in (("left", check_left_covariant, induced_delta_l),
                                 ("right", check_right_covariant, induced_delta_r)):
        data[side] = ({(a, b): induced(calc, a, b) for a, b in pairs}
                      if check(calc).ok else None)
    return data


def test_route_calculi_are_sub_bimodules_by_theorem(structure, monkeypatch):
    """The route calculi and the universal calculus skip the sub-bimodule
    tests, because N is a sub-bimodule by theorem once the axioms hold.
    The checked construction from their kernels must succeed and agree in
    every map and coaction.  On a structure that fails its axioms the
    routes raise the memoised verdict instead, N = 0 included, and the
    checked construction from the same kernels gives the reference
    sub-bimodule verdict."""
    h = structure
    verdict = verify_all(h)
    tested = []
    check = Fodc._check_sub_bimodule
    monkeypatch.setattr(Fodc, "_check_sub_bimodule",
                        lambda calc: tested.append(calc) or check(calc))
    agreed = 0
    routes = [(universal_calculus, None, None)] + [
        (build, ideal, side) for ideal in _ideals(h)
        for build, side in ((calculus_from_ideal, "left"), (calculus_from_ideal_right, "right"))]
    for build, ideal, side in routes:
        tested.clear()
        if verdict.ok:
            try:
                trusted = build(h) if ideal is None else build(h, ideal)
            except SingularMatrix:               # t^{-1} needs an invertible antipode
                continue
            assert tested == []
            checked = calculus_from_kernels(h, trusted.kernels)
            assert _calculus_data(checked) == _calculus_data(trusted)
        else:
            with pytest.raises(VerificationFailed) as err:
                build(h) if ideal is None else build(h, ideal)
            assert err.value.report.violations == verdict.violations
            assert tested == []
            try:
                kernels = _zero_kernels(h) if ideal is None else _route_kernels(h, ideal, side)
            except SingularMatrix:
                continue
            _, message = _build(h, kernels)
            assert message == _reference_sub_bimodule(h, kernels)
        agreed += 1
    assert agreed > 1
