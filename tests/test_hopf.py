"""Axiom verification, convolution and iterated comultiplication."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfpi import (
    HopfPiCoalgebra,
    algebra_generators,
    constant_family,
    cyclic,
    group_algebra,
    load_document,
    verify_all,
    verify_hopf,
    verify_pi_coalgebra,
)
from hopfpi.errors import DimensionMismatch, VerificationFailed
from hopfpi.hopf import HOPF_CHECKS, PI_CHECKS, PSI_CHECKS
from hopfpi.linalg import Matrix, PrimeField, QQ, unit_vec, vec_kron
from oracles import (
    GradedFunctional,
    comult_path,
    convolution,
    convolution_unit,
    counit_functional,
    flip,
    group_product,
    iterated_comult,
    s3_group,
    subspace_contains,
    words_span,
)


def test_axiom_suite_kz2(kz2):
    assert verify_pi_coalgebra(kz2).ok
    assert verify_hopf(kz2).ok


def test_axiom_suite_f7z3(f7z3):
    assert verify_pi_coalgebra(f7z3).ok
    assert verify_hopf(f7z3).ok


def test_axiom_suite_constant_families(kz2_const, f7z3_const):
    for h in (kz2_const, f7z3_const):
        assert verify_pi_coalgebra(h).ok
        assert verify_hopf(h).ok


def test_trivial_group_algebra():
    h = group_algebra(cyclic(1), QQ)
    assert verify_pi_coalgebra(h).ok and verify_hopf(h).ok
    assert h.antipode[0] == Matrix.identity(QQ, 1)


def _with_comult(h, new_comult):
    return HopfPiCoalgebra(h.group, h.field, h.dims, new_comult, h.counit,
                           h.mult, h.unit, h.antipode, psi=h.psi,
                           basis_names=h.basis_names)


def _replaced(h, **maps):
    """h with the named structure maps replaced."""
    parts = {"comult": h.comult, "counit": h.counit, "mult": h.mult, "unit": h.unit,
             "antipode": h.antipode, "psi": h.psi} | maps
    return HopfPiCoalgebra(h.group, h.field, h.dims, parts["comult"], parts["counit"],
                           parts["mult"], parts["unit"], parts["antipode"], psi=parts["psi"],
                           basis_names=h.basis_names)


def _bump(m: Matrix) -> Matrix:
    return m + Matrix(m.field, m.rows, m.cols, {(0, 0): m.field.one()})


def test_verify_all_emits_only_the_listed_check_names(fixture_dir):
    """`verify` reports the checks of hopf's lists; every name verify_all
    emits is among them, on every fixture document and on corruptions of a
    ℤ/2-graded family that between them fail every listed check."""
    structures = [load_document(path).hopf for path in sorted(fixture_dir.glob("*.json"))]
    h = load_document(fixture_dir / "kz2_constant_z2.json").hopf
    e = h.group.identity
    structures += [
        _replaced(h, comult={k: _bump(m) if k == (e, e) else m for k, m in h.comult.items()}),
        _replaced(h, comult={k: _bump(m) for k, m in h.comult.items()}),
        _replaced(h, counit=_bump(h.counit)),
        _replaced(h, mult=[_bump(m) for m in h.mult]),
        _replaced(h, unit=[tuple(h.field.add(x, x) for x in u) for u in h.unit]),
        _replaced(h, antipode=[_bump(m) for m in h.antipode]),
        _replaced(h, antipode=[Matrix(h.field, m.rows, m.cols) for m in h.antipode]),
        _replaced(h, psi=[_bump(m) for m in h.psi]),
    ]
    emitted = set()
    for s in structures:
        emitted |= {v.check for v in verify_all(s).violations}
    assert emitted == set(PI_CHECKS + HOPF_CHECKS + PSI_CHECKS)


def test_corrupted_comult_counit_violation(kz2):
    # Δ(u) = u⊗e instead of u⊗u
    one = Fraction(1)
    bad = Matrix(QQ, 4, 2, {(0, 0): one, (2, 1): one})  # e↦e⊗e, u↦u⊗e
    h = _with_comult(kz2, {(0, 0): bad})
    report = verify_pi_coalgebra(h)
    assert not report.ok
    names = {v.check for v in report.violations}
    assert "counit-left" in names or "counit-right" in names
    witnesses = [v for v in report.violations if v.check.startswith("counit")]
    assert any(v.basis_index == 1 for v in witnesses)  # the basis element u


def test_corrupted_antipode_violation(kz2):
    bad = Matrix(QQ, 2, 2, {(0, 0): Fraction(1), (0, 1): Fraction(1)})  # S(u) = e
    h = HopfPiCoalgebra(kz2.group, QQ, kz2.dims, kz2.comult, kz2.counit,
                        kz2.mult, kz2.unit, [bad], psi=kz2.psi,
                        basis_names=kz2.basis_names)
    report = verify_hopf(h)
    assert not report.ok
    axiom = [v for v in report.violations if v.check.startswith("antipode-axiom")]
    assert axiom and all(v.basis_index == 1 for v in axiom)
    assert any(v.check == "antipode-invertible" for v in report.violations)


def _renamed(h, names):
    return HopfPiCoalgebra(h.group, h.field, h.dims, h.comult, h.counit, h.mult, h.unit,
                           h.antipode, psi=h.psi, basis_names=names)


def test_default_basis_names_are_filled_in_once_per_dimension(kz2):
    """Names default to x0, x1, … at construction, one tuple object for
    every component of one dimension, so a family built without names
    shares them across gradings as it shares its matrices."""
    bare = _renamed(kz2, None)
    assert bare.basis_names == (("x0", "x1"),)
    assert bare.render_element(0, (1, -1)) == "x0 - x1"
    family = constant_family(bare, cyclic(3))
    assert {id(ns) for ns in family.basis_names} == {id(bare.basis_names[0])}
    assert verify_all(family).ok
    unnamed = HopfPiCoalgebra(family.group, QQ, family.dims, family.comult, family.counit,
                              family.mult, family.unit, family.antipode)
    assert unnamed.basis_names == family.basis_names
    assert len({id(ns) for ns in unnamed.basis_names}) == 1


def test_basis_names_are_checked_at_construction(kz2):
    """A list of names per component, each as long as the component."""
    for names in ([("e",)], [("e", "u", "v")], [("e", "u"), ("e", "u")], []):
        with pytest.raises(DimensionMismatch):
            _renamed(kz2, names)


def test_lemma_identities_hold_on_fixtures(all_fixtures):
    """The derived antipode identities are part of verify_hopf; re-run the
    comultiplication compatibility directly as a matrix identity."""
    for h in all_fixtures.values():
        g = h.group
        for a in g.elements():
            for b in g.elements():
                ab = g.mul(a, b)
                lhs = h.comult[(g.inv(b), g.inv(a))] @ h.antipode[ab]
                rhs = (flip(h.field, h.n(g.inv(a)), h.n(g.inv(b)))
                       @ h.antipode[a].kron(h.antipode[b]) @ h.comult[(a, b)])
                assert lhs == rhs
        assert h.counit @ h.antipode[g.identity] == h.counit


def test_unit_counit_identities(all_fixtures):
    for h in all_fixtures.values():
        g = h.group
        f = h.field
        assert h.counit.apply(h.unit[g.identity]) == (f.one(),)
        for a in g.elements():
            for b in g.elements():
                img = h.comult[(a, b)].apply(h.unit[g.mul(a, b)])
                assert img == vec_kron(f, h.unit[a], h.unit[b])


# -- convolution ---------------------------------------------------------------


def test_convolution_unit_of_counit(kz2):
    eps = kz2.counit
    assert convolution(kz2, 0, eps, 0, eps, Matrix.identity(QQ, 1)) == eps


def test_antipode_is_convolution_inverse_of_identity(all_fixtures):
    for h in all_fixtures.values():
        g = h.group
        e = g.identity
        for a in g.elements():
            ai = g.inv(a)
            eye = Matrix.identity(h.field, h.n(a))
            lhs = convolution(h, ai, h.antipode[ai], a, eye, h.mult[a])
            rhs = convolution(h, a, eye, ai, h.antipode[ai], h.mult[a])
            target = convolution_unit(h, e, h.unit[a], h.n(a))
            assert lhs == target and rhs == target


def test_id_convolved_with_id_on_kz2(kz2):
    eye = Matrix.identity(QQ, 2)
    sq = convolution(kz2, 0, eye, 0, eye, kz2.mult[0])
    assert sq.col(1) == (Fraction(1), Fraction(0))   # (id*id)(u) = u·u = e


def test_counit_is_unit_of_graded_convolution(all_fixtures):
    for h in all_fixtures.values():
        eps = counit_functional(h)
        # a functional supported everywhere, with deterministic entries
        comp = {a: tuple(h.field.from_int(i + a + 1) for i in range(h.n(a)))
                for a in h.group.elements()}
        u = GradedFunctional(h, comp)
        assert eps.conv(u).eq(u)
        assert u.conv(eps).eq(u)


# -- iterated comultiplication ---------------------------------------------------


def test_iterated_comult_identity_path(kz2):
    v = (Fraction(2), Fraction(5))
    assert iterated_comult(kz2, [0], v) == v


def test_iterated_comult_grouplike(kz2):
    u = (Fraction(0), Fraction(1))
    assert iterated_comult(kz2, [0, 0], u) == vec_kron(QQ, u, u)
    assert iterated_comult(kz2, [0, 0, 0], u) == vec_kron(QQ, vec_kron(QQ, u, u), u)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=4))
def test_iterated_comult_bracketing_independence(seed, length):
    """All bracketings of the same path agree (coassociativity)."""
    import random

    h = group_algebra(cyclic(3), PrimeField(7))
    hh = constant_family(h, cyclic(2))
    rng = random.Random(seed)
    path = tuple(rng.randrange(2) for _ in range(length))
    grading = group_product(hh.group, path)
    left_nested = comult_path(hh, path)

    # alternative bracketing: split at a random point and recurse
    def bracketed(p):
        if len(p) == 1:
            return Matrix.identity(hh.field, hh.n(p[0]))
        cut = rng.randint(1, len(p) - 1)
        lp, rp = p[:cut], p[cut:]
        lprod = group_product(hh.group, lp)
        rprod = group_product(hh.group, rp)
        return bracketed(lp).kron(bracketed(rp)) @ hh.comult[(lprod, rprod)]

    assert bracketed(path) == left_nested
    assert left_nested.cols == hh.n(grading)


# -- constructors ---------------------------------------------------------------


def test_constant_family_of_trivial_group_is_same_data(kz2):
    cf = constant_family(kz2, cyclic(1))
    assert cf.dims == kz2.dims
    assert cf.comult[(0, 0)] == kz2.comult[(0, 0)]
    assert cf.antipode[0] == kz2.antipode[0]


def test_constant_family_rejects_bad_base(kz2):
    bad = Matrix(QQ, 2, 2, {(0, 0): Fraction(1), (0, 1): Fraction(1)})
    broken = HopfPiCoalgebra(kz2.group, QQ, kz2.dims, kz2.comult, kz2.counit,
                             kz2.mult, kz2.unit, [bad], psi=kz2.psi)
    with pytest.raises(VerificationFailed):
        constant_family(broken, cyclic(2))


def test_group_algebra_psi_defaults_to_identity(f7z3):
    assert f7z3.psi is not None
    assert f7z3.psi[0] == Matrix.identity(f7z3.field, 3)


def test_iterated_comult_all_triples_agree_with_pentagon(f7z3_const):
    """Exhaustive bracketing check on length-3 paths over π = Z/2."""
    h = f7z3_const
    for path in itertools.product(h.group.elements(), repeat=3):
        a, b, c = path
        left = (h.comult[(a, b)].kron(Matrix.identity(h.field, h.n(c)))
                @ h.comult[(h.group.mul(a, b), c)])
        right = (Matrix.identity(h.field, h.n(a)).kron(h.comult[(b, c)])
                 @ h.comult[(a, h.group.mul(b, c))])
        assert left == right == comult_path(h, path)


def test_taft_algebra_verifies_with_order_four_antipode():
    from hopfpi import taft_hopf_algebra
    from hopfpi.hopf import verify_all

    t = taft_hopf_algebra(QQ)
    assert verify_all(t).ok
    s = t.antipode[0]
    s2 = s @ s
    assert s2 != Matrix.identity(QQ, 4)
    assert s2 @ s2 == Matrix.identity(QQ, 4)


def test_graded_convolution_is_associative(all_fixtures):
    """(u*v)*w = u*(v*w) in the graded dual, on deterministic samples."""
    import random

    rng = random.Random(97)
    for h in all_fixtures.values():
        f = h.field

        def rand_functional():
            return GradedFunctional(h, {
                a: tuple(f.from_int(rng.randint(-5, 5)) for _ in range(h.n(a)))
                for a in h.group.elements()})

        for _ in range(5):
            u, v, w = rand_functional(), rand_functional(), rand_functional()
            assert u.conv(v).conv(w).eq(u.conv(v.conv(w)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=2),
       st.integers(min_value=1, max_value=6))
def test_verifier_catches_single_entry_comult_corruption(entry, col, delta):
    """Adding any nonzero multiple of a basis tensor to one comultiplication
    column always breaks the counit law on a group algebra."""
    h = group_algebra(cyclic(3), PrimeField(7))
    m = h.comult[(0, 0)]
    bumped = dict(m.entries)
    key = (entry, col)
    bumped[key] = h.field.add(bumped.get(key, 0), delta % 7)
    if delta % 7 == 0:
        return
    corrupted = _with_comult(h, {(0, 0): Matrix(h.field, m.rows, m.cols, bumped)})
    report = verify_pi_coalgebra(corrupted)
    assert not report.ok
    assert any(v.check.startswith("counit") for v in report.violations)


# -- generators of A_1 ----------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=str)
@pytest.mark.parametrize("n", range(2, 10))
def test_a_cyclic_group_algebra_is_generated_by_g(n, field):
    """k[ℤ/n] is generated by g alone: its right words e, g, g², … are the
    whole group, which the word-by-word span confirms."""
    h = group_algebra(cyclic(n), field)
    gens = algebra_generators(h.mult[0], h.unit[0])
    assert gens == (1,)
    assert words_span(h.mult[0], h.unit[0], gens).dim == n


@pytest.mark.parametrize("name", ["taft over F7", "taft over F11", "F7[S3]"])
def test_two_generators_for_taft_and_s3(name):
    """The Taft algebra needs g and x (g alone spans 1, g), and k[S₃] two
    permutations (one generates a cyclic subgroup of order 2 or 3); the
    right words in the two span A_1."""
    from hopfpi import taft_hopf_algebra

    h = {"taft over F7": taft_hopf_algebra(PrimeField(7)),
         "taft over F11": taft_hopf_algebra(PrimeField(11)),
         "F7[S3]": group_algebra(s3_group(), PrimeField(7))}[name]
    gens = algebra_generators(h.mult[0], h.unit[0])
    assert len(gens) == 2
    assert words_span(h.mult[0], h.unit[0], gens).dim == h.n(0)
    if name.startswith("taft"):
        assert [h.basis_name(0, s) for s in gens] == ["g", "x"]
    assert words_span(h.mult[0], h.unit[0], gens[:1]).dim < h.n(0)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, PrimeField(2), PrimeField(7)]), st.integers(min_value=1, max_value=3),
       st.data())
def test_generators_on_any_multiplication(field, n, data):
    """On a random multiplication and unit, associative or not, S is
    ascending with at most dim A entries, and its words reach every basis
    vector after its last generator (all of them when S is empty): the
    closure stops only when none is left outside."""
    scalars = st.integers(min_value=0, max_value=2).map(field.from_int)
    m = Matrix(field, n, n * n, {(r, c): data.draw(scalars)
                                 for r in range(n) for c in range(n * n)})
    unit = tuple(data.draw(st.lists(scalars, min_size=n, max_size=n)))
    gens = algebra_generators(m, unit)
    assert len(gens) <= n and list(gens) == sorted(set(gens))
    span = words_span(m, unit, gens)
    for j in range(gens[-1] + 1 if gens else 0, n):
        assert subspace_contains(span, unit_vec(field, n, j))
