"""Differential calculi: universal bimodule, r/t maps, ideals, covariance, ad."""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfpi import (
    ad_map,
    algebra_generators,
    calculus_from_ideal,
    calculus_from_ideal_right,
    calculus_from_kernels,
    check_ad_invariant,
    check_bicovariant,
    check_left_covariant,
    check_right_covariant,
    constant_family,
    cyclic,
    enumerate_right_ideals,
    group_algebra,
    ideal_from_calculus,
    induced_delta_l,
    induced_delta_r,
    load_document,
    phi_l,
    phi_r,
    r_inv,
    r_map,
    right_ideal_from_generators,
    t_inv,
    t_map,
    taft_hopf_algebra,
    universal_bimodule,
    universal_calculus,
    verify_all,
    zero_ideal,
)
from hopfpi.cli import _DISPATCH, build_parser, main
from hopfpi.docio import Document
from hopfpi.errors import (
    NotCovariant,
    NotInKernelOfCounit,
    TooLarge,
    UnsupportedField,
    VerificationFailed,
)
from hopfpi.linalg import (
    Matrix,
    PrimeField,
    QQ,
    Subspace,
    kernel,
    rows_closed_under,
    unit_vec,
    vec_kron,
)
from oracles import (
    first_escape_by_vectors,
    flip,
    full_space,
    interchange_product,
    left_action_ambient,
    phi_l_restricted,
    phi_r_restricted,
    right_action_ambient,
    right_ideal_by_escapes,
    right_ideals_by_lifts,
    s3_group,
    spot_check_implication,
    subspace_contains,
    subspace_tensor,
    unshared,
)

F = Fraction


# -- universal bimodule -------------------------------------------------------


def test_universal_dims(all_fixtures):
    for h in all_fixtures.values():
        asq = universal_bimodule(h)
        for a in h.group.elements():
            n = h.n(a)
            assert asq.dim(a) == n * n - n


def test_d_values_kz2(kz2):
    asq = universal_bimodule(kz2)
    assert asq.D[0].col(1) == (F(0), F(1), F(-1), F(0))  # D(u) = e⊗u − u⊗e
    assert asq.sub[0].basis.to_rows() == [
        [F(1), F(0), F(0), F(-1)], [F(0), F(1), F(-1), F(0)]]


def test_d_of_unit_vanishes(all_fixtures):
    for h in all_fixtures.values():
        asq = universal_bimodule(h)
        for a in h.group.elements():
            img = asq.D[a].apply(h.unit[a])
            assert all(x == h.field.zero() for x in img)


def test_d_lands_in_kernel_of_mult(all_fixtures):
    for h in all_fixtures.values():
        asq = universal_bimodule(h)
        for a in h.group.elements():
            for j in range(h.n(a)):
                assert subspace_contains(asq.sub[a], asq.D[a].col(j))


# -- Φ^l / Φ^r ------------------------------------------------------------------


def test_phi_l_value_kz2(kz2):
    q = (F(0), F(1), F(-1), F(0))  # e⊗u − u⊗e
    img = phi_l(kz2, 0, 0).apply(q)
    want = vec_kron(QQ, (F(0), F(1)), q)  # u ⊗ (e⊗u − u⊗e)
    assert img == want


def test_phi_l_collapses_under_multiplication(all_fixtures):
    for h in all_fixtures.values():
        asq = universal_bimodule(h)
        for a in h.group.elements():
            for b in h.group.elements():
                ab = h.group.mul(a, b)
                collapse = Matrix.identity(h.field, h.n(a)).kron(h.mult[b]) @ phi_l(h, a, b)
                for w in asq.sub[ab].basis.to_rows():
                    assert all(x == h.field.zero() for x in collapse.apply(w))
                collapse_r = h.mult[a].kron(Matrix.identity(h.field, h.n(b))) @ phi_r(h, a, b)
                for w in asq.sub[ab].basis.to_rows():
                    assert all(x == h.field.zero() for x in collapse_r.apply(w))


def test_phi_restricted_shapes_constant_family(kz2_const):
    h = kz2_const
    asq = universal_bimodule(h)
    m = phi_l_restricted(h, 1, 1, asq)   # domain A²_1, codomain A_s ⊗ A²_s
    assert m.rows == h.n(1) * asq.dim(1)
    assert m.cols == asq.dim(0)
    mr = phi_r_restricted(h, 1, 1, asq)
    assert mr.rows == asq.dim(1) * h.n(1)
    assert mr.cols == asq.dim(0)


# -- r and t -------------------------------------------------------------------


def test_r_value_examples(kz2):
    r0 = r_map(kz2, 0)
    e_u = vec_kron(QQ, (F(1), F(0)), (F(0), F(1)))
    assert r0.apply(e_u) == vec_kron(QQ, (F(0), F(1)), (F(0), F(1)))  # u⊗u
    Du = (F(0), F(1), F(-1), F(0))
    assert r0.apply(Du) == (F(0), F(0), F(-1), F(1))  # u⊗(u−e)
    # second leg is in ker ε
    ker_eps = kz2.counit_kernel()
    assert subspace_contains(ker_eps, (F(-1), F(1)))


def test_r_t_are_bijections(all_fixtures):
    for h in all_fixtures.values():
        for a in h.group.elements():
            n2 = h.n(a) ** 2
            eye = Matrix.identity(h.field, n2)
            assert r_inv(h, a) @ r_map(h, a) == eye
            assert r_map(h, a) @ r_inv(h, a) == eye
            assert t_inv(h, a) @ t_map(h, a) == eye
            assert t_map(h, a) @ t_inv(h, a) == eye


def test_r_t_image_of_kernel(all_fixtures):
    """r(A²) = A ⊗ ker ε and t(A²) = ker ε ⊗ A as exact subspace equalities."""
    for h in all_fixtures.values():
        ker_eps = h.counit_kernel()
        asq = universal_bimodule(h)
        for a in h.group.elements():
            f = h.field
            n = h.n(a)
            r_img = Subspace.from_spanning(
                f, n * h.n(h.group.identity),
                [r_map(h, a).apply(v) for v in asq.sub[a].basis.to_rows()])
            assert r_img == subspace_tensor(full_space(f, n), ker_eps)
            t_img = Subspace.from_spanning(
                f, h.n(h.group.identity) * n,
                [t_map(h, a).apply(v) for v in asq.sub[a].basis.to_rows()])
            assert t_img == subspace_tensor(ker_eps, full_space(f, n))


def test_translation_coaction_identities(kz2_const):
    """(Δ⊗id)r = (id⊗r)Φ^l, (id⊗Δ)t = (t⊗id)Φ^r, and the counit collapses
    of Φ^l/Φ^r back to r and t, for all grading pairs."""
    h = kz2_const
    f = h.field
    e = h.group.identity
    for a in h.group.elements():
        for b in h.group.elements():
            ab = h.group.mul(a, b)
            lhs = h.comult[(a, b)].kron(Matrix.identity(f, h.n(e))) @ r_map(h, ab)
            rhs = Matrix.identity(f, h.n(a)).kron(r_map(h, b)) @ phi_l(h, a, b)
            assert lhs == rhs
            lhs_t = Matrix.identity(f, h.n(e)).kron(h.comult[(a, b)]) @ t_map(h, ab)
            rhs_t = t_map(h, a).kron(Matrix.identity(f, h.n(b))) @ phi_r(h, a, b)
            assert lhs_t == rhs_t
    for a in h.group.elements():
        collapse_l = (Matrix.identity(f, h.n(a)).kron(h.counit)
                      .kron(Matrix.identity(f, h.n(e))) @ phi_l(h, a, e))
        assert collapse_l == r_map(h, a)
        collapse_r = (h.counit.kron(Matrix.identity(f, h.n(e)))
                      .kron(Matrix.identity(f, h.n(a))) @ phi_r(h, e, a))
        assert collapse_r == t_map(h, a)


def test_invariants_of_universal_bimodule(all_fixtures):
    """Left invariant elements of A²_α are exactly r_α^{-1}(1_α ⊗ ker ε);
    right invariants are t_α^{-1}(ker ε ⊗ 1_α)."""
    for h in all_fixtures.values():
        f = h.field
        e = h.group.identity
        ker_eps = h.counit_kernel()
        asq = universal_bimodule(h)
        for a in h.group.elements():
            n = h.n(a)
            incl = asq.sub[a].inclusion_matrix()
            ins = Matrix.column(f, h.unit[e]).kron(incl)
            inv_coords = (phi_l(h, e, a) @ incl) - ins
            inv_sub = Subspace.from_spanning(
                f, n * n, [incl.apply(v) for v in kernel(inv_coords).basis.to_rows()])
            expected = Subspace.from_spanning(
                f, n * n,
                [r_inv(h, a).apply(vec_kron(f, tuple(h.unit[a]), x))
                 for x in ker_eps.basis.to_rows()])
            assert inv_sub == expected

            ins_r = incl.kron(Matrix.column(f, h.unit[e]))
            invr_coords = (phi_r(h, a, e) @ incl) - ins_r
            invr_sub = Subspace.from_spanning(
                f, n * n, [incl.apply(v) for v in kernel(invr_coords).basis.to_rows()])
            expected_r = Subspace.from_spanning(
                f, n * n,
                [t_inv(h, a).apply(vec_kron(f, y, tuple(h.unit[a])))
                 for y in ker_eps.basis.to_rows()])
            assert invr_sub == expected_r


# -- calculi from ideals ---------------------------------------------------------


def test_ideal_from_generators_examples(kz2, f7z3):
    assert right_ideal_from_generators(kz2, []).dim == 0
    ker = right_ideal_from_generators(kz2, [(F(1), F(-1))])
    assert ker.dim == 1
    idem = right_ideal_from_generators(f7z3, [(5, 6, 3)])
    assert idem.dim == 1
    with pytest.raises(NotInKernelOfCounit):
        right_ideal_from_generators(kz2, [(F(1), F(0))])


IDEAL_ALGEBRAS = [group_algebra(cyclic(n), field) for field in (PrimeField(7), QQ)
                  for n in (2, 3, 4, 5)] + [taft_hopf_algebra(QQ), taft_hopf_algebra(PrimeField(7))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(IDEAL_ALGEBRAS),
       st.lists(st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
                max_size=3))
def test_one_product_generates_the_ideal_of_the_fixed_point_loop(h, raw):
    """G·A_1 as one image equals the span closed under right
    multiplication one escape at a time, on commutative k[ℤ/n] over F_7
    and ℚ and on the non-commutative Taft algebra; each random generator
    is moved into ker ε by subtracting ε(v)·1."""
    f = h.field
    e = h.group.identity
    n1 = h.n(e)
    gens = []
    for entries in raw:
        v = [f.from_int(x) for x in entries[:n1]]
        eps = h.counit.apply(v)[0]
        gens.append(tuple(f.sub(x, f.mul(eps, u)) for x, u in zip(v, h.unit[e])))
    assert right_ideal_from_generators(h, gens).subspace == right_ideal_by_escapes(h, gens)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(IDEAL_ALGEBRAS),
       st.lists(st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
                max_size=4),
       st.booleans())
def test_one_product_finds_the_first_escape_of_the_vector_loop(h, raw, into_ker_eps):
    """_first_escape, one product against the quotient projection, gives
    the verdict and the (k, j) of the loop that applies m_1 to one w_k⊗e_j
    at a time, on random subspaces of A_1 of commutative k[ℤ/n] over F_7
    and ℚ and of the non-commutative Taft algebra; inside ker ε, RightIdeal
    accepts exactly the closed ones and names the loop's product."""
    from hopfpi.calculus import RightIdeal, _first_escape
    from hopfpi.errors import NotARightIdeal

    f = h.field
    e = h.group.identity
    n1 = h.n(e)
    vectors = []
    for entries in raw:
        v = [f.from_int(x) for x in entries[:n1]]
        if into_ker_eps:
            eps = h.counit.apply(v)[0]
            v = [f.sub(x, f.mul(eps, u)) for x, u in zip(v, h.unit[e])]
        vectors.append(v)
    sub = Subspace.from_spanning(f, n1, vectors)
    escape = first_escape_by_vectors(h, sub)
    assert _first_escape(h.mult[e], sub, n1) == (None if escape is None else escape[:2])
    if not into_ker_eps:
        return
    if escape is None:
        assert RightIdeal(h, sub).subspace == sub
        return
    k, j, _ = escape
    witness = f"({h.render_element(e, sub.basis.row(k))})·{h.basis_name(e, j)} leaves the span"
    with pytest.raises(NotARightIdeal) as err:
        RightIdeal(h, sub)
    assert str(err.value) == witness


@pytest.mark.parametrize("field", [PrimeField(7), QQ])
def test_first_escape_past_a_closed_basis_vector(field):
    """In k[ℤ/4], span{e + g², g, g³} has the closed basis vector e + g²
    first, so its first escape is (1, 1), g·g = g², which the smallest
    nonzero column of the product has to find, as the loop does."""
    from hopfpi.calculus import _first_escape

    h = group_algebra(cyclic(4), field)
    one, zero = field.one(), field.zero()
    sub = Subspace.from_spanning(field, 4, [(one, zero, one, zero), (zero, one, zero, one),
                                            (zero, zero, zero, one)])
    assert sub.pivots == (0, 1, 3)
    assert _first_escape(h.mult[0], sub, 4) == (1, 1) == first_escape_by_vectors(h, sub)[:2]


ROW_TEST_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(11)]


@st.composite
def _subspace_and_maps(draw):
    """A random RREF subspace W of k^d, d ≤ 4, spanned by a random number
    (at most d) of random vectors, and d random d×d maps: either all of
    them map W into W, or each one does at random.  Such a map is B T B⁻¹,
    with B the basis of W completed by the unit vectors off its pivots and
    T block upper triangular."""
    f = draw(st.sampled_from(ROW_TEST_FIELDS))
    d = draw(st.integers(min_value=1, max_value=4))
    if f == QQ:
        scalars = st.builds(lambda a, b: f.mul(f.from_int(a), f.inv(f.from_int(b))),
                            st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3))
    else:
        scalars = st.integers(min_value=0, max_value=f.p - 1)
    k = draw(st.integers(min_value=0, max_value=d))
    vectors = draw(st.lists(st.lists(scalars, min_size=d, max_size=d), min_size=k, max_size=k))
    sub = Subspace.from_spanning(f, d, vectors)
    complement = [c for c in range(d) if c not in sub.pivots]
    columns = sub.basis.to_rows() + [unit_vec(f, d, c) for c in complement]
    b = Matrix(f, d, d, {(r, c): x for c, col in enumerate(columns) for r, x in enumerate(col)})
    invariant = draw(st.booleans())
    maps = []
    for _ in range(d):
        t = Matrix(f, d, d, {(r, c): draw(scalars) for r in range(d) for c in range(d)})
        if invariant or draw(st.booleans()):
            t = Matrix(f, d, d, {(r, c): x for (r, c), x in t.entries.items()
                                 if c >= sub.dim or r < sub.dim})
            t = b @ t @ b.inverse()
        maps.append(t)
    return f, sub, maps


@settings(max_examples=200, deadline=None)
@given(_subspace_and_maps())
def test_row_test_matches_the_product_and_the_vector_loop(case):
    """linalg.rows_closed_under on the RREF rows of W and d maps g_j gives
    the verdict of _first_escape on the action whose column c·d + j is
    g_j e_c, and of the vector loop first_escape_by_vectors on a structure
    of dimension d whose multiplication is that action."""
    from hopfpi.calculus import _first_escape
    from hopfpi.hopf import HopfPiCoalgebra

    f, sub, maps = case
    d = sub.ambient_dim
    action = Matrix(f, d, d * d, {(r, c * d + j): x for j, g in enumerate(maps)
                                  for (r, c), x in g.entries.items()})
    base = group_algebra(cyclic(d), f)
    acting = HopfPiCoalgebra(base.group, f, base.dims, base.comult, base.counit, [action],
                             base.unit, base.antipode, psi=base.psi, basis_names=base.basis_names)
    closed = rows_closed_under(sub.basis.to_rows(), sub.pivots, maps)
    assert closed == (_first_escape(action, sub, d) is None)
    assert closed == (first_escape_by_vectors(acting, sub) is None)


def test_non_associative_product_is_named_by_the_closure_check():
    """On an A_1 that is not associative, G·A_1 need not be closed;
    right_ideal_from_generators then raises NotARightIdeal naming the
    first product that leaves, the one the vector loop finds.  Here g·g
    in F_7[ℤ/4] is moved by g − e, a vector of ker ε, so ε stays
    multiplicative and G·A_1 stays inside ker ε."""
    from hopfpi.errors import NotARightIdeal
    from hopfpi.hopf import HopfPiCoalgebra
    from hopfpi.linalg import image

    h = group_algebra(cyclic(4), PrimeField(7))
    f = h.field
    mult = h.mult[0] + Matrix(f, 4, 16, {(0, 5): 6, (1, 5): 1})
    bad = HopfPiCoalgebra(h.group, f, h.dims, h.comult, h.counit, [mult], h.unit,
                          h.antipode, psi=h.psi, basis_names=h.basis_names)
    assert "algebra-associativity" in {v.check for v in verify_all(bad).violations}
    gen = (6, 0, 1, 0)                                  # g² − e
    span = image(mult.on_leg(Matrix.column(f, gen), 1, 4, 1))
    k, j, _ = first_escape_by_vectors(bad, span)
    witness = f"({bad.render_element(0, span.basis.row(k))})·{bad.basis_name(0, j)} leaves the span"
    with pytest.raises(NotARightIdeal) as err:
        right_ideal_from_generators(bad, [gen])
    assert str(err.value) == witness


ENUMERABLE = ["F7[Z/3]", "F3[Z/2]", "F11[Z/4]", "taft over F7", "taft over F11",
              "F7[Z/3] constant"]


def _enumerable(name, f7z3, f7z3_const):
    return {"F7[Z/3]": f7z3,
            "F3[Z/2]": group_algebra(cyclic(2), PrimeField(3)),
            "F11[Z/4]": group_algebra(cyclic(4), PrimeField(11)),
            "taft over F7": taft_hopf_algebra(PrimeField(7)),
            "taft over F11": taft_hopf_algebra(PrimeField(11)),
            "F7[Z/3] constant": f7z3_const}[name]


@pytest.mark.parametrize("name", ENUMERABLE)
def test_enumeration_matches_the_lift_then_loop_enumeration(name, f7z3, f7z3_const):
    """Testing each candidate in ker-ε coordinates against the generators
    of A_1 finds the ideals, in the order, of lifting every candidate into
    A_1 and closing it there one product v·e_j at a time, for every
    basis vector e_j."""
    h = _enumerable(name, f7z3, f7z3_const)
    want = right_ideals_by_lifts(h)
    assert len(want) > 1
    assert enumerate_right_ideals(h) == want
    assert enumerate_right_ideals(h, max_dim=1) == right_ideals_by_lifts(h, max_dim=1)


@pytest.mark.parametrize("name", ENUMERABLE)
def test_generators_decide_every_candidate_as_the_whole_basis_does(name, f7z3, f7z3_const):
    """Every candidate subspace of ker ε gets one verdict from the row
    test against the generators of A_1, from the row test against every
    basis vector of A_1, and from _first_escape's product against the
    whole right action; as many pass as the lift-then-loop oracle finds
    ideals."""
    from hopfpi.calculus import _all_rref_subspaces, _first_escape, _kernel_action

    h = _enumerable(name, f7z3, f7z3_const)
    f, e = h.field, h.group.identity
    n1 = h.n(e)
    ker_eps = h.counit_kernel()
    k = ker_eps.dim
    action = _kernel_action(ker_eps, h.mult[e])

    def right_by(indices):
        return [action.on_leg(Matrix.column(f, unit_vec(f, n1, s)), k, 1, 1) for s in indices]

    gens = algebra_generators(h.mult[e], h.unit[e])
    assert len(gens) < n1
    by_gens, by_basis = right_by(gens), right_by(range(n1))
    verdicts = Counter()
    for rows, pivots in _all_rref_subspaces(f, k, k):
        closed = rows_closed_under(rows, pivots, by_gens)
        assert closed == rows_closed_under(rows, pivots, by_basis)
        sub = Subspace(Matrix(f, len(rows), k, {
            (r, c): x for r, row in enumerate(rows) for c, x in enumerate(row)}), pivots)
        assert closed == (_first_escape(action, sub, n1) is None)
        verdicts[closed] += 1
    assert verdicts[True] == len(right_ideals_by_lifts(h))


def test_generators_are_found_once_per_multiplication_and_unit(monkeypatch):
    """Enumeration reads the generators of A_1 from h.shared: over the
    F₇[ℤ/4] family over S₃, repeated enumerations, bounded or not, find
    them once for the family's (m_1, 1_1) and once for those of its
    unshared copy."""
    import hopfpi.calculus as calc_mod

    found = Counter()
    real = calc_mod.algebra_generators

    def counted(m, unit):
        found[(id(m), id(unit))] += 1
        return real(m, unit)

    monkeypatch.setattr(calc_mod, "algebra_generators", counted)
    h = constant_family(group_algebra(cyclic(4), PrimeField(7)), s3_group())
    copy = unshared(h)
    for family in (h, copy, h, copy):
        assert len(enumerate_right_ideals(family)) == 4
        assert len(enumerate_right_ideals(family, max_dim=1)) == 2
    e = h.group.identity
    assert found == {(id(h.mult[e]), id(h.unit[e])): 1, (id(copy.mult[e]), id(copy.unit[e])): 1}


@pytest.mark.parametrize("name", ["F11[Z/4]", "F7[Z/3]", "taft over F7"])
def test_enumeration_stops_at_the_dimension_bound(name, f7z3, monkeypatch):
    """For every max_dim from −1 to dim ker ε, enumeration lists exactly
    the ideals of the unbounded enumeration up to that dimension, and
    generates no candidate subspace above it."""
    from hopfpi import calculus as calc_mod

    h = {"F11[Z/4]": group_algebra(cyclic(4), PrimeField(11)),
         "F7[Z/3]": f7z3,
         "taft over F7": taft_hopf_algebra(PrimeField(7))}[name]
    everything = enumerate_right_ideals(h)
    candidates = calc_mod._all_rref_subspaces
    generated = []

    def recording(*args):
        for rows, pivots in candidates(*args):
            assert len(rows) == len(pivots)
            generated.append(len(pivots))
            yield rows, pivots

    monkeypatch.setattr(calc_mod, "_all_rref_subspaces", recording)
    for bound in range(-1, h.counit_kernel().dim + 1):
        generated.clear()
        assert enumerate_right_ideals(h, max_dim=bound) == [
            ideal for ideal in everything if ideal.dim <= bound]
        assert max(generated, default=-1) == bound


def test_enumeration_requires_the_axioms(f7z3):
    """ker-ε coordinates are exact only when the axioms hold: on F_7[ℤ/3]
    with S = id, enumeration raises the memoised verdict of verify_all."""
    from hopfpi.hopf import HopfPiCoalgebra

    bad = HopfPiCoalgebra(f7z3.group, f7z3.field, f7z3.dims, f7z3.comult, f7z3.counit,
                          f7z3.mult, f7z3.unit, [Matrix.identity(f7z3.field, 3)],
                          psi=f7z3.psi, basis_names=f7z3.basis_names)
    verdict = verify_all(bad).violations
    assert verdict
    with pytest.raises(VerificationFailed) as err:
        enumerate_right_ideals(bad)
    assert err.value.report.violations == verdict


def test_counit_witness_is_the_first_generator_outside_ker_eps(f7z3):
    """RightIdeal names the first basis vector with ε ≠ 0 and its ε, and
    right_ideal_from_generators the first such generator."""
    from hopfpi.calculus import RightIdeal

    sub = Subspace.from_spanning(f7z3.field, 3, [(1, 0, 1), (0, 1, 5)])    # ε = 2, 6
    with pytest.raises(NotInKernelOfCounit, match=r"^generator e \+ g2 has ε = 2$"):
        RightIdeal(f7z3, sub)
    with pytest.raises(NotInKernelOfCounit, match=r"^generator g has nonzero counit$"):
        right_ideal_from_generators(f7z3, [(1, 6, 0), (0, 1, 0), (0, 0, 1)])


def test_calculus_dimensions(kz2, f7z3):
    assert calculus_from_ideal(kz2, zero_ideal(kz2)).gamma_dims == [2]
    ker = right_ideal_from_generators(kz2, [(F(1), F(-1))])
    assert calculus_from_ideal(kz2, ker).gamma_dims == [0]
    idem = right_ideal_from_generators(f7z3, [(5, 6, 3)])
    assert calculus_from_ideal(f7z3, idem).gamma_dims == [3]


def test_right_route_dimensions_match(f7z3):
    for ideal in enumerate_right_ideals(f7z3):
        left = calculus_from_ideal(f7z3, ideal)
        right = calculus_from_ideal_right(f7z3, ideal)
        assert left.gamma_dims == right.gamma_dims
        n = f7z3.n(0)
        assert left.dim(0) == n * (n - 1) - n * ideal.dim


def test_right_route_is_right_covariant(kz2, f7z3):
    for h in (kz2, f7z3):
        gens = [] if h is kz2 else [(5, 6, 3)]
        ideal = right_ideal_from_generators(h, gens)
        calc = calculus_from_ideal_right(h, ideal)
        assert check_right_covariant(calc).ok


def test_left_route_is_left_covariant_and_leibniz(all_fixtures):
    for h in all_fixtures.values():
        for ideal in (zero_ideal(h),):
            calc = calculus_from_ideal(h, ideal)
            assert check_left_covariant(calc).ok
            assert calc.leibniz_report().ok
            assert calc.surjectivity_report().ok


def test_universal_calculus_bicovariant(all_fixtures):
    for h in all_fixtures.values():
        calc = universal_calculus(h)
        assert check_bicovariant(calc).ok
        assert spot_check_implication(calc).ok


# -- induced coactions ------------------------------------------------------------


def test_induced_delta_counit_law(kz2):
    calc = universal_calculus(kz2)
    dl = induced_delta_l(calc, 0, 0)
    collapse = kz2.counit.kron(Matrix.identity(QQ, calc.dim(0))) @ dl
    assert collapse == Matrix.identity(QQ, calc.dim(0))


def test_induced_delta_on_differentials(all_fixtures):
    """Δ^l d = (id⊗d)Δ and Δ^r d = (d⊗id)Δ."""
    for h in all_fixtures.values():
        calc = universal_calculus(h)
        f = h.field
        for a in h.group.elements():
            for b in h.group.elements():
                ab = h.group.mul(a, b)
                dl = induced_delta_l(calc, a, b)
                lhs = dl @ calc.d[ab]
                rhs = Matrix.identity(f, h.n(a)).kron(calc.d[b]) @ h.comult[(a, b)]
                assert lhs == rhs
                dr = induced_delta_r(calc, a, b)
                assert dr @ calc.d[ab] == calc.d[a].kron(Matrix.identity(f, h.n(b))) @ h.comult[(a, b)]


def test_delta_l_of_d_u_kz2(kz2):
    calc = universal_calculus(kz2)
    dl = induced_delta_l(calc, 0, 0)
    du = calc.d[0].col(1)
    # Δ^l(d u) = u ⊗ d(u)
    assert dl.apply(du) == vec_kron(QQ, (F(0), F(1)), du)


def test_bicovariance_compatibility_exhaustive(kz2_const):
    """The compatibility law on every grading triple, computed on the
    calculus's bimodule by the full law verification."""
    calc = universal_calculus(kz2_const)
    assert check_bicovariant(calc).ok
    cb = calc.to_bimodule()
    assert cb.bicovariant
    assert cb.verify().ok


# -- synthetic non-covariant sub-bimodule -------------------------------------------


def _subbimodule_search(h):
    """Brute force: all subspaces of A² over F_p that are sub-bimodules."""
    asq = universal_bimodule(h)
    f = h.field
    sub = asq.sub[0]
    n = h.n(0)
    la = left_action_ambient(h, 0)
    ra = right_action_ambient(h, 0)
    found = []
    from hopfpi.calculus import _all_rref_subspaces

    for rows, _ in _all_rref_subspaces(f, sub.dim, sub.dim):
        incl = sub.inclusion_matrix()
        lifted = Subspace.from_spanning(f, n * n, [incl.apply(v) for v in rows])
        ok = True
        for w in lifted.basis.to_rows():
            for i in range(n):
                ei = unit_vec(f, n, i)
                if not subspace_contains(lifted, la.apply(vec_kron(f, ei, w))):
                    ok = False
                if not subspace_contains(lifted, ra.apply(vec_kron(f, w, ei))):
                    ok = False
        if ok:
            found.append(lifted)
    return found


def test_synthetic_non_covariant_kernel():
    """Over F_3[Z/2] the sub-bimodule span{q1+q2} is not covariant on
    either side; the quotient is still a valid calculus."""
    h = group_algebra(cyclic(2), PrimeField(3), names=("e", "u"))
    subs = _subbimodule_search(h)
    # 0, two diagonal lines, and the whole space
    assert len(subs) == 4
    bad = [s for s in subs if s.dim == 1]
    assert len(bad) == 2
    hit_non_covariant = 0
    for nsub in bad:
        calc = calculus_from_kernels(h, [nsub])
        assert calc.leibniz_report().ok
        assert calc.surjectivity_report().ok
        left = check_left_covariant(calc)
        right = check_right_covariant(calc)
        if not left.ok and not right.ok:
            hit_non_covariant += 1
            with pytest.raises(NotCovariant):
                induced_delta_l(calc, 0, 0)
            with pytest.raises(NotCovariant):
                ideal_from_calculus(calc)
    assert hit_non_covariant >= 1


def test_synthetic_non_covariant_kernel_rationals(kz2):
    q1 = (F(1), F(0), F(0), F(-1))
    q2 = (F(0), F(1), F(-1), F(0))
    nsub = Subspace.from_spanning(QQ, 4, [tuple(a + b for a, b in zip(q1, q2))])
    calc = calculus_from_kernels(kz2, [nsub])
    assert calc.gamma_dims == [1]
    assert not check_left_covariant(calc).ok
    assert not check_right_covariant(calc).ok
    assert not check_bicovariant(calc).ok


# -- ad ---------------------------------------------------------------------------


def test_ad_values_kz2(kz2):
    ad = ad_map(kz2, 0)
    assert ad.col(1) == vec_kron(QQ, (F(0), F(1)), (F(1), F(0)))   # ad(u) = u⊗e
    v = (F(1), F(-1))
    assert ad.apply(v) == vec_kron(QQ, v, (F(1), F(0)))            # ad(e−u) = (e−u)⊗e


def test_ad_constant_family(kz2_const):
    ad_s = ad_map(kz2_const, 1)
    assert ad_s.col(1) == vec_kron(QQ, (F(0), F(1)), (F(1), F(0)))


def test_ad_coassociativity(all_fixtures):
    """(ad_α⊗id)ad_β = (id⊗Δ_{α,β})ad_{αβ} for all α, β."""
    for h in all_fixtures.values():
        f = h.field
        e = h.group.identity
        for a in h.group.elements():
            for b in h.group.elements():
                ab = h.group.mul(a, b)
                lhs = ad_map(h, a).kron(Matrix.identity(f, h.n(b))) @ ad_map(h, b)
                rhs = Matrix.identity(f, h.n(e)).kron(h.comult[(a, b)]) @ ad_map(h, ab)
                assert lhs == rhs


def test_ad_multiplicativity_identity(all_fixtures):
    """ad_α(ab) = (1⊗S_{α^{-1}}(b_(1))) ad_α(a) Δ_{1,α}(b_(2)) on all pairs."""
    for h in all_fixtures.values():
        f = h.field
        g = h.group
        e = g.identity
        n1 = h.n(e)
        for a in g.elements():
            na = h.n(a)
            ai = g.inv(a)
            tdim = n1 * na
            mult2 = interchange_product(h.mult[e], h.mult[a], n1, na, n1, na)
            mu3 = mult2 @ mult2.kron(Matrix.identity(f, tdim))
            x_map = Matrix.column(f, h.unit[e]).kron(h.antipode[ai])
            y_map = ad_map(h, a)
            z_map = h.comult[(e, a)]
            reorder = flip(f, n1, h.n(ai)).kron(Matrix.identity(f, na))
            spread = Matrix.identity(f, n1).kron(h.comult[(ai, a)])
            rhs = mu3 @ x_map.kron(y_map).kron(z_map) @ reorder @ spread
            lhs = ad_map(h, a) @ h.mult[e]
            assert lhs == rhs


def test_ad_invariance_examples(kz2):
    assert check_ad_invariant(kz2, zero_ideal(kz2)).ok
    ker = right_ideal_from_generators(kz2, [(F(1), F(-1))])
    assert check_ad_invariant(kz2, ker).ok


def test_ideal_generated_by_ad_invariant_set_is_ad_invariant(f7z3):
    """Generators with ad(x) ∈ span{x}⊗A give an ad-invariant ideal."""
    for gen in [(5, 6, 3), (5, 3, 6)]:
        ad = ad_map(f7z3, 0)
        img = ad.apply(gen)
        span = Subspace.from_spanning(f7z3.field, 3, [gen])
        assert subspace_contains(subspace_tensor(span, full_space(f7z3.field, 3)), img)
        ideal = right_ideal_from_generators(f7z3, [gen])
        assert check_ad_invariant(f7z3, ideal).ok


# -- recovery and enumeration -------------------------------------------------------


def test_ideal_recovery_roundtrip(kz2, f7z3):
    assert ideal_from_calculus(universal_calculus(kz2)).dim == 0
    ker = right_ideal_from_generators(kz2, [(F(1), F(-1))])
    calc = calculus_from_ideal(kz2, ker)
    assert ideal_from_calculus(calc) == ker
    for ideal in enumerate_right_ideals(f7z3):
        calc = calculus_from_ideal(f7z3, ideal)
        recovered = ideal_from_calculus(calc)
        assert recovered == ideal
        rebuilt = calculus_from_ideal(f7z3, recovered)
        for a in f7z3.group.elements():
            assert rebuilt.kernels[a] == calc.kernels[a]


def _oracle_ideal_spans(p, order):
    """Independent enumeration of right ideals of F_p[Z/order] in ker ε.

    Pure modular arithmetic on full vector sets; no package code.
    """
    def eps(v):
        return sum(v) % p

    def mul(v, w):
        out = [0] * order
        for i, x in enumerate(v):
            for j, y in enumerate(w):
                out[(i + j) % order] = (out[(i + j) % order] + x * y) % p
        return tuple(out)

    vectors = [v for v in itertools.product(range(p), repeat=order) if eps(v) == 0]
    spans = set()
    for v in vectors:
        for w in vectors:
            span = {tuple([0] * order)}
            for a in range(p):
                for b in range(p):
                    span.add(tuple((a * x + b * y) % p for x, y in zip(v, w)))
            spans.add(frozenset(span))
    ideals = []
    basis_units = [tuple(1 if i == j else 0 for i in range(order)) for j in range(order)]
    for span in spans:
        if all(mul(v, u) in span for v in span for u in basis_units):
            ideals.append(span)
    return ideals


def test_enumeration_matches_independent_oracle(f7z3):
    oracle = _oracle_ideal_spans(7, 3)
    assert len(oracle) == 4
    ideals = enumerate_right_ideals(f7z3)
    assert len(ideals) == 4
    assert sorted(i.dim for i in ideals) == [0, 1, 1, 2]
    dims = sorted(calculus_from_ideal(f7z3, i).dim(0) for i in ideals)
    assert dims == [0, 3, 3, 6]
    # every package ideal is one of the oracle spans, as a full vector set
    oracle_sets = set(oracle)
    for ideal in ideals:
        vectors = {tuple([0, 0, 0])}
        basis = [tuple(int(x) % 7 for x in v) for v in ideal.subspace.basis.to_rows()]
        for coeffs in itertools.product(range(7), repeat=len(basis)):
            vec = [0, 0, 0]
            for c, bvec in zip(coeffs, basis):
                vec = [(x + c * y) % 7 for x, y in zip(vec, bvec)]
            vectors.add(tuple(vec))
        assert frozenset(vectors) in oracle_sets


def test_enumeration_f3z2():
    h = group_algebra(cyclic(2), PrimeField(3))
    ideals = enumerate_right_ideals(h)
    assert sorted(i.dim for i in ideals) == [0, 1]
    dims = sorted(calculus_from_ideal(h, i).dim(0) for i in ideals)
    assert dims == [0, 2]


def test_enumeration_bounds(kz2):
    with pytest.raises(UnsupportedField):
        enumerate_right_ideals(kz2)
    h13 = group_algebra(cyclic(2), PrimeField(13))
    with pytest.raises(TooLarge):
        enumerate_right_ideals(h13)


def test_thm_equivalence_ad_invariance_vs_bicovariance(f7z3, kz2, f7z3_const, kz2_const):
    """ad-invariance of R coincides with bicovariance of its calculus."""
    cases = []
    for ideal in enumerate_right_ideals(f7z3):
        cases.append((f7z3, ideal))
    cases.append((kz2, zero_ideal(kz2)))
    cases.append((kz2, right_ideal_from_generators(kz2, [(F(1), F(-1))])))
    cases.append((kz2_const, zero_ideal(kz2_const)))
    cases.append((kz2_const, right_ideal_from_generators(kz2_const, [(F(1), F(-1))])))
    cases.append((f7z3_const, zero_ideal(f7z3_const)))
    cases.append((f7z3_const, right_ideal_from_generators(f7z3_const, [(5, 6, 3)])))
    for h, ideal in cases:
        calc = calculus_from_ideal(h, ideal)
        assert check_ad_invariant(h, ideal).ok == check_bicovariant(calc).ok


def test_n_dimension_formula(f7z3):
    """dim N_α = n·dim R via bijectivity of r."""
    for ideal in enumerate_right_ideals(f7z3):
        calc = calculus_from_ideal(f7z3, ideal)
        for a in f7z3.group.elements():
            assert calc.kernels[a].dim == f7z3.n(a) * ideal.dim


def test_phi_restricted_codomain_violation(kz2):
    """A non-multiplicative comultiplication pushes Φ images out of the
    tensor-square codomain."""
    from hopfpi.errors import CodomainViolation
    from hopfpi.hopf import HopfPiCoalgebra

    one = F(1)
    bad = Matrix(QQ, 4, 2, {(0, 0): one, (3, 1): one, (0, 1): one})
    hb = HopfPiCoalgebra(kz2.group, QQ, kz2.dims, {(0, 0): bad}, kz2.counit,
                         kz2.mult, kz2.unit, kz2.antipode, psi=kz2.psi)
    with pytest.raises(CodomainViolation):
        phi_l_restricted(hb, 0, 0)
    with pytest.raises(CodomainViolation):
        phi_r_restricted(hb, 0, 0)


def test_right_ideal_from_unclosed_subspace(f7z3):
    from hopfpi.calculus import RightIdeal
    from hopfpi.errors import NotARightIdeal

    sub = Subspace.from_spanning(f7z3.field, 3, [(1, 6, 0)])  # span{e − g}
    with pytest.raises(NotARightIdeal):
        RightIdeal(f7z3, sub)
    # closing it under right multiplication gives the full 2-dim ideal
    closed = right_ideal_from_generators(f7z3, [(1, 6, 0)])
    assert closed.dim == 2


def test_to_bimodule_requires_some_covariance():
    h = group_algebra(cyclic(2), QQ, names=("e", "u"))
    q1 = (F(1), F(0), F(0), F(-1))
    q2 = (F(0), F(1), F(-1), F(0))
    nsub = Subspace.from_spanning(QQ, 4, [tuple(a + b for a, b in zip(q1, q2))])
    calc = calculus_from_kernels(h, [nsub])
    with pytest.raises(NotCovariant):
        calc.to_bimodule()


@pytest.fixture(scope="module")
def taft():
    from hopfpi import taft_hopf_algebra

    return taft_hopf_algebra(QQ)


def test_taft_translation_maps_invert(taft):
    """With an order-four antipode the t-inverse genuinely needs the
    inverse matrix of S; applying S itself does not invert t."""
    eye = Matrix.identity(QQ, 16)
    assert r_inv(taft, 0) @ r_map(taft, 0) == eye
    assert r_map(taft, 0) @ r_inv(taft, 0) == eye
    assert t_inv(taft, 0) @ t_map(taft, 0) == eye
    assert t_map(taft, 0) @ t_inv(taft, 0) == eye

    f = taft.field
    n = 4
    anti = taft.antipode[0]
    step1 = taft.comult[(0, 0)].kron(Matrix.identity(f, n))
    step2 = Matrix.identity(f, n).kron(anti.kron(Matrix.identity(f, n)))
    perm = (Matrix.identity(f, n).kron(flip(f, n, n))) @ flip(f, n * n, n)
    step4 = taft.mult[0].kron(Matrix.identity(f, n))
    literal = step4 @ perm @ step2 @ step1
    assert t_map(taft, 0) @ literal != eye


def test_taft_universal_calculus(taft):
    calc = universal_calculus(taft)
    assert calc.gamma_dims == [12]
    assert calc.leibniz_report().ok
    assert calc.surjectivity_report().ok
    assert check_bicovariant(calc).ok
    assert ad_map(taft, 0).rows == 16  # ad_0 : A_1 → A_1 ⊗ A_0, both of dimension 4


@pytest.mark.parametrize("first", ["left", "right", "bicovariant", "bimodule", "induced"])
def test_covariance_decided_once_per_calculus(monkeypatch, first):
    """Each side's containments are decided once per calculus, whatever
    covariance query comes first, and across the calculi on a structure
    each Φ^l and Φ^r is built once per distinct (Δ_{α,β}, m), each r⁻¹,
    t⁻¹ and route kernel once per distinct operand tuple, and each
    containment product once per distinct (Φ, ι_{αβ}, P).  On a constant
    family over S3 every grading reads one Δ, m and S, so each of these
    maps is built once: every N_α is one subspace, and each calculus
    decides each side with one product.  On the unshared copy every
    grading has its own operands: one r⁻¹, t⁻¹ and route kernel per
    grading, 36 of each Φ, and one product per pair for every calculus."""
    import hopfpi.calculus as calc_mod

    builds: dict = {}
    products = []          # one containment product per distinct operand tuple
    nonzero_columns = calc_mod._nonzero_columns

    def counting(name, build):
        def wrapper(*operands):
            builds[name] += 1
            return build(*operands)
        return wrapper

    names = ("_phi_l", "_phi_r", "_r_inv", "_t_inv", "_left_route_kernel", "_right_route_kernel")
    for name in names:
        monkeypatch.setattr(calc_mod, name, counting(name, getattr(calc_mod, name)))
    monkeypatch.setattr(calc_mod, "_nonzero_columns",
                        lambda m: products.append(m) or nonzero_columns(m))
    family = constant_family(group_algebra(cyclic(3), PrimeField(7), names=("e", "g", "g2")),
                             s3_group())
    order = family.group.order
    for h, per_grading in ((family, 1), (unshared(family), order)):
        builds.update(dict.fromkeys(names, 0))
        products.clear()
        ideal = right_ideal_from_generators(h, [(5, 6, 3)])
        calcs = (universal_calculus(h), calculus_from_ideal(h, ideal),
                 calculus_from_ideal_right(h, ideal))
        for calc in calcs:
            queries = {
                "left": lambda: check_left_covariant(calc),
                "right": lambda: check_right_covariant(calc),
                "bicovariant": lambda: check_bicovariant(calc),
                "bimodule": lambda: calc.to_bimodule(),
                "induced": lambda: (induced_delta_l(calc, 1, 1), induced_delta_r(calc, 0, 1)),
            }
            queries[first]()
            for query in queries.values():
                query()
            ideal_from_calculus(calc)
            assert check_bicovariant(calc).ok
        per_pair = per_grading ** 2
        assert builds == {"_phi_l": per_pair, "_phi_r": per_pair, "_r_inv": per_grading,
                          "_t_inv": per_grading, "_left_route_kernel": per_grading,
                          "_right_route_kernel": per_grading}
        assert len(products) == len(calcs) * 2 * per_pair


FIXTURES = ("kz2_rational.json", "f7_z3.json", "kz2_constant_z2.json", "f7z3_constant_z2.json",
            "taft4_rational.json", "q_z3_skew_basis.json")


def test_bicovariance_computes_no_law(monkeypatch, fixture_dir, capsys):
    """Neither check_bicovariant nor a `structure` job verifies a bimodule
    law or computes the compatibility law, on any calculus of a fixture:
    bicovariance is the two containments, and the laws are theorems."""
    import hopfpi.structure as struct_mod

    laws, compared = [], []
    verify, compare = struct_mod.CovariantBimodule.verify, struct_mod._compare
    monkeypatch.setattr(struct_mod.CovariantBimodule, "verify",
                        lambda cb: laws.append(cb) or verify(cb))
    monkeypatch.setattr(struct_mod, "_compare",
                        lambda report, check, *rest: compared.append(check) or compare(
                            report, check, *rest))
    jobs = 0
    for name in FIXTURES:
        doc = load_document(fixture_dir / name)
        h = doc.hopf
        ideals = [right_ideal_from_generators(h, gens) for gens in doc.ideal_generators.values()]
        calcs = [universal_calculus(h)] + [route(h, ideal) for ideal in ideals
                                           for route in (calculus_from_ideal,
                                                         calculus_from_ideal_right)]
        for calc in calcs:
            check_bicovariant(calc)
        for which in [["--universal"]] + [["--ideal", iname] for iname in doc.ideal_generators]:
            assert main(["structure", str(fixture_dir / name), *which]) in (0, 1)
            jobs += 1
    capsys.readouterr()
    assert jobs > len(FIXTURES)
    assert compared                         # the structure jobs did compare their identities
    assert "bicovariance-compatibility" not in compared
    assert laws == []


def test_check_bicovariant_requires_the_axioms(fixture_dir):
    """On a structure that fails its axioms, check_bicovariant raises the
    memoised verdict, as to_bimodule does, on the calculus N = 0 that the
    checked constructor builds there."""
    h = load_document(fixture_dir / "kz2_bad_antipode.json").hopf
    verdict = verify_all(h).violations
    assert verdict
    calc = calculus_from_kernels(h, [Subspace.zero_space(h.field, h.n(a) ** 2)
                                     for a in h.group.elements()])
    for query in (check_bicovariant, lambda c: c.to_bimodule()):
        with pytest.raises(VerificationFailed) as err:
            query(calc)
        assert err.value.report.violations == verdict


def test_route_and_universal_calculi_require_the_axioms(fixture_dir):
    """The universal calculus and the route calculi of every ideal, N = 0
    included, refuse a structure that fails its axioms with the memoised
    verdict of verify_all, before any sub-bimodule test."""
    h = load_document(fixture_dir / "kz2_bad_antipode.json").hopf
    verdict = verify_all(h).violations
    assert verdict
    ker_eps = h.counit_kernel()
    ideals = [zero_ideal(h), right_ideal_from_generators(h, ker_eps.basis.to_rows())]
    builds = [lambda: universal_calculus(h)] + [
        lambda build=build, ideal=ideal: build(h, ideal)
        for ideal in ideals for build in (calculus_from_ideal, calculus_from_ideal_right)]
    for build in builds:
        with pytest.raises(VerificationFailed) as err:
            build()
        assert err.value.report.violations == verdict


def test_one_reduction_per_subspace(monkeypatch, f7z3, f7z3_const):
    """kernel(m) row-reduces m once.  Building a calculus from an ideal on
    either route or from kernels, and recovering the ideal from it, reduce
    no spanning set in A² coordinates and apply no matrix to a single
    vector, the closure check of RightIdeal that ideal_from_calculus ends
    in included: every containment, right-ideal closure among them, is a
    product of matrices."""
    import hopfpi.linalg as linalg
    from hopfpi import taft_hopf_algebra

    reductions, spanned = [], []      # rows and columns of each reduction
    rref = linalg.rref

    def counting_rref(m):
        reductions.append(m.rows)
        spanned.append(m.cols)
        return rref(m)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    taft7 = taft_hopf_algebra(PrimeField(7))
    for m in (taft7.mult[0], f7z3.mult[0], Matrix(QQ, 2, 3), Matrix.identity(QQ, 3),
              Matrix(QQ, 0, 3), Matrix(QQ, 3, 0)):
        reductions.clear()
        kernel(m)
        assert reductions == [m.rows]

    cases = []
    for h in (taft7, f7z3, f7z3_const):
        universal_bimodule(h)
        verify_all(h)
        for alpha in h.group.elements():    # S⁻¹ is memoised; its [S | I] has 2n columns
            h.antipode_inv(alpha)
        cases.append((h, enumerate_right_ideals(h)))
    used = []
    apply = Matrix.apply

    def recording(*args):
        used.append("apply")
        return apply(*args)

    monkeypatch.setattr(Matrix, "apply", recording)
    for h, ideals in cases:
        asq_dims = {universal_bimodule(h).dim(a) for a in h.group.elements()}
        # N_α lives in A_α⊗A_α and R in A_1, neither of a dimension of A²
        assert asq_dims.isdisjoint({h.n(a) ** 2 for a in h.group.elements()} | {h.n(h.group.identity)})
        spanned.clear()
        for ideal in ideals:
            calc = calculus_from_ideal(h, ideal)
            calculus_from_ideal_right(h, ideal)
            calculus_from_kernels(h, calc.kernels)
            assert ideal_from_calculus(calc) == ideal
        assert used == []
        assert spanned and asq_dims.isdisjoint(spanned)


def test_enumerate_builds_only_what_it_reads(monkeypatch, fixture_dir):
    """An `enumerate` job reads dimensions and covariance verdicts only.
    No calculus builds d or its actions, no induced coaction is built,
    no route calculus tests its sub-bimodule closure, a theorem once the
    axioms hold, and t, r⁻¹ and ad are built once per distinct operand
    tuple for all ideals together, and each route kernel once per ideal
    and distinct r⁻¹: once on the document, whose two gradings read the
    same Δ, m and S, and at each grading on its unshared copy.  While
    the 10 candidates are generated and tested, only those that pass the
    closure test build a Subspace, one each."""
    import hopfpi.calculus as calc_mod
    from hopfpi.calculus import Fodc

    built = []
    enumerating = []
    made = Counter()

    def candidates(*args):
        enumerating.append(True)
        try:
            for candidate in generate(*args):
                made["candidate"] += 1
                yield candidate
        finally:
            enumerating.pop()

    def counting_init(sub, *args):
        if enumerating:
            made["Subspace"] += 1
        init(sub, *args)

    init, generate = Subspace.__init__, calc_mod._all_rref_subspaces
    monkeypatch.setattr(Subspace, "__init__", counting_init)
    monkeypatch.setattr(calc_mod, "_all_rref_subspaces", candidates)

    def counted(label, build):
        def wrapper(*args):
            built.append(label)
            return build(*args)
        return wrapper

    for name in ("d", "left", "right"):
        monkeypatch.setattr(Fodc, name, property(counted(name, getattr(Fodc, name).func)))
    monkeypatch.setattr(Fodc, "_check_sub_bimodule",
                        counted("sub-bimodule", Fodc._check_sub_bimodule))
    for name in ("_descend_left", "_descend_right", "_t_map", "_r_inv", "_ad_map",
                 "_left_route_kernel"):
        monkeypatch.setattr(calc_mod, name, counted(name, getattr(calc_mod, name)))

    doc = load_document(fixture_dir / "f7z3_constant_z2.json")
    args = build_parser().parse_args(["enumerate", "doc.json"])
    for h, per_grading in ((doc.hopf, 1), (unshared(doc.hopf), doc.hopf.group.order)):
        built.clear()
        made.clear()
        report = _DISPATCH["enumerate"](Document(doc.name, h, doc.ideal_generators), args)
        assert report.exit_code == 0
        ideals = len(report.tables["right ideals in ker ε"]["rows"])
        assert ideals > 1
        assert made == {"candidate": 10, "Subspace": ideals}
        # the first ideal is R = 0, whose calculus is the universal one
        assert sorted(Counter(built).items()) == [
            ("_ad_map", per_grading), ("_left_route_kernel", (ideals - 1) * per_grading),
            ("_r_inv", per_grading), ("_t_map", per_grading)]


@pytest.mark.parametrize("name, which", [
    ("f7z3_constant_z2.json", ["--universal"]), ("taft4_rational.json", ["--universal"]),
    ("f7z3_constant_z2.json", ["--ideal", "zero"])],
    ids=["f7z3_constant_z2.json", "taft4_rational.json", "f7z3_constant_z2.json --ideal zero"])
@pytest.mark.parametrize("route", [[], ["--right"]], ids=["left", "right"])
def test_universal_calculus_builds_no_translation_map(monkeypatch, fixture_dir, capsys, name,
                                                       which, route):
    """The universal calculus is the calculus of N = 0, so a `calculus
    --universal` job builds it directly, on either route: no r⁻¹ and no
    t⁻¹ is built.  So does a job on a named ideal of dimension 0 (the
    document's ideal `zero` has no generators)."""
    import hopfpi.calculus as calc_mod

    built = []
    for label in ("_r_inv", "_t_inv"):
        build = getattr(calc_mod, label)
        monkeypatch.setattr(calc_mod, label, lambda *operands, label=label, build=build:
                            built.append(label) or build(*operands))
    argv = ["calculus", *which, *route, str(fixture_dir / name), "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "pass"
    assert built == []
