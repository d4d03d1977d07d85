"""Invariant frames, structure functionals, R matrices, reconstruction."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hopfpi import (
    GradedFunctional,
    ad_map,
    calculus_from_ideal,
    check_bicovariant,
    decompose_left,
    decompose_right,
    eta_basis,
    extract_structure,
    functionals_f,
    functionals_g,
    induced_delta_l,
    invariant_subspace_left,
    invariant_subspace_right,
    load_document,
    matrix_R,
    phi_l,
    phi_r,
    projection_P,
    projection_P_matrix,
    r_inv,
    reconstruct,
    reconstruction_matches,
    right_ideal_from_generators,
    t_inv,
    t_map,
    taft_hopf_algebra,
    universal_calculus,
)
from hopfpi.errors import (
    DimensionVariesAcrossGrading,
    IncompatibleData,
    MissingCoaction,
    MissingPsi,
    NotBicovariant,
    VerificationFailed,
)
from hopfpi.hopf import HopfPiCoalgebra
from hopfpi.linalg import Matrix, PrimeField, QQ, Subspace, flip, vec_kron
from hopfpi.structure import CovariantBimodule
from oracles import (
    element_star,
    interchange_product,
    precompose,
    r_blocks,
    r_matrices,
    recombine_left,
    star_element,
    vec_add,
    zero_vec,
)

F = Fraction


@pytest.fixture(scope="module")
def kz2_bim(kz2):
    return universal_calculus(kz2).to_bimodule()


@pytest.fixture(scope="module")
def f7z3_bim(f7z3):
    return universal_calculus(f7z3).to_bimodule()


@pytest.fixture(scope="module")
def const_bim(kz2_const):
    return universal_calculus(kz2_const).to_bimodule()


# -- invariant subspaces -----------------------------------------------------


def test_invariant_dimensions(kz2_bim, f7z3_bim):
    assert invariant_subspace_left(kz2_bim, 0).dim == 1
    assert invariant_subspace_left(f7z3_bim, 0).dim == 2
    assert invariant_subspace_right(kz2_bim, 0).dim == 1


def test_invariant_representative_kz2(kz2, kz2_bim):
    """The invariant frame of the universal calculus is the class of
    r^{-1}(1 ⊗ (e−u))."""
    rep_ambient = r_inv(kz2, 0).apply(vec_kron(QQ, (F(1), F(0)), (F(1), F(-1))))
    calc = universal_calculus(kz2)
    rep = calc.drop[0].apply(rep_ambient)
    assert kz2_bim.omega(0) == (rep,)


def test_zero_calculus_has_no_invariants(kz2):
    ker = right_ideal_from_generators(kz2, [(F(1), F(-1))])
    bim = calculus_from_ideal(kz2, ker).to_bimodule()
    assert invariant_subspace_left(bim, 0).dim == 0


def test_missing_coaction_errors(kz2_const):
    calc = universal_calculus(kz2_const)
    pairs = [(a, b) for a in kz2_const.group.elements() for b in kz2_const.group.elements()]
    left_only = CovariantBimodule(kz2_const, calc.gamma_dims, calc.left, calc.right,
                                  delta_l={p: induced_delta_l(calc, *p) for p in pairs},
                                  delta_r=None)
    with pytest.raises(MissingCoaction):
        invariant_subspace_right(left_only, 0)
    with pytest.raises(NotBicovariant):
        matrix_R(left_only)


# -- the projections P_α --------------------------------------------------------


def test_projection_fixes_invariants(kz2_bim):
    omega = kz2_bim.omega(0)[0]
    assert projection_P(kz2_bim, 0, omega) == omega


def test_projection_kills_algebra_factor(kz2, kz2_bim):
    rho = kz2_bim.omega(0)[0]
    u_rho = kz2_bim.left[0].apply(vec_kron(QQ, (F(0), F(1)), rho))
    # ε(u) = 1, so P(uρ) = P(ρ)
    assert projection_P(kz2_bim, 0, u_rho) == projection_P(kz2_bim, 0, rho)


def test_projection_image_is_invariant(const_bim):
    for a in const_bim.h.group.elements():
        p = projection_P_matrix(const_bim, a)
        inv = invariant_subspace_left(const_bim, a)
        for j in range(p.cols):
            assert inv.contains(p.col(j))


def test_projection_onto_other_grading_is_bijective(const_bim):
    p = projection_P_matrix(const_bim, 1)
    inv1 = invariant_subspace_left(const_bim, 0)
    imgs = [p.apply(v) for v in inv1.basis]
    span = Subspace.from_spanning(QQ, const_bim.g(1), imgs)
    assert span == invariant_subspace_left(const_bim, 1)
    assert span.dim == inv1.dim


# -- decompositions ---------------------------------------------------------------


def test_decompose_frame_element(kz2_bim):
    coeffs = decompose_left(kz2_bim, 0, kz2_bim.omega(0)[0])
    assert coeffs == [(F(1), F(0))]  # coefficient 1_A


def test_decompose_differential(kz2, kz2_bim):
    du = universal_calculus(kz2).d[0].col(1)
    coeffs = decompose_left(kz2_bim, 0, du)
    assert coeffs == [(F(0), F(-1))]  # d(u) = (−u)·ω
    assert recombine_left(kz2_bim, 0, coeffs) == du


def test_decompose_roundtrip_randomised(all_fixtures):
    rng = random.Random(20260809)
    for h in all_fixtures.values():
        bim = universal_calculus(h).to_bimodule()
        f = h.field
        for a in h.group.elements():
            for _ in range(20):
                rho = tuple(f.from_int(rng.randint(-6, 6)) for _ in range(bim.g(a)))
                coeffs = decompose_left(bim, a, rho)
                assert recombine_left(bim, a, coeffs) == rho
                right_coeffs = decompose_right(bim, a, rho)
                acc = tuple(f.zero() for _ in range(bim.g(a)))
                for b_i, w in zip(right_coeffs, bim.omega(a)):
                    term = bim.right[a].apply(vec_kron(f, w, b_i))
                    acc = tuple(f.add(x, y) for x, y in zip(acc, term))
                assert acc == rho


def test_decompose_matrix_invertible(all_fixtures):
    for h in all_fixtures.values():
        bim = universal_calculus(h).to_bimodule()
        for a in h.group.elements():
            w = bim.decompose_matrix(a)
            assert w.rows == w.cols == bim.g(a)
            w.inverse()  # raises if singular


# -- functionals -------------------------------------------------------------------


def test_f_values_kz2(kz2_bim):
    funcs = functionals_f(kz2_bim)
    assert len(funcs) == 1
    f00 = funcs[0][0]
    assert f00(0, (F(1), F(0))) == F(1)
    assert f00(0, (F(0), F(1))) == F(-1)


def test_f_multiplicative_all_pairs_kz2(kz2, kz2_bim):
    funcs = functionals_f(kz2_bim)
    f00 = funcs[0][0]
    for i in range(2):
        for j in range(2):
            prod = kz2.mult[0].apply(vec_kron(QQ, _basis(QQ, 2, i), _basis(QQ, 2, j)))
            assert f00(0, prod) == f00(0, _basis(QQ, 2, i)) * f00(0, _basis(QQ, 2, j))


def _basis(f, n, i):
    return tuple(f.one() if j == i else f.zero() for j in range(n))


def test_f_matrix_f7(f7z3, f7z3_bim):
    funcs = functionals_f(f7z3_bim)
    assert len(funcs) == 2
    f = f7z3.field
    for i in range(3):
        for j in range(3):
            prod = f7z3.mult[0].apply(vec_kron(f, _basis(f, 3, i), _basis(f, 3, j)))
            for p in range(2):
                for q in range(2):
                    lhs = funcs[p][q](0, prod)
                    rhs = f.zero()
                    for k in range(2):
                        rhs = f.add(rhs, f.mul(funcs[p][k](0, _basis(f, 3, i)),
                                               funcs[k][q](0, _basis(f, 3, j))))
                    assert lhs == rhs
    for p in range(2):
        for q in range(2):
            want = f.one() if p == q else f.zero()
            assert funcs[p][q](0, f7z3.unit[0]) == want


def test_f_requires_psi(kz2):
    bare = HopfPiCoalgebra(kz2.group, kz2.field, kz2.dims, kz2.comult, kz2.counit,
                           kz2.mult, kz2.unit, kz2.antipode, psi=None,
                           basis_names=kz2.basis_names)
    bim = universal_calculus(bare).to_bimodule()
    with pytest.raises(MissingPsi):
        functionals_f(bim)
    # F itself is still available
    from hopfpi.structure import coefficient_maps

    F_maps = coefficient_maps(bim)
    assert F_maps[0][0][0].rows == 2


def test_g_matches_f_on_identity_component(f7z3_bim):
    funcs = functionals_f(f7z3_bim)
    R = matrix_R(f7z3_bim)
    eta = eta_basis(f7z3_bim, R)
    gfuncs = functionals_g(f7z3_bim, eta=eta)
    for i in range(2):
        for j in range(2):
            assert funcs[i][j].component(0) == gfuncs[i][j].component(0)


def test_g_canonical_frame(kz2_bim):
    gfuncs = functionals_g(kz2_bim)
    assert gfuncs[0][0](0, (F(1), F(0))) == F(1)


# -- the R matrix -------------------------------------------------------------------


def test_R_kz2(kz2, kz2_bim):
    R = r_blocks(kz2, matrix_R(kz2_bim))
    assert R[0][0][0] == (F(1), F(0))  # R_00 = e
    assert kz2.counit.apply(R[0][0][0]) == (F(1),)
    s_r = kz2.antipode[0].apply(R[0][0][0])
    prod = kz2.mult[0].apply(vec_kron(QQ, s_r, R[0][0][0]))
    assert prod == (F(1), F(0))  # S(R)·R = 1


def test_R_f7_comultiplication(f7z3, f7z3_bim):
    R = r_blocks(f7z3, matrix_R(f7z3_bim))
    f = f7z3.field
    for j in range(2):
        for i in range(2):
            lhs = f7z3.comult[(0, 0)].apply(R[0][j][i])
            rhs = tuple(f.zero() for _ in range(9))
            for k in range(2):
                term = vec_kron(f, R[0][j][k], R[0][k][i])
                rhs = tuple(f.add(x, y) for x, y in zip(rhs, term))
            assert lhs == rhs


def test_eta_right_invariant_and_recombines(f7z3_bim):
    R = matrix_R(f7z3_bim)
    eta = eta_basis(f7z3_bim, R)  # raises if any defining identity fails
    assert len(eta[0]) == 2


def test_structure_suite_constant_family(const_bim):
    data = extract_structure(const_bim)
    assert data.size == 1
    assert data.R is not None and data.eta is not None
    rebuilt = reconstruct(const_bim.h, data.f, data.R, data.size)
    assert reconstruction_matches(const_bim, rebuilt)


def test_left_coaction_of_invariants_is_trivial(const_bim):
    """Left-invariant ρ ∈ Γ_{αβ} has Δ^l_{α,β}(ρ) = 1_α ⊗ ϱ with ϱ invariant."""
    h = const_bim.h
    f = h.field
    for a in h.group.elements():
        for b in h.group.elements():
            ab = h.group.mul(a, b)
            inv_ab = invariant_subspace_left(const_bim, ab)
            inv_b = invariant_subspace_left(const_bim, b)
            na = h.n(a)
            for rho in inv_ab.basis:
                img = const_bim.delta_l[(a, b)].apply(rho)
                gb = const_bim.g(b)
                blocks = [img[i * gb:(i + 1) * gb] for i in range(na)]
                # image must be 1_α ⊗ ϱ: block i = unit-coefficient_i · ϱ
                unit = h.unit[a]
                candidates = [blk for i, blk in enumerate(blocks) if unit[i] != f.zero()]
                varrho = candidates[0]
                for i, blk in enumerate(blocks):
                    assert blk == tuple(f.mul(unit[i], x) for x in varrho)
                assert inv_b.contains(varrho)


# -- reconstruction ------------------------------------------------------------------


def test_reconstruction_roundtrip(kz2_bim, f7z3_bim):
    for bim in (kz2_bim, f7z3_bim):
        data = extract_structure(bim)
        rebuilt = reconstruct(bim.h, data.f, data.R, data.size)
        assert reconstruction_matches(bim, rebuilt)


def test_reconstruction_trivial_rank_one(kz2, kz2_const):
    """f = the grading collapse of ε, R = units: the free rank-one bimodule."""
    for h in (kz2, kz2_const):
        f = h.field
        e = h.group.identity
        funcs = [[GradedFunctional(h, {
            a: (h.counit @ h.psi[a]).row(0) for a in h.group.elements()})]]
        R = r_matrices(h, [[[tuple(h.unit[b])]] for b in h.group.elements()])
        bim = reconstruct(h, funcs, R, 1)
        assert bim.dims == [h.n(a) for a in h.group.elements()]
        # trivial twisting: right action equals left action through the flip
        from hopfpi.linalg import flip

        for a in h.group.elements():
            n = h.n(a)
            assert bim.right[a] == bim.left[a] @ flip(f, n, n)


def test_reconstruction_rejects_bad_normalisation(kz2):
    zero_func = GradedFunctional(kz2, {})
    R = r_matrices(kz2, [[[(F(1), F(0))]]])
    with pytest.raises(IncompatibleData):
        reconstruct(kz2, [[zero_func]], R, 1)


def test_reconstruction_rejects_bad_R(kz2, kz2_bim):
    funcs = functionals_f(kz2_bim)
    worse_R = r_matrices(kz2, [[[(F(2), F(0))]]])  # ε(R) = 2 ≠ 1
    with pytest.raises(IncompatibleData):
        reconstruct(kz2, funcs, worse_R, 1)


def _malformed_R(name, h, R):
    """One malformed variant of lawful R data for h, by name."""
    blocks = r_blocks(h, R)
    if name == "tuple form":
        return blocks
    if name == "ragged blocks":
        return [[blocks[0][0][:1]] + blocks[0][1:]]
    if name == "short entries":                                     # R_ji ∈ k^{n-1}
        n, size = h.n(0) - 1, R[0].cols
        return [Matrix(h.field, size * n, size, {
            (j * n + m, i): r[m]
            for j, row in enumerate(blocks[0]) for i, r in enumerate(row) for m in range(n)})]
    if name == "row dropped":
        return [Matrix(h.field, R[0].rows - 1, R[0].cols,
                       {k: v for k, v in R[0].entries.items() if k[0] < R[0].rows - 1})]
    if name == "column dropped":
        return [Matrix(h.field, R[0].rows, R[0].cols - 1,
                       {k: v for k, v in R[0].entries.items() if k[1] < R[0].cols - 1})]
    if name == "other field":
        return [Matrix(PrimeField(11), R[0].rows, R[0].cols, R[0].entries)]
    return R + R                                                    # "one matrix too many"


@pytest.mark.parametrize("name", ["tuple form", "ragged blocks", "short entries", "row dropped",
                                  "column dropped", "other field", "one matrix too many"])
def test_reconstruction_rejects_malformed_R(name, f7z3, f7z3_bim):
    """Malformed R is rejected as IncompatibleData before any product."""
    data = extract_structure(f7z3_bim)
    with pytest.raises(IncompatibleData):
        reconstruct(f7z3, data.f, _malformed_R(name, f7z3, data.R), data.size)


def test_reconstruction_rejects_malformed_functionals(fixture_dir):
    """Each f_ij must be a graded functional whose components fit the
    dimensions and the field of the structure; anything else is rejected as
    IncompatibleData before any product."""
    from hopfpi import cyclic, group_algebra

    h = load_document(fixture_dir / "f7_z3.json").hopf
    data = extract_structure(universal_calculus(h).to_bimodule())
    f = data.f
    other_group = group_algebra(cyclic(2), h.field)
    other_field = group_algebra(cyclic(3), PrimeField(11))
    longer = GradedFunctional(group_algebra(cyclic(4), h.field), {0: (1, 0, 0, 0)})
    for bad in ("f00",                                                  # not a functional
                GradedFunctional(other_group, {0: other_group.counit.row(0)}),
                GradedFunctional(other_field, {0: other_field.counit.row(0)}),
                longer):                                                # entries beyond n_1
        funcs = [[bad] + f[0][1:]] + f[1:]
        with pytest.raises(IncompatibleData):
            reconstruct(h, funcs, data.R, data.size)
    with pytest.raises(IncompatibleData):
        reconstruct(h, tuple(f[0]), data.R, data.size)                 # not a matrix
    assert reconstruct(h, f, data.R, data.size).verify().ok


def test_reconstruction_accepts_grouplike_twist(kz2, kz2_bim):
    """R_00 = u is admissible data (a different bicovariant structure on the
    free rank-one module) and must reconstruct to a lawful bimodule."""
    funcs = functionals_f(kz2_bim)
    twisted = reconstruct(kz2, funcs, r_matrices(kz2, [[[(F(0), F(1))]]]), 1)
    assert twisted.verify().ok


def test_frame_size_uniformity_guard(const_bim):
    from hopfpi.structure import _frame_size

    cb = CovariantBimodule(const_bim.h, const_bim.dims, const_bim.left,
                           const_bim.right, delta_l=const_bim.delta_l,
                           delta_r=const_bim.delta_r)
    cb._omega = {0: Subspace.from_spanning(QQ, 2, [(F(1), F(0))]), 1: Subspace.full(QQ, 2)}
    with pytest.raises(DimensionVariesAcrossGrading):
        _frame_size(cb)


def test_bimodule_law_verification_rejects_garbage(kz2):
    calc = universal_calculus(kz2)
    bad_left = [Matrix.zero(QQ, 2, 4)]
    with pytest.raises(VerificationFailed):
        CovariantBimodule(kz2, calc.gamma_dims, bad_left, calc.right)


def test_incompatible_grading_collapse_is_rejected(f7z3):
    """A lawful Ψ (unital algebra map) whose character differs from the
    counit cannot reproduce the frame commutation rule."""
    from hopfpi.errors import StructureInconsistent
    from hopfpi import verify_hopf

    f = f7z3.field
    p0, p1, p2 = (5, 5, 5), (5, 6, 3), (5, 3, 6)
    basis_change = Matrix.from_cols(f, [p0, p1, p2])
    swapped = Matrix.from_cols(f, [p1, p0, p2]) @ basis_change.inverse()
    hb = HopfPiCoalgebra(f7z3.group, f, f7z3.dims, f7z3.comult, f7z3.counit,
                         f7z3.mult, f7z3.unit, f7z3.antipode, psi=[swapped],
                         basis_names=f7z3.basis_names)
    assert verify_hopf(hb).ok   # Ψ is a perfectly good unital algebra map
    bim = universal_calculus(hb).to_bimodule()
    with pytest.raises(StructureInconsistent):
        functionals_f(bim)


def test_non_involutive_antipode_boundary():
    """With an order-four antipode the frame functionals and the coaction
    matrix still extract and reconstruct, but the mixed f/g identities
    (whose derivation inverts the antipode by applying it again) fail and
    are reported rather than repaired."""
    from hopfpi import taft_hopf_algebra, universal_calculus
    from hopfpi.errors import StructureInconsistent
    from hopfpi.structure import functionals_f as ff

    t = taft_hopf_algebra(QQ)
    bim = universal_calculus(t).to_bimodule()
    funcs = ff(bim)                      # f-side identities all hold
    R = matrix_R(bim)                    # coaction matrix identities all hold
    eta = eta_basis(bim, R)              # η frame is right invariant
    assert len(funcs) == len(eta[0]) == 3

    with pytest.raises(StructureInconsistent):
        functionals_g(bim, eta=eta)      # left-multiplication rule needs S² = id
    with pytest.raises(StructureInconsistent):
        extract_structure(bim)

    # reconstruction only needs the f and R data, and those are consistent
    rebuilt = reconstruct(t, funcs, R, 3)
    assert rebuilt.verify().ok
    assert reconstruction_matches(bim, rebuilt)


def test_structure_suite_on_quotient_calculi(f7z3, f7z3_const):
    """Extraction and reconstruction on proper quotients (not just the
    universal calculus), over trivial and nontrivial grading groups."""
    cases = [
        (f7z3, [(5, 6, 3)], 1, [3]),
        (f7z3_const, [(5, 6, 3)], 1, [3, 3]),
        (f7z3_const, [], 2, [6, 6]),
    ]
    for h, gens, expect_size, expect_dims in cases:
        ideal = right_ideal_from_generators(h, gens)
        bim = calculus_from_ideal(h, ideal).to_bimodule()
        assert bim.dims == expect_dims
        data = extract_structure(bim)
        assert data.size == expect_size
        rebuilt = reconstruct(h, data.f, data.R, data.size)
        assert reconstruction_matches(bim, rebuilt)


def test_projection_reconstruction_identity(all_fixtures):
    """Every ρ ∈ Γ_α is Σ a_k P_α(ρ_k) for Δ^l_{α,1}(ρ) = Σ a_k ⊗ ρ_k,
    i.e. L ∘ (id ⊗ P_α) ∘ Δ^l_{α,1} = id as matrices."""
    for h in all_fixtures.values():
        bim = universal_calculus(h).to_bimodule()
        e = h.group.identity
        for a in h.group.elements():
            p = projection_P_matrix(bim, a)
            recon = (bim.left[a]
                     @ Matrix.identity(h.field, h.n(a)).kron(p)
                     @ bim.delta_l[(a, e)])
            assert recon == Matrix.identity(h.field, bim.g(a))


def _symmetric_group_3():
    import itertools

    from hopfpi.groups import group_from_table

    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[x]] for x in range(3))

    return group_from_table([[index[compose(p, q)] for q in perms] for p in perms])


@pytest.mark.parametrize("grading", ["z3", "s3"])
def test_full_pipeline_over_larger_grading_groups(grading, kz2, f7z3):
    """Constant families over Z/3 (gradings that are not self-inverse) and
    S_3 (non-abelian) catch any swapped α/α⁻¹ or product-order bookkeeping
    that gradings of order two cannot distinguish."""
    from hopfpi import (ad_map, check_bicovariant, constant_family, cyclic,
                        universal_calculus, verify_hopf, verify_pi_coalgebra)
    from hopfpi.calculus import r_inv, r_map, t_inv, t_map

    pi = cyclic(3) if grading == "z3" else _symmetric_group_3()
    for base in (kz2, f7z3):
        h = constant_family(base, pi)
        assert verify_pi_coalgebra(h).ok and verify_hopf(h).ok
        f = h.field
        e = h.group.identity
        for a in h.group.elements():
            eye = Matrix.identity(f, h.n(a) ** 2)
            assert r_inv(h, a) @ r_map(h, a) == eye
            assert t_map(h, a) @ t_inv(h, a) == eye
        for a in h.group.elements():
            for b in h.group.elements():
                ab = h.group.mul(a, b)
                lhs = ad_map(h, a).kron(Matrix.identity(f, h.n(b))) @ ad_map(h, b)
                rhs = Matrix.identity(f, h.n(e)).kron(h.comult[(a, b)]) @ ad_map(h, ab)
                assert lhs == rhs
        calc = universal_calculus(h)
        assert check_bicovariant(calc).ok
        bim = calc.to_bimodule()
        data = extract_structure(bim)
        rebuilt = reconstruct(h, data.f, data.R, data.size)
        assert reconstruction_matches(bim, rebuilt)


def test_convolution_inverse_identities_elementwise(all_fixtures):
    """Σ_j f_ji*((f_hj∘S_1^{-1})*a) = δ_ih·a and the reversed form, on a
    basis of every component (the action form of the inverse identities,
    meaningful at every grading)."""
    from hopfpi.linalg import unit_vec

    for h in all_fixtures.values():
        bim = universal_calculus(h).to_bimodule()
        funcs = functionals_f(bim)
        size = len(funcs)
        f = h.field
        e = h.group.identity
        s1_inv = h.antipode_inv(e)
        for a in h.group.elements():
            n = h.n(a)
            for m in range(n):
                avec = unit_vec(f, n, m)
                for i in range(size):
                    for hh in range(size):
                        acc = zero_vec(f, n)
                        acc_rev = zero_vec(f, n)
                        for j in range(size):
                            inner = star_element(precompose(funcs[hh][j], s1_inv, e, e), a, avec)
                            acc = vec_add(f, acc, star_element(funcs[j][i], a, inner))
                            inner_rev = star_element(funcs[i][j], a, avec)
                            acc_rev = vec_add(
                                f, acc_rev,
                                star_element(precompose(funcs[j][hh], s1_inv, e, e), a, inner_rev))
                        want = avec if i == hh else zero_vec(f, n)
                        assert acc == want
                        assert acc_rev == want


# -- matrix-form checks against the vector-at-a-time reference -----------------


def _vector_commutation(h, maps, funcs, side):
    """M_ij(b) = f_ij * b (left) or b * g_ij (right), one basis b at a time."""
    from hopfpi.linalg import unit_vec

    for a in h.group.elements():
        for m in range(h.n(a)):
            b = unit_vec(h.field, h.n(a), m)
            for i, row in enumerate(funcs):
                for j, phi in enumerate(row):
                    want = star_element(phi, a, b) if side == "left" else element_star(phi, a, b)
                    if maps[a][i][j].apply(b) != want:
                        return False
    return True


def _vector_left_multiplication(cb, frames, funcs, side):
    """a w_i = Σ_j w_j ((φ_ij∘S_1^{-1}) * a) or Σ_j w_j (a * (φ_ij∘S_1^{-1}))."""
    from hopfpi.linalg import unit_vec

    h = cb.h
    f = h.field
    e = h.group.identity
    s1_inv = h.antipode_inv(e)
    for a in h.group.elements():
        for m in range(h.n(a)):
            avec = unit_vec(f, h.n(a), m)
            for i, row in enumerate(funcs):
                lhs = cb.left[a].apply(vec_kron(f, avec, frames[a][i]))
                rhs = zero_vec(f, cb.g(a))
                for j, phi in enumerate(row):
                    twisted = precompose(phi, s1_inv, e, e)
                    coeff = (star_element(twisted, a, avec) if side == "left"
                             else element_star(twisted, a, avec))
                    rhs = vec_add(f, rhs, cb.right[a].apply(vec_kron(f, frames[a][j], coeff)))
                if lhs != rhs:
                    return False
    return True


def _vector_intertwiner(h, funcs_f, funcs_g, R, gradings):
    """Σ_i R_ij (a*f_ih) = Σ_i (g_ji*a) R_hi, one basis a at a time."""
    from hopfpi.linalg import unit_vec

    R = r_blocks(h, R)
    f = h.field
    size = len(funcs_f)
    for a in gradings:
        n = h.n(a)
        for m in range(n):
            avec = unit_vec(f, n, m)
            for j in range(size):
                for hh in range(size):
                    lhs = zero_vec(f, n)
                    rhs = zero_vec(f, n)
                    for i in range(size):
                        lhs = vec_add(f, lhs, h.mult[a].apply(vec_kron(
                            f, R[a][i][j], element_star(funcs_f[i][hh], a, avec))))
                        rhs = vec_add(f, rhs, h.mult[a].apply(vec_kron(
                            f, star_element(funcs_g[j][i], a, avec), R[a][hh][i])))
                    if lhs != rhs:
                        return False
    return True


def _raw_structure(bim):
    """F, f, R, η, G and g without running any identity on f or g."""
    from hopfpi.structure import _collapse, coefficient_maps

    h = bim.h
    F = coefficient_maps(bim)
    R = matrix_R(bim)
    eta = eta_basis(bim, R)
    G = coefficient_maps(bim, eta)
    return F, _collapse(h, F), R, eta, G, _collapse(h, G)


def _bump_functional(h, phi):
    """φ + ε on A_1: a lawful-looking functional that breaks the identities."""
    e = h.group.identity
    comps = {a: phi.component(a) for a in h.group.elements()}
    comps[e] = tuple(h.field.add(x, y) for x, y in zip(comps[e], h.counit.row(0)))
    return GradedFunctional(h, comps)


def _bump_R(h, R):
    """R with the unit added to R^1_00."""
    e = h.group.identity
    bad = r_blocks(h, R)
    bad[e][0][0] = tuple(h.field.add(x, y) for x, y in zip(bad[e][0][0], h.unit[e]))
    return r_matrices(h, bad)


def _oracle_bimodules(all_fixtures):
    from hopfpi import taft_hopf_algebra

    hs = dict(all_fixtures, taft=taft_hopf_algebra(QQ))
    return {name: universal_calculus(h).to_bimodule() for name, h in hs.items()}


def test_matrix_checks_agree_with_vector_reference(all_fixtures):
    """Each matrix-form check gives the vector reference's verdict, on the
    extracted data and on data with one functional or R entry bumped."""
    from hopfpi.structure import (check_commutation_rule, check_left_multiplication_rule,
                                  intertwiner_report)

    verdicts = []
    for name, bim in _oracle_bimodules(all_fixtures).items():
        h = bim.h
        F, f, R, eta, G, g = _raw_structure(bim)
        omega = [bim.omega(a) for a in h.group.elements()]
        bad_f = [[_bump_functional(h, f[0][0])] + f[0][1:]] + f[1:]
        bad_g = [[_bump_functional(h, g[0][0])] + g[0][1:]] + g[1:]
        bad_R = _bump_R(h, R)
        grads = list(h.group.elements())
        for funcs_f, funcs_g, R_ in ((f, g, R), (bad_f, bad_g, R), (f, g, bad_R)):
            pairs = [
                (check_commutation_rule(h, F, funcs_f, "left").ok,
                 _vector_commutation(h, F, funcs_f, "left")),
                (check_commutation_rule(h, G, funcs_g, "right").ok,
                 _vector_commutation(h, G, funcs_g, "right")),
                (check_left_multiplication_rule(bim, omega, funcs_f, "left").ok,
                 _vector_left_multiplication(bim, omega, funcs_f, "left")),
                (check_left_multiplication_rule(bim, eta, funcs_g, "right").ok,
                 _vector_left_multiplication(bim, eta, funcs_g, "right")),
                (intertwiner_report(h, funcs_f, funcs_g, R_, grads).ok,
                 _vector_intertwiner(h, funcs_f, funcs_g, R_, grads)),
                (intertwiner_report(h, funcs_f, funcs_f, R_, [h.group.identity]).ok,
                 _vector_intertwiner(h, funcs_f, funcs_f, R_, [h.group.identity])),
            ]
            for k, (matrix_ok, vector_ok) in enumerate(pairs):
                assert matrix_ok == vector_ok, (name, k)
                verdicts.append(matrix_ok)
    # both verdicts occur, so the agreement is not vacuous
    assert True in verdicts and False in verdicts


def test_taft_verdicts_match_reference():
    """On the Taft algebra the η left-multiplication rule fails and every
    other matrix-form identity holds, exactly as the vector reference says."""
    from hopfpi import taft_hopf_algebra
    from hopfpi.structure import check_left_multiplication_rule, intertwiner_report

    bim = universal_calculus(taft_hopf_algebra(QQ)).to_bimodule()
    F, f, R, eta, G, g = _raw_structure(bim)
    assert not check_left_multiplication_rule(bim, eta, g, "right").ok
    assert not _vector_left_multiplication(bim, eta, g, "right")
    assert intertwiner_report(bim.h, f, f, R, [0]).ok
    assert _vector_intertwiner(bim.h, f, f, R, [0])


# -- one shared check, two callers -------------------------------------------


def _checks_named(report):
    return {v.check for v in report.violations}


def test_corrupted_f_value_fails_extraction_and_reconstruction(kz2, kz2_bim):
    """f_00(u) bumped by 1: f is no longer a character."""
    from hopfpi.errors import StructureInconsistent
    from hopfpi.structure import coefficient_maps

    maps = coefficient_maps(kz2_bim)
    bumped = maps[0][0][0] + Matrix(QQ, 2, 2, {(0, 1): F(1)})   # u ↦ u's coefficients + e
    with pytest.raises(StructureInconsistent) as extraction:
        functionals_f(kz2_bim, coeffs=[[[bumped]]])
    data = extract_structure(kz2_bim)
    bad_f = [[GradedFunctional(kz2, {0: (kz2.counit @ kz2.psi[0] @ bumped).row(0)})]]
    with pytest.raises(IncompatibleData) as rebuild:
        reconstruct(kz2, bad_f, data.R, data.size)
    assert "frame-multiplicativity" in _checks_named(extraction.value.report)
    assert "frame-multiplicativity" in _checks_named(rebuild.value.report)


def test_corrupted_unit_fails_extraction_and_reconstruction(kz2, kz2_bim):
    """The unit doubled: f(1) = δ no longer holds."""
    import copy

    from hopfpi.errors import StructureInconsistent

    data = extract_structure(kz2_bim)
    doubled = HopfPiCoalgebra(kz2.group, kz2.field, kz2.dims, kz2.comult, kz2.counit,
                              kz2.mult, [(F(2), F(0))], kz2.antipode, psi=kz2.psi,
                              basis_names=kz2.basis_names)
    bad = copy.copy(kz2_bim)
    bad.h = doubled
    with pytest.raises(StructureInconsistent) as extraction:
        functionals_f(bad)
    with pytest.raises(IncompatibleData) as rebuild:
        reconstruct(doubled, data.f, data.R, data.size)
    assert "frame-normalisation" in _checks_named(extraction.value.report)
    assert "frame-normalisation" in _checks_named(rebuild.value.report)


def test_corrupted_R_fails_extraction_and_reconstruction(kz2_const, const_bim):
    """Δ^r doubled, so R doubles: ε(R) = 2 and Δ(R) ≠ R⊗R."""
    import copy

    from hopfpi.errors import StructureInconsistent

    data = extract_structure(const_bim)
    bad = copy.copy(const_bim)
    bad.delta_r = {k: m.scale(F(2)) for k, m in const_bim.delta_r.items()}
    with pytest.raises(StructureInconsistent) as extraction:
        extract_structure(bad)
    assert extraction.value.data.R is None
    double_R = [rb.scale(F(2)) for rb in data.R]
    with pytest.raises(IncompatibleData) as rebuild:
        reconstruct(kz2_const, data.f, double_R, data.size)
    for check in ("coaction-matrix-counit", "coaction-matrix-comultiplication"):
        assert check in _checks_named(extraction.value.report)
        assert check in _checks_named(rebuild.value.report)


def test_corrupted_R_breaks_the_intertwiner_on_taft():
    """On the non-commutative Taft algebra a bumped R entry breaks the
    intertwiner, found by extraction and by reconstruction alike."""
    from hopfpi import taft_hopf_algebra
    from hopfpi.errors import StructureInconsistent
    from hopfpi.structure import check_intertwiner

    t = taft_hopf_algebra(QQ)
    bim = universal_calculus(t).to_bimodule()
    funcs = functionals_f(bim)
    R = matrix_R(bim)
    check_intertwiner(bim, funcs, funcs, R)           # lawful data passes
    bad_R = r_blocks(t, R)
    bad_R[0][0][1] = tuple(x + y for x, y in zip(bad_R[0][0][1], (F(0), F(0), F(1), F(0))))
    bad_R = r_matrices(t, bad_R)
    with pytest.raises(StructureInconsistent) as extraction:
        check_intertwiner(bim, funcs, funcs, bad_R)
    with pytest.raises(IncompatibleData) as rebuild:
        reconstruct(t, funcs, bad_R, 3)
    assert "intertwiner-identity" in _checks_named(extraction.value.report)
    assert "intertwiner-identity" in _checks_named(rebuild.value.report)


def test_extraction_failure_keeps_partial_data():
    """On Taft the failing g step leaves f, R and η in the data, and the
    intertwiner (which needs g) is marked as not run."""
    from hopfpi import taft_hopf_algebra
    from hopfpi.errors import StructureInconsistent

    bim = universal_calculus(taft_hopf_algebra(QQ)).to_bimodule()
    with pytest.raises(StructureInconsistent) as exc:
        extract_structure(bim)
    data = exc.value.data
    assert data.f is not None and data.R is not None and data.eta is not None
    assert data.g is None
    assert set(data.not_run) == {"intertwiner-identity"}
    assert {v.check for v in data.report.violations} == {"frame-multiplicativity"}
    assert exc.value.report is data.report


# -- witnesses of the bimodule laws --------------------------------------------


def _bumped(m: Matrix, key) -> Matrix:
    """m with 1 added to the entry at `key`."""
    return m + Matrix(m.field, m.rows, m.cols, {key: m.field.one()})


def test_bimodule_law_failures_name_the_law_and_a_basis_vector(kz2_bim):
    """Bumping one entry of a lawful action or coaction fails the laws it
    enters; each violation names its law and the first failing column."""
    cb = kz2_bim
    h = cb.h
    left = [_bumped(cb.left[0], (0, 0))]              # 1·ρ_0 gains ρ_0
    with pytest.raises(VerificationFailed) as err:
        CovariantBimodule(h, cb.dims, left, cb.right, delta_l=cb.delta_l, delta_r=cb.delta_r)
    report = err.value.report
    assert ("module-left-unital", (0,), 0) in {(v.check, v.grading, v.basis_index)
                                                for v in report.violations}
    assert all(v.basis_index is not None for v in report.violations)

    delta_l = dict(cb.delta_l)
    delta_l[(0, 0)] = _bumped(cb.delta_l[(0, 0)], (0, 0))   # e ⊗ ρ_0 term of Δ^l(ρ_0)
    with pytest.raises(VerificationFailed) as err:
        CovariantBimodule(h, cb.dims, cb.left, cb.right, delta_l=delta_l, delta_r=cb.delta_r)
    report = err.value.report
    assert ("coaction-counit", (0,), 0) in {(v.check, v.grading, v.basis_index)
                                            for v in report.violations}
    assert all(v.basis_index is not None for v in report.violations)

    delta_r = dict(cb.delta_r)
    delta_r[(0, 0)] = _bumped(cb.delta_r[(0, 0)], (2, 0))   # ρ_1 ⊗ e term of Δ^r(ρ_0)
    with pytest.raises(VerificationFailed) as err:
        CovariantBimodule(h, cb.dims, cb.left, cb.right, delta_l=cb.delta_l, delta_r=delta_r)
    report = err.value.report
    assert ("bicovariance-compatibility", (0, 0, 0), 0) in {
        (v.check, v.grading, v.basis_index) for v in report.violations}
    assert all(v.basis_index is not None for v in report.violations)


def test_bicovariance_compatibility_failure_has_a_witness(kz2):
    """check_bicovariant names a failed compatibility law with the first
    failing basis vector of Γ."""
    calc = universal_calculus(kz2)
    assert check_bicovariant(calc).ok
    report, coactions = calc._covariance["right"]
    bumped = dict(coactions)
    bumped[(0, 0)] = _bumped(coactions[(0, 0)], (2, 0))
    calc._covariance["right"] = (report, bumped)
    violations = check_bicovariant(calc).violations
    assert [(v.check, v.grading, v.basis_index) for v in violations] == [
        ("bicovariance-compatibility", (0, 0, 0), 0)]


# -- leg reorderings against their flip / Kronecker-product formulas -----------------


def _kron_all(*mats: Matrix) -> Matrix:
    out = mats[0]
    for m in mats[1:]:
        out = out.kron(m)
    return out


@pytest.fixture(scope="module", params=[
    "kz2_rational.json", "f7_z3.json", "kz2_constant_z2.json", "f7z3_constant_z2.json",
    "taft4_rational.json", "q_z3_skew_basis.json", "taft over F7"])
def lawful_structure(request, fixture_dir):
    """Every fixture structure that verifies, and the Taft algebra over F_7."""
    if request.param == "taft over F7":
        return taft_hopf_algebra(PrimeField(7))
    return load_document(fixture_dir / request.param).hopf


def test_leg_reorderings_match_flip_formulas(lawful_structure):
    """interchange_product, Φ^l, Φ^r, t, t^{-1}, ad and the left action and
    Δ^l of reconstruct equal the products with permutation matrices built
    from flip and identity Kronecker factors."""
    h = lawful_structure
    f = h.field
    g = h.group
    e = g.identity
    n1 = h.n(e)

    def eye(n):
        return Matrix.identity(f, n)

    for a in g.elements():
        na, ai = h.n(a), g.inv(a)
        for b in g.elements():
            nb = h.n(b)
            swap = _kron_all(eye(na), flip(f, nb, na), eye(nb))
            d = h.comult[(a, b)]
            assert (interchange_product(h.mult[a], h.mult[b], na, nb, na, nb)
                    == h.mult[a].kron(h.mult[b]) @ swap)
            assert phi_l(h, a, b) == h.mult[a].kron(eye(nb * nb)) @ swap @ d.kron(d)
            assert phi_r(h, a, b) == eye(na * na).kron(h.mult[b]) @ swap @ d.kron(d)
        assert t_map(h, a) == (eye(n1).kron(h.mult[a]) @ flip(f, na, n1).kron(eye(na))
                               @ eye(na).kron(h.comult[(e, a)]))
        step1 = h.comult[(a, ai)].kron(eye(na))
        step2 = eye(na).kron(h.antipode_inv(a).kron(eye(na)))
        perm = eye(na).kron(flip(f, na, na)) @ flip(f, na * na, na)
        assert t_inv(h, a) == h.mult[a].kron(eye(na)) @ perm @ step2 @ step1
        applied = _kron_all(h.antipode[ai], eye(n1), eye(na)) @ h.comult_path((ai, e, a))
        sweedler = eye(n1).kron(h.mult[a]) @ flip(f, na, n1).kron(eye(na)) @ applied
        assert ad_map(h, a) == sweedler

    size = 2
    character = GradedFunctional(h, {a: (h.counit @ h.psi[a]).row(0) for a in g.elements()})
    zero = GradedFunctional(h, {})
    funcs = [[character, zero], [zero, character]]
    R = r_matrices(h, [[[tuple(h.unit[b]), (f.zero(),) * h.n(b)],
                        [(f.zero(),) * h.n(b), tuple(h.unit[b])]] for b in g.elements()])
    rebuilt = reconstruct(h, funcs, R, size)
    for a in g.elements():
        na = h.n(a)
        assert rebuilt.left[a] == eye(size).kron(h.mult[a]) @ flip(f, na, size).kron(eye(na))
        for b in g.elements():
            nb = h.n(b)
            assert rebuilt.delta_l[(a, b)] == (flip(f, size, na).kron(eye(nb))
                                               @ eye(size).kron(h.comult[(a, b)]))


# -- the trusted bimodule of a calculus against the law verification ------------


@pytest.mark.parametrize("name", [
    "kz2_rational.json", "f7_z3.json", "kz2_constant_z2.json", "f7z3_constant_z2.json",
    "taft4_rational.json", "q_z3_skew_basis.json", "taft over F7", "taft over F11"])
def test_calculus_bimodule_laws_hold(name, fixture_dir):
    """`to_bimodule` adopts a calculus's actions and coactions unverified;
    the full law verification must pass on every one of them: the
    universal calculus and each named ideal of every fixture, and every
    enumerable ideal, each on the left and on the right route."""
    from hopfpi import calculus_from_ideal_right, enumerate_right_ideals

    if name.startswith("taft over F"):
        h, named = taft_hopf_algebra(PrimeField(int(name[len("taft over F"):]))), []
    else:
        doc = load_document(fixture_dir / name)
        h = doc.hopf
        named = [right_ideal_from_generators(h, gens) for gens in doc.ideal_generators.values()]
    ideals = list(named)
    f = h.field
    if isinstance(f, PrimeField) and f.p <= 11 and h.counit_kernel().dim <= 3:
        ideals += enumerate_right_ideals(h)
    calcs = [universal_calculus(h)]
    calcs += [route(h, ideal) for ideal in ideals
              for route in (calculus_from_ideal, calculus_from_ideal_right)]
    for calc in calcs:
        report = calc.to_bimodule().verify()
        assert report.ok, (name, calc.side, calc.ideal, str(report))


def test_calculus_bimodule_needs_the_hopf_axioms():
    """The laws of a calculus's bimodule descend from the Hopf axioms, so
    a structure that fails them gets no bimodule, with the failing axioms
    in the report."""
    from hopfpi import cyclic, group_algebra

    h = group_algebra(cyclic(3), QQ)
    bad = HopfPiCoalgebra(h.group, h.field, h.dims, h.comult, h.counit, h.mult, h.unit,
                          [Matrix.identity(QQ, 3)], psi=h.psi)
    with pytest.raises(VerificationFailed) as err:
        universal_calculus(bad).to_bimodule()
    checks = {v.check for v in err.value.report.violations}
    assert {"antipode-axiom-left", "antipode-axiom-right"} <= checks
    assert "antipode-axiom" in str(err.value)
