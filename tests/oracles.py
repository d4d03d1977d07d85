"""Reference implementations used only by the tests.

Each function here states its identity one vector (or one basis element)
at a time, independently of the sparse matrix products the library uses,
so the tests can compare the two on the same data.  Nothing in `hopfpi`
imports this module.
"""

from __future__ import annotations

from typing import Sequence

from hopfpi.calculus import Fodc, UniversalBimodule, phi_l, phi_r, universal_bimodule
from hopfpi.errors import (
    CodomainViolation,
    DimensionMismatch,
    NotBicovariant,
    StructureInconsistent,
)
from hopfpi.hopf import GradedFunctional, HopfPiCoalgebra, VerificationReport, Violation
from hopfpi.linalg import Field, Matrix, Subspace, vec_kron
from hopfpi.structure import (
    R_COMULT,
    R_COUNIT,
    CovariantBimodule,
    _frame_size,
    _require,
    invariant_subspace_right,
)


# ---------------------------------------------------------------------------
# vectors


def zero_vec(field: Field, n: int) -> tuple:
    return (field.zero(),) * n


def vec_add(field: Field, v: Sequence, w: Sequence) -> tuple:
    if len(v) != len(w):
        raise DimensionMismatch(f"vec_add: {len(v)} vs {len(w)}")
    return tuple(field.add(a, b) for a, b in zip(v, w))


# ---------------------------------------------------------------------------
# graded functionals and convolution, one element at a time


def counit_functional(h: HopfPiCoalgebra) -> GradedFunctional:
    return GradedFunctional(h, {h.group.identity: h.counit.row(0)})


def convolution_unit(h: HopfPiCoalgebra, alpha: int, target_unit, target_dim: int) -> Matrix:
    """ε(·)1_T on A_α (zero map unless α = 1)."""
    f = h.field
    if alpha != h.group.identity:
        return Matrix.zero(f, target_dim, h.n(alpha))
    return Matrix.column(f, target_unit) @ h.counit


def precompose(phi: GradedFunctional, m: Matrix, domain_alpha: int,
               component_alpha: int) -> GradedFunctional:
    """The functional φ^{component_alpha} ∘ m, supported at domain_alpha."""
    row = (Matrix.row_vector(phi.h.field, phi.component(component_alpha)) @ m).row(0)
    return GradedFunctional(phi.h, {domain_alpha: row})


def star_element(phi: GradedFunctional, alpha: int, v) -> tuple:
    """φ*a = (id ⊗ φ)Δ_{α,1}(a); evaluates the A_1 component."""
    h = phi.h
    f = h.field
    e = h.group.identity
    w = h.comult[(alpha, e)].apply(v)
    row = phi.component(e)
    n1 = h.n(e)
    out = []
    for i in range(h.n(alpha)):
        s = f.zero()
        for j in range(n1):
            s = f.add(s, f.mul(w[i * n1 + j], row[j]))
        out.append(s)
    return tuple(out)


def element_star(phi: GradedFunctional, alpha: int, v) -> tuple:
    """a*φ = (φ ⊗ id)Δ_{1,α}(a); evaluates the A_1 component."""
    h = phi.h
    f = h.field
    e = h.group.identity
    w = h.comult[(e, alpha)].apply(v)
    row = phi.component(e)
    n = h.n(alpha)
    out = []
    for i in range(n):
        s = f.zero()
        for j in range(h.n(e)):
            s = f.add(s, f.mul(w[j * n + i], row[j]))
        out.append(s)
    return tuple(out)


# ---------------------------------------------------------------------------
# calculi: Φ in A²-coordinates and the implication form of covariance


def phi_l_restricted(h: HopfPiCoalgebra, alpha: int, beta: int,
                     asq: UniversalBimodule | None = None) -> Matrix:
    """Φ^l in A²-coordinates: A²_{αβ} → A_α ⊗ A²_β, with codomain check."""
    asq = asq or universal_bimodule(h)
    f = h.field
    ab = h.group.mul(alpha, beta)
    target = Subspace.full(f, h.n(alpha)).tensor(asq.sub[beta])
    restricted = phi_l(h, alpha, beta) @ asq.sub[ab].inclusion_matrix()
    for j in range(restricted.cols):
        if not target.contains(restricted.col(j)):
            raise CodomainViolation(
                f"Φ^l image of A² basis vector {j} at ({alpha},{beta}) "
                f"falls outside A⊗A²")
    drop = Matrix.identity(f, h.n(alpha)).kron(asq.sub[beta].coords_matrix())
    return drop @ restricted


def phi_r_restricted(h: HopfPiCoalgebra, alpha: int, beta: int,
                     asq: UniversalBimodule | None = None) -> Matrix:
    """Φ^r in A²-coordinates: A²_{αβ} → A²_α ⊗ A_β, with codomain check."""
    asq = asq or universal_bimodule(h)
    f = h.field
    ab = h.group.mul(alpha, beta)
    target = asq.sub[alpha].tensor(Subspace.full(f, h.n(beta)))
    restricted = phi_r(h, alpha, beta) @ asq.sub[ab].inclusion_matrix()
    for j in range(restricted.cols):
        if not target.contains(restricted.col(j)):
            raise CodomainViolation(
                f"Φ^r image of A² basis vector {j} at ({alpha},{beta}) "
                f"falls outside A²⊗A")
    drop = asq.sub[alpha].coords_matrix().kron(Matrix.identity(f, h.n(beta)))
    return drop @ restricted


def spot_check_implication(calc: Fodc) -> VerificationReport:
    """The literal implication form of covariance on a basis of N.

    For q = Σ a_k⊗b_k ∈ N_{αβ} (so Σ a_k d b_k = 0) the image
    Σ Δ(a_k)(id⊗d_β)Δ(b_k) — which is (id⊗Π_β)Φ^l(q) — must vanish,
    and symmetrically for the right side.
    """
    h = calc.h
    g = h.group
    f = h.field
    report = VerificationReport()
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            left_map = Matrix.identity(f, h.n(a)).kron(calc.drop[b]) @ phi_l(h, a, b)
            right_map = calc.drop[a].kron(Matrix.identity(f, h.n(b))) @ phi_r(h, a, b)
            for j, w in enumerate(calc.kernels[ab].basis):
                if any(x != f.zero() for x in left_map.apply(w)):
                    report.extend([Violation("left-covariance-implication", (a, b), j,
                                             "Σ Δ(a_k)(id⊗d)Δ(b_k) ≠ 0 on N")])
                if any(x != f.zero() for x in right_map.apply(w)):
                    report.extend([Violation("right-covariance-implication", (a, b), j,
                                             "Σ Δ(a_k)(d⊗id)Δ(b_k) ≠ 0 on N")])
    return report


# ---------------------------------------------------------------------------
# bimodules: frames, R and η one vector at a time


def recombine_left(cb: CovariantBimodule, alpha: int, coeffs) -> tuple:
    """Σ a_i ω_i for coefficients a_i ∈ A_α."""
    f = cb.h.field
    out = zero_vec(f, cb.g(alpha))
    for a_i, w in zip(coeffs, cb.omega(alpha)):
        out = vec_add(f, out, cb.left[alpha].apply(vec_kron(f, a_i, w)))
    return out


def r_blocks(h: HopfPiCoalgebra, R) -> list:
    """R[β][j][i] ∈ A_β read from the matrices R^β (column i = Σ_j e_j ⊗ R_ji)."""
    out = []
    for b, rb in zip(h.group.elements(), R):
        n = h.n(b)
        out.append([[tuple(rb[(j * n + m, i)] for m in range(n)) for i in range(rb.cols)]
                    for j in range(rb.cols)])
    return out


def r_matrices(h: HopfPiCoalgebra, blocks) -> list[Matrix]:
    """The matrices R^β of nested blocks R[β][j][i] ∈ A_β."""
    out = []
    for b, rows in zip(h.group.elements(), blocks):
        n = h.n(b)
        size = len(rows)
        out.append(Matrix(h.field, size * n, size, {
            (j * n + m, i): x
            for j, row in enumerate(rows) for i, r in enumerate(row) for m, x in enumerate(r)}))
    return out


def _delta_violation(report, check, grading, what, val, want, f) -> None:
    """Record `what` = δ as violated when its value `val` is not `want`."""
    if val != want:
        report.extend([Violation(check, tuple(grading), None,
                                 f"{what} = {f.render(val)}, expected {f.render(want)}")])


def _compare_vectors(report: VerificationReport, check: str, grading, lhs, rhs,
                     identity: str) -> None:
    """Record `identity` as violated when two vectors differ, witnessed by
    the first entry on which they do."""
    if lhs == rhs:
        return
    first = next(k for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
    report.extend([Violation(check, tuple(grading), first, identity)])


def check_corepresentation_by_vectors(h: HopfPiCoalgebra, R) -> VerificationReport:
    """Δ_{β,γ}(R^{βγ}_ji) = Σ_h R^β_jh ⊗ R^γ_hi, ε(R^1_ji) = δ_ji, and
    Σ_h S(R_ih)R_hj = δ_ij 1 = Σ_h R_ih S(R_hj), for R in block form."""
    f = h.field
    grp = h.group
    e = grp.identity
    size = len(R[e])
    report = VerificationReport()
    for b in grp.elements():
        for c in grp.elements():
            bc = grp.mul(b, c)
            for j in range(size):
                for i in range(size):
                    rhs = zero_vec(f, h.n(b) * h.n(c))
                    for k in range(size):
                        rhs = vec_add(f, rhs, vec_kron(f, R[b][j][k], R[c][k][i]))
                    _compare_vectors(report, R_COMULT, (b, c),
                                     h.comult[(b, c)].apply(R[bc][j][i]), rhs,
                                     f"Δ(R_{j}{i}) ≠ Σ_h R_{j}h ⊗ R_h{i}")
    for j in range(size):
        for i in range(size):
            _delta_violation(report, R_COUNIT, (e,), f"ε(R_{j}{i})",
                             h.counit.apply(R[e][j][i])[0], f.one() if i == j else f.zero(), f)
    for a in grp.elements():
        ai = grp.inv(a)
        s = h.antipode[ai]
        for i in range(size):
            for j in range(size):
                acc1 = zero_vec(f, h.n(a))
                acc2 = zero_vec(f, h.n(a))
                for k in range(size):
                    acc1 = vec_add(f, acc1, h.mult[a].apply(
                        vec_kron(f, s.apply(R[ai][i][k]), R[a][k][j])))
                    acc2 = vec_add(f, acc2, h.mult[a].apply(
                        vec_kron(f, R[a][i][k], s.apply(R[ai][k][j]))))
                want = tuple(h.unit[a]) if i == j else zero_vec(f, h.n(a))
                _compare_vectors(report, R_COMULT, (a,), acc1, want,
                                 f"Σ_h S(R_{i}h) R_h{j} ≠ δ_{i}{j} 1")
                _compare_vectors(report, R_COMULT, (a,), acc2, want,
                                 f"Σ_h R_{i}h S(R_h{j}) ≠ δ_{i}{j} 1")
    return report


def matrix_R_by_vectors(cb: CovariantBimodule) -> list:
    """R[β][j][i] ∈ A_β with Δ^r_{α,β}(ω_i^{αβ}) = Σ_j ω_j^α ⊗ R_ji, read
    off one image vector at a time and required to be independent of α."""
    if not cb.bicovariant:
        raise NotBicovariant("R extraction needs both coactions")
    h = cb.h
    f = h.field
    grp = h.group
    size = _frame_size(cb)
    per_pair: dict = {}
    for a in grp.elements():
        for b in grp.elements():
            ab = grp.mul(a, b)
            nb = h.n(b)
            target = cb.omega_space(a).tensor(Subspace.full(f, nb))
            rmat = [[None] * size for _ in range(size)]
            for i in range(size):
                img = cb.delta_r[(a, b)].apply(cb.omega(ab)[i])
                if not target.contains(img):
                    raise StructureInconsistent(
                        f"Δ^r(ω) at ({a},{b}) is not in the invariant frame ⊗ A")
                x = target.coords(img)
                for j in range(size):
                    rmat[j][i] = x[j * nb:(j + 1) * nb]
            per_pair[(a, b)] = rmat
    report = VerificationReport()
    R = []
    for b in grp.elements():
        ref = per_pair[(grp.identity, b)]
        for a in grp.elements():
            if per_pair[(a, b)] != ref:
                report.extend([Violation(R_COMULT, (a, b), None,
                                         "R depends on the complementary grading")])
        R.append(ref)
    _require(report.merge(check_corepresentation_by_vectors(h, R)), "R")
    return R


def eta_basis_by_vectors(cb: CovariantBimodule, R) -> list:
    """η_j^α = Σ_i ω_i S_{α^{-1}}(R_ij), for R in block form; checks right
    invariance, that the η span the right invariants, and ω_i = Σ_j η_j R_ji."""
    h = cb.h
    f = h.field
    grp = h.group
    e = grp.identity
    size = _frame_size(cb)
    eta = []
    for a in grp.elements():
        s = h.antipode[grp.inv(a)]
        frame = []
        for j in range(size):
            acc = zero_vec(f, cb.g(a))
            for i in range(size):
                acc = vec_add(f, acc, cb.right[a].apply(
                    vec_kron(f, cb.omega(a)[i], s.apply(R[grp.inv(a)][i][j]))))
            frame.append(acc)
        eta.append(frame)
    report = VerificationReport()
    for a in grp.elements():
        span = Subspace.from_spanning(f, cb.g(a), eta[a])
        if span.dim != size or span != invariant_subspace_right(cb, a):
            report.extend([Violation(R_COMULT, (a,), None,
                                     "the η frame does not span the right invariants")])
        for j in range(size):
            _compare_vectors(report, R_COMULT, (a,), cb.delta_r[(a, e)].apply(eta[a][j]),
                             vec_kron(f, eta[a][j], h.unit[e]), f"η_{j} is not right invariant")
        for i in range(size):
            acc = zero_vec(f, cb.g(a))
            for j in range(size):
                acc = vec_add(f, acc, cb.right[a].apply(vec_kron(f, eta[a][j], R[a][j][i])))
            _compare_vectors(report, R_COMULT, (a,), acc, cb.omega(a)[i],
                             f"ω_{i} ≠ Σ_j η_j R_j{i}")
    _require(report, "η")
    return eta


def check_eta_left_coaction_by_vectors(cb: CovariantBimodule, R, eta) -> None:
    """Δ^l_{α,β}(η_j^{αβ}) = Σ_i S_{α^{-1}}(R_ij) ⊗ η_i^β, for R in block form."""
    h = cb.h
    f = h.field
    grp = h.group
    size = len(eta[grp.identity])
    report = VerificationReport()
    for a in grp.elements():
        ai = grp.inv(a)
        s = h.antipode[ai]
        for b in grp.elements():
            for j in range(size):
                rhs = zero_vec(f, h.n(a) * cb.g(b))
                for i in range(size):
                    rhs = vec_add(f, rhs, vec_kron(f, s.apply(R[ai][i][j]), eta[b][i]))
                lhs = cb.delta_l[(a, b)].apply(eta[grp.mul(a, b)][j])
                _compare_vectors(report, R_COMULT, (a, b), lhs, rhs,
                                 f"Δ^l(η_{j}) ≠ Σ_i S(R_i{j}) ⊗ η_i")
    _require(report, "η")
