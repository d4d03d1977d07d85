"""Reference implementations used only by the tests.

Each function here states its identity one vector (or one basis element)
at a time, independently of the sparse matrix products the library uses;
or, for the identities of the functionals f, g and of R over the frame
index set, one entry (i, j[, h]) at a time, the form the library's
stacked block products replace; or, for the axioms and the bimodule
laws, as products with every identity Kronecker factor built as a
matrix, the form the library's leg-wise products replace.  The tests
compare the two on the same data.
Nothing in `hopfpi` imports this module.
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
from hopfpi.hopf import (
    GradedFunctional,
    HopfPiCoalgebra,
    PiCoalgebra,
    VerificationReport,
    Violation,
    _diff_columns,
)
from hopfpi.linalg import Field, Matrix, Subspace, vec_kron
from hopfpi.structure import (
    _SIDES,
    FRAME_MULT,
    FRAME_NORM,
    INTERTWINER,
    R_COMULT,
    R_COUNIT,
    CovariantBimodule,
    _compare,
    _frame_size,
    _require,
    invariant_subspace_right,
    r_block,
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
# calculi: the ambient actions, Φ in A²-coordinates and the implication
# form of covariance


def left_action_ambient(h: HopfPiCoalgebra, alpha: int) -> Matrix:
    """A_α ⊗ (A_α⊗A_α) → A_α⊗A_α, c⊗(a⊗b) ↦ ca⊗b."""
    return h.mult[alpha].kron(Matrix.identity(h.field, h.n(alpha)))


def right_action_ambient(h: HopfPiCoalgebra, alpha: int) -> Matrix:
    """(A_α⊗A_α) ⊗ A_α → A_α⊗A_α, (a⊗b)⊗c ↦ a⊗bc."""
    return Matrix.identity(h.field, h.n(alpha)).kron(h.mult[alpha])


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


# ---------------------------------------------------------------------------
# the identities of f, g and R one entry (i, j[, h]) at a time


def convolution_map(h: HopfPiCoalgebra, alpha: int, row, side: str) -> Matrix:
    """φ*· = (id⊗φ)Δ_{α,1} (side "left") or ·*φ = (φ⊗id)Δ_{1,α} (side
    "right") as a map A_α → A_α, for φ on A_1 given by its row."""
    e = h.group.identity
    phi = Matrix.row_vector(h.field, row)
    if side == "left":
        return h.comult[(alpha, e)].on_leg(phi, h.n(alpha), 1, 0)
    return h.comult[(e, alpha)].on_leg(phi, 1, h.n(alpha), 0)


def collapse_by_entries(h: HopfPiCoalgebra, maps) -> list:
    """φ_ij with φ_ij^α = ε∘Ψ_α∘M_ij^α, one (α, i, j) at a time."""
    size = len(maps[h.group.identity])
    return [[GradedFunctional(h, {
        a: (h.counit @ h.psi[a] @ maps[a][i][j]).row(0) for a in h.group.elements()})
        for j in range(size)] for i in range(size)]


def check_characters_by_entries(h: HopfPiCoalgebra, funcs, name: str = "f") -> VerificationReport:
    """φ_ij(ab) = Σ_k φ_ik(a) φ_kj(b) and φ_ij(1) = δ_ij, one (α, i, j) at a time."""
    f = h.field
    report = VerificationReport()
    for a in h.group.elements():
        rows = [[Matrix.row_vector(f, phi.component(a)) for phi in row] for row in funcs]
        for i, row in enumerate(funcs):
            for j, phi in enumerate(row):
                rhs = Matrix.zero(f, 1, h.n(a) ** 2)
                for k in range(len(funcs)):
                    rhs = rhs + rows[i][k].kron(rows[k][j])
                _compare(report, FRAME_MULT, (a,), rows[i][j] @ h.mult[a], rhs,
                         f"{name}_{i}{j}(ab) ≠ Σ_k {name}_{i}k(a) {name}_k{j}(b)")
                got = phi(a, h.unit[a])
                want = f.one() if i == j else f.zero()
                if got != want:
                    report.extend([Violation(FRAME_NORM, (a,), None, f"{name}_{i}{j}(1) = "
                                             f"{f.render(got)}, expected {f.render(want)}")])
    return report


def check_commutation_rule_by_entries(h: HopfPiCoalgebra, maps, funcs,
                                      side: str) -> VerificationReport:
    """M_ij = f_ij * · (side "left") or M_ij = · * g_ij (side "right"), one
    (α, i, j) at a time."""
    e = h.group.identity
    w, name = _SIDES[side]
    conv = "{0}_{1}{2} * b" if side == "left" else "b * {0}_{1}{2}"
    report = VerificationReport()
    for a in h.group.elements():
        for i, row in enumerate(funcs):
            for j, phi in enumerate(row):
                _compare(report, FRAME_MULT, (a,), maps[a][i][j],
                         convolution_map(h, a, phi.component(e), side),
                         f"commutation rule: the {w}_{j}-coefficient of {w}_{i} b "
                         f"≠ {conv.format(name, i, j)}")
    return report


def check_left_multiplication_rule_by_entries(cb: CovariantBimodule, frames, funcs,
                                              side: str) -> VerificationReport:
    """a w_i = Σ_j w_j ((φ_ij∘S_1^{-1}) * a) or Σ_j w_j (a * (φ_ij∘S_1^{-1})),
    one (α, i) at a time, summed over j."""
    h = cb.h
    f = h.field
    e = h.group.identity
    s1_inv = h.antipode_inv(e)
    w, name = _SIDES[side]
    hint = ""
    if side == "right" and h.antipode[e] @ h.antipode[e] != Matrix.identity(f, h.n(e)):
        hint = "; this form needs an involutive antipode, and S_1² ≠ id"
    report = VerificationReport()
    for a in h.group.elements():
        n = h.n(a)
        cols = [Matrix.column(f, v) for v in frames[a]]
        times = [cb.right[a].on_leg(c, 1, n, 1) for c in cols]   # b ↦ w_j b
        for i, row in enumerate(funcs):
            rhs = Matrix.zero(f, cb.g(a), h.n(a))
            for j, phi in enumerate(row):
                twisted = (Matrix.row_vector(f, phi.component(e)) @ s1_inv).row(0)
                rhs = rhs + times[j] @ convolution_map(h, a, twisted, side)
            twist = f"{name}_{i}j∘S_1^{{-1}}"
            conv = f"({twist}) * a" if side == "left" else f"a * ({twist})"
            _compare(report, FRAME_MULT, (a,), cb.left[a].on_leg(cols[i], n, 1, 1), rhs,
                     f"left multiplication rule a {w}_{i} = Σ_j {w}_j ({conv}) fails{hint}")
    return report


def check_convolution_inverses_by_entries(h: HopfPiCoalgebra, funcs) -> VerificationReport:
    """Σ_j f_ji*(f_hj∘S_1^{-1}) = δ_ih ε = Σ_j (f_jh∘S_1^{-1})*f_ij on A_1, one
    (i, h) at a time."""
    f = h.field
    e = h.group.identity
    n1 = h.n(e)
    s1_inv = h.antipode_inv(e)
    d11 = h.comult[(e, e)]
    rows = [[Matrix.row_vector(f, phi.component(e)) for phi in row] for row in funcs]
    twisted = [[r @ s1_inv for r in row] for row in rows]
    report = VerificationReport()
    for i in range(len(funcs)):
        for hh in range(len(funcs)):
            acc1 = Matrix.zero(f, 1, n1)
            acc2 = Matrix.zero(f, 1, n1)
            for j in range(len(funcs)):
                acc1 = acc1 + rows[j][i].kron(twisted[hh][j]) @ d11
                acc2 = acc2 + twisted[j][hh].kron(rows[i][j]) @ d11
            target = h.counit if i == hh else Matrix.zero(f, 1, n1)
            _compare(report, FRAME_MULT, (e,), acc1, target,
                     f"Σ_j f_j{i} * (f_{hh}j∘S_1^{{-1}}) ≠ δ_{i}{hh} ε")
            _compare(report, FRAME_MULT, (e,), acc2, target,
                     f"Σ_j (f_j{hh}∘S_1^{{-1}}) * f_{i}j ≠ δ_{hh}{i} ε")
    return report


def intertwiner_report_by_entries(h: HopfPiCoalgebra, funcs_f, funcs_g, R, gradings,
                                  names=("f", "g")) -> VerificationReport:
    """Σ_i L(R_ij)∘(·*f_ih) = Σ_i R(R_hi)∘(g_ji*·) as an n×n matrix identity
    per (α, j, h), L(x), R(x) left and right multiplication by x."""
    f = h.field
    e = h.group.identity
    size = len(funcs_f)
    fn, gn = names
    report = VerificationReport()
    for a in gradings:
        n = h.n(a)
        col = [[Matrix.column(f, r_block(R[a], n, i, j)) for j in range(size)]
               for i in range(size)]
        times_left = [[h.mult[a].on_leg(c, 1, n, 1) for c in row] for row in col]    # x ↦ R_ij x
        times_right = [[h.mult[a].on_leg(c, n, 1, 1) for c in row] for row in col]   # x ↦ x R_hi
        star_f = [[convolution_map(h, a, funcs_f[i][hh].component(e), "right")
                   for hh in range(size)] for i in range(size)]    # a ↦ a * f_ih
        g_star = [[convolution_map(h, a, funcs_g[j][i].component(e), "left")
                   for i in range(size)] for j in range(size)]     # a ↦ g_ji * a
        for j in range(size):
            for hh in range(size):
                lhs = Matrix.zero(f, n, n)
                rhs = Matrix.zero(f, n, n)
                for i in range(size):
                    lhs = lhs + times_left[i][j] @ star_f[i][hh]
                    rhs = rhs + times_right[hh][i] @ g_star[j][i]
                _compare(report, INTERTWINER, (a,), lhs, rhs,
                         f"Σ_i R_i{j} (a * {fn}_i{hh}) ≠ Σ_i ({gn}_{j}i * a) R_{hh}i")
    return report


# ---------------------------------------------------------------------------
# the axioms and bimodule laws with explicit identity Kronecker factors


def interchange_product(mul1: Matrix, mul2: Matrix, p: int, q: int, r: int, s: int) -> Matrix:
    """(x⊗y)·(x'⊗y') ↦ mul1(x⊗x') ⊗ mul2(y⊗y').

    mul1 consumes k^p ⊗ k^r, mul2 consumes k^q ⊗ k^s; the input legs
    (x,y,x',y') are those of mul1⊗mul2, (x,x',y,y'), reordered.
    """
    return mul1.kron(mul2).permute_legs((p, r, q, s), (0, 2, 1, 3), 1)


def pi_coalgebra_laws_by_kron(c: PiCoalgebra) -> VerificationReport:
    """verify_pi_coalgebra with every identity factor built as a matrix."""
    g = c.group
    f = c.field
    e = g.identity
    report = VerificationReport()
    for a in g.elements():
        for b in g.elements():
            for cc in g.elements():
                ab, bc = g.mul(a, b), g.mul(b, cc)
                abc = g.mul(ab, cc)
                lhs = c.comult[(a, b)].kron(Matrix.identity(f, c.n(cc))) @ c.comult[(ab, cc)]
                rhs = Matrix.identity(f, c.n(a)).kron(c.comult[(b, cc)]) @ c.comult[(a, bc)]
                report.extend(_diff_columns("coassociativity", (a, b, cc), lhs, rhs,
                                            namer=lambda j, abc=abc: c.basis_name(abc, j)))
    for a in g.elements():
        eye = Matrix.identity(f, c.n(a))
        left = Matrix.identity(f, c.n(a)).kron(c.counit) @ c.comult[(a, e)]
        report.extend(_diff_columns("counit-left", (a,), left, eye,
                                    namer=lambda j, a=a: c.basis_name(a, j)))
        right = c.counit.kron(Matrix.identity(f, c.n(a))) @ c.comult[(e, a)]
        report.extend(_diff_columns("counit-right", (a,), right, eye,
                                    namer=lambda j, a=a: c.basis_name(a, j)))
    return report


def hopf_laws_by_kron(h: HopfPiCoalgebra) -> VerificationReport:
    """verify_hopf with every identity factor built as a matrix and the
    componentwise multiplication on A_α ⊗ A_β as interchange_product."""
    g = h.group
    f = h.field
    e = g.identity
    report = VerificationReport()

    def named(alpha):
        return lambda j, a=alpha: h.basis_name(a, j)

    def pair_named(alpha, beta):
        nb = h.n(beta)
        return lambda j: f"{h.basis_name(alpha, j // nb)}⊗{h.basis_name(beta, j % nb)}"

    elements = list(g.elements())
    pairs = [(a, b) for a in elements for b in elements]
    for a in elements:
        eye = Matrix.identity(f, h.n(a))
        m = h.mult[a]
        report.extend(_diff_columns("algebra-associativity", (a,),
                                    m @ m.kron(eye), m @ eye.kron(m)))
        report.extend(_diff_columns("algebra-unit-left", (a,),
                                    m @ h.unit_col(a).kron(eye), eye, namer=named(a)))
        report.extend(_diff_columns("algebra-unit-right", (a,),
                                    m @ eye.kron(h.unit_col(a)), eye, namer=named(a)))
    for a, b in pairs:
        ab = g.mul(a, b)
        na, nb = h.n(a), h.n(b)
        d = h.comult[(a, b)]
        pair_mult = interchange_product(h.mult[a], h.mult[b], na, nb, na, nb)
        report.extend(_diff_columns("comult-multiplicative", (a, b), d @ h.mult[ab],
                                    pair_mult @ d.kron(d), namer=pair_named(ab, ab)))
        img = d.apply(h.unit[ab])
        want = vec_kron(f, h.unit[a], h.unit[b])
        if img != want:
            got = ", ".join(f.render(x) for x in img)
            exp = ", ".join(f.render(x) for x in want)
            report.extend([Violation("comult-unital", (a, b), None,
                                     f"Δ(1) = ({got}) expected ({exp})")])
    report.extend(_diff_columns("counit-multiplicative", (), h.counit @ h.mult[e],
                                h.counit.kron(h.counit), namer=pair_named(e, e)))
    eps1 = h.counit.apply(h.unit[e])
    if eps1 != (f.one(),):
        report.extend([Violation("counit-unital", (), None, f"ε(1) = {f.render(eps1[0])}")])
    for a in elements:
        ai = g.inv(a)
        n = h.n(a)
        eye = Matrix.identity(f, n)
        s = h.antipode[ai]
        target = h.unit_col(a) @ h.counit
        left = h.mult[a] @ s.kron(eye) @ h.comult[(ai, a)]
        right = h.mult[a] @ eye.kron(s) @ h.comult[(a, ai)]
        report.extend(_diff_columns("antipode-axiom-left", (a,), left, target, namer=named(e)))
        report.extend(_diff_columns("antipode-axiom-right", (a,), right, target, namer=named(e)))
        sa = h.antipode[a]
        if sa.rows != sa.cols or sa.rank() != n:
            report.extend([Violation("antipode-invertible", (a,), None,
                                     f"S has rank {sa.rank()}, need {n}")])
        ni = h.n(ai)
        report.extend(_diff_columns("antipode-antimultiplicative", (a,), sa @ h.mult[a],
                                    h.mult[ai] @ sa.kron(sa).permute_legs((ni, ni), (1, 0), 0)))
        su = sa.apply(h.unit[a])
        if su != tuple(h.unit[ai]):
            report.extend([Violation("antipode-unital", (a,), None,
                                     f"S(1) = {h.render_element(ai, su)}")])
    for a, b in pairs:
        ab = g.mul(a, b)
        lhs = h.comult[(g.inv(b), g.inv(a))] @ h.antipode[ab]
        rhs = (h.antipode[a].kron(h.antipode[b]) @ h.comult[(a, b)]).permute_legs(
            (h.n(g.inv(a)), h.n(g.inv(b))), (1, 0), 0)
        report.extend(_diff_columns("antipode-comult", (a, b), lhs, rhs, namer=named(ab)))
    report.extend(_diff_columns("antipode-counit", (), h.counit @ h.antipode[e], h.counit,
                                namer=named(e)))
    if h.psi is not None:
        for a in elements:
            p = h.psi[a]
            report.extend(_diff_columns("psi-multiplicative", (a,),
                                        p @ h.mult[a], h.mult[e] @ p.kron(p)))
            pu = p.apply(h.unit[a])
            if pu != tuple(h.unit[e]):
                report.extend([Violation("psi-unital", (a,), None,
                                         f"Ψ(1) = {h.render_element(e, pu)}")])
    return report


def compatibility_by_kron(h: HopfPiCoalgebra, delta_l, delta_r) -> VerificationReport:
    """compatibility_report with the identity factors built as matrices."""
    f = h.field
    grp = h.group
    report = VerificationReport()
    for a in grp.elements():
        for b in grp.elements():
            for c in grp.elements():
                lhs = delta_l[(a, b)].kron(Matrix.identity(f, h.n(c))) @ delta_r[(grp.mul(a, b), c)]
                rhs = Matrix.identity(f, h.n(a)).kron(delta_r[(b, c)]) @ delta_l[(a, grp.mul(b, c))]
                _compare(report, "bicovariance-compatibility", (a, b, c), lhs, rhs,
                         "(Δ^l⊗id)Δ^r ≠ (id⊗Δ^r)Δ^l")
    return report


def bimodule_laws_by_kron(cb: CovariantBimodule) -> VerificationReport:
    """CovariantBimodule.verify with the identity factors and the
    interchange products built as matrices."""
    h = cb.h
    f = h.field
    grp = h.group
    e = grp.identity
    report = VerificationReport()

    def eq(check, grading, lhs, rhs):
        _compare(report, check, grading, lhs, rhs, "matrix identity fails")

    for a in grp.elements():
        eye_n = Matrix.identity(f, h.n(a))
        eye_g = Matrix.identity(f, cb.g(a))
        L, R = cb.left[a], cb.right[a]
        eq("module-left-associative", (a,), L @ eye_n.kron(L), L @ h.mult[a].kron(eye_g))
        eq("module-left-unital", (a,), L @ h.unit_col(a).kron(eye_g), eye_g)
        eq("module-right-associative", (a,), R @ R.kron(eye_n), R @ eye_g.kron(h.mult[a]))
        eq("module-right-unital", (a,), R @ eye_g.kron(h.unit_col(a)), eye_g)
        eq("module-actions-commute", (a,), R @ L.kron(eye_n), L @ eye_n.kron(R))

    pairs = [(a, b) for a in grp.elements() for b in grp.elements()]
    if cb.delta_l is not None:
        for a, b in pairs:
            ab = grp.mul(a, b)
            dl = cb.delta_l[(a, b)]
            na, nb, gb = h.n(a), h.n(b), cb.g(b)
            prod_l = interchange_product(h.mult[a], cb.left[b], na, nb, na, gb)
            eq("coaction-left-action", (a, b),
               dl @ cb.left[ab], prod_l @ h.comult[(a, b)].kron(dl))
            prod_r = interchange_product(h.mult[a], cb.right[b], na, gb, na, nb)
            eq("coaction-right-action", (a, b),
               dl @ cb.right[ab], prod_r @ dl.kron(h.comult[(a, b)]))
        for a, b in pairs:
            for c in grp.elements():
                ab, bc = grp.mul(a, b), grp.mul(b, c)
                lhs = h.comult[(a, b)].kron(Matrix.identity(f, cb.g(c))) @ cb.delta_l[(ab, c)]
                rhs = Matrix.identity(f, h.n(a)).kron(cb.delta_l[(b, c)]) @ cb.delta_l[(a, bc)]
                eq("coaction-coassociative", (a, b, c), lhs, rhs)
        for a in grp.elements():
            lhs = h.counit.kron(Matrix.identity(f, cb.g(a))) @ cb.delta_l[(e, a)]
            eq("coaction-counit", (a,), lhs, Matrix.identity(f, cb.g(a)))

    if cb.delta_r is not None:
        for a, b in pairs:
            ab = grp.mul(a, b)
            dr = cb.delta_r[(a, b)]
            na, nb, ga = h.n(a), h.n(b), cb.g(a)
            prod_l = interchange_product(cb.left[a], h.mult[b], na, nb, ga, nb)
            eq("right-coaction-left-action", (a, b),
               dr @ cb.left[ab], prod_l @ h.comult[(a, b)].kron(dr))
            prod_r = interchange_product(cb.right[a], h.mult[b], ga, nb, na, nb)
            eq("right-coaction-right-action", (a, b),
               dr @ cb.right[ab], prod_r @ dr.kron(h.comult[(a, b)]))
        for a, b in pairs:
            for c in grp.elements():
                ab, bc = grp.mul(a, b), grp.mul(b, c)
                lhs = Matrix.identity(f, cb.g(a)).kron(h.comult[(b, c)]) @ cb.delta_r[(a, bc)]
                rhs = cb.delta_r[(a, b)].kron(Matrix.identity(f, h.n(c))) @ cb.delta_r[(ab, c)]
                eq("right-coaction-coassociative", (a, b, c), lhs, rhs)
        for a in grp.elements():
            lhs = Matrix.identity(f, cb.g(a)).kron(h.counit) @ cb.delta_r[(a, e)]
            eq("right-coaction-counit", (a,), lhs, Matrix.identity(f, cb.g(a)))

    if cb.bicovariant:
        report.extend(compatibility_by_kron(h, cb.delta_l, cb.delta_r).violations)
    return report
