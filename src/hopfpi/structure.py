"""Structure theory of covariant π-graded bimodules.

Left-invariant elements (Δ^l_{1,α}(ρ) = 1⊗ρ) form the frame ω_i; every
element decomposes uniquely as Σ a_i ω_i and as Σ ω_i b_i, and the
commutation of the frame past the algebra is carried by functionals:

    ω_i b = Σ_j (f_ij * b) ω_j,          a ω_i = Σ_j ω_j ((f_ij∘S_1^{-1}) * a),

with f_ij(ab) = Σ_k f_ik(a) f_kj(b) and f_ij(1) = δ_ij, extracted through
the coefficient maps F_ij (ω_i b = Σ F_ij(b) ω_j) and the grading
collapse Ψ: f_ij^α = ε ∘ Ψ_α ∘ F_ij^α.

On a bicovariant bimodule Δ^r_{α,β}(ω_i) = Σ_j ω_j ⊗ R_ji, and R is a
matrix corepresentation (Woronowicz 1989, §2–3, graded).  R^β is one
(|I|·n_β) × |I| matrix per grading, column i = Σ_j e_j ⊗ R_ji, and with
Ŝ_α = (I⊗S_{α^{-1}}) R^{α^{-1}} its laws are four matrix identities:

    (I⊗Δ_{β,γ}) R^{βγ} = (R^β⊗I) R^γ        Δ(R_ji) = Σ_h R_jh ⊗ R_hi
    (I⊗ε) R^1 = I                            ε(R_ji) = δ_ji
    (I⊗m_α)(Ŝ_α⊗I) R^α = I⊗1_α               Σ_h S(R_ih) R_hj = δ_ij 1
    (I⊗m_α)(R^α⊗I) Ŝ_α = I⊗1_α               Σ_h R_ih S(R_hj) = δ_ij 1

The right-invariant frame η_j = Σ_i ω_i S_{α^{-1}}(R_ij) is built from
R; conversely (f, R) data satisfying those relations reconstructs the
bimodule on free modules.

The functionals are stacked like R: T_α is one |I|² × n_α matrix per
grading whose row (i, j) is φ_ij on A_α (φ = f or g), and U = T_1 S_1^{-1}
holds the twisted φ_ij∘S_1^{-1}.  Write [X]_{r;c} for X with its legs
re-keyed to rows r and columns c (Matrix.regroup, no arithmetic), W for
the frame as columns and Q_α for the n_α × |I|² matrix whose column
(i, j) is R_ij.  Each identity of the functionals is then a fixed number
of sparse products per grading (the η forms mirror the ω forms, with
·*g for g*·):

    T_α m_α = [T_α]_{i,x;k} [T_α]_{k;j,y}          φ_ij(ab) = Σ_k φ_ik(a) φ_kj(b)
    T_α 1_α = vec(I)                               φ_ij(1) = δ_ij
    [F]_{i,j,r;m} = [(I⊗T_1)Δ_{α,1}]_{i,j,r;m}       F_ij = f_ij * ·
    [left_α(I⊗W)]_{;i,a} = right_α(W⊗I) [(I⊗U)Δ_{α,1}]_{j,b;i,a}
                                                   a ω_i = Σ_j ω_j ((f_ij∘S_1^{-1}) * a)
    [T_1]_{i,x;j} [U]_{j;h,y} Δ_{1,1} = vec(I)⊗ε   Σ_j f_ji * (f_hj∘S_1^{-1}) = δ_ih ε
    [U]_{h,x;j} [T_1]_{j;i,y} Δ_{1,1} = vec(I)⊗ε   Σ_j (f_jh∘S_1^{-1}) * f_ij = δ_hi ε
    [m_α(Q_α⊗I)]_{j,y;i,x} [(T_1^f⊗I)Δ_{1,α}]_{i,x;h,c}
      = [[m_α(I⊗Q_α)]_{h,y;i,x} [(I⊗T_1^g)Δ_{α,1}]_{i,x;j,c}]_{j,y;h,c}
                                                   Σ_i R_ij (a*f_ih) = Σ_i (g_ji*a) R_hi

A block on which the two sides differ is reported as the violation the
entrywise identity names, witnessed by its first differing column.

Each identity is stated once, as a matrix identity, by a check that
returns a VerificationReport; extraction and reconstruction call the
same checks.  Every violation carries one of five check names, and its
witness names the exact identity:

    frame-multiplicativity             f and g are characters, the rules
                                       F = f*·, G = ·*g and the left-
                                       multiplication rules of ω and η,
                                       the convolution inverses of f
    frame-normalisation                f(1) = δ and g(1) = δ
    coaction-matrix-comultiplication   R independent of the complementary
                                       grading, the Δ and S laws of R, the
                                       identities of the η frame
    coaction-matrix-counit             ε(R) = δ
    intertwiner-identity               f = g on A_1 and
                                       Σ_i R_ij (a*f_ih) = Σ_i (g_ji*a) R_hi
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DimensionMismatch,
    DimensionVariesAcrossGrading,
    IncompatibleData,
    MissingCoaction,
    MissingPsi,
    NotBicovariant,
    SingularMatrix,
    StructureInconsistent,
    VerificationFailed,
)
from .hopf import (
    GradedFunctional,
    HopfPiCoalgebra,
    VerificationReport,
    Violation,
    act_on_pairs,
    verify_all,
)
from .linalg import Matrix, Subspace, kernel


class CovariantBimodule:
    """A π-graded bimodule with coaction(s).

    `left`/`right` are the module actions A_α⊗Γ_α → Γ_α and
    Γ_α⊗A_α → Γ_α; `delta_l` maps Γ_{αβ} → A_α⊗Γ_β and `delta_r` maps
    Γ_{αβ} → Γ_α⊗A_β (either family may be absent).

    The constructor takes arbitrary maps, so it runs `verify()` and
    raises VerificationFailed unless every law holds; `_trusted` builds
    the bimodule of a calculus, whose laws are a theorem.
    """

    def __init__(self, h: HopfPiCoalgebra, dims, left, right,
                 delta_l=None, delta_r=None):
        self._adopt(h, dims, left, right, delta_l, delta_r)
        report = self.verify()
        if not report.ok:
            raise VerificationFailed(
                f"bimodule laws fail ({len(report)} violations): "
                f"{report.violations[0].render()}", report)

    @classmethod
    def _trusted(cls, h: HopfPiCoalgebra, dims, left, right,
                 delta_l=None, delta_r=None) -> "CovariantBimodule":
        """The bimodule Γ = A²/N of a calculus, its laws not re-verified.

        On A⊗A the actions are multiplication on the outer legs and the
        coactions are Φ^l, Φ^r; their laws follow from associativity,
        unit, coassociativity, counit and Δ, ε being algebra maps.  With
        N a sub-bimodule and Φ^l(N) ⊆ A⊗N, Φ^r(N) ⊆ N⊗A (both decided
        before the calculus reaches here) the laws descend to Γ
        (Woronowicz 1989, §1–2, graded).  What remains is the Hopf-axiom
        verdict on h, read from its memo; VerificationFailed carries it
        when an axiom fails.
        """
        report = verify_all(h)
        if not report.ok:
            raise VerificationFailed(
                f"Hopf axioms fail ({len(report)} violations): "
                f"{report.violations[0].render()}", report)
        cb = cls.__new__(cls)
        cb._adopt(h, dims, left, right, delta_l, delta_r)
        return cb

    def _adopt(self, h, dims, left, right, delta_l, delta_r) -> None:
        self.h = h
        self.dims = [int(d) for d in dims]
        self.left = list(left)
        self.right = list(right)
        self.delta_l = dict(delta_l) if delta_l is not None else None
        self.delta_r = dict(delta_r) if delta_r is not None else None
        self._omega: dict[int, Subspace] = {}
        self._decompose: dict[int, Matrix] = {}
        self._decompose_inv: dict[int, Matrix] = {}

    def g(self, alpha: int) -> int:
        return self.dims[alpha]

    @property
    def bicovariant(self) -> bool:
        return self.delta_l is not None and self.delta_r is not None

    # -- law verification ----------------------------------------------------

    def verify(self) -> VerificationReport:
        """Every law of a covariant bimodule, one matrix identity per grading
        (pair, triple): the module laws of `left` and `right`; for each
        coaction that is present, that it is a module map for both actions
        (Δ^l(aρ) = Δ(a)Δ^l(ρ), Δ^l(ρa) = Δ^l(ρ)Δ(a) and their Δ^r forms),
        coassociative and counital; and, when both are, their compatibility.

        Each factor I⊗M acts leg-wise (Matrix.on_leg); the product sides of
        the module-map laws re-key the legs of Δ⊗Δ^l (or Δ^l⊗Δ, …) so that the
        two A-legs and the two remaining legs are adjacent, then multiply each
        pair in place (act_on_pairs).  A violation names the law, its grading
        and the first column on which the two sides differ.
        """
        h = self.h
        f = h.field
        grp = h.group
        e = grp.identity
        report = VerificationReport()

        def eq(check, grading, lhs, rhs):
            _compare(report, check, grading, lhs, rhs, "matrix identity fails")

        for a in grp.elements():
            n = h.n(a)
            ga = self.g(a)
            eye_g = Matrix.identity(f, ga)
            L, R = self.left[a], self.right[a]
            eq("module-left-associative", (a,), L.on_leg(L, n, 1, 1), L.on_leg(h.mult[a], 1, ga, 1))
            eq("module-left-unital", (a,), L.on_leg(h.unit_col(a), 1, ga, 1), eye_g)
            eq("module-right-associative", (a,), R.on_leg(R, 1, n, 1), R.on_leg(h.mult[a], ga, 1, 1))
            eq("module-right-unital", (a,), R.on_leg(h.unit_col(a), ga, 1, 1), eye_g)
            eq("module-actions-commute", (a,), R.on_leg(L, 1, n, 1), L.on_leg(R, n, 1, 1))

        pairs = [(a, b) for a in grp.elements() for b in grp.elements()]
        if self.delta_l is not None:
            for a, b in pairs:
                ab = grp.mul(a, b)
                d, dl = h.comult[(a, b)], self.delta_l[(a, b)]
                na, nb, gb = h.n(a), h.n(b), self.g(b)
                eq("coaction-left-action", (a, b), dl @ self.left[ab],
                   act_on_pairs(d, dl, (na, nb, na, gb), h.mult[a], self.left[b]))
                eq("coaction-right-action", (a, b), dl @ self.right[ab],
                   act_on_pairs(dl, d, (na, gb, na, nb), h.mult[a], self.right[b]))
            for a, b in pairs:
                for c in grp.elements():
                    ab, bc = grp.mul(a, b), grp.mul(b, c)
                    lhs = self.delta_l[(ab, c)].on_leg(h.comult[(a, b)], 1, self.g(c), 0)
                    rhs = self.delta_l[(a, bc)].on_leg(self.delta_l[(b, c)], h.n(a), 1, 0)
                    eq("coaction-coassociative", (a, b, c), lhs, rhs)
            for a in grp.elements():
                lhs = self.delta_l[(e, a)].on_leg(h.counit, 1, self.g(a), 0)
                eq("coaction-counit", (a,), lhs, Matrix.identity(f, self.g(a)))

        if self.delta_r is not None:
            for a, b in pairs:
                ab = grp.mul(a, b)
                d, dr = h.comult[(a, b)], self.delta_r[(a, b)]
                na, nb, ga = h.n(a), h.n(b), self.g(a)
                eq("right-coaction-left-action", (a, b), dr @ self.left[ab],
                   act_on_pairs(d, dr, (na, nb, ga, nb), self.left[a], h.mult[b]))
                eq("right-coaction-right-action", (a, b), dr @ self.right[ab],
                   act_on_pairs(dr, d, (ga, nb, na, nb), self.right[a], h.mult[b]))
            for a, b in pairs:
                for c in grp.elements():
                    ab, bc = grp.mul(a, b), grp.mul(b, c)
                    lhs = self.delta_r[(a, bc)].on_leg(h.comult[(b, c)], self.g(a), 1, 0)
                    rhs = self.delta_r[(ab, c)].on_leg(self.delta_r[(a, b)], 1, h.n(c), 0)
                    eq("right-coaction-coassociative", (a, b, c), lhs, rhs)
            for a in grp.elements():
                lhs = self.delta_r[(a, e)].on_leg(h.counit, self.g(a), 1, 0)
                eq("right-coaction-counit", (a,), lhs, Matrix.identity(f, self.g(a)))

        if self.bicovariant:
            report.extend(compatibility_report(h, self.delta_l, self.delta_r).violations)
        return report

    # -- frames ---------------------------------------------------------------

    def omega(self, alpha: int) -> tuple:
        """Canonical left-invariant basis of Γ_α (echelon order)."""
        return self.omega_space(alpha).basis

    def omega_space(self, alpha: int) -> Subspace:
        """The left-invariant subspace of Γ_α, with its echelon pivots."""
        if alpha not in self._omega:
            self._omega[alpha] = invariant_subspace_left(self, alpha)
        return self._omega[alpha]

    def decompose_matrix(self, alpha: int) -> Matrix:
        """The frame matrix of ω (columns (i, m) ↦ e_m · ω_i)."""
        if alpha not in self._decompose:
            self._decompose[alpha] = frame_matrix(self, alpha, self.omega(alpha))
        return self._decompose[alpha]

    def decompose_inverse(self, alpha: int) -> Matrix:
        """Inverse of the frame matrix of ω: ρ ↦ its coefficients over ω."""
        if alpha not in self._decompose_inv:
            self._decompose_inv[alpha] = _frame_inverse(self.decompose_matrix(alpha), alpha)
        return self._decompose_inv[alpha]


def frame_matrix(cb: CovariantBimodule, alpha: int, frame, side: str = "left") -> Matrix:
    """Columns (i, m) ↦ e_m · w_i (side "left") or w_i · e_m (side
    "right") for a frame w of Γ_α, as left_α (I⊗W) re-keyed to (i, m) or
    right_α (W⊗I), W the frame as columns; square and invertible iff Γ_α
    is free on the frame from that side."""
    n = cb.h.n(alpha)
    w = _frame_columns(cb, alpha, frame)
    if side == "left":
        return cb.left[alpha].on_leg(w, n, 1, 1).permute_legs((n, w.cols), (1, 0), 1)
    return cb.right[alpha].on_leg(w, 1, n, 1)


def _frame_columns(cb: CovariantBimodule, alpha: int, frame) -> Matrix:
    """The g_α × |frame| matrix whose column k is frame vector k."""
    return Matrix(cb.h.field, cb.g(alpha), len(frame),
                  {(r, k): x for k, w in enumerate(frame) for r, x in enumerate(w)})


def invariant_subspace_left(cb: CovariantBimodule, alpha: int) -> Subspace:
    """{ρ ∈ Γ_α : Δ^l_{1,α}(ρ) = 1_1 ⊗ ρ}, canonical echelon basis."""
    if cb.delta_l is None:
        raise MissingCoaction("no left coaction present")
    h = cb.h
    e = h.group.identity
    ins = h.unit_col(e).kron(Matrix.identity(h.field, cb.g(alpha)))
    return kernel(cb.delta_l[(e, alpha)] - ins)


def invariant_subspace_right(cb: CovariantBimodule, alpha: int) -> Subspace:
    """{η ∈ Γ_α : Δ^r_{α,1}(η) = η ⊗ 1_1}, canonical echelon basis."""
    if cb.delta_r is None:
        raise MissingCoaction("no right coaction present")
    h = cb.h
    e = h.group.identity
    ins = Matrix.identity(h.field, cb.g(alpha)).kron(h.unit_col(e))
    return kernel(cb.delta_r[(alpha, e)] - ins)


def projection_P_matrix(cb: CovariantBimodule, alpha: int) -> Matrix:
    """P_α : Γ_1 → Γ_α, ρ ↦ Σ S_{α^{-1}}(a_k) ρ_k for Δ^l_{α^{-1},α}(ρ) = Σ a_k⊗ρ_k."""
    if cb.delta_l is None:
        raise MissingCoaction("no left coaction present")
    h = cb.h
    ai = h.group.inv(alpha)
    s = h.antipode[ai]  # A_{α^{-1}} → A_α
    return cb.left[alpha] @ cb.delta_l[(ai, alpha)].on_leg(s, 1, cb.g(alpha), 0)


def projection_P(cb: CovariantBimodule, alpha: int, rho) -> tuple:
    return projection_P_matrix(cb, alpha).apply(rho)


def _frame_inverse(w: Matrix, alpha: int) -> Matrix:
    """Inverse of a frame matrix of Γ_α; an error unless Γ_α is free on the frame."""
    if w.rows != w.cols:
        raise DimensionMismatch(f"Γ_{alpha} is not free on the frame")
    try:
        return w.inverse()
    except SingularMatrix:
        raise StructureInconsistent(f"the frame does not span Γ_{alpha}") from None


def decompose_left(cb: CovariantBimodule, alpha: int, rho) -> list[tuple]:
    """Unique coefficients a_i ∈ A_α with ρ = Σ a_i ω_i."""
    return _decompose(cb, alpha, cb.decompose_inverse(alpha), rho)


def decompose_right(cb: CovariantBimodule, alpha: int, rho) -> list[tuple]:
    """Unique coefficients b_i ∈ A_α with ρ = Σ ω_i b_i."""
    w = frame_matrix(cb, alpha, cb.omega(alpha), "right")
    return _decompose(cb, alpha, _frame_inverse(w, alpha), rho)


def _decompose(cb: CovariantBimodule, alpha: int, winv: Matrix, rho) -> list[tuple]:
    n = cb.h.n(alpha)
    x = winv.apply(tuple(rho))
    return [x[i * n:(i + 1) * n] for i in range(len(cb.omega(alpha)))]


def _frame_size(cb: CovariantBimodule) -> int:
    """The common rank |I|; uniform across gradings or an error."""
    sizes = {a: len(cb.omega(a)) for a in cb.h.group.elements()}
    distinct = set(sizes.values())
    if len(distinct) > 1:
        raise DimensionVariesAcrossGrading(
            f"invariant frames have sizes {sizes}; the structure theory "
            f"needs one index set across gradings")
    size = distinct.pop() if distinct else 0
    for a in cb.h.group.elements():
        if cb.g(a) != size * cb.h.n(a):
            raise StructureInconsistent(
                f"Γ_{a} has dimension {cb.g(a)} ≠ |I|·dim A_{a} = {size * cb.h.n(a)}")
    return size


# ---------------------------------------------------------------------------
# named checks: each identity once, as a matrix identity with a report

FRAME_MULT = "frame-multiplicativity"
FRAME_NORM = "frame-normalisation"
R_COMULT = "coaction-matrix-comultiplication"
R_COUNIT = "coaction-matrix-counit"
INTERTWINER = "intertwiner-identity"
CHECKS = (FRAME_MULT, FRAME_NORM, R_COMULT, R_COUNIT, INTERTWINER)

# convolution side -> (frame, functional): ω with f*·, η with ·*g
_SIDES = {"left": ("ω", "f"), "right": ("η", "g")}


def _compare(report: VerificationReport, check: str, grading, lhs: Matrix, rhs: Matrix,
             identity: str) -> None:
    """Record `identity` as violated when two matrices differ, witnessed
    by the first column on which they do."""
    if lhs == rhs:
        return
    first = min(c for _, c in (lhs - rhs).entries)
    report.extend([Violation(check, tuple(grading), first, identity)])


def compatibility_report(h: HopfPiCoalgebra, delta_l, delta_r) -> VerificationReport:
    """(Δ^l⊗id)Δ^r = (id⊗Δ^r)Δ^l on every grading triple, for coactions
    keyed by grading pair (those of a bimodule or induced on a calculus).

    Each side applies its second coaction to one leg of the first
    (Matrix.on_leg); a violation names the triple and the first column on
    which the sides differ."""
    grp = h.group
    report = VerificationReport()
    for a in grp.elements():
        for b in grp.elements():
            for c in grp.elements():
                lhs = delta_r[(grp.mul(a, b), c)].on_leg(delta_l[(a, b)], 1, h.n(c), 0)
                rhs = delta_l[(a, grp.mul(b, c))].on_leg(delta_r[(b, c)], h.n(a), 1, 0)
                _compare(report, "bicovariance-compatibility", (a, b, c), lhs, rhs,
                         "(Δ^l⊗id)Δ^r ≠ (id⊗Δ^r)Δ^l")
    return report


def _require(report: VerificationReport, what: str) -> None:
    if not report.ok:
        raise StructureInconsistent(
            f"{what} fails {len(report)} identities; first: {report.violations[0].render()}",
            report)


def _stack(h: HopfPiCoalgebra, funcs, alpha: int) -> Matrix:
    """T_α, the |I|² × n_α matrix whose row (i, j) is φ_ij on A_α."""
    size = len(funcs)
    return Matrix._unchecked(h.field, size * size, h.n(alpha), {
        (i * size + j, x): v for i, row in enumerate(funcs) for j, phi in enumerate(row)
        for x, v in enumerate(phi.component(alpha)) if v})


def _stack_maps(h: HopfPiCoalgebra, maps, alpha: int) -> Matrix:
    """The maps M_ij^α : A_α → A_α stacked: rows ((i, j), r), columns m."""
    size = len(maps[alpha])
    n = h.n(alpha)
    return Matrix._unchecked(h.field, size * size * n, n, {
        ((i * size + j) * n + r, m): v for i, row in enumerate(maps[alpha])
        for j, mij in enumerate(row) for (r, m), v in mij.entries.items()})


def _vec_identity(f, size: int) -> Matrix:
    """vec(I), the |I|² × 1 column with 1 at each row (i, i)."""
    return Matrix._unchecked(f, size * size, 1, {(i * size + i, 0): f.one() for i in range(size)})


def _convolutions(h: HopfPiCoalgebra, t1: Matrix, alpha: int, side: str) -> Matrix:
    """φ*· = (id⊗φ)Δ_{α,1} (side "left") or ·*φ = (φ⊗id)Δ_{1,α} (side
    "right") on A_α for every row φ of t1 (functionals on A_1) at once,
    stacked like _stack_maps: rows (φ, x), columns c."""
    e = h.group.identity
    n = h.n(alpha)
    if side == "left":
        return h.comult[(alpha, e)].on_leg(t1, n, 1, 0).permute_legs((n, t1.rows), (1, 0), 0)
    return h.comult[(e, alpha)].on_leg(t1, 1, n, 0)


def _differing_blocks(lhs: Matrix, rhs: Matrix, block: tuple[int, int]) -> dict:
    """{(R, C): c} for each p×q block (rows R·p …, columns C·q …) on which
    two matrices of one shape differ, c the first column within the block
    on which they do; (p, q) = block."""
    out: dict = {}
    left, right = lhs.entries, rhs.entries
    if left == right:
        return out
    p, q = block
    for key in left.keys() | right.keys():
        if left.get(key) != right.get(key):
            r, c = key
            where = (r // p, c // q)
            first = out.get(where)
            if first is None or c % q < first:
                out[where] = c % q
    return out


def check_characters(h: HopfPiCoalgebra, funcs, name: str = "f") -> VerificationReport:
    """φ_ij(ab) = Σ_k φ_ik(a) φ_kj(b) and φ_ij(1) = δ_ij on every A_α:
    T_α m_α = Σ_k T_ik ⊗ T_kj and T_α 1_α = vec(I)."""
    f = h.field
    size = len(funcs)
    legs = (size, size)
    vec_eye = _vec_identity(f, size)
    report = VerificationReport()
    for a in h.group.elements():
        n = h.n(a)
        t = _stack(h, funcs, a)
        # rows (i, x) × columns (j, y), re-keyed to rows (i, j), columns (x, y)
        split = t.regroup(legs, (n,), (0, 2), (1,)) @ t.regroup(legs, (n,), (0,), (1, 2))
        mult = _differing_blocks(t @ h.mult[a], split.regroup((size, n), (size, n), (0, 2), (1, 3)),
                                 (1, n * n))
        unit = t @ h.unit_col(a)
        norm = _differing_blocks(unit, vec_eye, (1, 1))
        for ij, _ in sorted(mult.keys() | norm.keys()):
            i, j = divmod(ij, size)
            if (ij, 0) in mult:
                report.extend([Violation(FRAME_MULT, (a,), mult[(ij, 0)],
                                         f"{name}_{i}{j}(ab) ≠ Σ_k {name}_{i}k(a) {name}_k{j}(b)")])
            if (ij, 0) in norm:
                want = f.one() if i == j else f.zero()
                report.extend([Violation(FRAME_NORM, (a,), None, f"{name}_{i}{j}(1) = "
                                         f"{f.render(unit[(ij, 0)])}, expected {f.render(want)}")])
    return report


def check_commutation_rule(h: HopfPiCoalgebra, maps, funcs, side: str) -> VerificationReport:
    """The coefficient maps are convolutions: M_ij = f_ij * · for ω
    (side "left") and M_ij = · * g_ij for η (side "right"), on every A_α:
    the stacked maps against the stacked convolutions of T_1."""
    e = h.group.identity
    size = len(funcs)
    w, name = _SIDES[side]
    conv = "{0}_{1}{2} * b" if side == "left" else "b * {0}_{1}{2}"
    t1 = _stack(h, funcs, e)
    report = VerificationReport()
    for a in h.group.elements():
        n = h.n(a)
        found = _differing_blocks(_stack_maps(h, maps, a), _convolutions(h, t1, a, side), (n, n))
        for (ij, _), first in sorted(found.items()):
            i, j = divmod(ij, size)
            report.extend([Violation(FRAME_MULT, (a,), first,
                                     f"commutation rule: the {w}_{j}-coefficient of {w}_{i} b "
                                     f"≠ {conv.format(name, i, j)}")])
    return report


def check_left_multiplication_rule(cb: CovariantBimodule, frames, funcs,
                                   side: str) -> VerificationReport:
    """a ω_i = Σ_j ω_j ((f_ij∘S_1^{-1}) * a) (side "left") or
    a η_i = Σ_j η_j (a * (g_ij∘S_1^{-1})) (side "right"), on every A_α:
    left_α(I⊗W), columns re-keyed to (i, a), against right_α(W⊗I) times
    the stacked convolutions, rows (j, ·) and columns (i, a); W is the
    frame as columns.

    The η form presumes an involutive antipode family (it holds on every
    group algebra); a failure is reported, not repaired.
    """
    h = cb.h
    f = h.field
    e = h.group.identity
    size = len(funcs)
    w, name = _SIDES[side]
    hint = ""
    if side == "right" and h.antipode[e] @ h.antipode[e] != Matrix.identity(f, h.n(e)):
        hint = "; this form needs an involutive antipode, and S_1² ≠ id"
    twisted = _stack(h, funcs, e) @ h.antipode_inv(e)     # row (i, j): φ_ij∘S_1^{-1}
    report = VerificationReport()
    for a in h.group.elements():
        n = h.n(a)
        frame = _frame_columns(cb, a, frames[a])
        lhs = cb.left[a].on_leg(frame, n, 1, 1).permute_legs((n, size), (1, 0), 1)
        times = cb.right[a].on_leg(frame, 1, n, 1)                      # column (j, b): w_j b
        conv = _convolutions(h, twisted, a, side).regroup((size, size, n), (n,), (1, 2), (0, 3))
        found = _differing_blocks(lhs, times @ conv, (cb.g(a), n))
        for (_, i), first in sorted(found.items()):
            twist = f"{name}_{i}j∘S_1^{{-1}}"
            rule = f"({twist}) * a" if side == "left" else f"a * ({twist})"
            report.extend([Violation(FRAME_MULT, (a,), first, f"left multiplication rule "
                                     f"a {w}_{i} = Σ_j {w}_j ({rule}) fails{hint}")])
    return report


def check_convolution_inverses(h: HopfPiCoalgebra, funcs) -> VerificationReport:
    """Σ_j f_ji*(f_hj∘S_1^{-1}) = δ_ih ε = Σ_j (f_jh∘S_1^{-1})*f_ij on A_1:
    each side one product of re-keyed copies of T_1 and T_1 S_1^{-1}, rows
    (i, h), then Δ_{1,1}."""
    f = h.field
    e = h.group.identity
    n1 = h.n(e)
    size = len(funcs)
    legs, pair = (size, size), ((size, n1), (size, n1))
    t = _stack(h, funcs, e)
    u = t @ h.antipode_inv(e)                                 # row (i, j): f_ij∘S_1^{-1}
    d11 = h.comult[(e, e)]
    target = _vec_identity(f, size).kron(h.counit)             # row (i, i): ε
    # rows (i, x) × columns (h, y), and rows (h, x) × columns (i, y)
    first = t.regroup(legs, (n1,), (1, 2), (0,)) @ u.regroup(legs, (n1,), (1,), (0, 2))
    second = u.regroup(legs, (n1,), (1, 2), (0,)) @ t.regroup(legs, (n1,), (1,), (0, 2))
    one = _differing_blocks(first.regroup(*pair, (0, 2), (1, 3)) @ d11, target, (1, n1))
    two = _differing_blocks(second.regroup(*pair, (2, 0), (1, 3)) @ d11, target, (1, n1))
    report = VerificationReport()
    for ih, _ in sorted(one.keys() | two.keys()):
        i, hh = divmod(ih, size)
        if (ih, 0) in one:
            report.extend([Violation(FRAME_MULT, (e,), one[(ih, 0)],
                                     f"Σ_j f_j{i} * (f_{hh}j∘S_1^{{-1}}) ≠ δ_{i}{hh} ε")])
        if (ih, 0) in two:
            report.extend([Violation(FRAME_MULT, (e,), two[(ih, 0)],
                                     f"Σ_j (f_j{hh}∘S_1^{{-1}}) * f_{i}j ≠ δ_{hh}{i} ε")])
    return report


def r_block(rb: Matrix, n: int, j: int, i: int) -> tuple:
    """R_ji ∈ A_β, read from rows j·n … j·n+n−1 of column i of R^β."""
    return tuple(rb[(j * n + m, i)] for m in range(n))


def _antipode_R(h: HopfPiCoalgebra, R, alpha: int) -> Matrix:
    """Ŝ_α = (I⊗S_{α^{-1}}) R^{α^{-1}}: column j is Σ_i e_i ⊗ S(R_ij) ∈ k^I ⊗ A_α."""
    ai = h.group.inv(alpha)
    return R[ai].on_leg(h.antipode[ai], R[ai].cols, 1, 0)


def check_corepresentation(h: HopfPiCoalgebra, R) -> VerificationReport:
    """R is an invertible matrix corepresentation: the four identities of
    the module docstring, one sparse product each per grading (pair)."""
    f = h.field
    grp = h.group
    e = grp.identity
    size = R[e].cols
    eye = Matrix.identity(f, size)
    report = VerificationReport()
    for b in grp.elements():
        for c in grp.elements():
            lhs = R[grp.mul(b, c)].on_leg(h.comult[(b, c)], size, 1, 0)
            rhs = R[c].on_leg(R[b], 1, h.n(c), 0)
            _compare(report, R_COMULT, (b, c), lhs, rhs, "Δ(R_ji) ≠ Σ_h R_jh ⊗ R_hi")
    _compare(report, R_COUNIT, (e,), R[e].on_leg(h.counit, size, 1, 0), eye, "ε(R_ji) ≠ δ_ji")
    for a in grp.elements():
        n = h.n(a)
        shat = _antipode_R(h, R, a)
        ones = eye.kron(h.unit_col(a))
        _compare(report, R_COMULT, (a,), R[a].on_leg(shat, 1, n, 0).on_leg(h.mult[a], size, 1, 0),
                 ones, "Σ_h S(R_ih) R_hj ≠ δ_ij 1")
        _compare(report, R_COMULT, (a,), shat.on_leg(R[a], 1, n, 0).on_leg(h.mult[a], size, 1, 0),
                 ones, "Σ_h R_ih S(R_hj) ≠ δ_ij 1")
    return report


def intertwiner_report(h: HopfPiCoalgebra, funcs_f, funcs_g, R, gradings,
                       names=("f", "g")) -> VerificationReport:
    """Σ_i R_ij (a*f_ih) = Σ_i (g_ji*a) R_hi on A_α for α in `gradings`.

    Stated per α as one block identity over (j, h): with L(x), R(x) left
    and right multiplication by x, [L(R_ij)] (rows (j, ·), columns (i, ·))
    times the stacked ·*f_ih (rows (i, ·), columns (h, ·)) equals
    [R(R_hi)] (rows (h, ·), columns (i, ·)) times the stacked g_ji*·
    (rows (i, ·), columns (j, ·)), re-keyed to rows (j, ·), columns (h, ·).
    """
    e = h.group.identity
    size = len(funcs_f)
    fn, gn = names
    t_f, t_g = _stack(h, funcs_f, e), _stack(h, funcs_g, e)
    report = VerificationReport()
    for a in gradings:
        n = h.n(a)
        legs = (size, size, n)
        r_cols = R[a].regroup((size, n), (size,), (1,), (0, 2))      # column (i, j): R_ij
        # m_α(R_ij⊗x) at [(j, ·), (i, x)] and m_α(x⊗R_hi) at [(h, ·), (i, x)]
        by_left = h.mult[a].on_leg(r_cols, 1, n, 1).regroup((n,), legs, (2, 0), (1, 3))
        by_right = h.mult[a].on_leg(r_cols, n, 1, 1).regroup((n,), (n, size, size), (2, 0), (3, 1))
        lhs = by_left @ _convolutions(h, t_f, a, "right").regroup(legs, (n,), (0, 2), (1, 3))
        rhs = by_right @ _convolutions(h, t_g, a, "left").regroup(legs, (n,), (1, 2), (0, 3))
        found = _differing_blocks(lhs, rhs.regroup((size, n), (size, n), (2, 1), (0, 3)), (n, n))
        for (j, hh), first in sorted(found.items()):
            report.extend([Violation(INTERTWINER, (a,), first,
                                     f"Σ_i R_i{j} (a * {fn}_i{hh}) ≠ Σ_i ({gn}_{j}i * a) R_{hh}i")])
    return report


# ---------------------------------------------------------------------------
# the coefficient maps F and the functionals f, g


def coefficient_maps(cb: CovariantBimodule, frames=None) -> list[list[list[Matrix]]]:
    """M[α][i][j] : A_α → A_α with w_i b = Σ_j M[α][i][j](b) w_j.

    The frame w defaults to ω (the maps F, available without Ψ; the
    functionals f are E_α ∘ F when Ψ exists); functionals_g passes η.
    """
    h = cb.h
    f = h.field
    omega = frames is None
    if omega:
        _frame_size(cb)
        frames = [cb.omega(a) for a in h.group.elements()]
    out = []
    for a in h.group.elements():
        n = h.n(a)
        size = len(frames[a])
        winv = (cb.decompose_inverse(a) if omega
                else _frame_inverse(frame_matrix(cb, a, frames[a]), a))
        # entry ((j, r), (i, m)) of x: coefficient r of the w_j term of w_i·e_m
        x = winv @ frame_matrix(cb, a, frames[a], "right")
        blocks = [[{} for _ in range(size)] for _ in range(size)]
        for (row, col), val in x.entries.items():
            blocks[col // n][row // n][(row % n, col % n)] = val
        out.append([[Matrix(f, n, n, blk) for blk in row] for row in blocks])
    return out


def _collapse(h: HopfPiCoalgebra, maps) -> list:
    """φ_ij with φ_ij^α = ε∘Ψ_α∘M_ij^α (the grading collapse): per grading
    T_α = (I⊗εΨ_α) applied to the stacked maps, read off by rows."""
    size = len(maps[h.group.identity])
    comps = [[{} for _ in range(size)] for _ in range(size)]
    zero = h.field.zero()
    for a in h.group.elements():
        n = h.n(a)
        t = _stack_maps(h, maps, a).on_leg(h.counit @ h.psi[a], size * size, 1, 0)
        rows: dict = {}
        for (ij, x), v in t.entries.items():
            rows.setdefault(ij, [zero] * n)[x] = v
        for ij, row in rows.items():
            comps[ij // size][ij % size][a] = row
    return [[GradedFunctional(h, c) for c in row] for row in comps]


def functionals_f(cb: CovariantBimodule, coeffs=None):
    """The f_ij = Σ_α ε∘Ψ_α∘F_ij^α, checked against their identities.

    Checks the commutation rule F_ij = f_ij * ·, the character identities,
    the left-multiplication rule through f∘S_1^{-1} and the convolution
    inverse identities on A_1; StructureInconsistent carries the report.
    """
    h = cb.h
    if h.psi is None:
        raise MissingPsi("f extraction needs the grading collapse maps Ψ_α")
    F = coeffs if coeffs is not None else coefficient_maps(cb)
    funcs = _collapse(h, F)
    omega = [cb.omega(a) for a in h.group.elements()]
    _require(check_commutation_rule(h, F, funcs, "left")
             .merge(check_characters(h, funcs, "f"))
             .merge(check_left_multiplication_rule(cb, omega, funcs, "left"))
             .merge(check_convolution_inverses(h, funcs)), "f")
    return funcs


def functionals_g(cb: CovariantBimodule, eta=None):
    """g_ij from the right-invariant frame: η_i b = Σ_j (b * g_ij) η_j.

    `eta` defaults to the canonical echelon basis of the right-invariant
    subspace; the structure suite passes the frame produced by the right
    coaction matrix so that the intertwiner identity refers to it.
    """
    if cb.delta_r is None:
        raise MissingCoaction("no right coaction present")
    h = cb.h
    if h.psi is None:
        raise MissingPsi("g extraction needs the grading collapse maps Ψ_α")
    if eta is None:
        eta = [invariant_subspace_right(cb, a).basis for a in h.group.elements()]
    G = coefficient_maps(cb, eta)
    funcs = _collapse(h, G)
    _require(check_commutation_rule(h, G, funcs, "right")
             .merge(check_characters(h, funcs, "g"))
             .merge(check_left_multiplication_rule(cb, eta, funcs, "right")), "g")
    return funcs


# ---------------------------------------------------------------------------
# the right coaction matrix R and the η frame


def matrix_R(cb: CovariantBimodule) -> list[Matrix]:
    """R^β, the (|I|·n_β) × |I| matrix with column i = Σ_j e_j ⊗ R_ji for
    Δ^r_{α,β}(ω_i^{αβ}) = Σ_j ω_j^α ⊗ R_ji.

    Each grading pair gives R^β = coords(ω_α⊗A_β) · Δ^r_{α,β} Ω_{αβ},
    checked to satisfy (Ω_α⊗I) R^β = Δ^r_{α,β} Ω_{αβ} and to be the same
    for every α; check_corepresentation then verifies its identities.
    """
    if not cb.bicovariant:
        raise NotBicovariant("R extraction needs both coactions")
    h = cb.h
    grp = h.group
    _frame_size(cb)
    incl = [cb.omega_space(a).inclusion_matrix() for a in grp.elements()]
    report = VerificationReport()
    R = []
    for b in grp.elements():
        nb = h.n(b)
        per_alpha = []
        for a in grp.elements():
            image = cb.delta_r[(a, b)] @ incl[grp.mul(a, b)]
            rb = image.on_leg(cb.omega_space(a).coords_matrix(), 1, nb, 0)
            _compare(report, R_COMULT, (a, b), rb.on_leg(incl[a], 1, nb, 0), image,
                     "Δ^r(ω) is not in the invariant frame ⊗ A")
            per_alpha.append(rb)
        ref = per_alpha[grp.identity]
        for a in grp.elements():
            _compare(report, R_COMULT, (a, b), per_alpha[a], ref,
                     "R depends on the complementary grading")
        R.append(ref)
    _require(report.merge(check_corepresentation(h, R)), "R")
    return R


def eta_basis(cb: CovariantBimodule, R=None) -> list[list[tuple]]:
    """η_j^α = Σ_i ω_i S_{α^{-1}}(R_ij), the columns of H_α = right_α (Ω_α⊗I) Ŝ_α.

    Checks right invariance, Δ^r_{α,1} H_α = H_α⊗1, and ω_i = Σ_j η_j R_ji,
    right_α (H_α⊗I) R^α = Ω_α.  On Γ_α free on ω the latter makes the |I|
    vectors η generate Γ_α as a right module, so with right invariance they
    are a basis of the right invariants (Woronowicz 1989, Thm 2.3, graded).
    """
    if not cb.bicovariant:
        raise NotBicovariant("η construction needs both coactions")
    h = cb.h
    grp = h.group
    _frame_size(cb)
    if R is None:
        R = matrix_R(cb)
    report = VerificationReport()
    eta = []
    for a in grp.elements():
        n = h.n(a)
        incl = cb.omega_space(a).inclusion_matrix()
        frame = cb.right[a] @ _antipode_R(h, R, a).on_leg(incl, 1, n, 0)
        _compare(report, R_COMULT, (a,), cb.delta_r[(a, grp.identity)] @ frame,
                 frame.kron(h.unit_col(grp.identity)), "η_j is not right invariant")
        _compare(report, R_COMULT, (a,), cb.right[a] @ R[a].on_leg(frame, 1, n, 0), incl,
                 "ω_i ≠ Σ_j η_j R_ji")
        eta.append([frame.col(j) for j in range(frame.cols)])
    _require(report, "η")
    return eta


def check_eta_left_coaction(cb: CovariantBimodule, R, eta) -> None:
    """Δ^l_{α,β}(η_j^{αβ}) = Σ_i S_{α^{-1}}(R_ij) ⊗ η_i^β, all gradings:
    Δ^l_{α,β} H_{αβ} = (I⊗H_β) Ŝ_α with the legs of Ŝ_α swapped."""
    h = cb.h
    grp = h.group
    frames = [_frame_columns(cb, a, eta[a]) for a in grp.elements()]
    report = VerificationReport()
    for a in grp.elements():
        n = h.n(a)
        # column j: Σ_i S(R_ij) ⊗ e_i
        swapped = _antipode_R(h, R, a).permute_legs((R[a].cols, n), (1, 0), 0)
        for b in grp.elements():
            _compare(report, R_COMULT, (a, b), cb.delta_l[(a, b)] @ frames[grp.mul(a, b)],
                     swapped.on_leg(frames[b], n, 1, 0), "Δ^l(η_j) ≠ Σ_i S(R_ij) ⊗ η_i")
    _require(report, "η")


def check_intertwiner(cb: CovariantBimodule, funcs_f, funcs_g, R) -> None:
    """f = g on A_1, and Σ_i R_ij (a*f_ih) = Σ_i (g_ji*a) R_hi on every
    A_α (see intertwiner_report)."""
    h = cb.h
    e = h.group.identity
    report = VerificationReport()
    for i, row in enumerate(funcs_f):
        for j, phi in enumerate(row):
            if phi.component(e) != funcs_g[i][j].component(e):
                report.extend([Violation(INTERTWINER, (e,), None, f"f_{i}{j} ≠ g_{i}{j} on A_1")])
    report = report.merge(intertwiner_report(h, funcs_f, funcs_g, R, h.group.elements()))
    _require(report, "the intertwiner")


# ---------------------------------------------------------------------------
# bundled extraction and reconstruction


@dataclass
class StructureData:
    """Invariant frames and the commutation data of a bicovariant bimodule.

    R holds one matrix R^β per grading, of shape (size·n_β) × size, whose
    column i is Σ_j e_j ⊗ R_ji (the layout of matrix_R).  `report` holds
    every violation found; `not_run` maps each check that could not run
    in full to the reason, and a field whose step did not run or failed
    its identities is None.
    """

    size: int                       # |I|
    omega: list                     # per α: tuple of frame vectors
    eta: list | None                # per α: list of frame vectors (3.55 frame)
    F: list                         # per α: size×size coefficient maps A_α → A_α
    f: list | None                  # size×size GradedFunctional (None without Ψ)
    g: list | None
    R: list | None                  # per β: the matrix R^β
    report: VerificationReport = field(default_factory=VerificationReport)
    not_run: dict = field(default_factory=dict)


def extract_structure(cb: CovariantBimodule) -> StructureData:
    """Frames, functionals and R data, with every defining identity checked.

    Each step runs when its inputs exist, so the report covers every
    identity that could be checked.  Raises StructureInconsistent when one
    fails; the exception carries the report and this partial data.
    """
    h = cb.h
    data = StructureData(size=_frame_size(cb), omega=[cb.omega(a) for a in h.group.elements()],
                         eta=None, F=coefficient_maps(cb), f=None, g=None, R=None)

    def attempt(step, *args):
        try:
            return step(*args)
        except StructureInconsistent as exc:
            if exc.report is None:
                raise
            data.report = data.report.merge(exc.report)
            return None

    def skip(reason, *checks):
        for check in checks:
            data.not_run.setdefault(check, reason)

    if h.psi is None:
        skip("no grading collapse maps Ψ", FRAME_MULT, FRAME_NORM, INTERTWINER)
    else:
        data.f = attempt(functionals_f, cb, data.F)
    if not cb.bicovariant:
        skip("the bimodule is not bicovariant", FRAME_MULT, FRAME_NORM, R_COMULT, R_COUNIT,
             INTERTWINER)
    else:
        data.R = attempt(matrix_R, cb)
    if data.R is not None:
        data.eta = attempt(eta_basis, cb, data.R)
    if data.eta is None:
        skip("the η frame was not built", R_COMULT, FRAME_MULT, FRAME_NORM)
    else:
        attempt(check_eta_left_coaction, cb, data.R, data.eta)
        if h.psi is not None:
            data.g = attempt(functionals_g, cb, data.eta)
    missing = [name for name, funcs in (("f", data.f), ("g", data.g)) if funcs is None]
    if missing:
        skip(f"{' and '.join(missing)} not extracted", INTERTWINER)
    else:
        attempt(check_intertwiner, cb, data.f, data.g, data.R)
    if not data.report.ok:
        raise StructureInconsistent(
            f"structure identities fail ({len(data.report)} violations): "
            f"{data.report.violations[0].render()}", data.report, data=data)
    return data


def reconstruct(h: HopfPiCoalgebra, funcs, R, size: int) -> CovariantBimodule:
    """Free bicovariant bimodule on frame slots from (f, R) data.

    Γ_α = k^size ⊗ A_α; the left action multiplies coefficients, the
    right action commutes through f, the coactions come from the
    comultiplication and R, laid out as in matrix_R: Δ^r(e_i ⊗ x) =
    Σ_j e_j ⊗ x_(1) ⊗ x_(2) R_ji is (I⊗m_β) applied to R^β⊗Δ_{α,β} with
    its row legs reordered.  The input must pass
    check_characters, check_corepresentation and the intertwiner on A_1
    with g := f (IncompatibleData carries the report; malformed f or R is
    rejected before any product); the resulting bimodule passes the full
    covariant-bimodule law verification.
    """
    f = h.field
    grp = h.group
    e = grp.identity
    if not (isinstance(funcs, (list, tuple)) and len(funcs) == size
            and all(isinstance(row, (list, tuple)) and len(row) == size for row in funcs)):
        raise IncompatibleData("f must be a size×size matrix of functionals")
    for i, row in enumerate(funcs):
        for j, phi in enumerate(row):
            if not (isinstance(phi, GradedFunctional) and phi.h.field == f
                    and all(a in range(grp.order) and len(c) == h.n(a)
                            for a, c in phi.components.items())):
                raise IncompatibleData(f"f_{i}{j} must be a functional on the components "
                                       f"of dimensions {h.dims} over {f}")
    if not isinstance(R, (list, tuple)) or len(R) != grp.order:
        raise IncompatibleData("R must provide one matrix per grading")
    for b in grp.elements():
        shape = (size * h.n(b), size)
        if not (isinstance(R[b], Matrix) and R[b].field == f and (R[b].rows, R[b].cols) == shape):
            raise IncompatibleData(f"R^{b} must be a {shape[0]}×{shape[1]} matrix over {f}")
    report = (check_characters(h, funcs, "f")
              .merge(check_corepresentation(h, R))
              .merge(intertwiner_report(h, funcs, funcs, R, [e], names=("f", "f"))))
    if not report.ok:
        raise IncompatibleData(
            f"reconstruction data fails {len(report)} identities; first: "
            f"{report.violations[0].render()}", report)

    n1 = h.n(e)
    # (i, t) ↦ Σ_j f_ij(e_t) e_j, so (e_i ⊗ x) b = Σ_j e_j ⊗ x b_(1) f_ij(b_(2))
    twist = Matrix(f, size, size * n1, {(j, i * n1 + t): x for i, row in enumerate(funcs)
                                         for j, phi in enumerate(row)
                                         for t, x in enumerate(phi.component(e))})
    left = []
    right = []
    delta_l = {}
    delta_r = {}
    for a in grp.elements():
        n = h.n(a)
        times = Matrix.identity(f, size).kron(h.mult[a])     # (j, x, y) ↦ e_j ⊗ xy
        left.append(times.permute_legs((size, n, n), (1, 0, 2), 1))
        # times ∘ (I⊗twist) ∘ (I⊗Δ_{α,1}), legs re-keyed between the factors;
        # each factor acts on the columns of the product built so far
        right.append(times.permute_legs((size, n, n), (1, 2, 0), 1)
                     .on_leg(twist, n * n, 1, 1)
                     .permute_legs((n, n, size, n1), (2, 0, 1, 3), 1)
                     .on_leg(h.comult[(a, e)], size * n, 1, 1))
        for b in grp.elements():
            nb = h.n(b)
            delta_l[(a, b)] = Matrix.identity(f, size).kron(h.comult[(a, b)]).permute_legs(
                (size, n, nb), (1, 0, 2), 0)
            rolled = R[b].kron(h.comult[(a, b)]).permute_legs((size, nb, n, nb), (0, 2, 3, 1), 0)
            delta_r[(a, b)] = rolled.on_leg(h.mult[b], size * n, 1, 0)

    dims = [size * h.n(a) for a in grp.elements()]
    return CovariantBimodule(h, dims, left, right, delta_l=delta_l, delta_r=delta_r)


def reconstruction_matches(cb: CovariantBimodule, rebuilt: CovariantBimodule) -> bool:
    """Actions and coactions agree under the frame-coordinate identification.

    The isomorphism Γ_α → k^size ⊗ A_α sends ρ to its decomposition
    coefficients over ω; both sides' structure maps must be conjugate
    under it, bit-exactly.
    """
    h = cb.h
    grp = h.group
    iso = {a: cb.decompose_inverse(a) for a in grp.elements()}
    for a in grp.elements():
        n = h.n(a)
        u = iso[a]
        ui = cb.decompose_matrix(a)
        if u @ cb.left[a].on_leg(ui, n, 1, 1) != rebuilt.left[a]:
            return False
        if u @ cb.right[a].on_leg(ui, 1, n, 1) != rebuilt.right[a]:
            return False
    for a in grp.elements():
        for b in grp.elements():
            ab = grp.mul(a, b)
            if (cb.delta_l[(a, b)].on_leg(iso[b], h.n(a), 1, 0)
                    @ cb.decompose_matrix(ab) != rebuilt.delta_l[(a, b)]):
                return False
            if (cb.delta_r[(a, b)].on_leg(iso[a], 1, h.n(b), 0)
                    @ cb.decompose_matrix(ab) != rebuilt.delta_r[(a, b)]):
                return False
    return True
