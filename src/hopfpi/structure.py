"""Structure theory of covariant π-graded bimodules.

Left-invariant elements (Δ^l_{1,α}(ρ) = 1⊗ρ) form the frame ω_i; every
element decomposes uniquely as Σ a_i ω_i and as Σ ω_i b_i, and the
commutation of the frame past the algebra is carried by functionals:

    ω_i b = Σ_j (f_ij * b) ω_j,          a ω_i = Σ_j ω_j ((f_ij∘S_1^{-1}) * a),

with f_ij(ab) = Σ_k f_ik(a) f_kj(b) and f_ij(1) = δ_ij, extracted through
the coefficient maps F_ij (ω_i b = Σ F_ij(b) ω_j) and the grading
collapse Ψ: f_ij^α = ε ∘ Ψ_α ∘ F_ij^α, one product T_α = (I⊗εΨ_α) F_α.

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

The functionals are held like R, one matrix per grading: T_α is the
|I|² × n_α matrix whose row (i, j) is φ_ij on A_α (φ = f or g), the
coefficient maps (F for ω, G for η) are the |I|²n_α × n_α matrix whose
rows ((i, j), r) and columns m hold the blocks F_ij, and U = T_1 S_1^{-1}
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
same checks.  Each extraction step (functionals_f, functionals_g,
matrix_R, eta_basis) takes every input it reads and returns its data
with the report of its identities; a failed identity is a violation
there, never an exception.  The η frame has one source, eta_basis, which
builds it from R.  extract_structure runs the steps and every check in
order, the round trip last, and keeps a step's data only when its report
passes.

On a structure that passes verify_all, two identities are decided on the
generators S of A_α (hopf.algebra_generators, by the lemma of the hopf
module): φ(ab) = φ(a)φ(b) on the pairs (a, s), s ∈ S, once φ(1) = I
holds, and the convolution inverses of f at 1 and on S only, once f is a
character of A_1 (check_convolution_inverses gives the argument).  An
identity that fails there, or whose preconditions fail, is computed again
on every column, so each violation and witness is the whole product's.

Every step is computed once per distinct tuple of the objects it reads,
so a family that repeats its components across gradings is extracted
once per distinct component: ω, η, the frame matrices and their
inverses and the coefficient maps through the bimodule's memo
(CovariantBimodule.shared), the rest within the call that needs them.
Each check states its identity per grading as a pure function of its
operands; hopf.checker computes it once per operand tuple and stamps its
violations with each grading that reads the tuple, in loop order, so the
report is the one that checking every grading gives.  Every violation
carries one of the six names of CHECKS, and its witness names the exact
identity:

    frame-multiplicativity             f and g are characters (on the
                                       pairs (a, s)), the rules F = f*·,
                                       G = ·*g and the left-
                                       multiplication rules of ω and η,
                                       the convolution inverses of f (at
                                       1 and on S)
    frame-normalisation                f(1) = δ and g(1) = δ
    coaction-matrix-comultiplication   R independent of the complementary
                                       grading, the Δ and S laws of R, the
                                       identities of the η frame
    coaction-matrix-counit             ε(R) = δ
    intertwiner-identity               f = g on A_1 and
                                       Σ_i R_ij (a*f_ih) = Σ_i (g_ji*a) R_hi
    reconstruction-roundtrip           the bimodule rebuilt from (f, R)
                                       has the actions and coactions of
                                       the original in frame coordinates
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

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
    HopfPiCoalgebra,
    OperandMemo,
    VerificationReport,
    Violation,
    act_on_pairs,
    algebra_generators,
    checker,
    columns,
    require_axioms,
    sides_on_generators,
    stamped,
    verify_all,
)
from .linalg import Matrix, Subspace, differing_blocks, kernel


class CovariantBimodule:
    """A π-graded bimodule with coaction(s).

    `left`/`right` are the module actions A_α⊗Γ_α → Γ_α and
    Γ_α⊗A_α → Γ_α; `delta_l` maps Γ_{αβ} → A_α⊗Γ_β and `delta_r` maps
    Γ_{αβ} → Γ_α⊗A_β (either family may be absent).

    The constructor takes arbitrary maps, so it runs `verify()` and
    raises VerificationFailed unless every law holds; `_trusted` builds
    the bimodule of a calculus or of `reconstruct`, whose laws are a theorem.
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
        """A bimodule whose laws are a theorem, not re-verified.

        For Γ = A²/N of a calculus: on A⊗A the actions multiply the outer
        legs and the coactions Φ^l, Φ^r satisfy every law, compatibility
        included, by the Hopf axioms; with N a sub-bimodule and Φ^l(N) ⊆
        A⊗N, Φ^r(N) ⊆ N⊗A (decided before) they descend to Γ (Woronowicz
        1989, §1–2, graded).  For `reconstruct`, see there.  What remains
        is the Hopf-axiom verdict on h (require_axioms).
        """
        require_axioms(h)
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
        self.shared = OperandMemo()    # frames and structure data, by operand tuple

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
        coassociative and counital; and, when both are, their compatibility
        (Δ^l⊗id)Δ^r = (id⊗Δ^r)Δ^l on every grading triple.

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
            dl, dr = self.delta_l, self.delta_r
            for a, b in pairs:
                for c in grp.elements():
                    lhs = dr[(grp.mul(a, b), c)].on_leg(dl[(a, b)], 1, h.n(c), 0)
                    rhs = dl[(a, grp.mul(b, c))].on_leg(dr[(b, c)], h.n(a), 1, 0)
                    _compare(report, "bicovariance-compatibility", (a, b, c), lhs, rhs,
                             "(Δ^l⊗id)Δ^r ≠ (id⊗Δ^r)Δ^l")
        return report

    # -- frames ---------------------------------------------------------------
    # Each is built once per distinct tuple of the objects it reads
    # (`shared`), so gradings that read the same coaction, action and frame
    # share it.

    def omega(self, alpha: int) -> Matrix:
        """W_α, the g_α × |I| matrix whose column i is ω_i, the canonical
        left-invariant basis of Γ_α (echelon order)."""
        return self.shared(Subspace.inclusion_matrix, self.omega_space(alpha))

    def omega_space(self, alpha: int) -> Subspace:
        """The left-invariant subspace of Γ_α, with its echelon pivots."""
        return invariant_subspace_left(self, alpha)

    def frame_matrix(self, alpha: int, frame: Matrix, side: str = "left") -> Matrix:
        """Columns (i, m) ↦ e_m · w_i (side "left") or w_i · e_m (side
        "right") for a frame W of Γ_α (column i is w_i), as left_α (I⊗W)
        re-keyed to (i, m) or right_α (W⊗I); square and invertible iff Γ_α
        is free on the frame from that side.  Built once per (action,
        frame, m_α)."""
        if side == "left":
            return self.shared(_frame_left, self.left[alpha], frame, self.h.mult[alpha])
        return self.shared(_frame_right, self.right[alpha], frame, self.h.mult[alpha])

    def frame_inverse(self, alpha: int, frame: Matrix) -> Matrix:
        """The inverse of frame_matrix(alpha, frame), ρ ↦ its coefficients
        (i, m) over the frame, built once per frame matrix; an error unless
        Γ_α is free on the frame."""
        w = self.frame_matrix(alpha, frame)
        if w.rows != w.cols:
            raise DimensionMismatch(f"Γ_{alpha} is not free on the frame")
        try:
            return self.shared(Matrix.inverse, w)
        except SingularMatrix:
            raise StructureInconsistent(f"the frame does not span Γ_{alpha}") from None


# Dimensions are read off the operands' shapes: n_α off m_α (n_α × n_α²),
# never off a frame or a map of Γ_α, either of which may be empty.


def _frame_left(left: Matrix, frame: Matrix, m: Matrix) -> Matrix:
    n = m.rows
    return left.on_leg(frame, n, 1, 1).permute_legs((n, frame.cols), (1, 0), 1)


def _frame_right(right: Matrix, frame: Matrix, m: Matrix) -> Matrix:
    return right.on_leg(frame, 1, m.rows, 1)


def invariant_subspace_left(cb: CovariantBimodule, alpha: int) -> Subspace:
    """{ρ ∈ Γ_α : Δ^l_{1,α}(ρ) = 1_1 ⊗ ρ}, canonical echelon basis; built
    once per (Δ^l_{1,α}, 1_1)."""
    if cb.delta_l is None:
        raise MissingCoaction("no left coaction present")
    h = cb.h
    e = h.group.identity
    return cb.shared(_left_invariants, cb.delta_l[(e, alpha)], h.unit[e])


def _left_invariants(delta: Matrix, unit: tuple) -> Subspace:
    f = delta.field
    return kernel(delta - Matrix.column(f, unit).kron(Matrix.identity(f, delta.cols)))


def _frame_size(cb: CovariantBimodule) -> int:
    """The common rank |I|; uniform across gradings or an error."""
    sizes = {a: cb.omega_space(a).dim for a in cb.h.group.elements()}
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
ROUNDTRIP = "reconstruction-roundtrip"
CHECKS = (FRAME_MULT, FRAME_NORM, R_COMULT, R_COUNIT, INTERTWINER, ROUNDTRIP)

# convolution side -> (frame, functional): ω with f*·, η with ·*g
_SIDES = {"left": ("ω", "f"), "right": ("η", "g")}


def _compare(report: VerificationReport, check: str, grading, lhs: Matrix, rhs: Matrix,
             identity: str) -> None:
    """Record `identity` as violated when two matrices differ, witnessed
    by the first column on which they do (differing_blocks, one block)."""
    for first in differing_blocks(lhs, rhs, (lhs.rows, lhs.cols)).values():
        report.extend([Violation(check, tuple(grading), first, identity)])


def _identity(check: str, lhs: Matrix, rhs: Matrix, identity: str) -> list[Violation]:
    """The violations of one identity of a grading-free check: _compare
    with the empty grading, which the checker stamps."""
    report = VerificationReport()
    _compare(report, check, (), lhs, rhs, identity)
    return report.violations


def _vec_identity(f, size: int) -> Matrix:
    """vec(I), the |I|² × 1 column with 1 at each row (i, i)."""
    return Matrix._unchecked(f, size * size, 1, {(i * size + i, 0): f.one() for i in range(size)})


def _side_comult(h: HopfPiCoalgebra, alpha: int, side: str) -> Matrix:
    """Δ_{α,1} (side "left") or Δ_{1,α} (side "right"), the comultiplication
    that _convolutions reads."""
    e = h.group.identity
    return h.comult[(alpha, e) if side == "left" else (e, alpha)]


def _convolutions(t1: Matrix, d: Matrix, side: str) -> Matrix:
    """φ*· = (id⊗φ)Δ_{α,1} (side "left", d = Δ_{α,1}) or ·*φ = (φ⊗id)Δ_{1,α}
    (side "right", d = Δ_{1,α}) on A_α for every row φ of t1 (functionals on
    A_1) at once, laid out like the coefficient maps: rows (φ, x), columns c."""
    n = d.cols
    if side == "left":
        return d.on_leg(t1, n, 1, 0).permute_legs((n, t1.rows), (1, 0), 0)
    return d.on_leg(t1, 1, n, 0)


# Each check below states its identity per grading (pair) as a pure
# function of the objects that grading reads, with the empty grading;
# checker computes it once per distinct operand tuple and stamps its
# violations with each grading that reads the tuple, in loop order.


def _generators(h: HopfPiCoalgebra, alpha: int):
    """The generators of A_α (hopf.algebra_generators, memoised per
    (m_α, 1_α)) when h satisfies every axiom, so that an identity may be
    decided on them; None, every column, otherwise.  Public reconstruct
    reaches the checks before any axiom is required."""
    if not verify_all(h).ok:
        return None
    return h.shared(algebra_generators, h.mult[alpha], h.unit[alpha])


def check_characters(h: HopfPiCoalgebra, funcs, name: str = "f") -> VerificationReport:
    """φ_ij(ab) = Σ_k φ_ik(a) φ_kj(b) and φ_ij(1) = δ_ij on every A_α:
    T_α m_α = Σ_k T_ik ⊗ T_kj and T_α 1_α = vec(I).  On a structure that
    satisfies the axioms, multiplicativity is decided on the pairs (a, s),
    s a generator of A_α, once φ(1) = I holds."""
    report = VerificationReport()
    run = checker(report)
    for a in h.group.elements():
        run(_characters, (a,), name, funcs[a], h.mult[a], h.unit[a], _generators(h, a))
    return report


def _characters(name: str, t: Matrix, m: Matrix, unit: tuple, gens) -> list[Violation]:
    f = t.field
    n = m.rows
    size = isqrt(t.rows)
    legs = (size, size)
    value = t @ Matrix.column(f, unit)
    norm = differing_blocks(value, _vec_identity(f, size), (1, 1))

    def sides(c):                 # rows (i, j): φ_ij(x c_y) and Σ_k φ_ik(x) φ_kj(c_y)
        k = c.cols
        # rows (i, x) × columns (j, y), re-keyed to rows (i, j), columns (x, y)
        split = t.regroup(legs, (n,), (0, 2), (1,)) @ (t @ c).regroup(legs, (k,), (0,), (1, 2))
        return t @ m.on_leg(c, n, 1, 1), split.regroup((size, n), (size, k), (0, 2), (1, 3))

    chosen = None if norm or gens is None else columns(f, n, gens)
    pair = sides_on_generators(sides, chosen, Matrix.identity(f, n))
    mult = {} if pair is None else differing_blocks(*pair, (1, n * n))
    out = []
    for ij, _ in sorted(mult.keys() | norm.keys()):
        i, j = divmod(ij, size)
        if (ij, 0) in mult:
            out.append(Violation(FRAME_MULT, (), mult[(ij, 0)],
                                 f"{name}_{i}{j}(ab) ≠ Σ_k {name}_{i}k(a) {name}_k{j}(b)"))
        if (ij, 0) in norm:
            want = f.one() if i == j else f.zero()
            out.append(Violation(FRAME_NORM, (), None, f"{name}_{i}{j}(1) = "
                                 f"{f.render(value[(ij, 0)])}, expected {f.render(want)}"))
    return out


def check_commutation_rule(h: HopfPiCoalgebra, maps, funcs, side: str) -> VerificationReport:
    """The coefficient maps are convolutions: M_ij = f_ij * · for ω
    (side "left") and M_ij = · * g_ij for η (side "right"), on every A_α:
    the stacked maps against the stacked convolutions of T_1."""
    t1 = funcs[h.group.identity]
    report = VerificationReport()
    run = checker(report)
    for a in h.group.elements():
        run(_commutation, (a,), side, maps[a], t1, _side_comult(h, a, side))
    return report


def _commutation(side: str, maps: Matrix, t1: Matrix, d: Matrix) -> list[Violation]:
    n = d.cols
    size = isqrt(t1.rows)
    w, name = _SIDES[side]
    conv = "{0}_{1}{2} * b" if side == "left" else "b * {0}_{1}{2}"
    out = []
    for (ij, _), first in sorted(differing_blocks(maps, _convolutions(t1, d, side), (n, n)).items()):
        i, j = divmod(ij, size)
        out.append(Violation(FRAME_MULT, (), first,
                             f"commutation rule: the {w}_{j}-coefficient of {w}_{i} b "
                             f"≠ {conv.format(name, i, j)}"))
    return out


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
    hint = ""
    if side == "right" and h.antipode[e] @ h.antipode[e] != Matrix.identity(f, h.n(e)):
        hint = "; this form needs an involutive antipode, and S_1² ≠ id"
    twisted = funcs[e] @ h.antipode_inv(e)                 # row (i, j): φ_ij∘S_1^{-1}
    report = VerificationReport()
    run = checker(report)
    for a in h.group.elements():
        run(_left_multiplication, (a,), side, hint,
            cb.frame_matrix(a, frames[a]),                 # column (i, b): b w_i
            cb.frame_matrix(a, frames[a], "right"),        # column (j, b): w_j b
            twisted, _side_comult(h, a, side))
    return report


def _left_multiplication(side: str, hint: str, lhs: Matrix, times: Matrix, twisted: Matrix,
                         d: Matrix) -> list[Violation]:
    n = d.cols
    size = isqrt(twisted.rows)
    w, name = _SIDES[side]
    conv = _convolutions(twisted, d, side).regroup((size, size, n), (n,), (1, 2), (0, 3))
    out = []
    for (_, i), first in sorted(differing_blocks(lhs, times @ conv, (lhs.rows, n)).items()):
        twist = f"{name}_{i}j∘S_1^{{-1}}"
        rule = f"({twist}) * a" if side == "left" else f"a * ({twist})"
        out.append(Violation(FRAME_MULT, (), first, f"left multiplication rule "
                             f"a {w}_{i} = Σ_j {w}_j ({rule}) fails{hint}"))
    return out


def check_convolution_inverses(h: HopfPiCoalgebra, funcs) -> VerificationReport:
    """Σ_j f_ji*(f_hj∘S_1^{-1}) = δ_ih ε = Σ_j (f_jh∘S_1^{-1})*f_ij on A_1:
    each side the convolution of re-keyed copies of T_1 and T_1 S_1^{-1},
    rows (i, h), through Δ_{1,1}.

    On a structure that satisfies the axioms, and once f is a character of
    A_1, both are evaluated at 1 and at the generators S of A_1 only.  With
    F(a) = (f_ij(a)) and G = F∘S_1^{-1}, Φ(a) = Σ G(a₂)F(a₁) satisfies
    Φ(bc) = Σ G(c₂)Φ(b)F(c₁), since F is multiplicative, S_1^{-1} anti-
    multiplicative and Δ_{1,1} multiplicative; so Φ = εI at 1 and on S
    gives Φ = εI on every right word, and on A_1.  The mirror,
    Σ F(a₂)G(a₁), satisfies the same with Φ(c) between F(b₂) and G(b₁).
    """
    e = h.group.identity
    report = VerificationReport()
    checker(report)(_convolution_inverses, (e,), funcs[e], h.antipode_inv(e),
                    h.comult[(e, e)], h.counit, h.mult[e], h.unit[e], _generators(h, e))
    return report


def _convolve(p: Matrix, q: Matrix, d: Matrix, rows) -> Matrix:
    """Σ_b p_ba * q_cb for stacked functionals p, q on A_1 (rows (b, a) and
    (c, b)), on the columns of d, the columns of Δ_{1,1} to evaluate on;
    its rows are (a, c) for rows = (0, 2) and (c, a) for rows = (2, 0)."""
    size = isqrt(p.rows)
    n1, k = q.cols, d.cols
    # rows (b, a, y), columns z: Σ_x p_ba(e_x) Δ[(x, y), z], re-keyed to
    # rows (a, z) and columns (b, y), then q_cb(e_y) on (b, y)
    left = d.on_leg(p, 1, n1, 0).regroup((size, size, n1), (k,), (1, 3), (0, 2))
    return (left @ q.regroup((size, size), (n1,), (1, 2), (0,))).regroup(
        (size, k), (size,), rows, (1,))


def _convolution_inverses(t: Matrix, s_inv: Matrix, d11: Matrix, counit: Matrix,
                          m: Matrix, unit: tuple, gens) -> list[Violation]:
    f = t.field
    n1 = t.cols
    size = isqrt(t.rows)
    u = t @ s_inv                                             # row (i, j): f_ij∘S_1^{-1}
    half = size * size

    def sides(c):
        # rows (i, h): Σ_j f_ji * (f_hj∘S_1^{-1}), then Σ_j (f_jh∘S_1^{-1}) * f_ij,
        # each against δ_ih ε
        d, target = d11 @ c, _vec_identity(f, size).kron(counit @ c)
        first, second = _convolve(t, u, d, (0, 2)), _convolve(u, t, d, (2, 0))
        return (Matrix._unchecked(f, 2 * half, c.cols, {**first.entries, **{
                    (r + half, z): v for (r, z), v in second.entries.items()}}),
                Matrix._unchecked(f, 2 * half, c.cols, {**target.entries, **{
                    (r + half, z): v for (r, z), v in target.entries.items()}}))

    chosen = None
    if gens is not None and not _characters("f", t, m, unit, gens):
        chosen = Matrix(f, n1, 1 + len(gens), {**{(r, 0): x for r, x in enumerate(unit)},
                                              **{(s, 1 + i): f.one() for i, s in enumerate(gens)}})
    pair = sides_on_generators(sides, chosen, Matrix.identity(f, n1))
    blocks = {} if pair is None else differing_blocks(*pair, (1, n1))
    out = []
    for ih in sorted({r % half for r, _ in blocks}):
        i, hh = divmod(ih, size)
        if (ih, 0) in blocks:
            out.append(Violation(FRAME_MULT, (), blocks[(ih, 0)],
                                 f"Σ_j f_j{i} * (f_{hh}j∘S_1^{{-1}}) ≠ δ_{i}{hh} ε"))
        if (half + ih, 0) in blocks:
            out.append(Violation(FRAME_MULT, (), blocks[(half + ih, 0)],
                                 f"Σ_j (f_j{hh}∘S_1^{{-1}}) * f_{i}j ≠ δ_{hh}{i} ε"))
    return out


def r_block(rb: Matrix, n: int, j: int, i: int) -> tuple:
    """R_ji ∈ A_β, read from rows j·n … j·n+n−1 of column i of R^β."""
    return tuple(rb[(j * n + m, i)] for m in range(n))


def _antipode_R(cb: CovariantBimodule, R, alpha: int) -> Matrix:
    """Ŝ_α = (I⊗S_{α^{-1}}) R^{α^{-1}}: column j is Σ_i e_i ⊗ S(R_ij) ∈ k^I ⊗ A_α;
    built once per (R^{α^{-1}}, S_{α^{-1}})."""
    ai = cb.h.group.inv(alpha)
    return cb.shared(_twisted_by_antipode, R[ai], cb.h.antipode[ai])


def _twisted_by_antipode(r: Matrix, s: Matrix) -> Matrix:
    return r.on_leg(s, r.cols, 1, 0)


def check_corepresentation(h: HopfPiCoalgebra, R) -> VerificationReport:
    """R is an invertible matrix corepresentation: the four identities of
    the module docstring, one sparse product each per grading (pair)."""
    grp = h.group
    e = grp.identity
    report = VerificationReport()
    run = checker(report)
    for b in grp.elements():
        for c in grp.elements():
            run(_R_comultiplicative, (b, c), R[grp.mul(b, c)], h.comult[(b, c)], R[b], R[c],
                h.mult[c])
    run(_R_counital, (e,), R[e], h.counit)
    for a in grp.elements():
        ai = grp.inv(a)
        run(_R_antipodal, (a,), R[a], R[ai], h.antipode[ai], h.mult[a], h.unit[a])
    return report


def _R_comultiplicative(r_bc: Matrix, d: Matrix, r_b: Matrix, r_c: Matrix,
                        m_c: Matrix) -> list[Violation]:
    lhs = r_bc.on_leg(d, r_bc.cols, 1, 0)
    rhs = r_c.on_leg(r_b, 1, m_c.rows, 0)
    return _identity(R_COMULT, lhs, rhs, "Δ(R_ji) ≠ Σ_h R_jh ⊗ R_hi")


def _R_counital(r: Matrix, counit: Matrix) -> list[Violation]:
    size = r.cols
    return _identity(R_COUNIT, r.on_leg(counit, size, 1, 0), Matrix.identity(r.field, size),
                     "ε(R_ji) ≠ δ_ji")


def _R_antipodal(r: Matrix, r_inv: Matrix, s_inv: Matrix, m: Matrix,
                 unit: tuple) -> list[Violation]:
    f = r.field
    n = m.rows
    size = r.cols
    shat = _twisted_by_antipode(r_inv, s_inv)
    ones = Matrix.identity(f, size).kron(Matrix.column(f, unit))
    return (_identity(R_COMULT, r.on_leg(shat, 1, n, 0).on_leg(m, size, 1, 0), ones,
                      "Σ_h S(R_ih) R_hj ≠ δ_ij 1")
            + _identity(R_COMULT, shat.on_leg(r, 1, n, 0).on_leg(m, size, 1, 0), ones,
                        "Σ_h R_ih S(R_hj) ≠ δ_ij 1"))


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
    report = VerificationReport()
    run = checker(report)
    for a in gradings:
        run(_intertwiner, (a,), names, R[a], h.mult[a], funcs_f[e], funcs_g[e],
            _side_comult(h, a, "right"), _side_comult(h, a, "left"))
    return report


def _intertwiner(names, r: Matrix, m: Matrix, t_f: Matrix, t_g: Matrix, d_right: Matrix,
                 d_left: Matrix) -> list[Violation]:
    n = m.rows
    size = isqrt(t_f.rows)
    fn, gn = names
    legs = (size, size, n)
    r_cols = r.regroup((size, n), (size,), (1,), (0, 2))      # column (i, j): R_ij
    # m_α(R_ij⊗x) at [(j, ·), (i, x)] and m_α(x⊗R_hi) at [(h, ·), (i, x)]
    by_left = m.on_leg(r_cols, 1, n, 1).regroup((n,), legs, (2, 0), (1, 3))
    by_right = m.on_leg(r_cols, n, 1, 1).regroup((n,), (n, size, size), (2, 0), (3, 1))
    lhs = by_left @ _convolutions(t_f, d_right, "right").regroup(legs, (n,), (0, 2), (1, 3))
    rhs = by_right @ _convolutions(t_g, d_left, "left").regroup(legs, (n,), (1, 2), (0, 3))
    found = differing_blocks(lhs, rhs.regroup((size, n), (size, n), (2, 1), (0, 3)), (n, n))
    return [Violation(INTERTWINER, (), first,
                      f"Σ_i R_i{j} (a * {fn}_i{hh}) ≠ Σ_i ({gn}_{j}i * a) R_{hh}i")
            for (j, hh), first in sorted(found.items())]


# ---------------------------------------------------------------------------
# the coefficient maps F and the functionals f, g


def coefficient_maps(cb: CovariantBimodule, frames) -> list[Matrix]:
    """M_α per grading, rows ((i, j), r) and columns m, with w_i e_m =
    Σ_j Σ_r M_α[((i, j), r), m] e_r w_j: the n_α × n_α blocks M_ij of
    w_i b = Σ_j M_ij(b) w_j stacked over (i, j); built once per (frame
    inverse, right frame matrix, frame, m_α).

    frames[α] holds the frame w of Γ_α as columns: ω gives the maps F,
    available without Ψ (the functionals f are E_α ∘ F when Ψ exists), and
    η gives G.
    """
    h = cb.h
    return [cb.shared(_coefficient_map, cb.frame_inverse(a, frames[a]),
                      cb.frame_matrix(a, frames[a], "right"), frames[a], h.mult[a])
            for a in h.group.elements()]


def _coefficient_map(inverse: Matrix, times: Matrix, frame: Matrix, m: Matrix) -> Matrix:
    size = frame.cols
    n = m.rows
    # entry ((j, r), (i, m)): coefficient r of the w_j term of w_i·e_m
    return (inverse @ times).regroup((size, n), (size, n), (2, 0, 1), (3,))


def _collapse(h: HopfPiCoalgebra, maps) -> list[Matrix]:
    """T_α per grading, φ_ij^α = ε∘Ψ_α∘M_ij^α (the grading collapse): the
    stacked maps with εΨ_α acting on their r leg; once per (M_α, ε, Ψ_α)."""
    once = OperandMemo()
    return [once(_collapse_at, maps[a], h.counit, h.psi[a]) for a in h.group.elements()]


def _collapse_at(maps: Matrix, counit: Matrix, psi: Matrix) -> Matrix:
    return maps.on_leg(counit @ psi, maps.rows // psi.cols, 1, 0)


def functionals_f(cb: CovariantBimodule, F) -> tuple[list[Matrix], VerificationReport]:
    """The f_ij = Σ_α ε∘Ψ_α∘F_ij^α as one matrix T_α per grading, with the
    report of their identities; F is coefficient_maps on the ω frames.

    The report covers the commutation rule F_ij = f_ij * ·, the character
    identities, the left-multiplication rule through f∘S_1^{-1} and the
    convolution inverse identities on A_1.
    """
    h = cb.h
    if h.psi is None:
        raise MissingPsi("f extraction needs the grading collapse maps Ψ_α")
    funcs = _collapse(h, F)
    omega = [cb.omega(a) for a in h.group.elements()]
    return funcs, (check_commutation_rule(h, F, funcs, "left")
                   .merge(check_characters(h, funcs, "f"))
                   .merge(check_left_multiplication_rule(cb, omega, funcs, "left"))
                   .merge(check_convolution_inverses(h, funcs)))


def functionals_g(cb: CovariantBimodule, eta) -> tuple[list[Matrix], VerificationReport]:
    """g_ij from the right-invariant frame, η_i b = Σ_j (b * g_ij) η_j, as
    one matrix T_α per grading, with the report of their identities.

    `eta` holds the frame of each Γ_α as columns, as eta_basis builds it
    from R, so that the intertwiner identity refers to it.  The report
    covers the commutation rule G_ij = · * g_ij, the character identities
    and the left-multiplication rule of η.
    """
    h = cb.h
    if h.psi is None:
        raise MissingPsi("g extraction needs the grading collapse maps Ψ_α")
    G = coefficient_maps(cb, eta)
    funcs = _collapse(h, G)
    return funcs, (check_commutation_rule(h, G, funcs, "right")
                   .merge(check_characters(h, funcs, "g"))
                   .merge(check_left_multiplication_rule(cb, eta, funcs, "right")))


# ---------------------------------------------------------------------------
# the right coaction matrix R and the η frame


def matrix_R(cb: CovariantBimodule) -> tuple[list[Matrix], VerificationReport]:
    """R^β, the (|I|·n_β) × |I| matrix with column i = Σ_j e_j ⊗ R_ji for
    Δ^r_{α,β}(ω_i^{αβ}) = Σ_j ω_j^α ⊗ R_ji, with the report of its
    identities.

    Each grading pair gives R^β = coords(ω_α⊗A_β) · Δ^r_{α,β} Ω_{αβ},
    checked to satisfy (Ω_α⊗I) R^β = Δ^r_{α,β} Ω_{αβ} and to be the same
    for every α; the report ends with check_corepresentation.  Each pair
    is computed once per (Δ^r_{α,β}, Ω_{αβ}, ω_α, m_β).
    """
    if not cb.bicovariant:
        raise NotBicovariant("R extraction needs both coactions")
    h = cb.h
    grp = h.group
    _frame_size(cb)
    incl = [cb.omega(a) for a in grp.elements()]
    coords = [cb.shared(Subspace.coords_matrix, cb.omega_space(a)) for a in grp.elements()]
    report = VerificationReport()
    run = checker(report)
    once = OperandMemo()
    R = []
    for b in grp.elements():
        per_alpha = []
        for a in grp.elements():
            rb, found = once(_R_of_pair, cb.delta_r[(a, b)], incl[grp.mul(a, b)], coords[a],
                             incl[a], h.mult[b])
            report.extend(stamped(found, (a, b)))
            per_alpha.append(rb)
        ref = per_alpha[grp.identity]
        for a in grp.elements():
            run(_identity, (a, b), R_COMULT, per_alpha[a], ref,
                "R depends on the complementary grading")
        R.append(ref)
    return R, report.merge(check_corepresentation(h, R))


def _R_of_pair(delta: Matrix, w_ab: Matrix, coords_a: Matrix, w_a: Matrix, m_b: Matrix) -> tuple:
    """R^β read off one pair, with the violations of (Ω_α⊗I) R^β = Δ^r Ω_{αβ}."""
    image = delta @ w_ab
    nb = m_b.rows
    rb = image.on_leg(coords_a, 1, nb, 0)
    return rb, _identity(R_COMULT, rb.on_leg(w_a, 1, nb, 0), image,
                         "Δ^r(ω) is not in the invariant frame ⊗ A")


def eta_basis(cb: CovariantBimodule, R) -> tuple[list[Matrix], VerificationReport]:
    """η_j^α = Σ_i ω_i S_{α^{-1}}(R_ij), the columns of H_α = right_α (Ω_α⊗I) Ŝ_α;
    returns H_α per grading with the report of its identities.

    The report covers right invariance, Δ^r_{α,1} H_α = H_α⊗1, and
    ω_i = Σ_j η_j R_ji, right_α (H_α⊗I) R^α = Ω_α.  On Γ_α free on ω the
    latter makes the |I| vectors η generate Γ_α as a right module, so with
    right invariance they are a basis of the right invariants (Woronowicz
    1989, Thm 2.3, graded).  H_α is built once per (right_α, Ŝ_α, Ω_α, m_α).
    """
    if not cb.bicovariant:
        raise NotBicovariant("η construction needs both coactions")
    h = cb.h
    grp = h.group
    e = grp.identity
    _frame_size(cb)
    report = VerificationReport()
    run = checker(report)
    eta = []
    for a in grp.elements():
        omega = cb.omega(a)
        frame = cb.shared(_eta_frame, cb.right[a], _antipode_R(cb, R, a), omega, h.mult[a])
        run(_eta_identities, (a,), frame, cb.delta_r[(a, e)], h.unit[e], cb.right[a], R[a], omega,
            h.mult[a])
        eta.append(frame)
    return eta, report


def _eta_frame(right: Matrix, shat: Matrix, omega: Matrix, m: Matrix) -> Matrix:
    # η = ω when R = I⊗1 (a cocommutative A); the ω object then stands for
    # η, so the frame matrices, inverse and coefficient maps built for ω
    # serve η as well
    frame = right @ shat.on_leg(omega, 1, m.rows, 0)
    return omega if frame == omega else frame


def _eta_identities(frame: Matrix, delta: Matrix, unit: tuple, right: Matrix, r: Matrix,
                    omega: Matrix, m: Matrix) -> list[Violation]:
    return (_identity(R_COMULT, delta @ frame, frame.kron(Matrix.column(frame.field, unit)),
                      "η_j is not right invariant")
            + _identity(R_COMULT, right @ r.on_leg(frame, 1, m.rows, 0), omega,
                        "ω_i ≠ Σ_j η_j R_ji"))


def check_eta_left_coaction(cb: CovariantBimodule, R, eta) -> VerificationReport:
    """Δ^l_{α,β}(η_j^{αβ}) = Σ_i S_{α^{-1}}(R_ij) ⊗ η_i^β, all gradings:
    Δ^l_{α,β} H_{αβ} = (I⊗H_β) Ŝ_α with the legs of Ŝ_α swapped."""
    h = cb.h
    grp = h.group
    report = VerificationReport()
    run = checker(report)
    for a in grp.elements():
        # column j: Σ_i S(R_ij) ⊗ e_i
        swapped = cb.shared(_legs_swapped, _antipode_R(cb, R, a), h.mult[a])
        for b in grp.elements():
            run(_eta_left_coaction, (a, b), cb.delta_l[(a, b)], eta[grp.mul(a, b)], swapped, eta[b],
                h.mult[a])
    return report


def _legs_swapped(shat: Matrix, m: Matrix) -> Matrix:
    return shat.permute_legs((shat.cols, m.rows), (1, 0), 0)


def _eta_left_coaction(delta: Matrix, eta_ab: Matrix, swapped: Matrix, eta_b: Matrix,
                       m_a: Matrix) -> list[Violation]:
    return _identity(R_COMULT, delta @ eta_ab, swapped.on_leg(eta_b, m_a.rows, 1, 0),
                     "Δ^l(η_j) ≠ Σ_i S(R_ij) ⊗ η_i")


def check_intertwiner(cb: CovariantBimodule, funcs_f, funcs_g, R) -> VerificationReport:
    """f = g on A_1, and Σ_i R_ij (a*f_ih) = Σ_i (g_ji*a) R_hi on every
    A_α (see intertwiner_report)."""
    h = cb.h
    e = h.group.identity
    size = isqrt(funcs_f[e].rows)
    report = VerificationReport()
    for ij, _ in sorted(differing_blocks(funcs_f[e], funcs_g[e], (1, h.n(e)))):
        i, j = divmod(ij, size)
        report.extend([Violation(INTERTWINER, (e,), None, f"f_{i}{j} ≠ g_{i}{j} on A_1")])
    return report.merge(intertwiner_report(h, funcs_f, funcs_g, R, h.group.elements()))


# ---------------------------------------------------------------------------
# bundled extraction and reconstruction


@dataclass
class StructureData:
    """Invariant frames and the commutation data of a bicovariant bimodule.

    F, f, g and R are matrices, one per grading: F as coefficient_maps
    returns it, f and g as |I|² × n_α matrices T_α whose row (i, j) is
    φ_ij on A_α, and R^β of shape (size·n_β) × size, whose column i is
    Σ_j e_j ⊗ R_ji (the layout of matrix_R).  `report` holds
    every violation found; `not_run` maps each check that could not run
    in full to the reason, and a field whose step did not run or failed
    its identities is None.
    """

    size: int                       # |I|
    omega: list                     # per α: the frame W_α, column i is ω_i
    eta: list | None                # per α: the frame H_α, column j is η_j (3.55 frame)
    F: list                         # per α: the coefficient maps M_α, rows ((i, j), r)
    f: list | None                  # per α: T_α, row (i, j) is f_ij on A_α (None without Ψ)
    g: list | None                  # per α: T_α of g, laid out like f
    R: list | None                  # per β: the matrix R^β
    report: VerificationReport = field(default_factory=VerificationReport)
    not_run: dict = field(default_factory=dict)


def extract_structure(cb: CovariantBimodule) -> StructureData:
    """Frames, functionals and R data, with every check of CHECKS run.

    Each step runs when its inputs exist, so the report covers every
    identity that could be checked; a failed identity is a violation in
    `report`, and a check whose inputs are missing is in `not_run`.  The
    last step rebuilds the bimodule from (f, R) and compares it with cb.
    Errors that are not identities still raise: a frame on which Γ_α is
    not free, frame sizes that vary across gradings.
    """
    h = cb.h
    omega = [cb.omega(a) for a in h.group.elements()]
    data = StructureData(size=_frame_size(cb), omega=omega, eta=None,
                         F=coefficient_maps(cb, omega), f=None, g=None, R=None)

    def holds(report: VerificationReport) -> bool:
        data.report = data.report.merge(report)
        return report.ok

    def kept(result):
        value, report = result
        return value if holds(report) else None

    def skip(reason, *checks):
        for check in checks:
            data.not_run.setdefault(check, reason)

    if h.psi is None:
        skip("no grading collapse maps Ψ", FRAME_MULT, FRAME_NORM, INTERTWINER)
    else:
        data.f = kept(functionals_f(cb, data.F))
    if not cb.bicovariant:
        skip("the bimodule is not bicovariant", FRAME_MULT, FRAME_NORM, R_COMULT, R_COUNIT,
             INTERTWINER)
    else:
        data.R = kept(matrix_R(cb))
    if data.R is not None:
        data.eta = kept(eta_basis(cb, data.R))
    if data.eta is None:
        skip("the η frame was not built", R_COMULT, FRAME_MULT, FRAME_NORM)
    else:
        holds(check_eta_left_coaction(cb, data.R, data.eta))
        if h.psi is not None:
            data.g = kept(functionals_g(cb, data.eta))
    missing = [name for name, funcs in (("f", data.f), ("g", data.g)) if funcs is None]
    if missing:
        skip(f"{' and '.join(missing)} not extracted", INTERTWINER)
    # f and R passed their checks to be extracted; the intertwiner on (f, g)
    # reads only A_1 components, where check_intertwiner checked f = g
    if data.f is None or data.R is None:
        skip("f or R was not extracted", ROUNDTRIP)
    elif data.g is not None and not holds(check_intertwiner(cb, data.f, data.g, data.R)):
        skip("the intertwiner identity fails", ROUNDTRIP)
    elif data.g is None and not holds(intertwiner_report(h, data.f, data.f, data.R,
                                                         h.group.elements(), names=("f", "f"))):
        skip("the reconstruction data was rejected", ROUNDTRIP)
    else:
        holds(reconstruction_matches(cb, _rebuild(h, data.f, data.R, data.size)))
    return data


def reconstruct(h: HopfPiCoalgebra, funcs, R, size: int) -> CovariantBimodule:
    """Free bicovariant bimodule on frame slots from (f, R) data.

    Γ_α = k^size ⊗ A_α; the left action multiplies coefficients, the
    right action commutes through f, the coactions come from the
    comultiplication and R, laid out as in matrix_R: Δ^r(e_i ⊗ x) =
    Σ_j e_j ⊗ x_(1) ⊗ x_(2) R_ji is (I⊗m_β) applied to R^β⊗Δ_{α,β} with
    its row legs reordered.  The input must pass check_characters,
    check_corepresentation and the intertwiner on every grading with
    g := f (IncompatibleData carries the report; malformed f or R is
    rejected before any product).  The bimodule laws follow from those
    identities (Woronowicz 1989, §2–3, graded), so they are not
    re-verified (CovariantBimodule._trusted).
    """
    f = h.field
    grp = h.group
    for name, data, shape in (("f", funcs, lambda n: (size * size, n)),
                              ("R", R, lambda n: (size * n, size))):
        if not isinstance(data, (list, tuple)) or len(data) != grp.order:
            raise IncompatibleData(f"{name} must provide one matrix per grading")
        for b, m in enumerate(data):
            rows, cols = shape(h.n(b))
            if not (isinstance(m, Matrix) and m.field == f and (m.rows, m.cols) == (rows, cols)):
                raise IncompatibleData(f"{name} on A_{b} must be a {rows}×{cols} matrix over {f}")
    report = (check_characters(h, funcs, "f")
              .merge(check_corepresentation(h, R))
              .merge(intertwiner_report(h, funcs, funcs, R, grp.elements(), names=("f", "f"))))
    if not report.ok:
        raise IncompatibleData(
            f"reconstruction data fails {len(report)} identities; first: "
            f"{report.violations[0].render()}", report)
    return _rebuild(h, funcs, R, size)


def _rebuild(h: HopfPiCoalgebra, funcs, R, size: int) -> CovariantBimodule:
    """The bimodule of reconstruct from (f, R) known to pass its checks:
    checked by reconstruct, or by extract_structure before its round trip.
    Each map is built once per distinct tuple of the objects it reads."""
    f = h.field
    grp = h.group
    e = grp.identity
    # (e_i ⊗ x) b = Σ_j e_j ⊗ x b_(1) f_ij(b_(2)); twist has rows (j, i),
    # columns t and entries f_ij(e_t)
    twist = funcs[e].permute_legs((size, size), (1, 0), 0)
    eye = Matrix.identity(f, size)
    once = OperandMemo()
    left = [once(_rebuilt_left, eye, h.mult[a]) for a in grp.elements()]
    right = [once(_rebuilt_right, twist, h.comult[(a, e)], h.mult[a]) for a in grp.elements()]
    pairs = [(a, b) for a in grp.elements() for b in grp.elements()]
    delta_l = {(a, b): once(_rebuilt_delta_l, eye, h.comult[(a, b)], h.mult[b]) for a, b in pairs}
    delta_r = {(a, b): once(_rebuilt_delta_r, R[b], h.comult[(a, b)], h.mult[b]) for a, b in pairs}
    dims = [size * h.n(a) for a in grp.elements()]
    return CovariantBimodule._trusted(h, dims, left, right, delta_l=delta_l, delta_r=delta_r)


def _rebuilt_left(eye: Matrix, m: Matrix) -> Matrix:
    """(x, e_j ⊗ y) ↦ e_j ⊗ xy."""
    n = m.rows
    return eye.kron(m).permute_legs((eye.rows, n, n), (1, 0, 2), 1)


def _rebuilt_right(twist: Matrix, d: Matrix, m: Matrix) -> Matrix:
    size = isqrt(twist.rows)
    n = m.rows
    n1 = d.rows // n
    # the small factors first, so no intermediate is as large as I⊗m_α:
    # T[(j, y), (i, b)] = Σ_t f_ij(e_t) Δ_{α,1}[(y, t), b], then m_α on T's
    # y leg, rows (j, z, x), re-keyed to rows (j, z), columns (i, x, b)
    split = twist @ d.regroup((n, n1), (n,), (1,), (0, 2))
    t = split.regroup((size, size), (n, n), (0, 2), (1, 3))
    mult = m.regroup((n,), (n, n), (0, 1), (2,))
    return t.on_leg(mult, size, 1, 0).regroup((size, n, n), (size, n), (0, 1), (3, 2, 4))


def _rebuilt_delta_l(eye: Matrix, d: Matrix, m_b: Matrix) -> Matrix:
    nb = m_b.rows
    return eye.kron(d).permute_legs((eye.rows, d.rows // nb, nb), (1, 0, 2), 0)


def _rebuilt_delta_r(r_b: Matrix, d: Matrix, m_b: Matrix) -> Matrix:
    size = r_b.cols
    nb = m_b.rows
    n = d.rows // nb
    rolled = r_b.kron(d).permute_legs((size, nb, n, nb), (0, 2, 3, 1), 0)
    return rolled.on_leg(m_b, size * n, 1, 0)


def reconstruction_matches(cb: CovariantBimodule, rebuilt: CovariantBimodule) -> VerificationReport:
    """The reconstruction-roundtrip check: actions and coactions agree
    under the frame-coordinate identification.

    The isomorphism Γ_α → k^size ⊗ A_α sends ρ to its decomposition
    coefficients over ω; both sides' structure maps must be conjugate
    under it, bit-exactly.  A violation per grading (pair) for each action
    (coaction), witnessed by the first column on which the sides differ.
    """
    h = cb.h
    grp = h.group
    frame = {a: cb.omega(a) for a in grp.elements()}
    iso = {a: cb.frame_inverse(a, frame[a]) for a in grp.elements()}
    report = VerificationReport()
    run = checker(report)
    for a in grp.elements():
        run(_actions_match, (a,), iso[a], cb.frame_matrix(a, frame[a]), cb.left[a], cb.right[a],
            rebuilt.left[a], rebuilt.right[a], h.mult[a])
    for a in grp.elements():
        for b in grp.elements():
            ab = grp.mul(a, b)
            run(_coactions_match, (a, b), iso[a], iso[b], cb.frame_matrix(ab, frame[ab]),
                cb.delta_l[(a, b)], cb.delta_r[(a, b)], rebuilt.delta_l[(a, b)],
                rebuilt.delta_r[(a, b)], h.mult[a], h.mult[b])
    return report


def _actions_match(u: Matrix, ui: Matrix, left: Matrix, right: Matrix, rebuilt_left: Matrix,
                   rebuilt_right: Matrix, m: Matrix) -> list[Violation]:
    n = m.rows
    return (_identity(ROUNDTRIP, u @ left.on_leg(ui, n, 1, 1), rebuilt_left,
                      "the left action differs from the rebuilt one")
            + _identity(ROUNDTRIP, u @ right.on_leg(ui, 1, n, 1), rebuilt_right,
                        "the right action differs from the rebuilt one"))


def _coactions_match(iso_a: Matrix, iso_b: Matrix, w: Matrix, delta_l: Matrix, delta_r: Matrix,
                     rebuilt_l: Matrix, rebuilt_r: Matrix, m_a: Matrix,
                     m_b: Matrix) -> list[Violation]:
    dl = delta_l.on_leg(iso_b, m_a.rows, 1, 0) @ w
    dr = delta_r.on_leg(iso_a, 1, m_b.rows, 0) @ w
    return (_identity(ROUNDTRIP, dl, rebuilt_l, "Δ^l differs from the rebuilt one")
            + _identity(ROUNDTRIP, dr, rebuilt_r, "Δ^r differs from the rebuilt one"))
