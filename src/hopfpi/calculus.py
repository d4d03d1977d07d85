"""First-order differential calculi on Hopf group coalgebras.

The universal object is A² = {ker m_α} with D_α(b) = 1⊗b − b⊗1 and the
actions c·(a⊗b) = ca⊗b, (a⊗b)·c = a⊗bc.  Every calculus is a quotient
A²/N by a graded sub-bimodule N; the classification routes build N from
a right ideal R ⊆ ker ε via the bijections

    r_α(a⊗b) = (a ⊗ 1_1) Δ_{α,1}(b),      N_α = r_α^{-1}(A_α ⊗ R),
    t_α(a⊗b) = (1_1 ⊗ a) Δ_{1,α}(b),      N_α = t_α^{-1}(R ⊗ A_α),

the first giving left covariant calculi, the second right covariant
ones.  Covariance itself is decided by the containments
Φ^l(N_{αβ}) ⊆ A_α⊗N_β and Φ^r(N_{αβ}) ⊆ N_α⊗A_β, which is the operative
condition (and decidable by finite linear algebra); the implication form
of the definition follows from it.

Every containment is one sparse product.  The quotient projection P_α of
A_α⊗A_α has kernel exactly N_α, so with ι the inclusion matrix of N,

    Φ^l(N_{αβ}) ⊆ A_α⊗N_β   iff   (I ⊗ P_β) Φ^l ι_{αβ} = 0,
    Φ^r(N_{αβ}) ⊆ N_α⊗A_β   iff   (P_α ⊗ I) Φ^r ι_{αβ} = 0,

and column j of the product is nonzero exactly when basis vector j of
N_{αβ} leaves; sub-bimodule closure and ad-invariance are tested the
same way, and so is right-ideal closure: R ⊆ A_1 is a right ideal iff
P_R m_1 (ι_R ⊗ I) = 0 (_first_escape, which names the first product
that escapes on any structure, associative or not).

Enumeration tests its candidates with less.  By the generator lemma, a
subspace W with W·s ⊆ W for every s in a set S whose right words
1·s₁·s₂⋯ span A_1 is a right ideal: W·(1·s₁⋯s_r) ⊆ W by associativity
and the unit law.  So once require_axioms has verified the axioms,
each candidate's RREF rows in ker-ε coordinates are multiplied by the
matrix of each generator alone (hopf.algebra_generators, found once per
(m_1, 1_1)) and reduced modulo the candidate (linalg.rows_closed_under);
a candidate that fails builds nothing.

The Leibniz rule is decided on generators too, by its derivation form of
the lemma.  Let A_α be associative with unit 1 and Γ_α an A_α-bimodule
(ρ·1 = ρ = 1·ρ, and the actions associate and commute), and d : A_α → Γ_α
linear.  Then Y = {y : d(xy) = d(x)y + x d(y) for all x} is a subspace.
It contains 1 iff d(1) = 0, since d(x·1) = d(x)·1 + x·d(1) for all x
iff x·d(1) = 0 for all x.  And y, s ∈ Y give ys ∈ Y:

    d(x(ys)) = d((xy)s) = d(xy)s + xy d(s) = (d(x)y + x d(y))s + xy d(s)
             = d(x)(ys) + x(d(y)s + y d(s)) = d(x)(ys) + x d(ys).

So once verify_all passes (N_α is then a sub-bimodule, so Γ_α is a
bimodule), the rule on the pairs (a, c), c ∈ {1} ∪ S, S the generators
of A_α, gives it on all of A_α × A_α; the column of 1 stays, as the
words of S need not span 1 (x on F_p[x]/(x^p)).  leibniz_report reads it
there, and on every pair when it fails there, so each violation is the
one the whole product gives.  Its sides, and the span of a·d(b) that
surjectivity_report ranks, read Γ's actions only on the vectors they
use: a·w and w·c through drop, lift and m_α, the narrow factor (I⊗w or
w⊗c) first.  Only to_bimodule builds the whole actions of Γ_α.

Every map a calculus reads is a pure function of the objects it reads,
built once per distinct tuple of them (an OperandMemo), so gradings that
read the same objects share it: the maps of h in h.shared, those of a
calculus in Fodc.shared, and the route kernels N_α in a memo of the call
that builds the calculus.

The adjoint coaction ad_α = t_α ∘ r_α^{-1} ∘ (1_α ⊗ ·) : A_1 → A_1⊗A_α
characterises bicovariance: the r-route calculus of R is bicovariant iff
ad_α(R) ⊆ R ⊗ A_α for all α.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property

from .errors import (
    CodomainViolation,
    DimensionMismatch,
    NotARightIdeal,
    NotCovariant,
    NotInKernelOfCounit,
    TooLarge,
    UnsupportedField,
)
from .hopf import (
    HopfPiCoalgebra,
    OperandMemo,
    VerificationReport,
    Violation,
    _generators,
    _unit_and_generators,
    algebra_generators,
    checker,
    require_axioms,
    sides_on_generators,
)
from .linalg import (
    Matrix,
    PrimeField,
    Subspace,
    differing_blocks,
    image,
    kernel,
    quotient,
    rows_closed_under,
    unit_vec,
)
from .structure import CovariantBimodule


# ---------------------------------------------------------------------------
# the universal bimodule A²


class _Square:
    """A²_α = ker m_α of one grading: the kernel, its inclusion into
    A_α⊗A_α and D_α(b) = 1⊗b − b⊗1, with the m_α the actions read; built
    once per (m_α, 1_α)."""

    def __init__(self, mult: Matrix, unit: tuple):
        f = mult.field
        n = mult.rows
        self.mult = mult
        self.sub = kernel(mult)
        self.incl = self.sub.inclusion_matrix()
        u = Matrix.column(f, unit)
        self.D = u.kron(Matrix.identity(f, n)) - Matrix.identity(f, n).kron(u)


class UniversalBimodule:
    """Per-grading kernels of multiplication, their inclusion matrices
    into A_α⊗A_α, and D.  The A-actions on
    A_α⊗A_α multiply the outer legs: m_α on the first leg from the left,
    on the second from the right.  Each grading is one A²_α shared by the
    gradings with the same (m_α, 1_α)."""

    def __init__(self, h: HopfPiCoalgebra):
        self.at: list[_Square] = [h.shared(_Square, h.mult[a], h.unit[a])
                                  for a in h.group.elements()]
        self.sub: list[Subspace] = [sq.sub for sq in self.at]
        self.incl: list[Matrix] = [sq.incl for sq in self.at]
        self.D: list[Matrix] = [sq.D for sq in self.at]

    def dim(self, alpha: int) -> int:
        return self.sub[alpha].dim


def universal_bimodule(h: HopfPiCoalgebra) -> UniversalBimodule:
    """A² of h, read off the A²_α that h memoises: every calculus on h
    shares them."""
    return UniversalBimodule(h)


# ---------------------------------------------------------------------------
# the coactions Φ^l, Φ^r on A⊗A and the r/t translation maps


def _paired_comult(d: Matrix, na: int, nb: int) -> Matrix:
    """u⊗v ↦ u_(1,α) ⊗ v_(1,α) ⊗ u_(2,β) ⊗ v_(2,β), for d = Δ_{α,β}."""
    return d.kron(d).permute_legs((na, nb, na, nb), (0, 2, 1, 3), 0)


def _phi_l(d: Matrix, m_a: Matrix) -> Matrix:
    na = m_a.rows
    nb = d.rows // na
    return _paired_comult(d, na, nb).on_leg(m_a, 1, nb * nb, 0)


def _phi_r(d: Matrix, m_b: Matrix) -> Matrix:
    nb = m_b.rows
    na = d.rows // nb
    return _paired_comult(d, na, nb).on_leg(m_b, na * na, 1, 0)


def phi_l(h: HopfPiCoalgebra, alpha: int, beta: int) -> Matrix:
    """Φ^l_{α,β} : A_{αβ}⊗A_{αβ} → A_α ⊗ A_β ⊗ A_β.

    u⊗v ↦ u_(1,α)v_(1,α) ⊗ u_(2,β) ⊗ v_(2,β); restricted to A²_{αβ} it
    lands in A_α ⊗ A²_β.  Built once per (Δ_{α,β}, m_α).
    """
    return h.shared(_phi_l, h.comult[(alpha, beta)], h.mult[alpha])


def phi_r(h: HopfPiCoalgebra, alpha: int, beta: int) -> Matrix:
    """Φ^r_{α,β} : A_{αβ}⊗A_{αβ} → A_α ⊗ A_α ⊗ A_β.

    u⊗v ↦ u_(1,α) ⊗ v_(1,α) ⊗ u_(2,β)v_(2,β); restricted to A²_{αβ} it
    lands in A²_α ⊗ A_β.  Built once per (Δ_{α,β}, m_β).
    """
    return h.shared(_phi_r, h.comult[(alpha, beta)], h.mult[beta])


def r_map(h: HopfPiCoalgebra, alpha: int) -> Matrix:
    """r_α : A_α⊗A_α → A_α⊗A_1, a⊗b ↦ (a⊗1_1)Δ_{α,1}(b) = a b_(1,α) ⊗ b_(2,1)."""
    e = h.group.identity
    spread = Matrix.identity(h.field, h.n(alpha)).kron(h.comult[(alpha, e)])   # a ⊗ b_(1) ⊗ b_(2)
    return spread.on_leg(h.mult[alpha], 1, h.n(e), 0)


def t_map(h: HopfPiCoalgebra, alpha: int) -> Matrix:
    """t_α : A_α⊗A_α → A_1⊗A_α, a⊗b ↦ (1_1⊗a)Δ_{1,α}(b) = b_(1,1) ⊗ a b_(2,α),
    built once per (Δ_{1,α}, m_α): ad_α reads it."""
    return h.shared(_t_map, h.comult[(h.group.identity, alpha)], h.mult[alpha])


def _t_map(d: Matrix, m: Matrix) -> Matrix:
    n = m.rows
    n1 = d.rows // n
    spread = Matrix.identity(m.field, n).kron(d)   # a ⊗ b_(1) ⊗ b_(2)
    return spread.permute_legs((n, n1, n), (1, 0, 2), 0).on_leg(m, n1, 1, 0)


def r_inv(h: HopfPiCoalgebra, alpha: int) -> Matrix:
    """r_α^{-1} : A_α⊗A_1 → A_α⊗A_α, a⊗b ↦ a S_{α^{-1}}(b_(1,α^{-1})) ⊗ b_(2,α),
    built once per (Δ_{α^{-1},α}, S_{α^{-1}}, m_α)."""
    ai = h.group.inv(alpha)
    return h.shared(_r_inv, h.comult[(ai, alpha)], h.antipode[ai], h.mult[alpha])


def _r_inv(d: Matrix, s: Matrix, m: Matrix) -> Matrix:
    n = m.rows
    inner = d.on_leg(s, 1, n, 0)   # S(b_(1)) ⊗ b_(2)
    return Matrix.identity(m.field, n).kron(inner).on_leg(m, 1, n, 0)


def t_inv(h: HopfPiCoalgebra, alpha: int) -> Matrix:
    """t_α^{-1} : A_1⊗A_α → A_α⊗A_α, a⊗b ↦ b S_α^{-1}(a_(2,α^{-1})) ⊗ a_(1,α).

    Uses the inverse matrix of S_α (which the antipode axiom at α^{-1}
    makes a two-sided inverse of t_α); S_{α^{-1}} itself works only when
    the antipode family is involutive.  Built once per
    (Δ_{α,α^{-1}}, S_α^{-1}, m_α).
    """
    return h.shared(_t_inv, h.comult[(alpha, h.group.inv(alpha))], h.antipode_inv(alpha),
                    h.mult[alpha])


def _t_inv(d: Matrix, s_inv: Matrix, m: Matrix) -> Matrix:
    n = m.rows
    split = d.kron(Matrix.identity(m.field, n))              # a_(1) ⊗ a_(2) ⊗ b
    twisted = split.on_leg(s_inv, n, n, 0)                   # a_(1) ⊗ S^{-1}(a_(2)) ⊗ b
    return twisted.permute_legs((n, n, n), (2, 1, 0), 0).on_leg(m, 1, n, 0)


# ---------------------------------------------------------------------------
# right ideals of A_1 inside ker ε


class RightIdeal:
    """A right ideal of A_1 contained in ker ε, canonical basis."""

    def __init__(self, h: HopfPiCoalgebra, subspace: Subspace):
        self.subspace = subspace
        _validate_right_ideal(h, subspace)

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def __eq__(self, other):
        return isinstance(other, RightIdeal) and self.subspace == other.subspace

    def __hash__(self):
        return hash(self.subspace)

    def __repr__(self):
        return f"RightIdeal(dim {self.dim})"


def _first_escape(action: Matrix, sub: Subspace, n: int) -> tuple[int, int] | None:
    """The first (k, j), by basis vector w_k of sub and then by basis index
    j of A_1 (n = dim A_1), with w_k·e_j outside sub; None iff sub is closed
    under `action`, the right action V⊗A_1 → V in the coordinates of sub's
    ambient space V.

    One product: column k·n + j of P action (ι⊗I) is w_k·e_j modulo sub,
    with ι the inclusion of sub and P the projection whose kernel is sub,
    so the smallest nonzero column is the first escape.
    """
    outside = quotient(sub) @ action.on_leg(sub.inclusion_matrix(), 1, n, 1)
    first = min((c for _, c in outside.entries), default=None)
    return None if first is None else divmod(first, n)


def _validate_right_ideal(h: HopfPiCoalgebra, sub: Subspace) -> None:
    e = h.group.identity
    n1 = h.n(e)
    if sub.ambient_dim != n1:
        raise DimensionMismatch("ideal must live in A_1")
    # entry (0, k) is ε of basis vector k
    eps = h.counit @ sub.inclusion_matrix()
    if not eps.is_zero():
        k = min(c for _, c in eps.entries)
        raise NotInKernelOfCounit(
            f"generator {h.render_element(e, sub.basis.row(k))} has ε = "
            f"{h.field.render(eps[0, k])}")
    # m_1 in A_1 coordinates is exact on any structure, associative or not
    escape = _first_escape(h.mult[e], sub, n1)
    if escape is not None:
        k, j = escape
        raise NotARightIdeal(
            f"({h.render_element(e, sub.basis.row(k))})·{h.basis_name(e, j)} leaves the span")


def right_ideal_from_generators(h: HopfPiCoalgebra, gens) -> RightIdeal:
    """The right ideal G·A_1 generated by `gens`, one product: the image of
    m_1 (ι_G⊗I), ι_G the inclusion of the span of the generators.

    In a unital associative A_1 this is the smallest right-multiplication-
    closed subspace containing G (g = g·1, (g a) b = g (ab)), inside ker ε
    when G is (ε is an algebra map).  RightIdeal validates it: on an A_1
    that is not associative it raises NotARightIdeal with the product that
    escapes, a case the CLI never reaches, as it verifies the axioms first.
    """
    f = h.field
    e = h.group.identity
    n1 = h.n(e)
    for gvec in gens:
        if len(gvec) != n1:
            raise DimensionMismatch("generator of wrong length")
        if h.counit.apply(gvec)[0] != f.zero():
            raise NotInKernelOfCounit(
                f"generator {h.render_element(e, gvec)} has nonzero counit")
    iota = Subspace.from_spanning(f, n1, gens).inclusion_matrix()
    return RightIdeal(h, image(h.mult[e].on_leg(iota, 1, n1, 1)))


def zero_ideal(h: HopfPiCoalgebra) -> RightIdeal:
    return RightIdeal(h, Subspace.zero_space(h.field, h.n(h.group.identity)))


# ---------------------------------------------------------------------------
# calculi


class _Quotient:
    """Γ_α = A²_α/N_α of one grading, built once per (A²_α, N_α): the
    inclusion ι of N_α, the projection P of A_α⊗A_α whose kernel is N_α,
    and the section (lift) and projection (drop) of Γ_α; d and the two
    whole module actions, which only to_bimodule reads, on first read
    (see Fodc)."""

    def __init__(self, square: _Square, kernel: Subspace):
        f = kernel.field
        self.square = square
        self.incl = kernel.inclusion_matrix()
        # P has kernel exactly N_α, so v ∈ N_α ⇔ P v = 0: containments are
        # decided by products with P
        self.proj = quotient(kernel)
        one = f.one()
        sub, n_pivots = square.sub, kernel.pivots
        skip = set(n_pivots)
        kept = [(k, p) for k, p in enumerate(sub.pivots) if p not in skip]
        # 0/1 selectors: basis vector k of A²_α; the row of P at a column p
        # that is not a pivot of N_α, which is p less the pivots before it
        self.lift = square.incl @ Matrix(
            f, sub.dim, len(kept), {(k, i): one for i, (k, _) in enumerate(kept)})
        self.drop = Matrix(f, len(kept), self.proj.rows, {
            (i, p - bisect_left(n_pivots, p)): one for i, (_, p) in enumerate(kept)
        }) @ self.proj

    @cached_property
    def d(self) -> Matrix:
        return self.drop @ self.square.D

    @cached_property
    def left(self) -> Matrix:
        m = self.square.mult
        return self.drop.on_leg(m, 1, m.rows, 1).on_leg(self.lift, m.rows, 1, 1)

    @cached_property
    def right(self) -> Matrix:
        m = self.square.mult
        return self.drop.on_leg(m, m.rows, 1, 1).on_leg(self.lift, 1, m.rows, 1)


class Fodc:
    """A first-order differential calculus Γ = A²/N with d = Π ∘ D.

    Holds, per grading α: the kernel N_α (ambient coordinates), its
    inclusion ι_α and the projection P_α whose kernel is N_α, and the
    quotient Γ_α with its canonical section (lift) and projection (drop).
    d_α is built on first read, the two whole module actions on Γ_α by
    `to_bimodule` alone, and the induced coactions on the first
    `induced_delta_l/r` or `to_bimodule` call; a job that reads only
    dimensions and covariance verdicts builds none of them.  The Leibniz
    rule d(ab) = d(a)b + a d(b) is decided on the pairs (a, c),
    c ∈ {1} ∪ S, by the derivation form of the generator lemma (module
    docstring): the pairs on which it holds form a subspace closed under
    y ↦ ys, which contains 1 iff d(1) = 0.  leibniz_report and
    surjectivity_report read the actions only on the vectors they use,
    through drop, lift and m_α, and build no whole action.  Each
    grading's maps are built once per (A²_α, N_α), each containment once
    per (Φ, ι_{αβ}, P) and each induced coaction once per (Φ, lift, drop),
    in the calculus's own OperandMemo (`shared`), so they live as long as
    the calculus.

    N is a sub-bimodule of A², which `to_bimodule` relies on.  The public
    constructor proves it (CodomainViolation otherwise).  The universal
    calculus (N = 0) and the route calculi of a right ideal R ⊆ ker ε build
    through `_trusted`, which requires the Hopf axioms (VerificationFailed
    with the memoised verdict of verify_all otherwise), as
    CovariantBimodule._trusted does: under them N is a sub-bimodule by
    theorem (Woronowicz 1989, §1, graded), so it is not tested.

    Γ_α is read off the one projection P_α of A_α⊗A_α, whose kernel is
    N_α: P_α reduces x modulo N_α's RREF basis and reads it at the
    columns that are not pivots of N_α.  A nonzero vector of A²_α leads
    at a pivot of A²_α's RREF basis, so N_α ⊆ A²_α puts N_α's pivots
    among A²_α's.  The basis vectors of A²_α whose pivot is not one of
    N_α's then span a complement of N_α in A²_α: they are the section
    (lift), and the rows of P_α at their pivots are the projection onto
    Γ_α (drop), with drop ∘ lift = id.
    """

    def __init__(self, h: HopfPiCoalgebra, kernels: list[Subspace]):
        self._build(h, kernels)
        self._check_sub_bimodule()

    @classmethod
    def _trusted(cls, h: HopfPiCoalgebra, kernel_at) -> "Fodc":
        """The universal calculus, or the calculus of a right ideal R on one
        route, N_α = kernel_at(α) = r_α^{-1}(A_α⊗R) or t_α^{-1}(R⊗A_α): N is
        a sub-bimodule of A² once h satisfies the Hopf axioms, which are
        required here, before kernel_at builds any translation map."""
        require_axioms(h)
        calc = cls.__new__(cls)
        calc._build(h, [kernel_at(a) for a in h.group.elements()])
        return calc

    def _build(self, h: HopfPiCoalgebra, kernels: list[Subspace]) -> None:
        self.h = h
        self.asq = universal_bimodule(h)
        self.kernels = list(kernels)
        self.shared = OperandMemo()    # the maps of this calculus, by operand tuple
        g = h.group

        if len(self.kernels) != g.order:
            raise DimensionMismatch("one kernel subspace per grading required")
        for a in g.elements():
            if self.kernels[a].ambient_dim != h.n(a) ** 2:
                raise DimensionMismatch(f"kernel at {a} has wrong ambient dimension")
        self._at = [self.shared(_Quotient, self.asq.at[a], self.kernels[a]) for a in g.elements()]
        self.incl: list[Matrix] = [q.incl for q in self._at]   # ι_α includes N_α into A_α⊗A_α
        self.proj: list[Matrix] = [q.proj for q in self._at]   # P_α, kernel exactly N_α
        self.lift: list[Matrix] = [q.lift for q in self._at]   # Γ_α → ambient A_α⊗A_α
        self.drop: list[Matrix] = [q.drop for q in self._at]   # A²_α (ambient) → Γ_α

    @cached_property
    def d(self) -> list[Matrix]:
        """d_α = drop_α ∘ D_α : A_α → Γ_α."""
        return [q.d for q in self._at]

    @cached_property
    def left(self) -> list[Matrix]:
        """The left action A_α⊗Γ_α → Γ_α, drop ∘ (m⊗I) ∘ (I⊗lift)."""
        return [q.left for q in self._at]

    @cached_property
    def right(self) -> list[Matrix]:
        """The right action Γ_α⊗A_α → Γ_α, drop ∘ (I⊗m) ∘ (lift⊗I)."""
        return [q.right for q in self._at]

    def _check_sub_bimodule(self):
        """N_α ⊆ A²_α for every α, then A_α·N_α ⊆ N_α ⊇ N_α·A_α; names the
        grading, or the action, that first fails, scanning N's basis
        vectors w_k and, for each, A's basis e_i."""
        h = self.h
        for a in h.group.elements():
            # N_α ⊆ A²_α = ker m_α iff m_α ι_α = 0
            if not (h.mult[a] @ self.incl[a]).is_zero():
                raise CodomainViolation(f"N_{a} is not contained in A²_{a}")
        for a in h.group.elements():
            n = h.n(a)
            incl, proj = self.incl[a], self.proj[a]
            # column k·n + i holds e_i·w_k on the left and w_k·e_i on the right
            left = proj.on_leg(h.mult[a], 1, n, 1).on_leg(incl, n, 1, 1).permute_legs(
                (n, incl.cols), (1, 0), 1)
            right = proj.on_leg(h.mult[a], n, 1, 1).on_leg(incl, 1, n, 1)
            first_left = min((c for _, c in left.entries), default=None)
            first_right = min((c for _, c in right.entries), default=None)
            if first_left is not None and (first_right is None or first_left <= first_right):
                raise CodomainViolation(f"N_{a} not closed under the left action")
            if first_right is not None:
                raise CodomainViolation(f"N_{a} not closed under the right action")

    def dim(self, alpha: int) -> int:
        return self.drop[alpha].rows

    @property
    def gamma_dims(self) -> list[int]:
        return [self.dim(a) for a in self.h.group.elements()]

    # -- verifications -------------------------------------------------------

    def to_bimodule(self):
        """The covariant-bimodule view of Γ, with whichever coactions hold.

        Δ^l is attached iff the left containment Φ^l(N) ⊆ A⊗N holds,
        Δ^r iff the right one does; NotCovariant if neither.  The laws
        are a theorem here and are not re-verified (see
        CovariantBimodule._trusted); VerificationFailed if h fails the
        Hopf axioms.
        """
        delta_l, delta_r = _coactions(self, "left"), _coactions(self, "right")
        if delta_l is None and delta_r is None:
            raise NotCovariant("calculus is neither left nor right covariant")
        return CovariantBimodule._trusted(self.h, self.gamma_dims, self.left, self.right,
                                          delta_l=delta_l, delta_r=delta_r)

    def leibniz_report(self) -> VerificationReport:
        """d(ab) = d(a)b + a d(b) as a matrix identity per grading, decided
        on the pairs (a, c), c ∈ {1} ∪ S, once h satisfies the axioms (the
        derivation lemma of the module docstring), and on every pair
        otherwise or when it fails there; computed once per
        (d_α, m_α, lift, drop, 1_α, S)."""
        h = self.h
        report = VerificationReport()
        run = checker(report)
        for a in h.group.elements():
            run(_leibniz, (a,), self.d[a], h.mult[a], self.lift[a], self.drop[a], h.unit[a],
                _generators(h, a))
        return report

    def surjectivity_report(self) -> VerificationReport:
        """Every ρ ∈ Γ_α is a combination of a·d(b) over basis pairs: the
        rank of drop (m_α⊗I)(I⊗lift d_α), computed once per
        (d_α, m_α, lift, drop)."""
        h = self.h
        report = VerificationReport()
        run = checker(report)
        for a in h.group.elements():
            run(_surjectivity, (a,), self.d[a], h.mult[a], self.lift[a], self.drop[a])
        return report


def _times_left(m: Matrix, w: Matrix) -> Matrix:
    """(m⊗I)(I⊗w): column (i, t) is e_i·w_t in A_α⊗A_α, for columns w_t
    of A_α⊗A_α; the narrow factor I⊗w first, so nothing as wide as
    drop·(m⊗I) is built."""
    n = m.rows
    return Matrix.identity(m.field, n).kron(w).on_leg(m, 1, n, 0)


def _leibniz(d: Matrix, m: Matrix, lift: Matrix, drop: Matrix, unit: tuple,
             gens) -> list[Violation]:
    n = m.rows
    lifted = lift @ d                # d(e_j) in A_α⊗A_α

    def sides(c):                    # columns (i, t): d(e_i c_t) and d(e_i) c_t + e_i d(c_t)
        # d(e_i)·c_t is (I⊗m)(lift d(e_i) ⊗ c_t), and e_i·d(c_t) is (m⊗I)(e_i ⊗ lift d(c_t))
        return (d @ m.on_leg(c, n, 1, 1),
                drop @ (lifted.kron(c).on_leg(m, n, 1, 0) + _times_left(m, lifted @ c)))

    chosen = None if gens is None else _unit_and_generators(m.field, unit, gens)
    pair = sides_on_generators(sides, chosen, Matrix.identity(m.field, n))
    if pair is None:
        return []
    lhs, rhs = pair
    return [Violation("leibniz", (), j, "d(ab) ≠ d(a)b + a d(b)")
            for _, j in sorted(differing_blocks(lhs, rhs, (lhs.rows, 1)))]


def _surjectivity(d: Matrix, m: Matrix, lift: Matrix, drop: Matrix) -> list[Violation]:
    # column (i, j) is e_i · d(e_j)
    span = image(drop @ _times_left(m, lift @ d))
    if span.dim == d.rows:
        return []
    return [Violation("surjectivity", (), None, f"span of a·d(b) has dim {span.dim} < {d.rows}")]


def _zero_kernel(square: _Square) -> Subspace:
    return Subspace.zero_space(square.sub.field, square.sub.ambient_dim)


def universal_calculus(h: HopfPiCoalgebra) -> Fodc:
    """Γ = A² itself (N = 0), the universal calculus; N_α is one zero
    subspace per A²_α, so gradings with the same A²_α share all of Γ_α."""
    asq = universal_bimodule(h)
    return Fodc._trusted(h, lambda a: h.shared(_zero_kernel, asq.at[a]))


def calculus_from_ideal(h: HopfPiCoalgebra, ideal: RightIdeal) -> Fodc:
    """Left covariant calculus with N_α = r_α^{-1}(A_α ⊗ R), the image of
    r_α^{-1} ∘ (I ⊗ ι_R), built once per (r_α^{-1}, ι_R); the universal
    calculus when R = 0, which builds no r_α^{-1}."""
    if ideal.dim == 0:
        return universal_calculus(h)
    incl = ideal.subspace.inclusion_matrix()
    memo = OperandMemo()    # this call's, so N lives as long as the calculus, not as h
    return Fodc._trusted(h, lambda a: memo(_left_route_kernel, r_inv(h, a), incl))


def _left_route_kernel(r_inverse: Matrix, incl: Matrix) -> Subspace:
    """N_α = r_α^{-1}(A_α⊗R), the image of r_α^{-1} ∘ (I ⊗ ι_R)."""
    return image(r_inverse.on_leg(incl, r_inverse.cols // incl.rows, 1, 1))


def calculus_from_ideal_right(h: HopfPiCoalgebra, ideal: RightIdeal) -> Fodc:
    """Right covariant calculus with N_α = t_α^{-1}(R ⊗ A_α), the image of
    t_α^{-1} ∘ (ι_R ⊗ I), built once per (t_α^{-1}, ι_R); the universal
    calculus when R = 0, which builds no t_α^{-1}."""
    if ideal.dim == 0:
        return universal_calculus(h)
    incl = ideal.subspace.inclusion_matrix()
    memo = OperandMemo()    # this call's, so N lives as long as the calculus, not as h
    return Fodc._trusted(h, lambda a: memo(_right_route_kernel, t_inv(h, a), incl))


def _right_route_kernel(t_inverse: Matrix, incl: Matrix) -> Subspace:
    """N_α = t_α^{-1}(R⊗A_α), the image of t_α^{-1} ∘ (ι_R ⊗ I)."""
    return image(t_inverse.on_leg(incl, 1, t_inverse.cols // incl.rows, 1))


def calculus_from_kernels(h: HopfPiCoalgebra, kernels: list[Subspace]) -> Fodc:
    """Calculus from an explicit sub-bimodule family N ⊆ A² (validated)."""
    return Fodc(h, kernels)


# ---------------------------------------------------------------------------
# covariance


def _covariance(calc: Fodc, side: str) -> VerificationReport:
    """The containment report of one side.

    Left: Φ^l(N_{αβ}) ⊆ A_α ⊗ N_β for all α, β, decided as
    (I ⊗ P_β) Φ^l ι_{αβ} = 0; right: Φ^r(N_{αβ}) ⊆ N_α ⊗ A_β, decided as
    (P_α ⊗ I) Φ^r ι_{αβ} = 0.  A nonzero column j names the basis vector of
    N_{αβ} that leaves.  Each product is computed once per (Φ, ι_{αβ}, P)
    in calc.shared, so a later query reads the memo.
    """
    h = calc.h
    g = h.group
    left = side == "left"
    detail = ("Φ^l maps an N basis vector outside A⊗N" if left
              else "Φ^r maps an N basis vector outside N⊗A")
    report = VerificationReport()
    pairs = [(a, b) for a in g.elements() for b in g.elements()]
    for a, b in pairs:
        incl = calc.incl[g.mul(a, b)]
        leaving = (calc.shared(_leaving_left, phi_l(h, a, b), incl, calc.proj[b]) if left
                   else calc.shared(_leaving_right, phi_r(h, a, b), incl, calc.proj[a]))
        report.extend(Violation(f"{side}-covariance", (a, b), j, detail) for j in leaving)
    return report


def _leaving_left(phi: Matrix, incl: Matrix, proj: Matrix) -> list[int]:
    """The columns of (I ⊗ P_β) Φ^l ι_{αβ} that are not zero."""
    # right to left: Φ ι has dim N_{αβ} columns, none for the universal calculus
    return _nonzero_columns((phi @ incl).on_leg(proj, phi.rows // proj.cols, 1, 0))


def _leaving_right(phi: Matrix, incl: Matrix, proj: Matrix) -> list[int]:
    """The columns of (P_α ⊗ I) Φ^r ι_{αβ} that are not zero."""
    return _nonzero_columns((phi @ incl).on_leg(proj, 1, phi.rows // proj.cols, 0))


def _coactions(calc: Fodc, side: str) -> dict | None:
    """The coactions of one side, keyed by (α, β), when its containment
    holds, else None."""
    if not _covariance(calc, side).ok:
        return None
    g = calc.h.group
    return {(a, b): _coaction(calc, side, a, b) for a in g.elements() for b in g.elements()}


def _coaction(calc: Fodc, side: str, alpha: int, beta: int) -> Matrix:
    """The map Δ_{α,β} that Φ induces on the quotients, drop ∘ Φ ∘ lift,
    well defined once the containment of `side` holds; built once per
    (Φ, lift, drop).  The Φ that decided the verdict serves here too."""
    h = calc.h
    lift = calc.lift[h.group.mul(alpha, beta)]
    if side == "left":
        return calc.shared(_descend_left, phi_l(h, alpha, beta), lift, calc.drop[beta])
    return calc.shared(_descend_right, phi_r(h, alpha, beta), lift, calc.drop[alpha])


def _descend_left(phi: Matrix, lift: Matrix, drop: Matrix) -> Matrix:
    """(I ⊗ drop_β) Φ^l lift_{αβ} : Γ_{αβ} → A_α ⊗ Γ_β."""
    return (phi @ lift).on_leg(drop, phi.rows // drop.cols, 1, 0)


def _descend_right(phi: Matrix, lift: Matrix, drop: Matrix) -> Matrix:
    """(drop_α ⊗ I) Φ^r lift_{αβ} : Γ_{αβ} → Γ_α ⊗ A_β."""
    return (phi @ lift).on_leg(drop, 1, phi.rows // drop.cols, 0)


def _nonzero_columns(m: Matrix) -> list[int]:
    """Indices of the columns of m that are not zero, ascending."""
    return sorted({c for _, c in m.entries})


def check_left_covariant(calc: Fodc) -> VerificationReport:
    """Φ^l(N_{αβ}) ⊆ A_α ⊗ N_β for all α, β; witnesses on failure."""
    return _covariance(calc, "left")


def check_right_covariant(calc: Fodc) -> VerificationReport:
    """Φ^r(N_{αβ}) ⊆ N_α ⊗ A_β for all α, β; witnesses on failure."""
    return _covariance(calc, "right")


def _induced(calc: Fodc, side: str, alpha: int, beta: int) -> Matrix:
    report = _covariance(calc, side)
    if not report.ok:
        raise NotCovariant(f"not {side} covariant: {report.violations[0].render()}")
    return _coaction(calc, side, alpha, beta)


def induced_delta_l(calc: Fodc, alpha: int, beta: int) -> Matrix:
    """Δ^l_{α,β} : Γ_{αβ} → A_α ⊗ Γ_β descended from Φ^l.

    Requires left covariance (else the map is not well defined on the
    quotient); raises NotCovariant with the witness report.
    """
    return _induced(calc, "left", alpha, beta)


def induced_delta_r(calc: Fodc, alpha: int, beta: int) -> Matrix:
    """Δ^r_{α,β} : Γ_{αβ} → Γ_α ⊗ A_β descended from Φ^r."""
    return _induced(calc, "right", alpha, beta)


def check_bicovariant(calc: Fodc) -> VerificationReport:
    """Left and right covariance: the two memoised containment reports.
    Once both hold, the compatibility of Δ^l and Δ^r follows from
    coassociativity (CovariantBimodule._trusted) and is not computed;
    VerificationFailed carries the axiom verdict when h fails one."""
    require_axioms(calc.h)
    return _covariance(calc, "left").merge(_covariance(calc, "right"))


# ---------------------------------------------------------------------------
# the adjoint coaction and ad-invariance


def ad_map(h: HopfPiCoalgebra, alpha: int) -> Matrix:
    """ad_α = t_α ∘ r_α^{-1} ∘ (1_α ⊗ ·) : A_1 → A_1 ⊗ A_α.

    In Sweedler notation a ↦ a_(2,1) ⊗ S_{α^{-1}}(a_(1,α^{-1})) a_(3,α).
    Built once per (t_α, r_α^{-1}, 1_α).
    """
    return h.shared(_ad_map, t_map(h, alpha), r_inv(h, alpha), h.unit[alpha])


def _ad_map(t: Matrix, r_inverse: Matrix, unit: tuple) -> Matrix:
    n1 = t.rows // len(unit)
    return t @ r_inverse.on_leg(Matrix.column(t.field, unit), 1, n1, 1)


def check_ad_invariant(h: HopfPiCoalgebra, ideal: RightIdeal) -> VerificationReport:
    """ad_α(R) ⊆ R ⊗ A_α for every α, decided as (P_R ⊗ I) ad_α ι_R = 0
    with P_R a projection whose kernel is R; a nonzero column j names the
    basis vector of R that leaves.  Computed once per distinct ad_α."""
    sub = ideal.subspace
    incl = sub.inclusion_matrix()
    proj = quotient(sub)
    report = VerificationReport()
    run = checker(report)
    for a in h.group.elements():
        run(_ad_leaving, (a,), ad_map(h, a), incl, proj)
    return report


def _ad_leaving(ad: Matrix, incl: Matrix, proj: Matrix) -> list[Violation]:
    outside = (ad @ incl).on_leg(proj, 1, ad.rows // proj.cols, 0)
    return [Violation("ad-invariance", (), j, "ad maps an ideal basis vector outside R⊗A")
            for j in _nonzero_columns(outside)]


def ideal_from_calculus(calc: Fodc) -> RightIdeal:
    """Recover R from a left covariant calculus: second-leg span of r_1(N_1).

    r_1 ι_{N_1} has rows A_1⊗A_1 and one column per basis vector w of N_1;
    moving its first row leg to the columns leaves one column per (i, w),
    the second leg of r_1(w) at first-leg index i, and R is their span.
    Round-trip guarantee: rebuilding the calculus from the recovered
    ideal reproduces every N_α bit-exactly (canonical bases).
    """
    report = check_left_covariant(calc)
    if not report.ok:
        raise NotCovariant(f"not left covariant: {report.violations[0].render()}")
    h = calc.h
    e = h.group.identity
    n1 = h.n(e)
    moved = r_map(h, e) @ calc.incl[e]
    return RightIdeal(h, image(moved.regroup((n1, n1), (moved.cols,), (1,), (0, 2))))


# ---------------------------------------------------------------------------
# exhaustive ideal enumeration (small prime fields)

MAX_ENUM_PRIME = 11
MAX_ENUM_KER_DIM = 3


def _all_rref_subspaces(field: PrimeField, dim: int, top: int):
    """All subspaces of F_p^dim of dimension at most `top`, by dimension,
    each as (rows, pivots): its canonical RREF basis as dense rows (tuples)
    and their pivot columns.  Nothing else is built per subspace.

    Enumerates pivot-column choices and the free entries; complete at
    the bounded desk scale this package targets.  No subspace above `top`
    is generated.
    """
    from itertools import combinations, product

    for k in range(min(top, dim) + 1):
        for pivots in combinations(range(dim), k):
            free_positions = [(r, c) for r in range(k) for c in range(pivots[r] + 1, dim)
                              if c not in pivots]
            for values in product(range(field.p), repeat=len(free_positions)):
                rows = [[0] * dim for _ in range(k)]
                for r, p in enumerate(pivots):
                    rows[r][p] = 1
                for (r, c), v in zip(free_positions, values):
                    rows[r][c] = v
                yield tuple(map(tuple, rows)), pivots


def _kernel_action(sub: Subspace, m: Matrix) -> Matrix:
    """The right action of A_1 on a right ideal, coords(sub) m_1 (ι_sub⊗I)."""
    return sub.coords_matrix() @ m.on_leg(sub.inclusion_matrix(), 1, m.rows, 1)


def enumerate_right_ideals(h: HopfPiCoalgebra, max_dim: int | None = None) -> list[RightIdeal]:
    """All right ideals R ⊆ ker ε, by exhaustive echelon-subspace search.

    Requires a prime field with p ≤ 11 and dim ker ε ≤ 3 (complete at
    desk scale, infeasible generally), and h to satisfy the Hopf axioms
    (VerificationFailed with the memoised verdict otherwise);
    deterministic order: by dimension, then by the echelon parameters.

    Each candidate is tested in ker-ε coordinates against the generators
    S of A_1 only (hopf.algebra_generators, memoised per (m_1, 1_1)): its
    RREF rows pass when every row times the k×k matrix of each s ∈ S
    reduces to zero modulo the candidate (linalg.rows_closed_under), and a
    candidate that fails builds no Matrix and no Subspace.  The matrix of
    s is read once per call off the right action of A_1 on ker ε,
    coords(ker ε) m_1 (ι_{ker ε}⊗I), built once per (ker ε, m_1); ker-ε
    coordinates are exact because ker ε is a right ideal, ε being an
    algebra map.  Testing S alone is exact by the lemma that a subspace
    closed under right multiplication by a generating set is a right
    ideal: if W·s ⊆ W for every s ∈ S and the words 1·s₁⋯s_r span A_1,
    then W·A_1 ⊆ W by associativity and the unit law, which
    require_axioms has verified before any candidate is tested.

    A candidate that passes is lifted into A_1 by one product with ker ε's
    RREF basis and is not re-reduced: the lift of an RREF basis through an
    RREF basis is RREF, with pivots ker ε's pivots at the candidate's
    pivots.  The coordinate of lifted row r at ker ε's pivot P_c is row
    r's entry c (1 at its own pivot, 0 at the others'), and the basis
    vectors of ker ε that row r combines lead at or after
    P_{pivot of r}.  RightIdeal validates the lift as it does any ideal.
    """
    f = h.field
    if not isinstance(f, PrimeField):
        raise UnsupportedField("ideal enumeration needs a small prime field")
    if f.p > MAX_ENUM_PRIME:
        raise TooLarge(f"p = {f.p} exceeds the enumeration bound {MAX_ENUM_PRIME}")
    ker_eps = h.counit_kernel()
    k = ker_eps.dim
    if k > MAX_ENUM_KER_DIM:
        raise TooLarge(f"dim ker ε = {k} exceeds the enumeration bound {MAX_ENUM_KER_DIM}")
    require_axioms(h)
    e = h.group.identity
    m1 = h.mult[e]
    n1 = m1.rows
    action = h.shared(_kernel_action, ker_eps, m1)
    # column c of generator s's matrix is w_c·s in ker-ε coordinates
    by_gen = [action.on_leg(Matrix.column(f, unit_vec(f, n1, s)), k, 1, 1)
              for s in h.shared(algebra_generators, m1, h.unit[e])]
    found = []
    for rows, pivots in _all_rref_subspaces(f, k, k if max_dim is None else max_dim):
        if rows_closed_under(rows, pivots, by_gen):
            small = Matrix._unchecked(f, len(rows), k, {
                (r, c): x for r, row in enumerate(rows) for c, x in enumerate(row) if x})
            lifted = Subspace(small @ ker_eps.basis, (ker_eps.pivots[p] for p in pivots))
            found.append(RightIdeal(h, lifted))
    return found
