"""Reference implementations used only by the tests.

Each function here states its identity one vector (or one basis element)
at a time, independently of the sparse matrix products the library uses;
or, for the identities of the functionals f, g and of R over the frame
index set, one entry (i, j[, h]) at a time, the form the library's
stacked block products replace, with the nested data (one block or one
functional per (α, i, j)) that the stacked matrices replace; or, for
the axioms and the bimodule
laws, as products with every identity Kronecker factor built as a
matrix, the form the library's leg-wise products replace.  Row
reduction is here in its dense form, which the library's sparse rows
replace, reconstruct's right action as the chain of products it once
was, and the right ideal of a generator set as the fixed-point loop
that one product replaced, right-ideal closure as one product v·e_j at
a time, and the enumeration that lifted every candidate into A_1 before
testing it.  The tests compare the two on the same data.  The per-vector
forms the library no longer ships live here as references too: the
residue of a vector modulo a subspace and its membership test, graded
functionals and their convolution, the iterated comultiplication, flip
(built entry by entry), the subspace of all of k^n and the inclusion,
coordinates and tensor of subspaces, the quotient section, the
decompositions over the ω frame, the projections P_α and the entrywise
form of linalg.differing_blocks.  So do the whole products of the seven
identities that the library decides on the generators of A_α
(associativity, the multiplicativity of Δ, ε, S and Ψ, the characters
and the convolution inverses), each evaluated on every column.
`unshared` copies a structure so that no grading shares a matrix or
tuple with another, the form in which the library's once-per-operand-
tuple axiom checks run at every grading.
Nothing in `hopfpi` imports this module.
"""

from __future__ import annotations

import itertools
from math import isqrt
from typing import Sequence

from hopfpi.calculus import (
    Fodc,
    RightIdeal,
    UniversalBimodule,
    _all_rref_subspaces,
    phi_l,
    phi_r,
    universal_bimodule,
)
from hopfpi.errors import (
    CodomainViolation,
    DimensionMismatch,
    MissingCoaction,
    NotBicovariant,
)
from hopfpi.groups import cyclic, group_from_table
from hopfpi.hopf import (
    HopfPiCoalgebra,
    VerificationReport,
    Violation,
    _antipode_axiom,
    _antipode_comult,
    _diff_columns,
    _render_vector,
    act_on_pairs,
    group_algebra,
    stamped,
)
from hopfpi.linalg import (
    Field,
    Matrix,
    PrimeField,
    Subspace,
    differing_blocks,
    kernel,
    quotient,
    solve,
    unit_vec,
    vec_kron,
)
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
    r_block,
)


# ---------------------------------------------------------------------------
# vectors


def zero_vec(field: Field, n: int) -> tuple:
    return (field.zero(),) * n


def vec_is_zero(field: Field, v: Sequence) -> bool:
    z = field.zero()
    return all(a == z for a in v)


def vec_add(field: Field, v: Sequence, w: Sequence) -> tuple:
    if len(v) != len(w):
        raise DimensionMismatch(f"vec_add: {len(v)} vs {len(w)}")
    return tuple(field.add(a, b) for a, b in zip(v, w))


def flip(field: Field, dim_a: int, dim_b: int) -> Matrix:
    """The swap x ⊗ y ↦ y ⊗ x : k^a ⊗ k^b → k^b ⊗ k^a, entry by entry:
    e_i ⊗ e_j (column i·b + j) goes to e_j ⊗ e_i (row j·a + i)."""
    one = field.one()
    return Matrix(field, dim_a * dim_b, dim_a * dim_b, {
        (j * dim_a + i, i * dim_b + j): one for i in range(dim_a) for j in range(dim_b)})


def differing_blocks_by_entries(lhs: Matrix, rhs: Matrix, block: tuple[int, int]) -> dict:
    """linalg.differing_blocks read entry by entry: every (r, c) of the
    shape is compared, and each p×q block keeps the least column offset
    at which the two matrices differ."""
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        raise DimensionMismatch(f"{lhs.rows}x{lhs.cols} vs {rhs.rows}x{rhs.cols}")
    p, q = block
    out: dict = {}
    for r in range(lhs.rows):
        for c in range(lhs.cols):
            if lhs[r, c] != rhs[r, c]:
                where = (r // p, c // q)
                out[where] = min(out.get(where, q), c % q)
    return out


# ---------------------------------------------------------------------------
# subspaces one vector at a time


def full_space(field: Field, n: int) -> Subspace:
    """k^n, its RREF basis the identity."""
    return Subspace(Matrix.identity(field, n), range(n))


def subspace_reduce(sub: Subspace, v: Sequence) -> tuple:
    """Residue of v after eliminating all pivot coordinates of sub.

    Basis row k is zero at every pivot but its own, so the residue is
    v − Σ_k v[p_k]·(row k), one pass over the basis entries.
    """
    f = sub.field
    zero = f.zero()
    out = [f.canon(x) for x in v]
    if len(out) != sub.ambient_dim:
        raise DimensionMismatch("vector/ambient mismatch")
    coeff = [out[p] for p in sub.pivots]
    for (k, c), y in sub.basis.entries.items():
        x = coeff[k]
        if x != zero:
            out[c] = f.sub(out[c], f.mul(x, y))
    return tuple(out)


def subspace_contains(sub: Subspace, v: Sequence) -> bool:
    """v ∈ sub: its residue modulo sub's basis is zero."""
    return vec_is_zero(sub.field, subspace_reduce(sub, v))


def subspace_le(small: Subspace, big: Subspace) -> bool:
    """small ⊆ big: every basis vector of small lies in big."""
    if small.ambient_dim != big.ambient_dim:
        raise DimensionMismatch("subspaces of different ambient spaces")
    return all(subspace_contains(big, v) for v in small.basis.to_rows())


def subspace_coords(sub: Subspace, v: Sequence) -> tuple:
    """Coefficients of v over the RREF basis of sub (its entries at the
    pivots); DimensionMismatch if v lies outside."""
    if not subspace_contains(sub, v):
        raise DimensionMismatch("vector outside subspace")
    return tuple(sub.field.canon(v[p]) for p in sub.pivots)


def subspace_tensor(first: Subspace, second: Subspace) -> Subspace:
    """first ⊗ second, spanned by the b ⊗ c of their basis vectors and
    reduced again."""
    f = first.field
    return Subspace.from_spanning(f, first.ambient_dim * second.ambient_dim, [
        vec_kron(f, b, c) for b in first.basis.to_rows() for c in second.basis.to_rows()])


def quotient_section(ker: Subspace) -> Matrix:
    """The section of linalg.quotient(ker): the class of non-pivot
    coordinate vector k goes to that vector."""
    f = ker.field
    taken = set(ker.pivots)
    free = [c for c in range(ker.ambient_dim) if c not in taken]
    return Matrix(f, ker.ambient_dim, len(free), {(c, k): f.one() for k, c in enumerate(free)})


# ---------------------------------------------------------------------------
# graded functionals and convolution, one element at a time


class GradedFunctional:
    """Element of ⊕_α A_α*, stored as one row vector per grading."""

    def __init__(self, h: HopfPiCoalgebra, components: dict):
        self.h = h
        comp = {}
        for a, row in components.items():
            row = tuple(h.field.canon(x) for x in row)
            if len(row) != h.n(a):
                raise DimensionMismatch(f"component at {a} has length {len(row)}")
            if not vec_is_zero(h.field, row):
                comp[a] = row
        self.components = comp

    def component(self, alpha: int) -> tuple:
        got = self.components.get(alpha)
        if got is None:
            return (self.h.field.zero(),) * self.h.n(alpha)
        return got

    def __call__(self, alpha: int, v) -> object:
        f = self.h.field
        out = f.zero()
        for a, x in zip(self.component(alpha), v):
            out = f.add(out, f.mul(a, x))
        return out

    def conv(self, other: "GradedFunctional") -> "GradedFunctional":
        """Convolution in ⊕_α A_α*: (u*v)^γ = Σ_{αβ=γ} (u^α⊗v^β)Δ_{α,β}."""
        h = self.h
        f = h.field
        comp: dict[int, tuple] = {}
        for a, ra in self.components.items():
            for b, rb in other.components.items():
                gamma = h.group.mul(a, b)
                row = h.comult[(a, b)].transpose().apply(vec_kron(f, ra, rb))
                comp[gamma] = vec_add(f, comp[gamma], row) if gamma in comp else row
        return GradedFunctional(h, comp)

    def eq(self, other: "GradedFunctional") -> bool:
        return self.components == other.components


def convolution(h: HopfPiCoalgebra, alpha: int, f_map: Matrix, beta: int, g_map: Matrix,
                target_mult: Matrix) -> Matrix:
    """(f*g) = m ∘ (f⊗g) ∘ Δ_{α,β} for f : A_α → T, g : A_β → T, with
    `target_mult` the multiplication T ⊗ T → T."""
    return target_mult @ f_map.kron(g_map) @ h.comult[(alpha, beta)]


def group_product(grp, elems) -> int:
    """The product of `elems` in grp, folded left to right from the identity."""
    out = grp.identity
    for x in elems:
        out = grp.mul(out, x)
    return out


def comult_path(h: HopfPiCoalgebra, path) -> Matrix:
    """The iterated comultiplication A_{α_1⋯α_k} → A_{α_1} ⊗ … ⊗ A_{α_k},
    right-nested as (I ⊗ Δ_{α_2…}) Δ_{α_1, α_2⋯α_k} with the identity
    factors built; coassociativity makes every bracketing equal."""
    path = tuple(path)
    if len(path) == 1:
        return Matrix.identity(h.field, h.n(path[0]))
    rest = comult_path(h, path[1:])
    step = h.comult[(path[0], group_product(h.group, path[1:]))]
    return Matrix.identity(h.field, h.n(path[0])).kron(rest) @ step


def iterated_comult(h: HopfPiCoalgebra, path, source) -> tuple:
    """comult_path(h, path) applied to `source`, an element of A_(product of path)."""
    return comult_path(h, path).apply(source)


def counit_functional(h: HopfPiCoalgebra) -> GradedFunctional:
    return GradedFunctional(h, {h.group.identity: h.counit.row(0)})


def convolution_unit(h: HopfPiCoalgebra, alpha: int, target_unit, target_dim: int) -> Matrix:
    """ε(·)1_T on A_α (zero map unless α = 1)."""
    f = h.field
    if alpha != h.group.identity:
        return Matrix(f, target_dim, h.n(alpha))
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
# dense row reduction


def rref_dense(field: Field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form by column sweeps over dense rows, leftmost
    pivots first: (nonzero rows, pivot columns).  Mutates `rows`."""
    zero = field.zero()
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if rows[i][c] != zero:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = field.inv(rows[r][c])
        if inv != field.one():
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != zero:
                factor = rows[i][c]
                rows[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def rref_by_sweeps(m: Matrix) -> tuple[Matrix, list[int]]:
    """rref_dense with the signature of linalg.rref: the RREF of the dense
    column sweep of m's rows as a Matrix, every scalar kept as the sweep
    left it (so a stray Fraction(2) is not turned into 2)."""
    zero = m.field.zero()
    rows, pivots = rref_dense(m.field, m.to_rows())
    return Matrix._unchecked(m.field, len(rows), m.cols, {
        (i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x != zero}), pivots


# ---------------------------------------------------------------------------
# subspaces and quotients reduced twice


def kernel_by_two_reductions(m: Matrix) -> Subspace:
    """ker m: one solution per free column of the left-to-right RREF of m,
    made canonical by reducing that spanning set a second time."""
    f = m.field
    reduced, pivots = rref_dense(f, m.to_rows())
    zero = f.zero()
    pivot_set = set(pivots)
    vectors = []
    for fc in (c for c in range(m.cols) if c not in pivot_set):
        v = [zero] * m.cols
        v[fc] = f.one()
        for row, p in zip(reduced, pivots):
            if row[fc] != zero:
                v[p] = f.neg(row[fc])
        vectors.append(v)
    return Subspace.from_spanning(f, m.cols, vectors)


def fodc_maps_by_two_quotients(calc: Fodc) -> tuple:
    """(lift, drop, d, left, right) of a calculus, one list each, with Γ_α
    built as a second quotient: N_α written in A²_α coordinates one vector
    at a time, reduced again, and divided out of A²_α."""
    h = calc.h
    f = h.field
    asq = universal_bimodule(h)
    maps: tuple = ([], [], [], [], [])
    for a in h.group.elements():
        n = h.n(a)
        sub = asq.sub[a]
        in_coords = Subspace.from_spanning(
            f, sub.dim, [subspace_coords(sub, v) for v in calc.kernels[a].basis.to_rows()])
        lift = sub.inclusion_matrix() @ quotient_section(in_coords)
        drop = quotient(in_coords) @ sub.coords_matrix()
        left = drop @ left_action_ambient(h, a) @ Matrix.identity(f, n).kron(lift)
        right = drop @ right_action_ambient(h, a) @ lift.kron(Matrix.identity(f, n))
        for out, m in zip(maps, (lift, drop, drop @ asq.D[a], left, right)):
            out.append(m)
    return maps


# ---------------------------------------------------------------------------
# calculi: the ambient actions, Φ in A²-coordinates and the implication
# form of covariance


def first_escape_by_vectors(h: HopfPiCoalgebra, span: Subspace) -> tuple | None:
    """The first (k, j, w_k·e_j), w_k basis vector k of `span` and j a
    basis index of A_1, with w_k·e_j outside the span, by applying m_1 to
    one dense w_k⊗e_j at a time; None iff the span is closed under right
    multiplication by A_1."""
    f, e = h.field, h.group.identity
    for k, v in enumerate(span.basis.to_rows()):
        for j in range(h.n(e)):
            w = h.mult[e].apply(vec_kron(f, v, unit_vec(f, h.n(e), j)))
            if not subspace_contains(span, w):
                return k, j, w
    return None


def words_span(m: Matrix, unit: Sequence, gens: Sequence[int]) -> Subspace:
    """The span of the right words 1·s₁·s₂⋯ in the basis vectors `gens`
    of the algebra with multiplication m: the words of each length are the
    words one shorter times each generator, one dense product at a time,
    until a length adds nothing to the span (then no longer one can)."""
    f, n = m.field, m.rows
    layer = [tuple(unit)]
    words = list(layer)
    span = Subspace.from_spanning(f, n, words)
    while True:
        layer = [m.apply(vec_kron(f, w, unit_vec(f, n, s))) for w in layer for s in gens]
        words += layer
        grown = Subspace.from_spanning(f, n, words)
        if grown.dim == span.dim:
            return span
        span = grown


def right_ideal_by_escapes(h: HopfPiCoalgebra, gens) -> Subspace:
    """The smallest right-multiplication-closed subspace containing `gens`,
    by fixed-point iteration: adjoin the first product v·e_j that leaves
    the span, reduce the whole spanning list again, until none does."""
    n1 = h.n(h.group.identity)
    vectors = [tuple(gv) for gv in gens]
    span = Subspace.from_spanning(h.field, n1, vectors)
    while (escape := first_escape_by_vectors(h, span)) is not None:
        vectors.append(escape[2])
        span = Subspace.from_spanning(h.field, n1, vectors)
    return span


def right_ideals_by_lifts(h: HopfPiCoalgebra, max_dim: int | None = None) -> list[RightIdeal]:
    """All right ideals R ⊆ ker ε, in calculus.enumerate_right_ideals'
    order: every candidate subspace of ker ε is lifted into A_1 first, by
    applying the inclusion of ker ε to each row and reducing the lift
    again, and its closure tested there against every basis vector of A_1,
    one product v·e_j at a time."""
    ker_eps = h.counit_kernel()
    incl = ker_eps.inclusion_matrix()
    found = []
    for rows, pivots in _all_rref_subspaces(h.field, ker_eps.dim, ker_eps.dim):
        if max_dim is not None and len(pivots) > max_dim:
            continue
        lifted = Subspace.from_spanning(h.field, incl.rows, [incl.apply(row) for row in rows])
        if first_escape_by_vectors(h, lifted) is None:
            found.append(RightIdeal(h, lifted))
    return found


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
    target = subspace_tensor(full_space(f, h.n(alpha)), asq.sub[beta])
    restricted = phi_l(h, alpha, beta) @ asq.sub[ab].inclusion_matrix()
    for j in range(restricted.cols):
        if not subspace_contains(target, restricted.col(j)):
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
    target = subspace_tensor(asq.sub[alpha], full_space(f, h.n(beta)))
    restricted = phi_r(h, alpha, beta) @ asq.sub[ab].inclusion_matrix()
    for j in range(restricted.cols):
        if not subspace_contains(target, restricted.col(j)):
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
            for j, w in enumerate(calc.kernels[ab].basis.to_rows()):
                if any(x != f.zero() for x in left_map.apply(w)):
                    report.extend([Violation("left-covariance-implication", (a, b), j,
                                             "Σ Δ(a_k)(id⊗d)Δ(b_k) ≠ 0 on N")])
                if any(x != f.zero() for x in right_map.apply(w)):
                    report.extend([Violation("right-covariance-implication", (a, b), j,
                                             "Σ Δ(a_k)(d⊗id)Δ(b_k) ≠ 0 on N")])
    return report


# ---------------------------------------------------------------------------
# bimodules: frames, R and η one vector at a time


def invariant_subspace_right(cb: CovariantBimodule, alpha: int) -> Subspace:
    """{η ∈ Γ_α : Δ^r_{α,1}(η) = η ⊗ 1_1}, canonical echelon basis: the right
    invariants that the η frame of structure.eta_basis must span."""
    if cb.delta_r is None:
        raise MissingCoaction("no right coaction present")
    h = cb.h
    e = h.group.identity
    ins = Matrix.identity(h.field, cb.g(alpha)).kron(h.unit_col(e))
    return kernel(cb.delta_r[(alpha, e)] - ins)


def projection_P_matrix(cb: CovariantBimodule, alpha: int) -> Matrix:
    """P_α : Γ_1 → Γ_α, ρ ↦ Σ S_{α^{-1}}(a_k) ρ_k for Δ^l_{α^{-1},α}(ρ) = Σ a_k⊗ρ_k,
    with the identity factor of S⊗I built."""
    if cb.delta_l is None:
        raise MissingCoaction("no left coaction present")
    h = cb.h
    ai = h.group.inv(alpha)
    s = h.antipode[ai].kron(Matrix.identity(h.field, cb.g(alpha)))
    return cb.left[alpha] @ s @ cb.delta_l[(ai, alpha)]


def projection_P(cb: CovariantBimodule, alpha: int, rho) -> tuple:
    return projection_P_matrix(cb, alpha).apply(rho)


def _decompose(cb: CovariantBimodule, alpha: int, side: str, rho) -> list[tuple]:
    n = cb.h.n(alpha)
    x = solve(cb.frame_matrix(alpha, cb.omega(alpha), side), tuple(rho))
    return [x[i * n:(i + 1) * n] for i in range(cb.omega_space(alpha).dim)]


def decompose_left(cb: CovariantBimodule, alpha: int, rho) -> list[tuple]:
    """The unique a_i ∈ A_α with ρ = Σ a_i ω_i, one solve of the frame matrix."""
    return _decompose(cb, alpha, "left", rho)


def decompose_right(cb: CovariantBimodule, alpha: int, rho) -> list[tuple]:
    """The unique b_i ∈ A_α with ρ = Σ ω_i b_i, one solve of the right frame matrix."""
    return _decompose(cb, alpha, "right", rho)


def recombine_left(cb: CovariantBimodule, alpha: int, coeffs) -> tuple:
    """Σ a_i ω_i for coefficients a_i ∈ A_α."""
    f = cb.h.field
    omega = cb.omega(alpha)
    out = zero_vec(f, cb.g(alpha))
    for i, a_i in enumerate(coeffs):
        out = vec_add(f, out, cb.left[alpha].apply(vec_kron(f, a_i, omega.col(i))))
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


def matrix_R_by_vectors(cb: CovariantBimodule) -> tuple:
    """R[β][j][i] ∈ A_β with Δ^r_{α,β}(ω_i^{αβ}) = Σ_j ω_j^α ⊗ R_ji, read
    off one image vector at a time and required to be independent of α;
    returns R with the report of its identities, like structure.matrix_R.
    An image outside ω_α ⊗ A_β is a violation, and R_ji is then read at
    the pivots of ω_α ⊗ A_β."""
    if not cb.bicovariant:
        raise NotBicovariant("R extraction needs both coactions")
    h = cb.h
    f = h.field
    grp = h.group
    size = _frame_size(cb)
    report = VerificationReport()
    per_pair: dict = {}
    for a in grp.elements():
        for b in grp.elements():
            ab = grp.mul(a, b)
            nb = h.n(b)
            target = subspace_tensor(cb.omega_space(a), full_space(f, nb))
            rmat = [[None] * size for _ in range(size)]
            omega = cb.omega(ab)
            images = [cb.delta_r[(a, b)].apply(omega.col(i)) for i in range(size)]
            if not all(subspace_contains(target, img) for img in images):
                report.extend([Violation(R_COMULT, (a, b), None,
                                         "Δ^r(ω) is not in the invariant frame ⊗ A")])
            for i, img in enumerate(images):
                x = tuple(f.canon(img[p]) for p in target.pivots)
                for j in range(size):
                    rmat[j][i] = x[j * nb:(j + 1) * nb]
            per_pair[(a, b)] = rmat
    R = []
    for b in grp.elements():
        ref = per_pair[(grp.identity, b)]
        for a in grp.elements():
            if per_pair[(a, b)] != ref:
                report.extend([Violation(R_COMULT, (a, b), None,
                                         "R depends on the complementary grading")])
        R.append(ref)
    return R, report.merge(check_corepresentation_by_vectors(h, R))


def eta_basis_by_vectors(cb: CovariantBimodule, R) -> tuple:
    """η_j^α = Σ_i ω_i S_{α^{-1}}(R_ij), for R in block form; checks right
    invariance, that the η span the right invariants, and ω_i = Σ_j η_j R_ji.
    Returns the frame of each Γ_α as a matrix, column j = η_j, with the
    report of those identities, like structure.eta_basis."""
    h = cb.h
    f = h.field
    grp = h.group
    e = grp.identity
    size = _frame_size(cb)
    eta = []
    for a in grp.elements():
        s = h.antipode[grp.inv(a)]
        omega = cb.omega(a)
        frame = []
        for j in range(size):
            acc = zero_vec(f, cb.g(a))
            for i in range(size):
                acc = vec_add(f, acc, cb.right[a].apply(
                    vec_kron(f, omega.col(i), s.apply(R[grp.inv(a)][i][j]))))
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
            _compare_vectors(report, R_COMULT, (a,), acc, cb.omega(a).col(i),
                             f"ω_{i} ≠ Σ_j η_j R_j{i}")
    return [Matrix(f, cb.g(a), size, {(r, j): x for j, v in enumerate(eta[a])
                                      for r, x in enumerate(v)}) for a in grp.elements()], report


def check_eta_left_coaction_by_vectors(cb: CovariantBimodule, R, eta) -> VerificationReport:
    """Δ^l_{α,β}(η_j^{αβ}) = Σ_i S_{α^{-1}}(R_ij) ⊗ η_i^β, for R in block form."""
    h = cb.h
    f = h.field
    grp = h.group
    size = eta[grp.identity].cols
    report = VerificationReport()
    for a in grp.elements():
        ai = grp.inv(a)
        s = h.antipode[ai]
        for b in grp.elements():
            for j in range(size):
                rhs = zero_vec(f, h.n(a) * cb.g(b))
                for i in range(size):
                    rhs = vec_add(f, rhs, vec_kron(f, s.apply(R[ai][i][j]), eta[b].col(i)))
                lhs = cb.delta_l[(a, b)].apply(eta[grp.mul(a, b)].col(j))
                _compare_vectors(report, R_COMULT, (a, b), lhs, rhs,
                                 f"Δ^l(η_{j}) ≠ Σ_i S(R_i{j}) ⊗ η_i")
    return report


# ---------------------------------------------------------------------------
# the identities of f, g and R one entry (i, j[, h]) at a time


def coefficient_maps_by_blocks(cb: CovariantBimodule, frames) -> list:
    """M[α][i][j] : A_α → A_α with w_i b = Σ_j M[α][i][j](b) w_j, each
    block split out of W⁻¹·right(W⊗I) one entry at a time; frames[α] is
    the frame of Γ_α as columns."""
    h = cb.h
    out = []
    for a in h.group.elements():
        n = h.n(a)
        size = frames[a].cols
        # entry ((j, r), (i, m)) of x: coefficient r of the w_j term of w_i·e_m
        x = cb.frame_inverse(a, frames[a]) @ cb.frame_matrix(a, frames[a], "right")
        blocks = [[{} for _ in range(size)] for _ in range(size)]
        for (row, col), val in x.entries.items():
            blocks[col // n][row // n][(row % n, col % n)] = val
        out.append([[Matrix(h.field, n, n, blk) for blk in row] for row in blocks])
    return out


def stack_maps(h: HopfPiCoalgebra, maps) -> list[Matrix]:
    """The blocks M[α][i][j] stacked per grading: rows ((i, j), r), columns m."""
    out = []
    for a, blocks in zip(h.group.elements(), maps):
        size, n = len(blocks), h.n(a)
        out.append(Matrix(h.field, size * size * n, n, {
            ((i * size + j) * n + r, m): v for i, row in enumerate(blocks)
            for j, mij in enumerate(row) for (r, m), v in mij.entries.items()}))
    return out


def stack_functionals(h: HopfPiCoalgebra, funcs) -> list[Matrix]:
    """T_α per grading for nested functionals funcs[i][j]: the |I|² × n_α
    matrix whose row (i, j) is φ_ij on A_α."""
    size = len(funcs)
    return [Matrix(h.field, size * size, h.n(a), {
        (i * size + j, x): v for i, row in enumerate(funcs) for j, phi in enumerate(row)
        for x, v in enumerate(phi.component(a))}) for a in h.group.elements()]


def nested_maps(h: HopfPiCoalgebra, maps) -> list:
    """M[α][i][j], the n_α × n_α blocks of the stacked coefficient maps."""
    out = []
    for a, m in zip(h.group.elements(), maps):
        n = h.n(a)
        size = isqrt(m.rows // n)
        blocks = [[{} for _ in range(size)] for _ in range(size)]
        for (row, col), v in m.entries.items():
            ij, r = divmod(row, n)
            blocks[ij // size][ij % size][(r, col)] = v
        out.append([[Matrix(h.field, n, n, blk) for blk in row] for row in blocks])
    return out


def nested_functionals(h: HopfPiCoalgebra, funcs) -> list:
    """funcs[i][j] as a GradedFunctional, read from row (i, j) of each T_α."""
    size = isqrt(funcs[h.group.identity].rows)
    rows = [t.to_rows() for t in funcs]
    return [[GradedFunctional(h, {a: rows[a][i * size + j] for a in h.group.elements()})
             for j in range(size)] for i in range(size)]


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
                rhs = Matrix(f, 1, h.n(a) ** 2)
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
        cols = [Matrix.column(f, frames[a].col(i)) for i in range(frames[a].cols)]
        times = [cb.right[a].on_leg(c, 1, n, 1) for c in cols]   # b ↦ w_j b
        for i, row in enumerate(funcs):
            rhs = Matrix(f, cb.g(a), h.n(a))
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
            acc1 = Matrix(f, 1, n1)
            acc2 = Matrix(f, 1, n1)
            for j in range(len(funcs)):
                acc1 = acc1 + rows[j][i].kron(twisted[hh][j]) @ d11
                acc2 = acc2 + twisted[j][hh].kron(rows[i][j]) @ d11
            target = h.counit if i == hh else Matrix(f, 1, n1)
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
                lhs = Matrix(f, n, n)
                rhs = Matrix(f, n, n)
                for i in range(size):
                    lhs = lhs + times_left[i][j] @ star_f[i][hh]
                    rhs = rhs + times_right[hh][i] @ g_star[j][i]
                _compare(report, INTERTWINER, (a,), lhs, rhs,
                         f"Σ_i R_i{j} (a * {fn}_i{hh}) ≠ Σ_i ({gn}_{j}i * a) R_{hh}i")
    return report


# ---------------------------------------------------------------------------
# a structure with no component shared between gradings


def _fresh(m: Matrix) -> Matrix:
    return Matrix(m.field, m.rows, m.cols, dict(m.entries))


def unshared(h: HopfPiCoalgebra) -> HopfPiCoalgebra:
    """A copy of h in which every grading has its own fresh copy of each
    matrix and tuple, so no two gradings share an operand object and the
    axiom checks, computed once per distinct tuple of operand objects,
    run at every grading."""
    return HopfPiCoalgebra(
        h.group, h.field, h.dims,
        {key: _fresh(m) for key, m in h.comult.items()}, _fresh(h.counit),
        [_fresh(m) for m in h.mult], [tuple(list(u)) for u in h.unit],
        [_fresh(s) for s in h.antipode],
        psi=None if h.psi is None else [_fresh(p) for p in h.psi],
        basis_names=[tuple(list(ns)) for ns in h.basis_names])


def s3_group():
    """S₃ as the permutations of {0, 1, 2} in lexicographic order."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return group_from_table([[index[tuple(p[q[x]] for x in range(3))] for q in perms]
                             for p in perms])


# ---------------------------------------------------------------------------
# a family that is not constant


def twisted_f7_z7() -> HopfPiCoalgebra:
    """F_7[ℤ/7] twisted by π = ℤ/3 through φ_β : g ↦ g^(2^β), an
    automorphism of ℤ/7 with φ_β φ_γ = φ_{β+γ} (2³ = 8 ≡ 1 mod 7).

    A_α = F_7[ℤ/7] for every α, Δ_{α,β} = (φ_β⊗id)Δ, S_α = S∘φ_α and
    Ψ_α = id.  Δ_{α,β} depends on β alone and S_α on α, so no two
    gradings α ≠ α⁻¹ read the same operands, and a construction that
    confuses α with α⁻¹, or reads the wrong Δ_{α,β}, fails here although
    it passes on every constant family.
    """
    f = PrimeField(7)
    base = group_algebra(cyclic(7), f)
    n = base.n(0)
    grading = cyclic(3)
    one = f.one()
    phi = [Matrix(f, n, n, {(i * 2 ** b % n, i): one for i in range(n)}) for b in range(3)]
    comult_beta = [base.comult[(0, 0)].on_leg(p, 1, n, 0) for p in phi]
    return HopfPiCoalgebra(
        grading, f, [n] * 3,
        {(a, b): comult_beta[b] for a in range(3) for b in range(3)}, base.counit,
        base.mult * 3, base.unit * 3, [base.antipode[0] @ p for p in phi],
        psi=[Matrix.identity(f, n)] * 3, basis_names=base.basis_names * 3)


# ---------------------------------------------------------------------------
# the axioms and bimodule laws with explicit identity Kronecker factors


def interchange_product(mul1: Matrix, mul2: Matrix, p: int, q: int, r: int, s: int) -> Matrix:
    """(x⊗y)·(x'⊗y') ↦ mul1(x⊗x') ⊗ mul2(y⊗y').

    mul1 consumes k^p ⊗ k^r, mul2 consumes k^q ⊗ k^s; the input legs
    (x,y,x',y') are those of mul1⊗mul2, (x,x',y,y'), reordered.
    """
    return mul1.kron(mul2).permute_legs((p, r, q, s), (0, 2, 1, 3), 1)


def pi_coalgebra_laws_by_kron(c: HopfPiCoalgebra) -> VerificationReport:
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


# ---------------------------------------------------------------------------
# the whole products of the identities the library decides on generators


def algebra_laws_by_whole_products(m: Matrix, unit, names) -> list:
    """Associativity on every triple (a, b, c) and the two unit laws."""
    n = m.rows
    eye = Matrix.identity(m.field, n)
    u = Matrix.column(m.field, unit)
    return (_diff_columns("algebra-associativity", (), m.on_leg(m, 1, n, 1), m.on_leg(m, n, 1, 1))
            + _diff_columns("algebra-unit-left", (), m.on_leg(u, 1, n, 1), eye,
                            namer=names.__getitem__)
            + _diff_columns("algebra-unit-right", (), m.on_leg(u, n, 1, 1), eye,
                            namer=names.__getitem__))


def comult_laws_by_whole_products(d, m_a, m_b, m_ab, u_a, u_b, u_ab, names_ab) -> list:
    """Δ_{α,β} multiplicative on every pair (a, b), and unital."""
    f = d.field
    na, nb, n = m_a.rows, m_b.rows, m_ab.rows
    rhs = act_on_pairs(d, d, (na, nb, na, nb), m_a, m_b)
    out = _diff_columns("comult-multiplicative", (), d @ m_ab, rhs,
                        namer=lambda j: f"{names_ab[j // n]}⊗{names_ab[j % n]}")
    img = d.apply(u_ab)
    want = vec_kron(f, u_a, u_b)
    if img != want:
        got = ", ".join(f.render(x) for x in img)
        exp = ", ".join(f.render(x) for x in want)
        out.append(Violation("comult-unital", (), None, f"Δ(1) = ({got}) expected ({exp})"))
    return out


def counit_laws_by_whole_products(counit, m_e, u_e, names_e) -> list:
    """ε multiplicative on every pair (a, b), and unital."""
    f, n = counit.field, m_e.rows
    out = _diff_columns("counit-multiplicative", (), counit @ m_e, counit.kron(counit),
                        namer=lambda j: f"{names_e[j // n]}⊗{names_e[j % n]}")
    eps1 = counit.apply(u_e)
    if eps1 != (f.one(),):
        out.append(Violation("counit-unital", (), None, f"ε(1) = {f.render(eps1[0])}"))
    return out


def antipode_laws_by_whole_products(s_a, m_a, m_ai, u_a, u_ai, names_ai) -> list:
    """S_α invertible, antimultiplicative on every pair (a, b), and unital."""
    out = []
    n, ni = s_a.cols, s_a.rows
    if s_a.rows != s_a.cols or s_a.rank() != n:
        out.append(Violation("antipode-invertible", (), None,
                             f"S has rank {s_a.rank()}, need {n}"))
    rhs = m_ai @ s_a.kron(s_a).permute_legs((ni, ni), (1, 0), 0)
    out.extend(_diff_columns("antipode-antimultiplicative", (), s_a @ m_a, rhs))
    su = s_a.apply(u_a)
    if su != tuple(u_ai):
        out.append(Violation("antipode-unital", (), None,
                             f"S(1) = {_render_vector(s_a.field, names_ai, su)}"))
    return out


def psi_laws_by_whole_products(p, m_a, m_e, u_a, u_e, names_e) -> list:
    """Ψ_α multiplicative on every pair (a, b), and unital."""
    out = _diff_columns("psi-multiplicative", (), p @ m_a, m_e @ p.kron(p))
    pu = p.apply(u_a)
    if pu != tuple(u_e):
        out.append(Violation("psi-unital", (), None,
                             f"Ψ(1) = {_render_vector(p.field, names_e, pu)}"))
    return out


def hopf_laws_by_whole_products(h: HopfPiCoalgebra) -> VerificationReport:
    """verify_hopf with associativity on every triple and each algebra-map
    identity on every pair, at every grading in turn (no operand tuple
    shared); the checks no generator decides are the library's own."""
    g = h.group
    e = g.identity
    d, m, u, s, names = h.comult, h.mult, h.unit, h.antipode, h.basis_names
    report = VerificationReport()
    elements = list(g.elements())
    pairs = [(a, b) for a in elements for b in elements]
    for a in elements:
        report.extend(stamped(algebra_laws_by_whole_products(m[a], u[a], names[a]), (a,)))
    for a, b in pairs:
        ab = g.mul(a, b)
        report.extend(stamped(comult_laws_by_whole_products(
            d[(a, b)], m[a], m[b], m[ab], u[a], u[b], u[ab], names[ab]), (a, b)))
    report.extend(counit_laws_by_whole_products(h.counit, m[e], u[e], names[e]))
    for a in elements:
        ai = g.inv(a)
        report.extend(stamped(_antipode_axiom(m[a], s[ai], d[(ai, a)], d[(a, ai)], u[a],
                                              h.counit, names[e]), (a,)))
        report.extend(stamped(antipode_laws_by_whole_products(s[a], m[a], m[ai], u[a], u[ai],
                                                              names[ai]), (a,)))
    for a, b in pairs:
        report.extend(stamped(_antipode_comult(d[(g.inv(b), g.inv(a))], s[g.mul(a, b)], s[a],
                                               s[b], d[(a, b)], names[g.mul(a, b)]), (a, b)))
    report.extend(_diff_columns("antipode-counit", (), h.counit @ s[e], h.counit,
                                namer=names[e].__getitem__))
    if h.psi is not None:
        for a in elements:
            report.extend(stamped(psi_laws_by_whole_products(h.psi[a], m[a], m[e], u[a], u[e],
                                                             names[e]), (a,)))
    return report


def characters_by_whole_products(h: HopfPiCoalgebra, funcs, name: str = "f") -> VerificationReport:
    """check_characters with T_α m_α against Σ_k T_ik ⊗ T_kj on every pair
    (a, b), at every grading."""
    f = h.field
    report = VerificationReport()
    for a in h.group.elements():
        t, m = funcs[a], h.mult[a]
        n = m.rows
        size = isqrt(t.rows)
        legs = (size, size)
        split = t.regroup(legs, (n,), (0, 2), (1,)) @ t.regroup(legs, (n,), (0,), (1, 2))
        mult = differing_blocks(t @ m, split.regroup((size, n), (size, n), (0, 2), (1, 3)),
                                (1, n * n))
        value = t @ Matrix.column(f, h.unit[a])
        norm = differing_blocks(value, Matrix(f, size * size, 1, {
            (i * size + i, 0): f.one() for i in range(size)}), (1, 1))
        for ij, _ in sorted(mult.keys() | norm.keys()):
            i, j = divmod(ij, size)
            if (ij, 0) in mult:
                report.extend([Violation(FRAME_MULT, (a,), mult[(ij, 0)],
                                         f"{name}_{i}{j}(ab) ≠ Σ_k {name}_{i}k(a) {name}_k{j}(b)")])
            if (ij, 0) in norm:
                want = f.one() if i == j else f.zero()
                report.extend([Violation(FRAME_NORM, (a,), None, f"{name}_{i}{j}(1) = "
                                         f"{f.render(value[(ij, 0)])}, expected {f.render(want)}")])
    return report


def convolution_inverses_by_whole_products(h: HopfPiCoalgebra, funcs) -> VerificationReport:
    """check_convolution_inverses with each side evaluated on every basis
    vector of A_1: one product of re-keyed copies of T_1 and T_1 S_1^{-1},
    rows (i, h), then Δ_{1,1}."""
    f = h.field
    e = h.group.identity
    t = funcs[e]
    n1 = t.cols
    size = isqrt(t.rows)
    legs, pair = (size, size), ((size, n1), (size, n1))
    u = t @ h.antipode_inv(e)
    d11 = h.comult[(e, e)]
    target = Matrix(f, size * size, 1, {(i * size + i, 0): f.one()
                                        for i in range(size)}).kron(h.counit)
    first = t.regroup(legs, (n1,), (1, 2), (0,)) @ u.regroup(legs, (n1,), (1,), (0, 2))
    second = u.regroup(legs, (n1,), (1, 2), (0,)) @ t.regroup(legs, (n1,), (1,), (0, 2))
    one = differing_blocks(first.regroup(*pair, (0, 2), (1, 3)) @ d11, target, (1, n1))
    two = differing_blocks(second.regroup(*pair, (2, 0), (1, 3)) @ d11, target, (1, n1))
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
        for a, b in pairs:
            for c in grp.elements():
                lhs = (cb.delta_l[(a, b)].kron(Matrix.identity(f, h.n(c)))
                       @ cb.delta_r[(grp.mul(a, b), c)])
                rhs = (Matrix.identity(f, h.n(a)).kron(cb.delta_r[(b, c)])
                       @ cb.delta_l[(a, grp.mul(b, c))])
                _compare(report, "bicovariance-compatibility", (a, b, c), lhs, rhs,
                         "(Δ^l⊗id)Δ^r ≠ (id⊗Δ^r)Δ^l")
    return report


# ---------------------------------------------------------------------------
# reconstruct's right action as a chain of products


def reconstruct_right_by_chain(h: HopfPiCoalgebra, funcs, size: int, alpha: int) -> Matrix:
    """The right action Γ_α⊗A_α → Γ_α of reconstruct(h, funcs, R, size),
    (e_i ⊗ x) b = Σ_j e_j ⊗ x b_(1) f_ij(b_(2)), as the composite
    (I⊗m_α) ∘ (I⊗twist) ∘ (I⊗Δ_{α,1}) with the legs re-keyed between the
    factors, each factor acting on the columns of the product so far; the
    whole of I⊗m_α is the first factor."""
    f = h.field
    e = h.group.identity
    n1, n = h.n(e), h.n(alpha)
    # (i, t) ↦ Σ_j f_ij(e_t) e_j
    twist = Matrix(f, size, size * n1, {(j, i * n1 + t): x for i, row in enumerate(funcs)
                                         for j, phi in enumerate(row)
                                         for t, x in enumerate(phi.component(e))})
    times = Matrix.identity(f, size).kron(h.mult[alpha])     # (j, x, y) ↦ e_j ⊗ xy
    return (times.permute_legs((size, n, n), (1, 2, 0), 1)
            .on_leg(twist, n * n, 1, 1)
            .permute_legs((n, n, size, n1), (2, 0, 1, 3), 1)
            .on_leg(h.comult[(alpha, e)], size * n, 1, 1))
