"""Hopf group coalgebras and their exhaustive axiom verification.

A π-coalgebra is a family {A_α} of spaces, one per element of a finite
group π, with comultiplications Δ_{α,β} : A_{αβ} → A_α ⊗ A_β and a
counit ε on A_1.  A Hopf π-coalgebra adds per-component algebra
structures and antipodes S_α : A_α → A_{α^{-1}}.  One class,
HopfPiCoalgebra, holds the whole structure: everything is stored as
exact matrices in fixed bases, every shape is checked and every default
basis name filled in at construction.  Every axiom is a matrix identity
and is checked exhaustively over the (finite) grading group.

Verification collects *all* violations into a report instead of failing
fast; hand-entered structure constants deserve complete diagnostics.
The counit axiom is enforced in the identity form
(id⊗ε)Δ_{α,1} = id = (ε⊗id)Δ_{1,α}.

Each identity is a pure function of the objects it reads (the Δ, m, S,
Ψ matrices, the unit tuples and the basis-name tuples of its witness
text).  Within one verify call it is computed once per distinct tuple of
operand objects (OperandMemo), and its violations are stamped with each
grading that reads that tuple, in grading order, so the report is the one
that checking every grading would give (checker).  Families often repeat
components across gradings (a constant family has Δ_{α,β} = Δ for all
α, β), and docio parses each repeated block of a document into one shared
object.  Every map derived from a structure (r⁻¹, t⁻¹, ad, S⁻¹, ker ε,
the generators of each A_α, the calculus and structure maps) is memoised the
same way, in the OperandMemo of the structure, calculus or bimodule that
reads it.

Every multiplicative identity is decided on the generators of A_α.  Let
S = algebra_generators(m_α, 1_α), whose right words 1·s₁·s₂⋯ span A_α,
and let A_α be associative with unit 1_α.  For a map φ : A_α → B into an
associative unital algebra with φ(1) = 1, the set
Y = {y : φ(xy) = φ(x)φ(y) for all x} is a subspace containing 1, and
y ∈ Y, s ∈ Y give ys ∈ Y, since φ(x(ys)) = φ((xy)s) = φ(xy)φ(s) =
φ(x)φ(y)φ(s) = φ(x)φ(ys).  So S ⊆ Y gives Y = A_α: φ is multiplicative
once it is on the pairs (b, s), s ∈ S.  The same holds for an anti-map
such as S_α, and for associativity with X = {c : (ab)c = a(bc) for all
a, b}, which contains 1 by the unit laws: (ab)(cs) = ((ab)c)s =
(a(bc))s = a((bc)s) = a(b(cs)).  So verify_hopf checks associativity on
the triples (a, b, s) once both unit laws hold, and Δ_{α,β}, ε, S_α and
Ψ_α on the pairs (b, s) once every A_α has passed _algebra_laws and the
map is unital; the structure checks reduce the
characters and the convolution inverses the same way.  Each identity
that fails on the generators, or whose preconditions fail, is computed
again on every column, so each violation and witness is the one that
the whole product gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DimensionMismatch,
    GradingMismatch,
    VerificationFailed,
)
from .groups import FiniteGroup, trivial_group
from .linalg import (
    Field,
    Matrix,
    Subspace,
    differing_blocks,
    image,
    kernel,
    quotient,
    unit_vec,
    vec_kron,
)


# ---------------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class Violation:
    check: str
    grading: tuple[int, ...]
    basis_index: int | None
    detail: str

    def render(self, group: FiniteGroup | None = None) -> str:
        if group is not None and self.grading:
            gr = ",".join(group.name(a) for a in self.grading)
        else:
            gr = ",".join(str(a) for a in self.grading)
        where = f" @({gr})" if self.grading else ""
        basis = f" basis {self.basis_index}" if self.basis_index is not None else ""
        return f"{self.check}{where}{basis}: {self.detail}"


class VerificationReport:
    """An ordered list of violations; empty means all checks passed."""

    def __init__(self, violations=None):
        self.violations: list[Violation] = list(violations or [])

    @property
    def ok(self) -> bool:
        return not self.violations

    def extend(self, more) -> None:
        self.violations.extend(more)

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(self.violations + other.violations)

    def __len__(self):
        return len(self.violations)

    def __str__(self):
        if self.ok:
            return "all checks passed"
        return "\n".join(v.render() for v in self.violations)


def _diff_columns(check: str, grading, lhs: Matrix, rhs: Matrix, namer=None):
    """One violation per basis vector on which two maps disagree, with the
    two columns as its witness."""
    out = []
    f = lhs.field
    found = sorted(j for _, j in differing_blocks(lhs, rhs, (lhs.rows, 1)))
    if not found:
        return out
    # the two columns j of each differing basis vector, from one pass per side
    columns = {j: ([f.zero()] * lhs.rows, [f.zero()] * lhs.rows) for j in found}
    for side, m in enumerate((lhs, rhs)):
        for (r, c), v in m.entries.items():
            pair = columns.get(c)
            if pair is not None:
                pair[side][r] = v
    for j in found:
        lc, rc = columns[j]
        label = namer(j) if namer else str(j)
        detail = (f"on basis {label}: lhs="
                  f"({', '.join(f.render(x) for x in lc)}) rhs="
                  f"({', '.join(f.render(x) for x in rc)})")
        out.append(Violation(check, tuple(grading), j, detail))
    return out


def columns(field_: Field, n: int, indices) -> Matrix:
    """The n × |indices| matrix whose column t is the basis vector e_{indices[t]}."""
    one = field_.one()
    return Matrix._unchecked(field_, n, len(indices), {(s, t): one for t, s in enumerate(indices)})


def sides_on_generators(sides, chosen: Matrix | None, whole: Matrix):
    """The two sides of an identity to read its violations from.

    sides(c) is the pair (lhs, rhs) of the identity with its last column
    leg read through the matrix c.  When `chosen` (the columns of A × S, or
    of {1} ∪ S) is given and the sides agree on it, the identity holds on
    every column (the lemma of the module docstring, whose preconditions
    the caller has checked) and the result is None; otherwise it is
    sides(whole), on every column, so each violation and witness is the one
    the whole product gives.
    """
    if chosen is not None:
        lhs, rhs = sides(chosen)
        if lhs.entries == rhs.entries:
            return None
    return sides(whole)


# ---------------------------------------------------------------------------
# structures


class HopfPiCoalgebra:
    """Family {A_α} of algebras with comultiplications Δ_{α,β}, counit ε,
    antipodes S_α and, optionally, the maps Ψ_α : A_α → A_1.

    Every shape is checked at construction (DimensionMismatch).  Basis
    names default to x0, x1, …, filled in here with one tuple per distinct
    dimension, so components of equal dimension share their names as they
    share repeated matrices.  `shared` memoises each map derived from the
    structure by the operands it reads (OperandMemo); no value in it refers
    back to the structure, so the two form no reference cycle.
    """

    def __init__(self, group: FiniteGroup, field: Field, dims, comult, counit, mult, unit,
                 antipode, psi=None, basis_names=None):
        self.group = group
        self.field = field
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != group.order:
            raise DimensionMismatch("one dimension per group element required")
        self.comult = dict(comult)
        self.counit = counit
        self.mult = list(mult)
        self.unit = [tuple(u) for u in unit]
        self.antipode = list(antipode)
        self.psi = list(psi) if psi is not None else None
        if basis_names is None:
            defaults: dict = {}
            basis_names = [defaults.setdefault(n, tuple(f"x{i}" for i in range(n)))
                           for n in self.dims]
        self.basis_names = tuple(tuple(ns) for ns in basis_names)
        self.shared = OperandMemo()    # maps derived from the structure, by operand tuple
        self._validate_shapes()

    def n(self, alpha: int) -> int:
        return self.dims[alpha]

    @cached_property
    def _verdict(self) -> VerificationReport:
        """The π-coalgebra checks, then the Hopf checks; the one derived
        value that reads the whole structure, so it has no operands."""
        return verify_pi_coalgebra(self).merge(verify_hopf(self))

    def basis_name(self, alpha: int, i: int) -> str:
        return self.basis_names[alpha][i]

    def render_element(self, alpha: int, v) -> str:
        return _render_vector(self.field, self.basis_names[alpha], v)

    def _validate_shapes(self):
        g = self.group
        e = g.identity
        for a in g.elements():
            for b in g.elements():
                key = (a, b)
                if key not in self.comult:
                    raise DimensionMismatch(f"missing comultiplication at {key}")
                m = self.comult[key]
                if (m.rows, m.cols) != (self.n(a) * self.n(b), self.n(g.mul(a, b))):
                    raise DimensionMismatch(
                        f"comult{key} is {m.rows}x{m.cols}, expected "
                        f"{self.n(a) * self.n(b)}x{self.n(g.mul(a, b))}")
        if (self.counit.rows, self.counit.cols) != (1, self.n(e)):
            raise DimensionMismatch("counit must be 1 x dim(A_1)")
        if len(self.mult) != g.order or len(self.unit) != g.order or len(self.antipode) != g.order:
            raise DimensionMismatch("one mult/unit/antipode per group element required")
        if len(self.basis_names) != g.order:
            raise DimensionMismatch("one list of basis names per group element required")
        for a in g.elements():
            n = self.n(a)
            m = self.mult[a]
            if (m.rows, m.cols) != (n, n * n):
                raise DimensionMismatch(f"mult[{a}] is {m.rows}x{m.cols}, expected {n}x{n * n}")
            if len(self.unit[a]) != n:
                raise DimensionMismatch(f"unit[{a}] has length {len(self.unit[a])}")
            if len(self.basis_names[a]) != n:
                raise DimensionMismatch(
                    f"{len(self.basis_names[a])} basis names for A_{a} of dim {n}")
            s = self.antipode[a]
            if (s.rows, s.cols) != (self.n(g.inv(a)), n):
                raise DimensionMismatch(
                    f"antipode[{a}] is {s.rows}x{s.cols}, expected {self.n(g.inv(a))}x{n}")
        if self.psi is not None:
            if len(self.psi) != g.order:
                raise DimensionMismatch("one psi per group element required")
            for a in g.elements():
                p = self.psi[a]
                if (p.rows, p.cols) != (self.n(g.identity), self.n(a)):
                    raise DimensionMismatch(f"psi[{a}] has wrong shape")

    def unit_col(self, alpha: int) -> Matrix:
        return Matrix.column(self.field, self.unit[alpha])

    def antipode_inv(self, alpha: int) -> Matrix:
        """Inverse of S_α as a matrix, A_{α^{-1}} → A_α, once per S_α."""
        return self.shared(Matrix.inverse, self.antipode[alpha])

    def counit_kernel(self) -> Subspace:
        """ker ε ⊆ A_1, canonical basis."""
        return self.shared(kernel, self.counit)


def act_on_pairs(x: Matrix, y: Matrix, legs, first: Matrix, second: Matrix) -> Matrix:
    """(first ⊗ second) ∘ P ∘ (x ⊗ y), P swapping the two middle row legs.

    The row legs of x ⊗ y are legs = (p, q, r, s); first consumes p⊗r and
    second q⊗s.  This is the product side of an interchange law,
    (u⊗v)(u'⊗v') = first(u⊗u') ⊗ second(v⊗v') after x⊗y.  The legs are
    re-keyed, then each map acts on its own pair, so first⊗second is never
    built.
    """
    _, q, _, s = legs
    paired = x.kron(y).permute_legs(legs, (0, 2, 1, 3), 0)
    return paired.on_leg(first, 1, q * s, 0).on_leg(second, first.rows, 1, 0)


# ---------------------------------------------------------------------------
# verification

# the check names that verify_pi_coalgebra, verify_hopf and its Ψ checks emit
PI_CHECKS = ("coassociativity", "counit-left", "counit-right")
HOPF_CHECKS = ("algebra-associativity", "algebra-unit-left", "algebra-unit-right",
               "comult-multiplicative", "comult-unital",
               "counit-multiplicative", "counit-unital",
               "antipode-axiom-left", "antipode-axiom-right", "antipode-invertible",
               "antipode-antimultiplicative", "antipode-unital",
               "antipode-comult", "antipode-counit")
PSI_CHECKS = ("psi-multiplicative", "psi-unital")


# Each check below is a pure function of the objects it reads: matrices,
# unit tuples and basis-name tuples; every dimension is read off a matrix
# shape.  Its violations carry the empty grading, which checker stamps
# with the grading being checked.


def _namer(names):
    return names.__getitem__


def _pair_namer(names, n):
    return lambda j: f"{names[j // n]}⊗{names[j % n]}"


def _render_vector(f: Field, names, v) -> str:
    out = ""
    for i, c in enumerate(v):
        if c == f.zero():
            continue
        text = f.render(c)
        sign = "-" if text.startswith("-") else "+"
        mag = text[1:] if text.startswith("-") else text
        term = names[i] if mag == "1" else f"{mag}*{names[i]}"
        if not out:
            out = term if sign == "+" else f"-{term}"
        else:
            out += f" {sign} {term}"
    return out or "0"


def _coassociativity(d_ab_c, d_a_b, d_a_bc, d_b_c, names_abc):
    """(Δ_{a,b}⊗id)Δ_{ab,c} = (id⊗Δ_{b,c})Δ_{a,bc} on A_{abc}."""
    lhs = d_ab_c.on_leg(d_a_b, 1, d_ab_c.rows // d_a_b.cols, 0)
    rhs = d_a_bc.on_leg(d_b_c, d_a_bc.rows // d_b_c.cols, 1, 0)
    return _diff_columns("coassociativity", (), lhs, rhs, namer=_namer(names_abc))


def _counit_laws(d_a_e, d_e_a, counit, names_a):
    """(id⊗ε)Δ_{α,1} = id = (ε⊗id)Δ_{1,α} on A_α."""
    n = d_a_e.cols
    eye = Matrix.identity(counit.field, n)
    left = d_a_e.on_leg(counit, n, 1, 0)
    right = d_e_a.on_leg(counit, 1, n, 0)
    return (_diff_columns("counit-left", (), left, eye, namer=_namer(names_a))
            + _diff_columns("counit-right", (), right, eye, namer=_namer(names_a)))


def _on_generators(check: str, sides, gens, n: int, field_: Field, namer=None):
    """The violations of an identity lhs = rhs of maps out of A ⊗ … ⊗ A,
    n = dim A, whose sides(c) read their last tensor leg through the
    n × k matrix c: none when gens = S is given and the sides agree on the
    columns A × … × S (the identity then holds, by the lemma of the module
    docstring), and otherwise the witnesses of every column."""
    chosen = None if gens is None else columns(field_, n, gens)
    pair = sides_on_generators(sides, chosen, Matrix.identity(field_, n))
    return [] if pair is None else _diff_columns(check, (), *pair, namer=namer)


def _algebra_laws(m, unit, names, gens):
    """Associativity of m_α and the two unit laws of 1_α; associativity is
    decided on the triples (a, b, s), s ∈ gens, once both unit laws hold."""
    f, n = m.field, m.rows
    eye = Matrix.identity(f, n)
    u = Matrix.column(f, unit)
    units = (_diff_columns("algebra-unit-left", (), m.on_leg(u, 1, n, 1), eye,
                           namer=_namer(names))
             + _diff_columns("algebra-unit-right", (), m.on_leg(u, n, 1, 1), eye,
                             namer=_namer(names)))

    def sides(c):                 # columns (a, b, t): (ab)c_t and a(b c_t)
        mc = m.on_leg(c, n, 1, 1)
        return mc.on_leg(m, 1, c.cols, 1), m.on_leg(mc, n, 1, 1)

    return _on_generators("algebra-associativity", sides, None if units else gens, n, f) + units


def _comult_laws(d, m_a, m_b, m_ab, u_a, u_b, u_ab, names_ab, gens):
    """Δ_{α,β} is an algebra map A_{αβ} → A_α ⊗ A_β: multiplicative, decided
    on the pairs (b, s), s ∈ gens, once it is unital, and unital."""
    f = d.field
    na, nb, n = m_a.rows, m_b.rows, m_ab.rows
    img = d.apply(u_ab)
    want = vec_kron(f, u_a, u_b)

    def sides(c):                 # columns (x, t): Δ(x c_t) and Δ(x)Δ(c_t)
        return d @ m_ab.on_leg(c, n, 1, 1), act_on_pairs(d, d @ c, (na, nb, na, nb), m_a, m_b)

    out = _on_generators("comult-multiplicative", sides, gens if img == want else None, n, f,
                         namer=_pair_namer(names_ab, n))
    if img != want:
        got = ", ".join(f.render(x) for x in img)
        exp = ", ".join(f.render(x) for x in want)
        out.append(Violation("comult-unital", (), None, f"Δ(1) = ({got}) expected ({exp})"))
    return out


def _counit_algebra_laws(counit, m_e, u_e, names_e, gens):
    """ε is an algebra map A_1 → k: multiplicative, decided on the pairs
    (b, s), s ∈ gens, once it is unital, and unital."""
    f, n = counit.field, m_e.rows
    eps1 = counit.apply(u_e)
    unital = eps1 == (f.one(),)

    def sides(c):                 # columns (x, t): ε(x c_t) and ε(x)ε(c_t)
        return counit @ m_e.on_leg(c, n, 1, 1), counit.kron(counit @ c)

    out = _on_generators("counit-multiplicative", sides, gens if unital else None, n, f,
                         namer=_pair_namer(names_e, n))
    if not unital:
        out.append(Violation("counit-unital", (), None, f"ε(1) = {f.render(eps1[0])}"))
    return out


def _antipode_axiom(m_a, s_ai, d_ai_a, d_a_ai, u_a, counit, names_e):
    """m_α(S_{α⁻¹}⊗id)Δ_{α⁻¹,α} = 1_α ε = m_α(id⊗S_{α⁻¹})Δ_{α,α⁻¹}."""
    n = m_a.rows
    target = Matrix.column(m_a.field, u_a) @ counit
    left = m_a @ d_ai_a.on_leg(s_ai, 1, n, 0)
    right = m_a @ d_a_ai.on_leg(s_ai, n, 1, 0)
    return (_diff_columns("antipode-axiom-left", (), left, target, namer=_namer(names_e))
            + _diff_columns("antipode-axiom-right", (), right, target, namer=_namer(names_e)))


def _antipode_laws(s_a, m_a, m_ai, u_a, u_ai, names_ai, gens):
    """S_α : A_α → A_{α⁻¹} is invertible, antimultiplicative (decided on
    the pairs (b, s), s ∈ gens, once it is unital) and unital."""
    out = []
    f = s_a.field
    n, ni = s_a.cols, s_a.rows
    rank = s_a.rank()
    if s_a.rows != s_a.cols or rank != n:
        out.append(Violation("antipode-invertible", (), None, f"S has rank {rank}, need {n}"))
    su = s_a.apply(u_a)
    unital = su == tuple(u_ai)

    def sides(c):                 # columns (x, t): S(x c_t) and S(c_t)S(x)
        return (s_a @ m_a.on_leg(c, n, 1, 1),
                m_ai @ s_a.kron(s_a @ c).permute_legs((ni, ni), (1, 0), 0))

    out.extend(_on_generators("antipode-antimultiplicative", sides, gens if unital else None,
                              n, f))
    if not unital:
        out.append(Violation("antipode-unital", (), None,
                             f"S(1) = {_render_vector(f, names_ai, su)}"))
    return out


def _antipode_comult(d_bi_ai, s_ab, s_a, s_b, d_a_b, names_ab):
    """Δ_{β⁻¹,α⁻¹} S_{αβ} = τ(S_α⊗S_β)Δ_{α,β}, τ the flip."""
    rhs = (s_a.kron(s_b) @ d_a_b).permute_legs((s_a.rows, s_b.rows), (1, 0), 0)
    return _diff_columns("antipode-comult", (), d_bi_ai @ s_ab, rhs, namer=_namer(names_ab))


def _psi_laws(p, m_a, m_e, u_a, u_e, names_e, gens):
    """Ψ_α : A_α → A_1 is a unital algebra map; multiplicativity is decided
    on the pairs (b, s), s ∈ gens, once Ψ_α is unital."""
    f, n = p.field, m_a.rows
    pu = p.apply(u_a)
    unital = pu == tuple(u_e)

    def sides(c):                 # columns (x, t): Ψ(x c_t) and Ψ(x)Ψ(c_t)
        return p @ m_a.on_leg(c, n, 1, 1), m_e @ p.kron(p @ c)

    out = _on_generators("psi-multiplicative", sides, gens if unital else None, n, f)
    if not unital:
        out.append(Violation("psi-unital", (), None,
                             f"Ψ(1) = {_render_vector(f, names_e, pu)}"))
    return out


class OperandMemo:
    """memo(fn, *operands) is fn(*operands), computed once per distinct
    tuple of operand objects.

    The key is fn and the ids of the operands, so a family that repeats
    its components across gradings (a constant family, or one parsed by
    docio, which shares repeated blocks) computes what those gradings read
    once.  Each entry holds its operands, so no id in a key is reused while
    the memo is alive.  Operands are never mutated, and fn must be a pure
    function of them; a call that raises stores nothing.
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: dict = {}

    def __call__(self, fn, *operands):
        key = (fn, *map(id, operands))
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = (operands, fn(*operands))
        return entry[1]


def stamped(violations, grading) -> list[Violation]:
    """The violations of a grading-free identity, stamped with `grading`."""
    return [Violation(v.check, grading, v.basis_index, v.detail) for v in violations]


def checker(report: VerificationReport):
    """run(check, grading, *operands): the violations of check(*operands),
    stamped with `grading`, appended to `report`; run returns them as
    check gave them, with the empty grading.

    check returns violations with the empty grading and is computed once
    per distinct operand tuple (an OperandMemo that lives as long as run),
    so the report is the one that checking every grading would give.
    """
    memo = OperandMemo()

    def run(check, grading, *operands):
        found = memo(check, *operands)
        report.extend(stamped(found, grading))
        return found

    return run


def verify_pi_coalgebra(c: HopfPiCoalgebra) -> VerificationReport:
    """Coassociativity over all grading triples and the counit laws."""
    g = c.group
    e = g.identity
    report = VerificationReport()
    run = checker(report)
    d, names = c.comult, c.basis_names
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            for cc in g.elements():
                bc = g.mul(b, cc)
                run(_coassociativity, (a, b, cc), d[(ab, cc)], d[(a, b)], d[(a, bc)],
                    d[(b, cc)], names[g.mul(ab, cc)])
    for a in g.elements():
        run(_counit_laws, (a,), d[(a, e)], d[(e, a)], c.counit, names[a])
    return report


def verify_hopf(h: HopfPiCoalgebra) -> VerificationReport:
    """Algebra axioms, algebra-map axioms, antipode axiom and the derived
    antipode identities (comultiplication compatibility, ε∘S_1 = ε,
    antimultiplicativity, S_α(1_α) = 1_{α^{-1}}), antipode invertibility,
    and — when present — that every Ψ_α is a unital algebra map."""
    g = h.group
    e = g.identity
    report = VerificationReport()
    run = checker(report)
    d, m, u, s, names = h.comult, h.mult, h.unit, h.antipode, h.basis_names

    elements = list(g.elements())
    pairs = [(a, b) for a in elements for b in elements]
    gens = [h.shared(algebra_generators, m[a], u[a]) for a in elements]
    lawful = [not run(_algebra_laws, (a,), m[a], u[a], names[a], gens[a]) for a in elements]
    if not all(lawful):
        # an algebra map is decided on generators only between algebras
        # that pass associativity and the unit laws
        gens = [None] * len(elements)
    for a, b in pairs:
        ab = g.mul(a, b)
        run(_comult_laws, (a, b), d[(a, b)], m[a], m[b], m[ab], u[a], u[b], u[ab],
            names[ab], gens[ab])
    run(_counit_algebra_laws, (), h.counit, m[e], u[e], names[e], gens[e])
    for a in elements:
        ai = g.inv(a)
        run(_antipode_axiom, (a,), m[a], s[ai], d[(ai, a)], d[(a, ai)], u[a], h.counit,
            names[e])
        run(_antipode_laws, (a,), s[a], m[a], m[ai], u[a], u[ai], names[ai], gens[a])
    for a, b in pairs:
        run(_antipode_comult, (a, b), d[(g.inv(b), g.inv(a))], s[g.mul(a, b)], s[a], s[b],
            d[(a, b)], names[g.mul(a, b)])
    report.extend(_diff_columns("antipode-counit", (), h.counit @ s[e], h.counit,
                                namer=_namer(names[e])))

    if h.psi is not None:
        for a in elements:
            run(_psi_laws, (a,), h.psi[a], m[a], m[e], u[a], u[e], names[e], gens[a])
    return report


def verify_all(h: HopfPiCoalgebra) -> VerificationReport:
    """The π-coalgebra checks, then the Hopf checks, computed once per
    structure: every later caller (the CLI, each calculus's bimodule)
    reads the verdict h keeps."""
    return VerificationReport(h._verdict.violations)


def require_axioms(h: HopfPiCoalgebra) -> None:
    """VerificationFailed, carrying the memoised verdict of verify_all,
    unless h satisfies every axiom: for results that are theorems of the
    axioms and are therefore not re-checked."""
    report = verify_all(h)
    if not report.ok:
        raise VerificationFailed(
            f"Hopf axioms fail ({len(report)} violations): "
            f"{report.violations[0].render()}", report)


def algebra_generators(m: Matrix, unit: tuple) -> tuple[int, ...]:
    """Basis indices S, ascending, whose right words 1·s₁·s₂⋯ span the
    algebra with multiplication m and unit `unit`; h.shared memoises them
    per (m_α, 1_α), for every identity that reads them: the axioms of
    verify_hopf, the characters and convolution inverses of the structure
    checks, and enumeration.

    S is chosen greedily by one closure.  W, the span of the words in the
    generators so far, starts as the span of 1 and grows by W·S until it
    stops or is all of A; the next generator is the first basis index after the last one
    whose vector lies outside W, the first nonzero column of the quotient
    projection by W.  No index is taken twice, so S has at most dim A
    entries on any m; when 1 is a unit, e_s = 1·s lies in W once s is
    taken, so the words span A when no index is left outside.  k[ℤ/n]
    gives {g}, the Taft algebra {g, x}.

    On an associative unital algebra a subspace W with W·s ⊆ W for every
    s ∈ S is a right ideal, since W·(1·s₁⋯s_r) = (⋯(W·s₁)⋯)·s_r ⊆ W and the
    words span A.
    """
    f, n = m.field, m.rows
    words = image(Matrix.column(f, unit))
    gens: list[int] = []
    while words.dim < n:
        outside = [c for _, c in quotient(words).entries if not gens or c > gens[-1]]
        if not outside:
            break
        gens.append(min(outside))
        by_gens = m.on_leg(columns(f, n, gens), n, 1, 1)     # column i·|S| + t is e_i·s_t
        while words.dim < n:
            incl = words.inclusion_matrix()
            stacked = dict(incl.entries)      # the columns of W, then those of W·S
            stacked.update(((r, incl.cols + c), v) for (r, c), v in
                           by_gens.on_leg(incl, 1, len(gens), 1).entries.items())
            grown = image(Matrix._unchecked(f, n, incl.cols * (1 + len(gens)), stacked))
            if grown.dim == words.dim:
                break
            words = grown
    return tuple(gens)


# ---------------------------------------------------------------------------
# constructors


def group_algebra(grp: FiniteGroup, field_: Field, names=None) -> HopfPiCoalgebra:
    """k[G] as a Hopf π-coalgebra over the trivial grading group.

    Basis = group elements, Δ(x) = x⊗x, ε(x) = 1, S(x) = x^{-1}.
    """
    f = field_
    n = grp.order
    one = f.one()
    mult = Matrix(f, n, n * n,
                  {(grp.table[i][j], i * n + j): one for i in range(n) for j in range(n)})
    unit = unit_vec(f, n, grp.identity)
    comult = Matrix(f, n * n, n, {(i * n + i, i): one for i in range(n)})
    counit = Matrix(f, 1, n, {(0, i): one for i in range(n)})
    antipode = Matrix(f, n, n, {(grp.inverse[i], i): one for i in range(n)})
    if names is None:
        if grp.names:
            names = grp.names
        else:
            names = tuple("e" if i == grp.identity else f"g{i}" for i in range(n))
    return HopfPiCoalgebra(
        trivial_group(), f, [n],
        {(0, 0): comult}, counit,
        [mult], [unit], [antipode],
        psi=[Matrix.identity(f, n)],
        basis_names=[tuple(names)],
    )


def taft_hopf_algebra(field_: Field) -> HopfPiCoalgebra:
    """The four-dimensional Taft algebra over the trivial grading group.

    Basis 1, g, x, gx with g² = 1, x² = 0, xg = −gx; g grouplike,
    Δ(x) = x⊗1 + g⊗x, S(x) = −gx.  Its antipode has order four, so it
    separates constructions that need the inverse antipode from those
    that merely apply it (needs characteristic ≠ 2).
    """
    f = field_
    one = f.one()
    minus = f.neg(one)
    if minus == one:
        raise DimensionMismatch("the Taft algebra needs characteristic ≠ 2")
    n = 4
    mult_entries: dict = {}

    def setm(i, j, k, c):
        mult_entries[(k, i * n + j)] = c

    for j in range(n):
        setm(0, j, j, one)
    for i in range(1, n):
        setm(i, 0, i, one)
    setm(1, 1, 0, one)
    setm(1, 2, 3, one)
    setm(1, 3, 2, one)
    setm(2, 1, 3, minus)
    setm(3, 1, 2, minus)
    mult = Matrix(f, n, n * n, mult_entries)
    unit = unit_vec(f, n, 0)
    com: dict = {}

    def setd(src, i, j, c):
        com[(i * n + j, src)] = c

    setd(0, 0, 0, one)
    setd(1, 1, 1, one)
    setd(2, 2, 0, one)
    setd(2, 1, 2, one)
    setd(3, 3, 1, one)
    setd(3, 0, 3, one)
    comult = Matrix(f, n * n, n, com)
    counit = Matrix(f, 1, n, {(0, 0): one, (0, 1): one})
    antipode = Matrix(f, n, n, {(0, 0): one, (1, 1): one, (3, 2): minus, (2, 3): one})
    return HopfPiCoalgebra(
        trivial_group(), f, [n],
        {(0, 0): comult}, counit,
        [mult], [unit], [antipode],
        psi=[Matrix.identity(f, n)],
        basis_names=[("1", "g", "x", "gx")],
    )


def constant_family(h1: HopfPiCoalgebra, grp: FiniteGroup) -> HopfPiCoalgebra:
    """The constant family A_α := A_1 over `grp`, Δ_{α,β} := Δ, S_α := S.

    `h1` must itself verify over the trivial group; failures propagate.
    """
    if h1.group.order != 1:
        raise GradingMismatch("constant_family expects a structure over the trivial group")
    require_axioms(h1)
    n = h1.n(0)
    order = grp.order
    comult = {(a, b): h1.comult[(0, 0)] for a in grp.elements() for b in grp.elements()}
    psi1 = h1.psi[0] if h1.psi is not None else Matrix.identity(h1.field, n)
    return HopfPiCoalgebra(
        grp, h1.field, [n] * order,
        comult, h1.counit,
        [h1.mult[0]] * order, [h1.unit[0]] * order, [h1.antipode[0]] * order,
        psi=[psi1] * order,
        basis_names=[h1.basis_names[0]] * order,
    )
