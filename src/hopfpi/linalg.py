"""Exact linear algebra over the rationals and over prime fields.

Scalars over ℚ are ints when integral and `fractions.Fraction`
otherwise; over the prime field F_p they are ints in [0, p).  Nothing
here ever rounds, and every field operation returns the canonical form,
so equal scalars are always stored alike.  Conventions used by the whole
package:

* vectors are tuples of scalars; matrices act on the left, w = m.apply(v);
* tensor indices are row-major: e_i ⊗ e_j in k^a ⊗ k^b sits at flat
  index i*b + j, and matrix tensor products follow the same (Kronecker)
  convention, so (a ⊗ b)(x ⊗ y) = a(x) ⊗ b(y);
* legs are reordered by index: m.permute_legs(dims, order, axis) splits
  the row (axis 0) or column (axis 1) index into legs of sizes `dims`, and
  leg k of the result is leg order[k] of the input; m.regroup(row_dims,
  col_dims, rows, cols) splits both indices and builds the result's rows
  from the legs `rows` and its columns from the legs `cols`, so a leg can
  move between rows and columns.  Both re-key entries, splitting only the
  indices that occur: no product with a permutation matrix, no scalar
  arithmetic, time linear in the entries and not in the axis length;
* one leg is acted on in place: x.on_leg(m, before, after, axis) is
  (I_before ⊗ m ⊗ I_after)·x on axis 0 and x·(I_before ⊗ m ⊗ I_after) on
  axis 1.  It walks the entries of x and never builds the identity
  factors, so no product in the package has an identity Kronecker factor
  as an operand; kron is kept for tensor products of two genuine maps;
* subspaces are reduced row echelon bases with lexicographically-first
  pivots.  RREF of a row space is unique, so two equal subspaces have
  bit-identical bases and every report built on them is reproducible.

Matrices are stored sparse, as a map (row, col) -> nonzero scalar; the
elimination routines densify rows internally (every matrix at the scale
this package targets is small enough for that to be the fast path).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Sequence

from .errors import DimensionMismatch, SingularMatrix


# Miller–Rabin with the first 13 prime bases is deterministic below
# ψ13 = 3 317 044 064 679 887 385 961 981 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin; ValueError for n ≥ _MR_LIMIT."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large to certify prime (limit {_MR_LIMIT})")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Scalar strings: an integer or a fraction of integers, at most
# _MAX_SCALAR_CHARS characters, so parsing stays linear and cheap.
_SCALAR_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_MAX_SCALAR_CHARS = 1000


def _parse_numeral(s: str) -> tuple[int, int]:
    """(numerator, denominator) of a string "n" or "n/d"; ValueError otherwise."""
    if len(s) > _MAX_SCALAR_CHARS:
        raise ValueError(f"scalar string longer than {_MAX_SCALAR_CHARS} characters")
    if not _SCALAR_RE.fullmatch(s):
        raise ValueError(f"scalar string {s!r} is not an integer or n/d")
    num, _, den = s.partition("/")
    return int(num), int(den or 1)


@dataclass(frozen=True)
class Rationals:
    """The field ℚ; scalars are int when integral, Fraction otherwise.

    Every operation returns that canonical form, so the common integral
    case runs on plain ints and a Fraction appears only after a real
    division.
    """

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        c = a + b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        c = 1 / Fraction(a)
        return c if c.denominator != 1 else c.numerator

    def from_int(self, n: int):
        return int(n)

    def canon(self, v):
        """Canonical stored form (int or non-integral Fraction); rejects inexact input."""
        if type(v) is int:
            return v
        if isinstance(v, Fraction):
            return v if v.denominator != 1 else v.numerator
        if isinstance(v, bool) or isinstance(v, float):
            raise ValueError(f"inexact scalar {v!r}")
        if isinstance(v, int):
            return int(v)
        raise ValueError(f"cannot store scalar {v!r}")

    def parse(self, obj):
        if isinstance(obj, str):
            obj = Fraction(*_parse_numeral(obj))
        return self.canon(obj)

    def render(self, a) -> str:
        return str(a)

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The field F_p; scalars are ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def canon(self, v):
        """Canonical stored form (residue in [0, p)); rejects inexact input."""
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"cannot store scalar {v!r} in F_{self.p}")
        return v % self.p

    def parse(self, obj):
        if isinstance(obj, bool) or isinstance(obj, float):
            raise ValueError(f"inexact scalar {obj!r}")
        if isinstance(obj, int):
            return obj % self.p
        if isinstance(obj, str):
            num, den = _parse_numeral(obj)
            return self.mul(num % self.p, self.inv(den))
        raise ValueError(f"cannot parse scalar {obj!r}")

    def render(self, a) -> str:
        return str(a % self.p)

    def __str__(self):
        return f"F{self.p}"


Field = Rationals | PrimeField

QQ = Rationals()


# ---------------------------------------------------------------------------
# vectors (plain tuples)


def unit_vec(field: Field, n: int, i: int) -> tuple:
    z = field.zero()
    return tuple(field.one() if j == i else z for j in range(n))

def vec_kron(field: Field, v: Sequence, w: Sequence) -> tuple:
    """v ⊗ w with the row-major index convention."""
    return tuple(field.mul(a, b) for a in v for b in w)

def vec_is_zero(field: Field, v: Sequence) -> bool:
    z = field.zero()
    return all(a == z for a in v)


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Sparse exact matrix.  Entries map (row, col) to a nonzero scalar."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        clean: dict = {}
        if entries:
            zero = field.zero()
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise DimensionMismatch(f"entry ({r},{c}) outside {rows}x{cols}")
                v = field.canon(v)
                if v != zero:
                    clean[(r, c)] = v
        self.entries = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _unchecked(cls, field: Field, rows: int, cols: int, entries: dict) -> "Matrix":
        """Adopt `entries` as is: keys in range, values canonical and nonzero."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one = field.one()
        return cls(field, n, n, {(i, i): one for i in range(n)})

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(field, nrows, ncols, entries)

    @classmethod
    def from_cols(cls, field: Field, cols: Iterable[Sequence]) -> "Matrix":
        cols = [list(c) for c in cols]
        ncols = len(cols)
        nrows = len(cols[0]) if cols else 0
        entries = {}
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise DimensionMismatch("ragged columns")
            for i, v in enumerate(col):
                entries[(i, j)] = v
        return cls(field, nrows, ncols, entries)

    @classmethod
    def column(cls, field: Field, v: Sequence) -> "Matrix":
        return cls(field, len(v), 1, {(i, 0): x for i, x in enumerate(v)})

    @classmethod
    def row_vector(cls, field: Field, v: Sequence) -> "Matrix":
        return cls(field, 1, len(v), {(0, j): x for j, x in enumerate(v)})

    # -- accessors ----------------------------------------------------------

    def __getitem__(self, rc) -> object:
        return self.entries.get(rc, self.field.zero())

    def row(self, i: int) -> tuple:
        z = self.field.zero()
        out = [z] * self.cols
        for (r, c), v in self.entries.items():
            if r == i:
                out[c] = v
        return tuple(out)

    def col(self, j: int) -> tuple:
        z = self.field.zero()
        out = [z] * self.rows
        for (r, c), v in self.entries.items():
            if c == j:
                out[r] = v
        return tuple(out)

    def columns(self) -> dict[int, tuple]:
        """The nonzero columns as {j: column}, from one pass over the entries."""
        z = self.field.zero()
        out: dict[int, list] = {}
        for (r, c), v in self.entries.items():
            column = out.get(c)
            if column is None:
                column = out[c] = [z] * self.rows
            column[r] = v
        return {c: tuple(column) for c, column in out.items()}

    def to_rows(self) -> list[list]:
        z = self.field.zero()
        out = [[z] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols}, {len(self.entries)} nz)"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        f = self.field
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = f.add(out.get(k, f.zero()), v)
        return Matrix(f, self.rows, self.cols, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        f = self.field
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = f.sub(out.get(k, f.zero()), v)
        return Matrix(f, self.rows, self.cols, out)

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols, {k: f.neg(v) for k, v in self.entries.items()})

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols, {k: f.mul(c, v) for k, v in self.entries.items()})

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        f = self.field
        by_row: dict[int, list] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out: dict = {}
        zero = f.zero()
        for (i, k), a in self.entries.items():
            hits = by_row.get(k)
            if not hits:
                continue
            for j, b in hits:
                key = (i, j)
                out[key] = f.add(out.get(key, zero), f.mul(a, b))
        return Matrix._unchecked(f, self.rows, other.cols, {k: v for k, v in out.items() if v})

    def apply(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatch(f"apply {self.rows}x{self.cols} to vector of length {len(v)}")
        f = self.field
        zero = f.zero()
        out = [zero] * self.rows
        for (r, c), a in self.entries.items():
            x = v[c]
            if x != zero:
                out[r] = f.add(out[r], f.mul(a, x))
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix._unchecked(self.field, self.cols, self.rows,
                                 {(c, r): v for (r, c), v in self.entries.items()})

    def kron(self, other: "Matrix") -> "Matrix":
        """Tensor product; index (i, j) ↦ i*dimB + j on rows and columns."""
        f = self.field
        out = {}
        for (i1, j1), a in self.entries.items():
            for (i2, j2), b in other.entries.items():
                out[(i1 * other.rows + i2, j1 * other.cols + j2)] = f.mul(a, b)
        # a field has no zero divisors, so every product is nonzero
        return Matrix._unchecked(f, self.rows * other.rows, self.cols * other.cols, out)

    def permute_legs(self, dims: Sequence[int], order: Sequence[int], axis: int) -> "Matrix":
        """Reorder the tensor legs of the row (axis 0) or column (axis 1) index.

        `dims` are the leg sizes of that index; leg k of the result is leg
        order[k] of self.  The entries are re-keyed, never multiplied, in
        time linear in their number (see regroup).
        """
        if prod(dims) != (self.rows, self.cols)[axis] or sorted(order) != list(range(len(dims))):
            raise DimensionMismatch(f"legs {tuple(dims)} in order {tuple(order)} do not "
                                    f"split axis {axis} of a {self.rows}x{self.cols} matrix")
        length = (self.rows, self.cols)[axis]
        used = (key[axis] for key in self.entries)
        new = _leg_offsets(length, len(self.entries), used, dims, _places(dims, order, ()))[0]
        if axis == 0:
            entries = {(new[r], c): v for (r, c), v in self.entries.items()}
        else:
            entries = {(r, new[c]): v for (r, c), v in self.entries.items()}
        return Matrix._unchecked(self.field, self.rows, self.cols, entries)

    def regroup(self, row_dims: Sequence[int], col_dims: Sequence[int],
                rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        """Move tensor legs between the row and the column index.

        The row index of self splits into legs of sizes `row_dims`, numbered
        0, 1, …, and the column index into legs of sizes `col_dims`, numbered
        on from there; the row index of the result is made of the legs
        `rows` and its column index of the legs `cols`, in that order.  So
        T with rows (i, k) and columns x becomes A with rows (i, x) and
        columns k by regroup((s, s), (n,), (0, 2), (1,)).  The entries are
        re-keyed, never multiplied, in time linear in their number.
        """
        dims = (*row_dims, *col_dims)
        if (prod(row_dims) != self.rows or prod(col_dims) != self.cols
                or sorted((*rows, *cols)) != list(range(len(dims)))):
            raise DimensionMismatch(f"legs {tuple(rows)} x {tuple(cols)} of {tuple(row_dims)} x "
                                    f"{tuple(col_dims)} do not regroup a "
                                    f"{self.rows}x{self.cols} matrix")
        k = len(row_dims)
        places = _places(dims, rows, cols)
        nnz = len(self.entries)
        r_row, r_col = _leg_offsets(self.rows, nnz, (r for r, _ in self.entries),
                                    row_dims, places[:k])
        c_row, c_col = _leg_offsets(self.cols, nnz, (c for _, c in self.entries),
                                    col_dims, places[k:])
        entries = {(r_row[r] + c_row[c], r_col[r] + c_col[c]): v
                   for (r, c), v in self.entries.items()}
        return Matrix._unchecked(self.field, prod(dims[leg] for leg in rows),
                                 prod(dims[leg] for leg in cols), entries)

    def on_leg(self, m: "Matrix", before: int, after: int, axis: int) -> "Matrix":
        """(I_before ⊗ m ⊗ I_after) · self (axis 0) or self · (I_before ⊗ m ⊗ I_after) (axis 1).

        The row (axis 0) or column (axis 1) index of self is split into
        legs (before, inner, after), inner being the side of m it meets;
        each entry of self is multiplied by the entries of m in the column
        (axis 0) or row (axis 1) of its inner leg.  The identity factors are
        never built.
        """
        if axis == 0:
            inner, outer, length = m.cols, m.rows, self.rows
        else:
            inner, outer, length = m.rows, m.cols, self.cols
        if before * inner * after != length:
            raise DimensionMismatch(f"legs ({before}, {inner}, {after}) do not split axis {axis} "
                                    f"of a {self.rows}x{self.cols} matrix")
        f = self.field
        mul, add = f.mul, f.add
        # inner index k -> [(offset of the outer index in the result, m entry)]
        hits: dict[int, list] = {}
        for (r, c), v in m.entries.items():
            k, o = (c, r) if axis == 0 else (r, c)
            hits.setdefault(k, []).append((o * after, v))
        span_in, span_out = inner * after, outer * after
        out: dict = {}
        for (r, c), v in self.entries.items():
            i, rest = divmod(r if axis == 0 else c, span_in)
            k, j = divmod(rest, after)
            base = i * span_out + j
            for offset, a in hits.get(k, ()):
                key = (base + offset, c) if axis == 0 else (r, base + offset)
                p = mul(a, v)
                prev = out.get(key)
                out[key] = p if prev is None else add(prev, p)
        shape = (before * span_out, self.cols) if axis == 0 else (self.rows, before * span_out)
        return Matrix._unchecked(f, *shape, {k: v for k, v in out.items() if v})

    def rank(self) -> int:
        _, pivots = rref(self.field, self.to_rows())
        return len(pivots)

    def inverse(self) -> "Matrix":
        """Exact inverse; raises SingularMatrix when rank-deficient."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        f = self.field
        n = self.rows
        one = f.one()
        zero = f.zero()
        aug = []
        dense = self.to_rows()
        for i in range(n):
            aug.append(dense[i] + [one if j == i else zero for j in range(n)])
        reduced, pivots = rref(f, aug)
        if pivots != list(range(n)):
            raise SingularMatrix(f"matrix of rank {len([p for p in pivots if p < n])} < {n}")
        entries = {}
        for i, row in enumerate(reduced):
            for j in range(n):
                v = row[n + j]
                if v != zero:
                    entries[(i, j)] = v
        return Matrix(f, n, n, entries)

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def _places(dims: Sequence[int], rows: Sequence[int], cols: Sequence[int]) -> list:
    """(axis, stride) of each leg in a result whose row index is made of the
    legs `rows` and whose column index of the legs `cols`, row-major."""
    place: list = [None] * len(dims)
    for axis, legs in enumerate((rows, cols)):
        step = 1
        for leg in reversed(legs):
            place[leg] = (axis, step)
            step *= dims[leg]
    return place


def _leg_offsets(length: int, nnz: int, used, dims: Sequence[int], places: Sequence) -> tuple:
    """The row and the column offset in the result of each index x of an
    axis with legs `dims`, leg k going to places[k] = (axis, stride); both
    maps are indexed by x.

    Only the indices that occur (`used`, one per entry) are split, and
    then the maps are dicts, unless the axis is no longer than the `nnz`
    entries: then the whole axis is split, into lists.  The cost follows
    min(length, nnz), never the length of a long, sparsely used axis.
    """
    keys = range(length) if length <= nnz else list(set(used))
    offsets = ([0] * len(keys), [0] * len(keys))
    below = 1
    for d, (axis, stride) in zip(reversed(dims), reversed(places)):
        offsets[axis][:] = [o + x // below % d * stride for o, x in zip(offsets[axis], keys)]
        below *= d
    if isinstance(keys, range):
        return offsets
    return dict(zip(keys, offsets[0])), dict(zip(keys, offsets[1]))


def differing_columns(lhs: Matrix, rhs: Matrix):
    """(j, lhs column j, rhs column j) for each j, ascending, on which two
    matrices of one shape differ; the entries are grouped by column once."""
    if lhs.entries == rhs.entries:
        return
    lcols, rcols = lhs.columns(), rhs.columns()
    zero = (lhs.field.zero(),) * lhs.rows
    for j in sorted(lcols.keys() | rcols.keys()):
        lc, rc = lcols.get(j, zero), rcols.get(j, zero)
        if lc != rc:
            yield j, lc, rc


def flip(field: Field, dim_a: int, dim_b: int) -> Matrix:
    """The swap x ⊗ y ↦ y ⊗ x : k^a ⊗ k^b → k^b ⊗ k^a."""
    return Matrix.identity(field, dim_a * dim_b).permute_legs((dim_a, dim_b), (1, 0), 0)


# ---------------------------------------------------------------------------
# row reduction, subspaces, quotients


def rref(field: Field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form, leftmost pivots first.

    Mutates and returns (nonzero rows, pivot columns).  The result is
    the unique RREF of the row space, hence canonical.
    """
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


class Subspace:
    """A subspace of k^n held as a canonical RREF basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: Field, ambient_dim: int, basis: tuple, pivots: tuple):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis      # tuple of row tuples, RREF
        self.pivots = pivots

    @classmethod
    def from_spanning(cls, field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [[field.canon(x) for x in v] for v in vectors]
        for row in rows:
            if len(row) != ambient_dim:
                raise DimensionMismatch("spanning vector of wrong length")
        reduced, pivots = rref(field, rows)
        return cls(field, ambient_dim, tuple(tuple(r) for r in reduced), tuple(pivots))

    @classmethod
    def zero_space(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        eye = Matrix.identity(field, ambient_dim)
        return cls(field, ambient_dim, tuple(eye.row(i) for i in range(ambient_dim)),
                   tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Sequence) -> tuple:
        """Residue of v after eliminating all pivot coordinates."""
        f = self.field
        zero = f.zero()
        out = [f.canon(x) for x in v]
        if len(out) != self.ambient_dim:
            raise DimensionMismatch("vector/ambient mismatch")
        for row, p in zip(self.basis, self.pivots):
            c = out[p]
            if c != zero:
                out = [f.sub(x, f.mul(c, y)) for x, y in zip(out, row)]
        return tuple(out)

    def contains(self, v: Sequence) -> bool:
        return vec_is_zero(self.field, self.reduce(v))

    def coords(self, v: Sequence) -> tuple:
        """Coefficients of v over the basis; raises if v lies outside."""
        if not self.contains(v):
            raise DimensionMismatch("vector outside subspace")
        return tuple(self.field.canon(v[p]) for p in self.pivots)

    def le(self, other: "Subspace") -> bool:
        return all(other.contains(row) for row in self.basis)

    def tensor(self, other: "Subspace") -> "Subspace":
        """Tensor of subspaces; b_i ⊗ c_j of RREF bases is again RREF."""
        f = self.field
        n = self.ambient_dim * other.ambient_dim
        basis = tuple(vec_kron(f, b, c) for b in self.basis for c in other.basis)
        pivots = tuple(p * other.ambient_dim + q for p in self.pivots for q in other.pivots)
        return Subspace(f, n, basis, pivots)

    def inclusion_matrix(self) -> Matrix:
        """n × m matrix whose columns are the basis vectors."""
        entries = {}
        for k, row in enumerate(self.basis):
            for i, v in enumerate(row):
                entries[(i, k)] = v
        return Matrix(self.field, self.ambient_dim, self.dim, entries)

    def coords_matrix(self) -> Matrix:
        """m × n pivot-coordinate selector; inverts inclusion on the subspace."""
        one = self.field.one()
        entries = {(k, p): one for k, p in enumerate(self.pivots)}
        return Matrix(self.field, self.dim, self.ambient_dim, entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of {v : m v = 0}."""
    f = m.field
    reduced, pivots = rref(f, m.to_rows())
    zero = f.zero()
    one = f.one()
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for fc in free:
        v = [zero] * m.cols
        v[fc] = one
        for row, p in zip(reduced, pivots):
            if row[fc] != zero:
                v[p] = f.neg(row[fc])
        vectors.append(v)
    return Subspace.from_spanning(f, m.cols, vectors)


def image(m: Matrix) -> Subspace:
    """Column space, canonical basis."""
    return Subspace.from_spanning(m.field, m.rows, m.columns().values())


@dataclass(frozen=True)
class Quotient:
    """k^n / kernel with a fixed section through the non-pivot coordinates."""

    field: Field
    ambient_dim: int
    kernel: Subspace
    projection: Matrix   # q × n
    section: Matrix      # n × q

    @property
    def dim(self) -> int:
        return self.projection.rows


def quotient(ambient_dim: int, ker: Subspace) -> Quotient:
    """Quotient by `ker` with canonical representatives.

    The classes of the non-pivot coordinate vectors form the basis of
    the quotient; projection reduces modulo the kernel and reads off the
    non-pivot coordinates, so projection ∘ section = id and projection
    annihilates exactly the kernel.
    """
    if ker.ambient_dim != ambient_dim:
        raise DimensionMismatch(f"kernel ambient {ker.ambient_dim} != {ambient_dim}")
    f = ker.field
    one = f.one()
    pivot_set = set(ker.pivots)
    free = [c for c in range(ambient_dim) if c not in pivot_set]
    q = len(free)
    proj_entries: dict = {}
    for k, fc in enumerate(free):
        proj_entries[(k, fc)] = one
        for row, p in zip(ker.basis, ker.pivots):
            if row[fc] != f.zero():
                proj_entries[(k, p)] = f.neg(row[fc])
    projection = Matrix(f, q, ambient_dim, proj_entries)
    section = Matrix(f, ambient_dim, q, {(fc, k): one for k, fc in enumerate(free)})
    return Quotient(f, ambient_dim, ker, projection, section)


def solve(m: Matrix, v: Sequence) -> tuple | None:
    """The unique solution of m x = v, None if inconsistent.

    Raises SingularMatrix when the system is consistent but
    underdetermined (callers rely on uniqueness).
    """
    f = m.field
    zero = f.zero()
    if len(v) != m.rows:
        raise DimensionMismatch("rhs length mismatch")
    aug = [row + [f.canon(v[i])] for i, row in enumerate(m.to_rows())]
    reduced, pivots = rref(f, aug)
    for row, p in zip(reduced, pivots):
        if p == m.cols:
            return None  # pivot in the rhs column: inconsistent
    if len([p for p in pivots if p < m.cols]) < m.cols:
        raise SingularMatrix("underdetermined system")
    x = [zero] * m.cols
    for row, p in zip(reduced, pivots):
        x[p] = row[m.cols]
    return tuple(x)
