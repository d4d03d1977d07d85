"""Exact linear algebra: worked examples plus law-level property tests.

The kernel examples are cross-checked against independent oracles:
sympy's nullspace over the rationals and exhaustive solution counting
over small prime fields.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hopfpi.linalg as linalg
from hopfpi.errors import DimensionMismatch, SingularMatrix
from hopfpi.linalg import (
    Matrix,
    PrimeField,
    QQ,
    Subspace,
    differing_blocks,
    image,
    kernel,
    quotient,
    rref,
    solve,
    unit_vec,
    vec_kron,
    _is_prime,
)
from oracles import (
    differing_blocks_by_entries,
    flip,
    full_space,
    kernel_by_two_reductions,
    quotient_section,
    rref_by_sweeps,
    rref_dense,
    subspace_contains,
    subspace_coords,
)

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7), PrimeField(11)]


def field_strategy():
    return st.sampled_from(FIELDS)


def scalar_strategy(f):
    ints = st.integers(min_value=-6, max_value=6)
    return ints.map(f.from_int)


def matrix_strategy(max_dim=4):
    def build(f, rows, cols, seed):
        rng = random.Random(seed)
        entries = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.5:
                    entries[(i, j)] = f.from_int(rng.randint(-6, 6))
        return Matrix(f, rows, cols, entries)

    return st.builds(
        build,
        field_strategy(),
        st.integers(min_value=0, max_value=max_dim),
        st.integers(min_value=0, max_value=max_dim),
        st.integers(min_value=0, max_value=10**6),
    )


# -- examples ----------------------------------------------------------------


def test_kernel_of_zero_matrix_is_everything():
    k = kernel(Matrix(QQ, 2, 3))
    assert k.dim == 3
    assert k == full_space(QQ, 3)


def test_kernel_of_identity_is_zero():
    assert kernel(Matrix.identity(QQ, 3)).dim == 0


def test_kernel_of_group_algebra_multiplication():
    # m for k[Z/2] on basis e⊗e, e⊗u, u⊗e, u⊗u
    one = Fraction(1)
    m = Matrix(QQ, 2, 4, {(0, 0): one, (1, 1): one, (1, 2): one, (0, 3): one})
    k = kernel(m)
    assert k.basis.to_rows() == [
        [Fraction(1), Fraction(0), Fraction(0), Fraction(-1)],   # e⊗e − u⊗u
        [Fraction(0), Fraction(1), Fraction(-1), Fraction(0)],   # e⊗u − u⊗e
    ]
    # independent oracle: sympy nullspace spans the same space
    sympy = pytest.importorskip("sympy")
    ns = sympy.Matrix([[1, 0, 0, 1], [0, 1, 1, 0]]).nullspace()
    assert len(ns) == k.dim
    for v in ns:
        vec = tuple(Fraction(x.p, x.q) for x in v)
        assert subspace_contains(k, vec)
    assert subspace_contains(k, (Fraction(0), Fraction(1), Fraction(-1), Fraction(0)))


def test_quotient_examples():
    assert quotient(Subspace.zero_space(QQ, 3)) == Matrix.identity(QQ, 3)
    q2 = quotient(full_space(QQ, 3))
    assert (q2.rows, q2.cols) == (0, 3)
    one_dim = Subspace.from_spanning(QQ, 2, [(Fraction(1), Fraction(-1))])
    q3 = quotient(one_dim)
    assert q3.rows == 1
    assert q3.rank() == 1


def test_tensor_and_flip_examples():
    assert Matrix.identity(QQ, 2).kron(Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 6)
    # flip sends e⊗u (index 1) to u⊗e (index 2) in the 2x2 tensor square
    fl = flip(QQ, 2, 2)
    v = [Fraction(0)] * 4
    v[1] = Fraction(1)
    assert fl.apply(tuple(v)) == (Fraction(0), Fraction(0), Fraction(1), Fraction(0))


def test_inverse_and_solve():
    m = Matrix(QQ, 2, 2, {(0, 0): Fraction(2), (0, 1): Fraction(1), (1, 0): Fraction(1),
                          (1, 1): Fraction(1)})
    inv = m.inverse()
    assert m @ inv == Matrix.identity(QQ, 2)
    assert solve(m, (Fraction(3), Fraction(2))) == (Fraction(1), Fraction(1))
    with pytest.raises(SingularMatrix):
        Matrix(QQ, 2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2}).inverse()


def test_prime_field_parse_and_inverse():
    f = PrimeField(7)
    assert f.parse("3/2") == f.mul(3, f.inv(2))
    assert f.mul(f.parse("3/2"), 2) == 3
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        f.parse(1.5)


# -- properties ----------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(matrix_strategy())
def test_rank_nullity_and_exact_kernel(m):
    k = kernel(m)
    assert m.rank() + k.dim == m.cols
    zero = (m.field.zero(),) * m.rows
    for v in k.basis.to_rows():
        assert m.apply(v) == zero


@settings(max_examples=80, deadline=None)
@given(matrix_strategy(), st.integers(min_value=0, max_value=10**6))
def test_subspace_canonicity_under_respanning(m, seed):
    """Different spanning sets of the same space give bit-identical bases."""
    f = m.field
    rows = [m.row(i) for i in range(m.rows)]
    s1 = Subspace.from_spanning(f, m.cols, rows)
    rng = random.Random(seed)
    mixed = list(rows)
    rng.shuffle(mixed)
    # also throw in random combinations of the rows
    for _ in range(3):
        if not rows:
            break
        c = [f.from_int(rng.randint(-4, 4)) for _ in rows]
        combo = tuple(
            sum_scalars(f, [f.mul(ci, row[j]) for ci, row in zip(c, rows)])
            for j in range(m.cols))
        mixed.append(combo)
    s2 = Subspace.from_spanning(f, m.cols, mixed)
    assert s1 == s2
    assert s1.basis == s2.basis


@settings(max_examples=120, deadline=None)
@given(matrix_strategy(), st.integers(min_value=0, max_value=10**6))
def test_equal_row_spaces_have_equal_basis_and_hash(m, seed):
    """Spanning sets of one row space, the rows of m and of E·m for a random
    invertible E (row swaps, nonzero scalings, row additions) with zero and
    repeated rows mixed in, give equal basis matrices, entry types included,
    and equal hashes, whether reduced through from_spanning, rref or image."""
    f = m.field
    rng = random.Random(seed)
    rows = [list(m.row(i)) for i in range(m.rows)]
    mixed = [list(row) for row in rows]
    for _ in range(2 * len(mixed)):
        i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
        step = rng.choice(["swap", "scale", "add"])
        if step == "swap":
            mixed[i], mixed[j] = mixed[j], mixed[i]
        elif step == "scale":
            c = f.from_int(rng.choice([x for x in range(-4, 5) if f.from_int(x) != f.zero()]))
            mixed[i] = [f.mul(c, x) for x in mixed[i]]
        elif i != j:
            c = f.from_int(rng.randint(-4, 4))
            mixed[i] = [f.add(x, f.mul(c, y)) for x, y in zip(mixed[i], mixed[j])]
    mixed.insert(rng.randint(0, len(mixed)), [f.zero()] * m.cols)
    if rows:
        mixed.append(list(rng.choice(mixed)))
    spans = [Subspace.from_spanning(f, m.cols, rows), Subspace.from_spanning(f, m.cols, mixed),
             Subspace(*rref(m)), image(m.transpose())]
    first = spans[0]
    for other in spans[1:]:
        assert other == first
        assert stored(other.basis) == stored(first.basis)
        assert other.pivots == first.pivots
        assert hash(other) == hash(first) and hash(other.basis) == hash(first.basis)
    assert len(set(spans)) == 1


def test_matrix_is_not_iterable():
    """m[r, c] reads every (r, c) as a scalar, so a matrix must refuse the
    legacy sequence protocol instead of iterating m[0], m[1], … forever,
    and m[k] with one index is an error, not a zero."""
    m = Matrix.identity(QQ, 2)
    with pytest.raises(TypeError):
        iter(m)
    with pytest.raises(TypeError):
        list(m)
    with pytest.raises(TypeError):
        (1, 0) in m
    with pytest.raises(TypeError):
        for _ in full_space(QQ, 2).basis:
            pass
    with pytest.raises(TypeError):      # a frame's column is m.col(i), not m[i]
        m[0]
    assert m[1, 1] == 1 and m[0, 1] == 0


@st.composite
def kernel_case(draw):
    """A matrix over ℚ or F_p with up to 0 rows or columns: random at two
    densities, zero, of full rank ([I | X] with its columns shuffled, or
    the transpose of one), or a product through a narrow middle
    dimension, so of low rank."""
    f = draw(st.sampled_from(FIELDS + [PrimeField(101)]))
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = draw(st.integers(min_value=0, max_value=7))
    kind = draw(st.sampled_from(["sparse", "dense", "zero", "full rank", "low rank"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))

    def rand(r, c, density):
        return Matrix(f, r, c, {(i, j): f.from_int(rng.randint(-6, 6))
                                for i in range(r) for j in range(c) if rng.random() < density})

    if kind in ("sparse", "dense"):
        return rand(rows, cols, 0.3 if kind == "sparse" else 0.9)
    if kind == "zero":
        return Matrix(f, rows, cols)
    if kind == "low rank":
        inner = rng.randint(0, min(rows, cols, 2))
        return rand(rows, inner, 0.8) @ rand(inner, cols, 0.8)

    def wide(r, c):         # [I_r | X] with its c ≥ r columns shuffled
        entries = {**Matrix.identity(f, r).entries,
                   **{(i, r + j): v for (i, j), v in rand(r, c - r, 0.7).entries.items()}}
        order = rng.sample(range(c), c)
        return Matrix(f, r, c, {(i, order[j]): v for (i, j), v in entries.items()})

    return wide(rows, cols) if rows <= cols else wide(cols, rows).transpose()


@settings(max_examples=400, deadline=None)
@given(kernel_case())
def test_kernel_matches_two_reductions(m):
    """One right-to-left reduction gives the basis and pivots that reducing
    the free-column solutions of the left-to-right RREF again gives, down
    to the type of every scalar (int or Fraction over ℚ)."""
    k, want = kernel(m), kernel_by_two_reductions(m)
    assert stored(k.basis) == stored(want.basis)
    assert k.pivots == want.pivots
    assert k.ambient_dim == want.ambient_dim == m.cols


@st.composite
def elimination_case(draw):
    """(field, dense rows) over ℚ with fractions, F_2, F_3 or F_7: random,
    tall, wide, square or of full rank ([I | X] with its columns shuffled,
    or its transpose), 0 to 7 rows and columns, with zero rows and
    repeated rows mixed in.  Every scalar is canonical."""
    f = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(7)]))
    kind = draw(st.sampled_from(["random", "tall", "wide", "square", "full rank"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    small, large = sorted((rng.randint(0, 7), rng.randint(0, 7)))
    rows, cols = {"random": (rng.randint(0, 7), rng.randint(0, 7)), "tall": (large, small),
                  "wide": (small, large), "square": (large, large),
                  "full rank": rng.choice([(small, large), (large, small)])}[kind]
    density = rng.choice([0.2, 0.5, 0.9])

    def scalar():
        if f == QQ:
            return f.canon(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        return rng.randrange(f.p)

    zero = f.zero()

    def entry():
        return scalar() if rng.random() < density else zero

    def full_rank(r, c):        # [I_r | X] with its c ≥ r columns shuffled
        out = [[f.one() if j == i else zero for j in range(r)] + [entry() for _ in range(c - r)]
               for i in range(r)]
        order = rng.sample(range(c), c)
        return [[row[j] for j in order] for row in out]

    if kind != "full rank":
        dense = [[entry() for _ in range(cols)] for _ in range(rows)]
    elif rows <= cols:
        dense = full_rank(rows, cols)
    else:
        wide = full_rank(cols, rows)
        dense = [[wide[i][j] for i in range(cols)] for j in range(rows)]
    for _ in range(rng.randint(0, 2)):          # zero rows and repeated rows
        extra = [zero] * cols if not dense or rng.random() < 0.5 else list(rng.choice(dense))
        dense.insert(rng.randint(0, len(dense)), extra)
    return f, dense


@settings(max_examples=400, deadline=None)
@given(elimination_case())
def test_rref_matches_dense_reference(case):
    """Sparse-row elimination returns the rows and pivots of the dense
    column sweep, down to the type of every scalar (2 is not Fraction(2)),
    and leaves its input as it was; kernel and inverse, which eliminate
    through rref, agree with themselves run on the dense reference."""
    f, dense = case
    cols = len(dense[0]) if dense else 0
    m = Matrix(f, len(dense), cols, {(i, j): x for i, row in enumerate(dense)
                                    for j, x in enumerate(row)})
    given = dict(m.entries)
    got, pivots = rref(m)
    assert m.entries == given
    want, want_pivots = rref_dense(f, [list(row) for row in dense])
    assert (got.rows, got.cols) == (len(want), cols)
    assert repr(got.to_rows()) == repr(want) and pivots == want_pivots
    k = kernel(m)
    with mock.patch.object(linalg, "rref", rref_by_sweeps):
        k_ref = kernel(m)
    assert stored(k.basis) == stored(k_ref.basis) and k.pivots == k_ref.pivots
    if m.rows == m.cols:
        try:
            inv = m.inverse()
        except SingularMatrix:
            inv = None
        with mock.patch.object(linalg, "rref", rref_by_sweeps):
            try:
                inv_ref = m.inverse()
            except SingularMatrix:
                inv_ref = None
        assert (inv is None) == (inv_ref is None)
        if inv is not None:
            assert stored(inv) == stored(inv_ref)


def sum_scalars(f, xs):
    out = f.zero()
    for x in xs:
        out = f.add(out, x)
    return out


@st.composite
def matrix_pair_strategy(draw, max_dim=3):
    f = draw(field_strategy())
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))

    def rand_matrix():
        rows = rng.randint(0, max_dim)
        cols = rng.randint(0, max_dim)
        entries = {(i, j): f.from_int(rng.randint(-6, 6))
                   for i in range(rows) for j in range(cols) if rng.random() < 0.6}
        return Matrix(f, rows, cols, entries)

    a, b = rand_matrix(), rand_matrix()
    x = tuple(f.from_int(rng.randint(-4, 4)) for _ in range(a.cols))
    y = tuple(f.from_int(rng.randint(-4, 4)) for _ in range(b.cols))
    return a, b, x, y


@settings(max_examples=60, deadline=None)
@given(matrix_pair_strategy())
def test_tensor_compatible_with_vectors(data):
    a, b, x, y = data
    f = a.field
    lhs = a.kron(b).apply(vec_kron(f, x, y))
    rhs = vec_kron(f, a.apply(x), b.apply(y))
    assert lhs == rhs


@settings(max_examples=80, deadline=None)
@given(matrix_strategy())
def test_quotient_laws(m):
    """projection ∘ section = id and projection kills exactly the kernel."""
    f = m.field
    k = kernel(m)
    q = quotient(k)
    assert q @ quotient_section(k) == Matrix.identity(f, q.rows)
    for v in k.basis.to_rows():
        assert all(x == f.zero() for x in q.apply(v))
    assert q.rank() == m.cols - k.dim
    assert kernel(q) == k


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       field_strategy())
def test_flip_is_involutive_swap(p, q, f):
    fl = flip(f, p, q)
    lf = flip(f, q, p)
    assert lf @ fl == Matrix.identity(f, p * q)
    for i in range(p):
        for j in range(q):
            v = vec_kron(f, unit_vec(f, p, i), unit_vec(f, q, j))
            assert fl.apply(v) == vec_kron(f, unit_vec(f, q, j), unit_vec(f, p, i))


def flip_permutation(f, dims, order):
    """The permutation matrix of a leg reordering, built as a product of
    adjacent swaps I ⊗ flip ⊗ I (bubble sort of `order`)."""
    dims, legs = list(dims), list(range(len(dims)))
    out = Matrix.identity(f, prod(dims))
    target = list(order)
    for _ in range(len(legs)):
        for k in range(len(legs) - 1):
            if target.index(legs[k]) > target.index(legs[k + 1]):
                before = Matrix.identity(f, prod(dims[:k]))
                after = Matrix.identity(f, prod(dims[k + 2:]))
                out = before.kron(flip(f, dims[k], dims[k + 1])).kron(after) @ out
                dims[k], dims[k + 1] = dims[k + 1], dims[k]
                legs[k], legs[k + 1] = legs[k + 1], legs[k]
    assert legs == target
    return out


@st.composite
def legged_matrix(draw):
    """A matrix, one of its axes split into 2–4 legs of sizes 1–3, and an order."""
    f = draw(st.sampled_from([QQ, PrimeField(5)]))
    dims = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4))
    order = draw(st.permutations(range(len(dims))))
    axis = draw(st.sampled_from([0, 1]))
    other = draw(st.integers(min_value=1, max_value=3))
    rows, cols = (prod(dims), other) if axis == 0 else (other, prod(dims))
    values = [1, -1, 2, Fraction(1, 3)] if f == QQ else [1, 2, 4]
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if draw(st.booleans()):
                entries[(i, j)] = draw(st.sampled_from(values))
    return Matrix(f, rows, cols, entries), tuple(dims), tuple(order), axis


@settings(max_examples=200, deadline=None)
@given(legged_matrix())
def test_permute_legs_matches_flip_products(data):
    """Reordering legs by index equals the product with the permutation
    matrix built from flip and identity Kronecker factors: P @ m along
    rows, m @ Pᵀ along columns."""
    m, dims, order, axis = data
    f = m.field
    perm = flip_permutation(f, dims, order)
    expected = perm @ m if axis == 0 else m @ perm.transpose()
    got = m.permute_legs(dims, order, axis)
    assert got == expected
    assert stored(got) == stored(expected)
    if axis == 1:
        # leg k of the result is leg order[k] of the input
        vecs = [tuple(f.from_int(k + i + 1) for i in range(d)) for k, d in enumerate(dims)]
        flat = vecs[0]
        for v in vecs[1:]:
            flat = vec_kron(f, flat, v)
        reordered = vecs[order[0]]
        for k in order[1:]:
            reordered = vec_kron(f, reordered, vecs[k])
        assert got.apply(reordered) == m.apply(flat)


def test_permute_legs_rejects_mismatched_legs():
    m = Matrix.identity(QQ, 6)
    with pytest.raises(DimensionMismatch):
        m.permute_legs((2, 2), (1, 0), 0)
    with pytest.raises(DimensionMismatch):
        m.permute_legs((2, 3), (0, 0), 1)


def split_index(x: int, dims) -> list:
    """The leg values of a flat row-major index over legs of sizes `dims`."""
    digits = []
    for d in reversed(dims):
        x, digit = divmod(x, d)
        digits.append(digit)
    return digits[::-1]


def join_index(digits, dims) -> int:
    """The flat row-major index of leg values `digits` over legs `dims`."""
    x = 0
    for digit, d in zip(digits, dims):
        x = x * d + digit
    return x


def regroup_by_entries(m, row_dims, col_dims, rows, cols) -> dict:
    """Matrix.regroup, one entry at a time: split both indices into their
    legs, then join the legs `rows` and `cols`."""
    dims = (*row_dims, *col_dims)
    out = {}
    for (r, c), v in m.entries.items():
        legs = split_index(r, row_dims) + split_index(c, col_dims)
        out[(join_index([legs[k] for k in rows], [dims[k] for k in rows]),
             join_index([legs[k] for k in cols], [dims[k] for k in cols]))] = v
    return out


def test_permute_legs_on_a_long_sparse_axis():
    """A few entries on an axis of 1.5·10⁷ indices are re-keyed as the
    per-entry reference says, on either axis, without splitting the axis."""
    f = PrimeField(101)
    dims, order = (250, 200, 300), (2, 0, 1)
    length = prod(dims)
    rng = random.Random(11)
    entries = {(rng.randrange(length), rng.randrange(3)): rng.randrange(1, 101)
               for _ in range(40)}
    tall = Matrix(f, length, 3, entries)
    wide = tall.transpose()
    want = {(join_index([split_index(r, dims)[k] for k in order], [dims[k] for k in order]), c): v
            for (r, c), v in entries.items()}
    assert tall.permute_legs(dims, order, 0).entries == want
    assert wide.permute_legs(dims, order, 1) == Matrix(f, length, 3, want).transpose()
    assert tall.regroup(dims, (3,), order, (3,)).entries == want


@st.composite
def regrouped_matrix(draw):
    """A matrix, its row and column index split into 0–3 legs each (sizes
    1–3), and a partition of all the legs into new row and column legs."""
    f = draw(st.sampled_from([QQ, PrimeField(5)]))
    row_dims = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=3))
    col_dims = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=3))
    legs = draw(st.permutations(range(len(row_dims) + len(col_dims))))
    cut = draw(st.integers(min_value=0, max_value=len(legs)))
    rows, cols = prod(row_dims), prod(col_dims)
    values = [1, -1, Fraction(1, 3)] if f == QQ else [1, 2, 4]
    entries = {(i, j): draw(st.sampled_from(values))
               for i in range(rows) for j in range(cols) if draw(st.booleans())}
    return (Matrix(f, rows, cols, entries), tuple(row_dims), tuple(col_dims),
            tuple(legs[:cut]), tuple(legs[cut:]))


@settings(max_examples=200, deadline=None)
@given(regrouped_matrix())
def test_regroup_matches_entry_reference(data):
    """regroup re-keys every entry as splitting and re-joining its legs
    does, and regrouping back restores the matrix."""
    m, row_dims, col_dims, rows, cols = data
    got = m.regroup(row_dims, col_dims, rows, cols)
    dims = (*row_dims, *col_dims)
    assert (got.rows, got.cols) == (prod(dims[k] for k in rows), prod(dims[k] for k in cols))
    assert got.entries == regroup_by_entries(m, row_dims, col_dims, rows, cols)
    # leg rows[k] of m is now leg k; put every leg back where it was
    now = {leg: k for k, leg in enumerate((*rows, *cols))}
    back = got.regroup([dims[k] for k in rows], [dims[k] for k in cols],
                       [now[k] for k in range(len(row_dims))],
                       [now[k] for k in range(len(row_dims), len(dims))])
    assert back == m


def test_regroup_rejects_mismatched_legs():
    m = Matrix.identity(QQ, 6)
    with pytest.raises(DimensionMismatch):
        m.regroup((2, 2), (6,), (0, 1), (2,))
    with pytest.raises(DimensionMismatch):
        m.regroup((2, 3), (6,), (0, 0), (2,))
    with pytest.raises(DimensionMismatch):
        m.regroup((2, 3), (6,), (0,), (2,))


def test_kernel_dimension_matches_bruteforce_over_f3():
    """Exhaustive solution count = p^(kernel dim), independent of RREF."""
    f = PrimeField(3)
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        m = Matrix(f, rows, cols,
                   {(i, j): rng.randint(0, 2) for i in range(rows) for j in range(cols)})
        count = 0
        for idx in range(3 ** cols):
            v = []
            n = idx
            for _ in range(cols):
                v.append(n % 3)
                n //= 3
            if all(x == 0 for x in m.apply(tuple(v))):
                count += 1
        assert count == 3 ** kernel(m).dim


def test_image_and_membership():
    m = Matrix(QQ, 2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
    im = image(m)
    assert im.dim == 1
    assert subspace_contains(im, (Fraction(1), Fraction(2)))
    assert not subspace_contains(im, (Fraction(1), Fraction(0)))


def test_storage_is_canonical_over_prime_fields():
    """Raw input through any constructor is stored in canonical residue
    form, so mathematically equal objects are bit-identical."""
    f = PrimeField(7)
    s1 = Subspace.from_spanning(f, 2, [(1, -1)])
    s2 = Subspace.from_spanning(f, 2, [(1, 6)])
    assert s1 == s2 and s1.basis == Matrix(f, 1, 2, {(0, 0): 1, (0, 1): 6})
    m1 = Matrix(f, 1, 2, {(0, 0): 8, (0, 1): -1})
    m2 = Matrix(f, 1, 2, {(0, 0): 1, (0, 1): 6})
    assert m1 == m2
    assert Matrix(f, 1, 1, {(0, 0): 7}).is_zero()
    with pytest.raises(ValueError):
        Matrix(f, 1, 1, {(0, 0): 0.5})


def test_storage_is_canonical_over_rationals():
    m = Matrix(QQ, 1, 1, {(0, 0): 3})
    assert m[(0, 0)] == Fraction(3)
    with pytest.raises(ValueError):
        Matrix(QQ, 1, 1, {(0, 0): 0.25})


def test_raw_residues_through_membership_and_solve():
    f = PrimeField(7)
    zero_sub = Subspace.zero_space(f, 2)
    assert subspace_contains(zero_sub, (7, 14))   # ≡ (0, 0)
    line = Subspace.from_spanning(f, 2, [(1, 6)])
    assert subspace_contains(line, (-1, 1))       # ≡ 6·(1, 6)
    assert subspace_coords(line, (-1, 1)) == (6,)
    assert solve(Matrix.identity(f, 2), (-1, 9)) == (6, 2)


# -- canonical scalar form --------------------------------------------------------


def rational_strategy():
    return st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                     st.fractions(max_denominator=12).map(QQ.canon))


def assert_canonical_rational(v, expected: Fraction):
    """int exactly when integral, otherwise a Fraction with denominator > 1."""
    assert v == expected
    if expected.denominator == 1:
        assert type(v) is int
    else:
        assert type(v) is Fraction and v.denominator > 1


@settings(max_examples=300, deadline=None)
@given(rational_strategy(), rational_strategy())
def test_rational_operations_return_canonical_form(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert_canonical_rational(QQ.add(a, b), fa + fb)
    assert_canonical_rational(QQ.sub(a, b), fa - fb)
    assert_canonical_rational(QQ.mul(a, b), fa * fb)
    assert_canonical_rational(QQ.neg(a), -fa)
    if a != 0:
        assert_canonical_rational(QQ.inv(a), 1 / fa)
    assert_canonical_rational(QQ.canon(fa), fa)
    assert_canonical_rational(QQ.canon(a), fa)
    assert_canonical_rational(QQ.parse(str(fa)), fa)
    assert_canonical_rational(QQ.parse(fa), fa)


@given(st.integers())
def test_rational_from_int_and_constants_are_ints(n):
    assert_canonical_rational(QQ.from_int(n), Fraction(n))
    assert_canonical_rational(QQ.parse(n), Fraction(n))
    assert_canonical_rational(QQ.zero(), Fraction(0))
    assert_canonical_rational(QQ.one(), Fraction(1))


def test_rational_canon_rejects_bool_and_float():
    for bad in (True, False, 0.5, 2.0):
        with pytest.raises(ValueError):
            QQ.canon(bad)
        with pytest.raises(ValueError):
            QQ.parse(bad)


@pytest.mark.parametrize("text", ["1e10000000", "1.5", "0x10", "+3", "3/ 4", "1" * 1001])
def test_scalar_strings_are_integer_or_fraction_only(text):
    for f in (QQ, PrimeField(7)):
        with pytest.raises(ValueError):
            f.parse(text)


def test_scalar_strings_parse_exactly():
    assert QQ.parse("-6/4") == Fraction(-3, 2)
    assert type(QQ.parse("6/3")) is int and QQ.parse("6/3") == 2
    assert QQ.parse("9" * 1000) == int("9" * 1000)
    with pytest.raises(ZeroDivisionError):
        QQ.parse("1/0")


@st.composite
def leg_product_case(draw):
    """A matrix x with one axis split into 2–4 legs of sizes 1–3, a leg, and
    a map m on that leg, rectangular or zero, for x.on_leg."""
    f = draw(st.sampled_from([QQ, PrimeField(5)]))
    dims = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4))
    leg = draw(st.integers(min_value=0, max_value=len(dims) - 1))
    axis = draw(st.sampled_from([0, 1]))
    values = [1, -1, 2, Fraction(1, 3), Fraction(-1, 2)] if f == QQ else [1, 2, 3, 4]

    def matrix(rows, cols):
        density = draw(st.sampled_from([0.0, 0.5, 1.0]))   # 0: the zero matrix
        rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
        return Matrix(f, rows, cols, {(i, j): rng.choice(values) for i in range(rows)
                                      for j in range(cols) if rng.random() < density})

    other = draw(st.integers(min_value=1, max_value=3))     # m's other side
    m = matrix(other, dims[leg]) if axis == 0 else matrix(dims[leg], other)
    side = draw(st.integers(min_value=0, max_value=3))
    x = matrix(prod(dims), side) if axis == 0 else matrix(side, prod(dims))
    return x, m, prod(dims[:leg]), prod(dims[leg + 1:]), axis


@settings(max_examples=300, deadline=None)
@given(leg_product_case())
def test_on_leg_matches_identity_kronecker_products(case):
    """x.on_leg(m, before, after, axis) is (I⊗m⊗I) @ x on axis 0 and
    x @ (I⊗m⊗I) on axis 1, with the identity factors built explicitly,
    and it stores no zeros."""
    x, m, before, after, axis = case
    f = x.field
    full = Matrix.identity(f, before).kron(m).kron(Matrix.identity(f, after))
    expected = full @ x if axis == 0 else x @ full
    got = x.on_leg(m, before, after, axis)
    assert got == expected
    assert stored(got) == stored(expected)
    assert all(v != f.zero() for v in got.entries.values())


def test_on_leg_rejects_legs_that_do_not_split_the_axis():
    x = Matrix.identity(QQ, 6)
    m = Matrix.identity(QQ, 2)
    for before, after, axis in ((2, 2, 0), (1, 2, 1), (3, 3, 0), (6, 1, 1)):
        with pytest.raises(DimensionMismatch):
            x.on_leg(m, before, after, axis)
    assert x.on_leg(m, 3, 1, 0) == x.on_leg(m, 1, 3, 1) == x


def test_on_leg_drops_cancelled_entries():
    f = PrimeField(5)
    m = Matrix(f, 1, 2, {(0, 0): 1, (0, 1): 1})           # (a, b) ↦ a + b
    x = Matrix(f, 4, 1, {(0, 0): 1, (1, 0): 4, (2, 0): 2, (3, 0): 2})
    got = x.on_leg(m, 2, 1, 0)                              # legs (2, 2) → (2, 1)
    assert got.entries == {(1, 0): 4}
    assert got == Matrix.identity(f, 2).kron(m) @ x


def test_on_leg_counts_every_scalar_product(monkeypatch):
    """Its arithmetic goes through field.mul, one call per pair of an entry
    of x and an entry of m on that entry's leg, so a counter patched onto
    the field class sees all of them."""
    f = PrimeField(7)
    rng = random.Random(3)
    m = Matrix(f, 2, 3, {(i, j): rng.randint(1, 6) for i in range(2) for j in range(3)
                         if rng.random() < 0.7})
    x = Matrix(f, 12, 5, {(i, j): rng.randint(1, 6) for i in range(12) for j in range(5)
                          if rng.random() < 0.5})
    y = x.transpose()
    per_leg = {k: sum(1 for (_, c) in m.entries if c == k) for k in range(3)}
    per_row = {k: sum(1 for (r, _) in m.entries if r == k) for k in range(2)}
    want0 = sum(per_leg[(r // 2) % 3] for (r, _) in x.entries)          # legs (2, 3, 2)
    want1 = sum(per_row[c % 2] for (_, c) in y.entries)                 # legs (6, 2, 1)
    calls = []
    original = PrimeField.mul

    def counting(self, a, b):
        calls.append(1)
        return original(self, a, b)

    monkeypatch.setattr(PrimeField, "mul", counting)
    x.on_leg(m, 2, 2, 0)
    assert len(calls) == want0 > 0
    calls.clear()
    y.on_leg(m, 6, 1, 1)
    assert len(calls) == want1 > 0


def stored(m: Matrix) -> dict:
    """Entries with their exact types, so Fraction(2) and 2 differ."""
    return {k: (type(v), v) for k, v in m.entries.items()}


@st.composite
def scalar_matrix_pair(draw, max_dim=3):
    """A product-compatible pair over ℚ (with fractions) or a small F_p.

    Entries come from a few values of both signs, so products often
    cancel to zero and the result must drop them.
    """
    f = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(7)]))
    values = ([1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)] if f == QQ
              else [1, -1, 2, f.p - 2])
    n, k, m = (draw(st.integers(min_value=0, max_value=max_dim)) for _ in range(3))

    def entries(rows, cols):
        out = {}
        for i in range(rows):
            for j in range(cols):
                if draw(st.booleans()):
                    out[(i, j)] = draw(st.sampled_from(values))
        return out

    return Matrix(f, n, k, entries(n, k)), Matrix(f, k, m, entries(k, m))


@settings(max_examples=200, deadline=None)
@given(scalar_matrix_pair())
def test_internal_products_store_canonical_nonzero_entries(pair):
    a, b = pair
    f = a.field
    for m in (a @ b, a.kron(b), a.transpose(), b.kron(a.transpose())):
        assert all(v != f.zero() for v in m.entries.values())
        assert stored(m) == stored(Matrix(f, m.rows, m.cols, m.entries))


@settings(max_examples=100, deadline=None)
@given(scalar_matrix_pair())
def test_product_matches_dense_fraction_arithmetic(pair):
    a, b = pair
    f = a.field

    def dense_entry(i, j):
        total = sum(Fraction(a[(i, t)]) * Fraction(b[(t, j)]) for t in range(a.cols))
        return total if f == QQ else int(total)

    expected = Matrix(f, a.rows, b.cols, {(i, j): dense_entry(i, j)
                                          for i in range(a.rows) for j in range(b.cols)})
    assert stored(a @ b) == stored(expected)


# -- primality ---------------------------------------------------------------------


@st.composite
def block_comparison(draw):
    """Two matrices of one shape, made of p×q blocks: a random one and a
    copy with a few entries changed (possibly to their old value), the
    block size, and a shape of the same size other than theirs."""
    f = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(7)]))
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows, cols = p * draw(st.integers(0, 3)), q * draw(st.integers(0, 3))
    values = st.integers(-3, 3).map(f.from_int)
    cells = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0)))
    entries = {}
    if rows and cols:
        entries = dict(draw(st.lists(st.tuples(cells, values), max_size=rows * cols)))
    changed = dict(entries)
    if rows and cols:
        changed.update(draw(st.lists(st.tuples(cells, values), max_size=3)))
    other = draw(st.sampled_from([(rows + p, cols), (rows, cols + q), (cols, rows)])
                 .filter(lambda shape: shape != (rows, cols)))
    return Matrix(f, rows, cols, entries), Matrix(f, rows, cols, changed), (p, q), other


@settings(max_examples=300, deadline=None)
@given(block_comparison())
def test_differing_blocks_matches_entrywise_reference(case):
    """The blocks on which two matrices differ, and the first differing
    column within each, agree with the entry-by-entry reference; equal
    matrices have none, and two shapes raise DimensionMismatch."""
    lhs, rhs, block, other = case
    found = differing_blocks(lhs, rhs, block)
    assert found == differing_blocks_by_entries(lhs, rhs, block)
    assert found == differing_blocks(rhs, lhs, block)
    assert (found == {}) == (lhs == rhs)
    assert differing_blocks(lhs, Matrix(lhs.field, lhs.rows, lhs.cols, dict(lhs.entries)),
                            block) == {}
    with pytest.raises(DimensionMismatch):
        differing_blocks(lhs, Matrix(lhs.field, *other), block)
    with pytest.raises(DimensionMismatch):
        differing_blocks_by_entries(lhs, Matrix(lhs.field, *other), block)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(20000) if _is_prime(n)] == [n for n in range(20000) if trial(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    assert not _is_prime(3215031751)             # strong pseudoprime to 2, 3, 5, 7
    assert not _is_prime(3825123056546413051)    # strong pseudoprime to 2 … 23
    assert _is_prime(2**61 - 1) and _is_prime(10**12 - 11)


def test_large_prime_field_constructs_quickly():
    import time

    started = time.perf_counter()
    f = PrimeField(2**61 - 1)
    assert time.perf_counter() - started < 0.5
    assert f.mul(f.inv(3), 3) == 1
    with pytest.raises(ValueError):
        PrimeField(2**61 + 1)                    # divisible by 3
    with pytest.raises(ValueError):
        PrimeField(2**89 - 1)                    # prime, but beyond the certified range
