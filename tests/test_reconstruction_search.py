"""`reconstruct` on (f, R) data from an exhaustive search over F_3.

The candidates are finite: f ranges over the families of characters
A_α → M_size(k), one per grading, and R over the matrix corepresentations
that check_corepresentation accepts.  The data that also pass the
intertwiner identity on A_1 split in two:

* those that pass it on every grading are accepted, and the rebuilt
  bimodule passes the full law verification;
* the others are rejected as IncompatibleData, whose report names the
  intertwiner identity at the grading where it fails.

Characters are found by brute force from the structure constants, an
oracle independent of check_characters.  R^1 is found by brute force;
each other R^β as a solution of the two identities, linear in R^β, that
tie it to R^1 (the grading pairs (1, β) and (β, 1)); the assembled
families are then filtered by check_corepresentation.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from hopfpi import (
    PrimeField,
    constant_family,
    cyclic,
    group_algebra,
    reconstruct,
    taft_hopf_algebra,
)
from hopfpi.errors import IncompatibleData
from hopfpi.linalg import Matrix, kernel
from hopfpi.structure import INTERTWINER, check_corepresentation, intertwiner_report

F3 = PrimeField(3)


def _characters(h, alpha: int, size: int) -> list:
    """Every T with T_ij(1) = δ_ij and T_ij(xy) = Σ_k T_ik(x) T_kj(y) on
    A_α, as nested lists T[i][j] of components."""
    p = h.field.p
    n = h.n(alpha)
    products = {}                                       # (x, y) -> [(k, coefficient of e_k)]
    for (k, col), v in h.mult[alpha].entries.items():
        products.setdefault(divmod(col, n), []).append((k, v))
    unit = h.unit[alpha]
    out = []
    for flat in product(range(p), repeat=size * size * n):
        t = [[flat[(i * size + j) * n:(i * size + j + 1) * n] for j in range(size)]
             for i in range(size)]
        if any(sum(u * t[i][j][x] for x, u in enumerate(unit)) % p != (i == j)
               for i in range(size) for j in range(size)):
            continue
        if all(sum(v * t[i][j][k] for k, v in products.get((x, y), ())) % p
               == sum(t[i][k][x] * t[k][j][y] for k in range(size)) % p
               for x in range(n) for y in range(n) for i in range(size) for j in range(size)):
            out.append(t)
    return out


def character_families(h, size: int) -> list:
    """Every size×size family of graded characters of h, as one matrix T_α
    per grading whose row (i, j) is the character's entry (i, j) on A_α."""
    per_grading = [[Matrix(h.field, size * size, h.n(a), {
        (i * size + j, x): v for i, row in enumerate(t) for j, c in enumerate(row)
        for x, v in enumerate(c)}) for t in _characters(h, a, size)]
        for a in h.group.elements()]
    return [list(funcs) for funcs in product(*per_grading)]


def _matrix(f, rows: int, cols: int, flat) -> Matrix:
    return Matrix(f, rows, cols, {divmod(k, cols): v for k, v in enumerate(flat) if v})


def _solutions(f, rows: int, cols: int, *maps) -> list[Matrix]:
    """Every rows×cols matrix X over F_p with L(X) = 0 for each linear L
    in `maps`: the kernel of the system whose column u stacks the entries
    of every L(E_u), E_u the u-th matrix unit."""
    system: dict = {}
    offset = 0
    for linear in maps:
        for u in range(rows * cols):
            img = linear(_matrix(f, rows, cols, [int(k == u) for k in range(rows * cols)]))
            system.update({(offset + r * img.cols + c, u): v for (r, c), v in img.entries.items()})
        offset += img.rows * img.cols
    basis = kernel(Matrix(f, offset, rows * cols, system)).basis.to_rows()
    return [_matrix(f, rows, cols, [sum(c * b[k] for c, b in zip(coeffs, basis)) % f.p
                                    for k in range(rows * cols)])
            for coeffs in product(range(f.p), repeat=len(basis))]


def corepresentations(h, size: int) -> list[list[Matrix]]:
    """Every family R (one R^β per grading) that check_corepresentation accepts."""
    f = h.field
    grp = h.group
    e = grp.identity
    n1 = h.n(e)
    eye = Matrix.identity(f, size)
    firsts = []
    for flat in product(range(f.p), repeat=size * n1 * size):
        r = _matrix(f, size * n1, size, flat)
        if (r.on_leg(h.counit, size, 1, 0) == eye
                and r.on_leg(h.comult[(e, e)], size, 1, 0) == r.on_leg(r, 1, n1, 0)):
            firsts.append(r)
    out = []
    for r1 in firsts:
        choices = []
        for b in grp.elements():
            nb = h.n(b)
            if b == e:
                choices.append([r1])
                continue
            choices.append(_solutions(
                f, size * nb, size,
                lambda x, b=b, nb=nb: x.on_leg(h.comult[(e, b)], size, 1, 0) - x.on_leg(r1, 1, nb, 0),
                lambda x, b=b: x.on_leg(h.comult[(b, e)], size, 1, 0) - r1.on_leg(x, 1, n1, 0)))
        out += [list(R) for R in product(*choices) if check_corepresentation(h, list(R)).ok]
    return out


def admissible_on_one(h, size: int):
    """Every (f, R) of characters and a corepresentation that pass the
    intertwiner on A_1, with whether they pass it on every grading."""
    e = h.group.identity
    reps = corepresentations(h, size)
    for funcs in character_families(h, size):
        for R in reps:
            if intertwiner_report(h, funcs, funcs, R, [e]).ok:
                yield funcs, R, intertwiner_report(h, funcs, funcs, R, h.group.elements()).ok


def _frame_one_families():
    """(label, constant family over F_3, admissible inputs on frame size 1)."""
    return [
        ("Taft over F_3, constant over Z/2", constant_family(taft_hopf_algebra(F3), cyclic(2)), 8),
        ("F_3[Z/3], constant over Z/2", constant_family(group_algebra(cyclic(3), F3), cyclic(2)), 6),
        ("F_3[Z/2], constant over Z/3", constant_family(group_algebra(cyclic(2), F3), cyclic(3)), 16),
    ]


@pytest.mark.parametrize("label, h, count", _frame_one_families(),
                         ids=[label for label, _, _ in _frame_one_families()])
def test_frame_one_search_reconstructs_lawful_bimodules(label, h, count):
    """Frame size 1: every admissible input passes the intertwiner on every
    grading, and each rebuilt bimodule passes the full law verification."""
    found = list(admissible_on_one(h, 1))
    assert len(found) == count
    for funcs, R, everywhere in found:
        assert everywhere
        assert reconstruct(h, funcs, R, 1).verify().ok


@pytest.fixture(scope="module")
def frame_two_sample():
    """A fixed sample of the frame-size-2 search on the constant family of
    F_3[Z/2] over Z/2 (196 character families × 76 corepresentations;
    4 816 inputs pass the intertwiner on every grading, 3 360 on A_1 only),
    split by whether the intertwiner holds on every grading."""
    h = constant_family(group_algebra(cyclic(2), F3), cyclic(2))
    families = character_families(h, 2)
    reps = corepresentations(h, 2)
    assert (len(families), len(reps)) == (196, 76)
    e = h.group.identity
    split = {True: [], False: []}
    pairs = random.Random(2005).sample(range(len(families) * len(reps)), 1000)
    for k in pairs:
        funcs, R = families[k // len(reps)], reps[k % len(reps)]
        if intertwiner_report(h, funcs, funcs, R, [e]).ok:
            everywhere = intertwiner_report(h, funcs, funcs, R, h.group.elements()).ok
            split[everywhere].append((funcs, R))
    return h, split


def test_frame_two_intertwiner_on_every_grading_gives_lawful_bimodules(frame_two_sample):
    h, split = frame_two_sample
    accepted = split[True]
    assert len(accepted) >= 12
    for funcs, R in accepted:
        assert reconstruct(h, funcs, R, 2).verify().ok


def test_frame_two_intertwiner_on_one_only_is_incompatible(frame_two_sample):
    """Data that pass every identity but the intertwiner on A_s are rejected
    with the intertwiner violation at s, not built into a lawless bimodule."""
    h, split = frame_two_sample
    rejected = split[False]
    assert len(rejected) >= 12
    for funcs, R in rejected:
        with pytest.raises(IncompatibleData) as err:
            reconstruct(h, funcs, R, 2)
        assert {(v.check, v.grading) for v in err.value.report.violations} == {(INTERTWINER, (1,))}
