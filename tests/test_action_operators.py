"""The module actions of Γ_α as operators, against the whole actions.

The bimodule of a calculus (Fodc.to_bimodule) holds each action of Γ_α
as an operator on frames: left_of[α](W) = left_α(I⊗W) and right_of[α](W)
= right_α(W⊗I), read through lift, m_α and drop with lift·W formed first,
so that no whole action is built.  Each must equal the same product of
the whole action that the calculus builds on request (Fodc.left/right,
by its own formula drop·(m⊗I)·(I⊗lift)), for W = ω, η and a random frame,
on the universal calculus and the calculi of every named ideal on both
routes of every lawful fixture, and of Taft over F₇ and F₁₁ and the
constant family F₇[ℤ/4] over S₃.  So must the two η products that
eta_basis regroups by associativity.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from hopfpi import (
    PrimeField,
    calculus_from_ideal,
    calculus_from_ideal_right,
    constant_family,
    cyclic,
    group_algebra,
    load_document,
    right_ideal_from_generators,
    taft_hopf_algebra,
    universal_calculus,
    verify_all,
)
from hopfpi.errors import HopfPiError
from hopfpi.linalg import Matrix
from hopfpi.structure import _antipode_R, eta_basis, matrix_R
from oracles import s3_group

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
F7 = PrimeField(7)


def _cases() -> dict:
    """label -> (h, generator lists of its named ideals)."""
    out = {}
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        doc = load_document(path)
        if verify_all(doc.hopf).ok:
            out[path.name] = (lambda d=doc: (d.hopf, list(d.ideal_generators.values())))
    out["Taft/F7"] = lambda: (taft_hopf_algebra(F7), [])
    out["Taft/F11"] = lambda: (taft_hopf_algebra(PrimeField(11)), [])
    # (g − 1)² generates a proper right ideal of F₇[ℤ/4]
    out["F7[Z/4] over S3"] = lambda: (
        constant_family(group_algebra(cyclic(4), F7), s3_group()), [[[1, 5, 1, 0]]])
    return out


CASES = _cases()


def _calculi(h, ideals) -> list:
    out = [universal_calculus(h)]
    for gens in ideals:
        ideal = right_ideal_from_generators(h, gens)
        out += [calculus_from_ideal(h, ideal), calculus_from_ideal_right(h, ideal)]
    return out


def _random_frame(f, rows: int, cols: int, rng: random.Random) -> Matrix:
    return Matrix(f, rows, cols, {(r, c): rng.randrange(-3, 4)
                                  for r in range(rows) for c in range(cols)})


def _eta(cb):
    """(R, η) of a bicovariant bimodule, whatever their reports say, or
    None when they cannot be built (frames of varying size)."""
    if not cb.bicovariant:
        return None
    try:
        R, _ = matrix_R(cb)
        eta, _ = eta_basis(cb, R)
    except HopfPiError:
        return None
    return R, eta


@pytest.mark.parametrize("label", sorted(CASES))
def test_operators_equal_the_products_of_the_whole_actions(label):
    """left_of[α](W) = left_α(I⊗W) and right_of[α](W) = right_α(W⊗I)
    against the whole Fodc.left/right times I⊗W and W⊗I, for W = ω, η and
    a random frame; the bimodule's whole actions, built at W = I, are the
    calculus's."""
    h, ideals = CASES[label]()
    f = h.field
    rng = random.Random(label)
    for calc in _calculi(h, ideals):
        cb = calc.to_bimodule()
        built = _eta(cb)
        for a in h.group.elements():
            n, g = h.n(a), calc.dim(a)
            eye = Matrix.identity(f, n)
            frames = {"random": _random_frame(f, g, 3, rng)}
            if cb.delta_l is not None:
                frames["ω"] = cb.omega(a)
            if built is not None:
                frames["η"] = built[1][a]
            for name, w in frames.items():
                assert cb.left_of[a](w) == calc.left[a] @ eye.kron(w), (label, a, name)
                assert cb.right_of[a](w) == calc.right[a] @ w.kron(eye), (label, a, name)
        assert cb.left == calc.left and cb.right == calc.right, label


@pytest.mark.parametrize("label", sorted(CASES))
def test_regrouped_eta_products_equal_the_whole_ones(label):
    """right_α((Ω⊗I)Ŝ_α), the η frame, and right_α((H⊗I)R^α), which must
    give ω back, against the whole right action; H is eta_basis's frame,
    computed as right_α(Ω⊗I)·Ŝ_α, and the identity's left side as
    right_α(H⊗I)·R^α."""
    h, ideals = CASES[label]()
    f = h.field
    checked = 0
    for calc in _calculi(h, ideals):
        cb = calc.to_bimodule()
        built = _eta(cb)
        if built is None:
            continue
        R, eta = built
        for a in h.group.elements():
            eye = Matrix.identity(f, h.n(a))
            omega = cb.omega(a)
            whole = calc.right[a]
            assert eta[a] == whole @ (omega.kron(eye) @ _antipode_R(cb, R, a)), (label, a)
            assert whole @ (eta[a].kron(eye) @ R[a]) == cb.frame_matrix(a, eta[a], "right") @ R[a]
            checked += 1
    assert checked
