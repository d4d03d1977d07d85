"""Identities decided on the generators of A_α against their whole products.

verify_hopf decides associativity on the triples (a, b, s) and the
multiplicativity of Δ_{α,β}, ε, S_α and Ψ_α on the pairs (b, s), s in the
generators S of A_α (hopf.algebra_generators); check_characters decides
φ(ab) = φ(a)φ(b) on the pairs (a, s), and check_convolution_inverses
evaluates its two identities at 1 and on S.  Each computes the whole
product when the reduced identity or one of its preconditions fails, so
every report must equal the one that the whole products of `oracles`
give, violation for violation: on structures with one entry of m_α,
Δ_{α,β}, S_α, Ψ_α, ε or of the functionals T_α bumped, on random
multiplications, unital or not, and on maps Ψ that are multiplicative on
A × {s₁} but not on A × A.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfpi import (
    HopfPiCoalgebra,
    algebra_generators,
    constant_family,
    cyclic,
    extract_structure,
    group_algebra,
    taft_hopf_algebra,
    universal_calculus,
    verify_all,
    verify_hopf,
)
from hopfpi.hopf import _algebra_laws
from hopfpi.linalg import Matrix, PrimeField, QQ
from hopfpi.structure import (
    _collapse,
    check_characters,
    check_convolution_inverses,
    coefficient_maps,
)
from oracles import (
    algebra_laws_by_whole_products,
    characters_by_whole_products,
    convolution_inverses_by_whole_products,
    hopf_laws_by_whole_products,
    s3_group,
    twisted_f7_z7,
    unshared,
)

F7 = PrimeField(7)


def _constructors():
    out = {}
    for n in range(1, 7):
        out[f"Q[Z/{n}]"] = lambda n=n: group_algebra(cyclic(n), QQ)
        out[f"F7[Z/{n}]"] = lambda n=n: group_algebra(cyclic(n), F7)
    out["Taft/F7"] = lambda: taft_hopf_algebra(F7)
    out["Taft/F11"] = lambda: taft_hopf_algebra(PrimeField(11))
    out["F7[S3]"] = lambda: group_algebra(s3_group(), F7)
    out["F7[Z/4] over S3"] = lambda: constant_family(group_algebra(cyclic(4), F7), s3_group())
    out["twisted F7[Z/7]"] = twisted_f7_z7
    return out


CONSTRUCTORS = _constructors()
NAMES = sorted(CONSTRUCTORS)
KINDS = ("mult", "comult", "antipode", "psi", "counit", "functionals")


@lru_cache(maxsize=None)
def _structure(name: str) -> HopfPiCoalgebra:
    return CONSTRUCTORS[name]()


@lru_cache(maxsize=None)
def _functionals(name: str) -> tuple:
    """T_α of the universal calculus, one per grading, unchecked."""
    bim = universal_calculus(_structure(name)).to_bimodule()
    h = bim.h
    return tuple(_collapse(h, coefficient_maps(bim, [bim.omega(a) for a in h.group.elements()])))


def _bump(m: Matrix, r: int, c: int, delta) -> Matrix:
    f = m.field
    entries = dict(m.entries)
    entries[(r, c)] = f.add(m[r, c], delta)
    return Matrix(f, m.rows, m.cols, entries)


def _with(h: HopfPiCoalgebra, kind: str, key, new: Matrix) -> HopfPiCoalgebra:
    """h with the matrix of `kind` at `key` replaced; every other matrix is
    shared with h."""
    parts = {"mult": list(h.mult), "comult": dict(h.comult), "antipode": list(h.antipode),
             "psi": list(h.psi), "counit": h.counit}
    if kind == "counit":
        parts["counit"] = new
    else:
        parts[kind][key] = new
    return HopfPiCoalgebra(h.group, h.field, h.dims, parts["comult"], parts["counit"],
                           parts["mult"], h.unit, parts["antipode"], psi=parts["psi"],
                           basis_names=h.basis_names)


def _draw_entry(data, m: Matrix) -> tuple:
    return (data.draw(st.integers(0, m.rows - 1), label="row"),
            data.draw(st.integers(0, m.cols - 1), label="column"))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NAMES), st.sampled_from(KINDS), st.data())
def test_reduced_identities_report_what_the_whole_products_report(name, kind, data):
    """One entry of m_α, Δ_{α,β}, S_α, Ψ_α, ε or T_α bumped by a nonzero
    scalar: verify_hopf, check_characters and check_convolution_inverses
    give the violations of the whole products, entry for entry."""
    h = _structure(name)
    f = h.field
    delta = data.draw(st.integers(1, 6).map(f.from_int), label="delta")
    gradings = st.sampled_from(list(h.group.elements()))
    if kind == "functionals":
        funcs = list(_functionals(name))
        a = data.draw(gradings, label="grading")
        assume(funcs[a].rows)                  # k[ℤ/1] has an empty frame
        funcs[a] = _bump(funcs[a], *_draw_entry(data, funcs[a]), delta)
        assert check_characters(h, funcs).violations == \
            characters_by_whole_products(h, funcs).violations
        assert check_convolution_inverses(h, funcs).violations == \
            convolution_inverses_by_whole_products(h, funcs).violations
        return
    if kind == "counit":
        key, old = None, h.counit
    elif kind == "comult":
        key = data.draw(st.sampled_from(sorted(h.comult)), label="pair")
        old = h.comult[key]
    else:
        key = data.draw(gradings, label="grading")
        old = getattr(h, kind)[key]
    bumped = _with(h, kind, key, _bump(old, *_draw_entry(data, old), delta))
    assert verify_hopf(bumped).violations == hopf_laws_by_whole_products(bumped).violations


@pytest.mark.parametrize("name", NAMES)
def test_lawful_structures_agree_with_the_whole_products(name):
    """Unbumped: the axioms, and the characters and convolution inverses
    of the universal calculus's f, read as the whole products do."""
    h = _structure(name)
    funcs = list(_functionals(name))
    assert verify_hopf(h).violations == hopf_laws_by_whole_products(h).violations == []
    assert check_characters(h, funcs).violations == \
        characters_by_whole_products(h, funcs).violations
    assert check_convolution_inverses(h, funcs).violations == \
        convolution_inverses_by_whole_products(h, funcs).violations


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([QQ, PrimeField(2), PrimeField(3), F7]), st.integers(1, 4),
       st.booleans(), st.data())
def test_associativity_on_generators_matches_the_triple_product(field, n, unital, data):
    """On a random multiplication, associative or not, with 1 = e_0 a unit
    (both unit laws forced) or a random vector, _algebra_laws reports the
    violations of the n³ product: its verdict and every witness."""
    scalars = st.integers(min_value=0, max_value=2).map(field.from_int)
    entries = {(r, c): data.draw(scalars) for r in range(n) for c in range(n * n)}
    if unital:
        unit = tuple(field.one() if i == 0 else field.zero() for i in range(n))
        for j in range(n):
            for c in (j, j * n):            # e_0·e_j and e_j·e_0
                for r in range(n):
                    entries[(r, c)] = field.one() if r == j else field.zero()
    else:
        unit = tuple(data.draw(st.lists(scalars, min_size=n, max_size=n)))
    m = Matrix(field, n, n * n, entries)
    names = tuple(f"x{i}" for i in range(n))
    assert _algebra_laws(m, unit, names, algebra_generators(m, unit)) == \
        algebra_laws_by_whole_products(m, unit, names)


def _psi_on_first_generator(h: HopfPiCoalgebra) -> Matrix:
    """A unital Ψ : A → A that is multiplicative on A × {s₁} and not on
    A × A, s₁ the first generator: Ψ = id + D, with D(c·w) = w for the right
    words w in s₁ and one basis vector c outside them (c = x on Taft, a
    permutation outside ⟨s₁⟩ on k[S₃]), and D zero on the other right
    cosets.  Then D(y·s₁) = D(y)·s₁, so Ψ(y·s₁) = Ψ(y)Ψ(s₁)."""
    f = h.field
    n = h.n(0)
    m = h.mult[0]
    s1 = algebra_generators(m, h.unit[0])[0]
    one = [i for i, x in enumerate(h.unit[0]) if x][0]
    words, w = [one], one                    # basis indices 1, s₁, s₁², … (group-like words)
    while True:
        w = next(r for (r, col), _ in m.entries.items() if col == w * n + s1)
        if w == one:
            break
        words.append(w)
    c = next(i for i in range(n) if i not in words)
    entries = dict(Matrix.identity(f, n).entries)
    for w in words:
        cw = m.on_leg(Matrix.column(f, [f.one() if i == w else f.zero() for i in range(n)]),
                      n, 1, 1).col(c)                       # c·w
        k, coeff = next((k, x) for k, x in enumerate(cw) if x)
        entries[(w, k)] = f.add(entries.get((w, k), f.zero()), f.inv(coeff))
    return Matrix(f, n, n, entries)


@pytest.mark.parametrize("name", ["Taft/F7", "Taft/F11", "F7[S3]"])
def test_a_map_multiplicative_on_the_first_generator_only_is_reported(name):
    """Ψ multiplicative on A × {s₁} but not on A × A fails psi-multiplicative
    on the second generator's columns: the check reads every generator of
    A, and reports the violations of the whole product."""
    h = _structure(name)
    psi = _psi_on_first_generator(h)
    bumped = _with(h, "psi", 0, psi)
    report = verify_hopf(bumped)
    assert report.violations == hopf_laws_by_whole_products(bumped).violations
    assert {v.check for v in report.violations} == {"psi-multiplicative"}


def test_convolution_inverses_of_a_non_character_are_read_on_every_column():
    """f on F₇[ℤ/4] bumped at g², neither 1 nor the generator g: Φ = Σ G(a₂)F(a₁)
    still equals εI at 1 and at g, since Φ(g) = F(g³)F(g), but f is no
    character, so the convolution inverses are read on every column and
    fail at g² as the whole product does."""
    h = _structure("F7[Z/4]")
    funcs = list(_functionals("F7[Z/4]"))
    funcs[0] = _bump(funcs[0], 0, 2, F7.one())
    report = check_convolution_inverses(h, funcs)
    assert report.violations == convolution_inverses_by_whole_products(h, funcs).violations
    assert report.violations


def test_generators_are_found_once_per_multiplication_and_unit_in_verify_and_structure(
        monkeypatch):
    """verify_hopf and the structure checks read the generators of each
    A_α from h.shared: on the F₇[ℤ/4] family over S₃ they are found once
    for its one (m_α, 1_α), and on its unshared copy once per grading."""
    import hopfpi.hopf as hopf_mod
    import hopfpi.structure as structure_mod

    h = constant_family(group_algebra(cyclic(4), F7), s3_group())   # verifies A_1 alone
    copy = unshared(h)
    found = Counter()
    real = hopf_mod.algebra_generators

    def counted(m, unit):
        found[(id(m), id(unit))] += 1
        return real(m, unit)

    monkeypatch.setattr(hopf_mod, "algebra_generators", counted)
    monkeypatch.setattr(structure_mod, "algebra_generators", counted)
    for family in (h, copy):
        assert verify_all(family).ok
        assert extract_structure(universal_calculus(family).to_bimodule()).report.ok
    assert found == Counter({(id(h.mult[0]), id(h.unit[0])): 1,
                             **{(id(copy.mult[a]), id(copy.unit[a])): 1
                                for a in copy.group.elements()}})
