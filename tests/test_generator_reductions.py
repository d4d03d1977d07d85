"""Identities decided on the generators of A_α against their whole products.

verify_hopf decides associativity on the triples (a, b, s) and the
multiplicativity of Δ_{α,β}, ε, S_α and Ψ_α on the pairs (b, s), s in the
generators S of A_α (hopf.algebra_generators); check_characters decides
φ(ab) = φ(a)φ(b) on the pairs (a, s).  Each computes the whole product
when the reduced identity or one of its preconditions fails, so every
report must equal the one that the whole products of `oracles` give,
violation for violation: on structures with one entry of m_α, Δ_{α,β},
S_α, Ψ_α, ε or of the functionals T_α bumped, on random multiplications,
unital or not, and on maps Ψ that are multiplicative on A × {s₁} but not
on A × A.  check_convolution_inverses computes nothing for a character
of A_1 on a lawful structure, where its identities are a theorem, and
must still report what the whole products report.

The round trip of extract_structure compares only the coactions, the
actions being implied by the commutation rule; with the whole round trip
of `oracles` patched in, every extraction must report the same.
reconstruction_matches compares both actions of any two bimodules on
every column, also against a bimodule rebuilt in another frame.  The
generators themselves must be those of the closure that row-reduces all
of W and W·S at every step.

The Leibniz rule and Γ = A·d(A) are theorems on a lawful structure, so
no lawful calculus computes either: the universal calculus and every
named ideal's calculi of the lawful fixtures, and the calculi of Taft/F₇
and F₇[ℤ/4] over S₃.  The whole products must find no violation there
either.  On the calculus of N = 0 over a structure that fails a unit
law, the reports must be the whole products', violation for violation:
with one entry of m_α bumped in the column of 1⊗1, the Leibniz rule
fails, and with 1_α = 0, surjectivity fails at α.
"""

from __future__ import annotations

import copy
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import hopfpi.calculus as calculus_mod
import hopfpi.structure as structure_mod
from hopfpi import (
    Fodc,
    HopfPiCoalgebra,
    algebra_generators,
    calculus_from_ideal,
    calculus_from_ideal_right,
    calculus_from_kernels,
    check_bicovariant,
    constant_family,
    cyclic,
    extract_structure,
    group_algebra,
    load_document,
    reconstruct,
    reconstruction_matches,
    right_ideal_from_generators,
    taft_hopf_algebra,
    universal_calculus,
    verify_all,
    verify_hopf,
)
from hopfpi.hopf import Violation, _algebra_laws
from hopfpi.linalg import Matrix, PrimeField, QQ, Subspace, unit_vec
from hopfpi.structure import (
    ROUNDTRIP,
    _collapse,
    check_characters,
    check_commutation_rule,
    check_convolution_inverses,
    check_left_multiplication_rule,
    coefficient_maps,
    functionals_f,
)
from oracles import (
    algebra_generators_by_closure,
    algebra_laws_by_whole_products,
    characters_by_whole_products,
    convolution_inverses_by_whole_products,
    extraction_roundtrip_by_whole_products,
    hopf_laws_by_whole_products,
    leibniz_by_whole_products,
    reconstruction_matches_by_whole_products,
    restricted_line,
    s3_group,
    surjectivity_by_whole_left,
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
    # the unit is the last basis vector, so the generators are 0 and 1
    out["F7[S3], unit last"] = lambda: group_algebra(s3_group(reverse=True), F7)
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


def _with(h: HopfPiCoalgebra, kind: str, key, new) -> HopfPiCoalgebra:
    """h with the matrix (or unit tuple) of `kind` at `key` replaced; every
    other one is shared with h."""
    parts = {"mult": list(h.mult), "comult": dict(h.comult), "antipode": list(h.antipode),
             "psi": list(h.psi), "counit": h.counit, "unit": list(h.unit)}
    if kind == "counit":
        parts["counit"] = new
    else:
        parts[kind][key] = new
    return HopfPiCoalgebra(h.group, h.field, h.dims, parts["comult"], parts["counit"],
                           parts["mult"], parts["unit"], parts["antipode"], psi=parts["psi"],
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
    for a in bumped.group.elements():
        m, unit = bumped.mult[a], bumped.unit[a]
        assert algebra_generators(m, unit) == algebra_generators_by_closure(m, unit)


@pytest.mark.parametrize("name", NAMES)
def test_lawful_structures_agree_with_the_whole_products(name):
    """Unbumped: the axioms, and the characters and convolution inverses
    of the universal calculus's f, read as the whole products do."""
    h = _structure(name)
    funcs = list(_functionals(name))
    for a in h.group.elements():
        assert algebra_generators(h.mult[a], h.unit[a]) == \
            algebra_generators_by_closure(h.mult[a], h.unit[a])
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
    gens = algebra_generators(m, unit)
    assert gens == algebra_generators_by_closure(m, unit)
    assert _algebra_laws(m, unit, names, gens) == algebra_laws_by_whole_products(m, unit, names)


def _coset_of_first_generator(h: HopfPiCoalgebra) -> list[tuple]:
    """(w, k, x) for each right word w = 1, s₁, s₁², … in the first
    generator s₁ of A_1 (group-like, so each word is a basis vector), with
    c·w = x e_k for one basis vector c outside the words (c = x on Taft, a
    permutation outside ⟨s₁⟩ on k[S₃]).  Right multiplication by s₁ maps
    the coset c·⟨s₁⟩ onto itself, and each other right coset onto itself."""
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
    out = []
    for w in words:
        cw = m.on_leg(Matrix.column(f, unit_vec(f, n, w)), n, 1, 1).col(c)     # c·w
        k, coeff = next((k, x) for k, x in enumerate(cw) if x)
        out.append((w, k, coeff))
    return out


def _psi_on_first_generator(h: HopfPiCoalgebra) -> Matrix:
    """A unital Ψ : A → A that is multiplicative on A × {s₁} and not on
    A × A, s₁ the first generator: Ψ = id + D, with D(c·w) = w for the right
    words w in s₁, and D zero on the other right cosets.  Then
    D(y·s₁) = D(y)·s₁, so Ψ(y·s₁) = Ψ(y)Ψ(s₁)."""
    f = h.field
    entries = dict(Matrix.identity(f, h.n(0)).entries)
    for w, k, coeff in _coset_of_first_generator(h):
        entries[(w, k)] = f.add(entries.get((w, k), f.zero()), f.inv(coeff))
    return Matrix(f, h.n(0), h.n(0), entries)


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


def test_convolutions_are_computed_only_where_the_inverses_are_no_theorem(monkeypatch):
    """On a lawful structure a character's convolution inverses are a
    theorem: neither check_convolution_inverses nor the extraction
    convolves.  The non-character of the test above is still convolved."""
    h = _structure("F7[Z/4]")
    bim = universal_calculus(h).to_bimodule()
    funcs = list(_functionals("F7[Z/4]"))
    calls = []
    real = structure_mod._convolve
    monkeypatch.setattr(structure_mod, "_convolve", lambda *args: calls.append(1) or real(*args))
    assert check_convolution_inverses(h, funcs).ok
    assert extract_structure(bim).report.ok
    assert calls == []
    funcs[0] = _bump(funcs[0], 0, 2, F7.one())
    assert not check_convolution_inverses(h, funcs).ok
    assert calls


def test_functionals_f_reads_its_character_verdict_for_the_convolution_inverses():
    """The same f reached through functionals_f, with F bumped at
    F_00(g²): its report takes the precondition of the convolution inverses
    from its own character identities, so they too are read on every
    column, as the whole products give them."""
    h = _structure("F7[Z/4]")
    bim = universal_calculus(h).to_bimodule()
    omega = [bim.omega(a) for a in h.group.elements()]
    F = coefficient_maps(bim, omega)
    F[0] = _bump(F[0], 0, 2, F7.one())                  # row ((0, 0), e), column g²
    funcs, report = functionals_f(bim, F)
    assert funcs[0] == _bump(_functionals("F7[Z/4]")[0], 0, 2, F7.one())
    whole = (check_commutation_rule(h, F, funcs, "left")
             .merge(characters_by_whole_products(h, funcs, "f"))
             .merge(check_left_multiplication_rule(bim, omega, funcs, "left"))
             .merge(convolution_inverses_by_whole_products(h, funcs)))
    assert report.violations == whole.violations
    assert convolution_inverses_by_whole_products(h, funcs).violations


def test_generators_are_found_once_per_multiplication_and_unit_in_verify_and_structure(
        monkeypatch):
    """verify_hopf and the structure checks read the generators of each
    A_α from h.shared: on the F₇[ℤ/4] family over S₃ they are found once
    for its one (m_α, 1_α), and on its unshared copy once per grading."""
    import hopfpi.hopf as hopf_mod

    h = constant_family(group_algebra(cyclic(4), F7), s3_group())   # verifies A_1 alone
    copy = unshared(h)
    found = Counter()
    real = hopf_mod.algebra_generators

    def counted(m, unit):
        found[(id(m), id(unit))] += 1
        return real(m, unit)

    monkeypatch.setattr(hopf_mod, "algebra_generators", counted)
    for family in (h, copy):
        assert verify_all(family).ok
        assert extract_structure(universal_calculus(family).to_bimodule()).report.ok
    assert found == Counter({(id(h.mult[0]), id(h.unit[0])): 1,
                             **{(id(copy.mult[a]), id(copy.unit[a])): 1
                                for a in copy.group.elements()}})


# -- the round trip's action comparison ---------------------------------------

ROUNDTRIP_NAMES = ["F7[S3]", "F7[S3], unit last", "Taft/F7", "Taft/F11", "F7[Z/4] over S3",
                   "twisted F7[Z/7]"]
NON_SCALAR_F = ["F7[S3]", "F7[S3], unit last", "Taft/F7", "Taft/F11"]
FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
LAWFUL_FIXTURES = sorted(p.name for p in FIXTURE_DIR.glob("*.json")
                         if verify_all(load_document(p).hopf).ok)


@lru_cache(maxsize=None)
def _extracted(name: str):
    bim = universal_calculus(_structure(name)).to_bimodule()
    return bim, extract_structure(bim)


def _in_another_frame(name: str):
    """The bimodule rebuilt from the (f, R) data of the frame ω′_i =
    Σ_k Q_ik ω_k, Q unitriangular with ones on and above the diagonal:
    f′ = Q f Q⁻¹ and R′ = Q⁻ᵀ R Qᵀ.  It is lawful and isomorphic to Γ, but
    its right action differs from Γ's in the ω coordinates wherever Q does
    not commute with f."""
    h = _structure(name)
    f = h.field
    _, data = _extracted(name)
    size = data.size
    q = Matrix(f, size, size, {(i, j): f.one() for i in range(size) for j in range(i, size)})
    q_inv_t = q.inverse().transpose()
    funcs = [q.kron(q_inv_t) @ t for t in data.f]          # row (i, j): Σ Q_ik f_kl Q⁻¹_lj
    R = [q_inv_t.kron(Matrix.identity(f, h.n(b))) @ r @ q.transpose()
         for b, r in enumerate(data.R)]
    return reconstruct(h, funcs, R, size)


@pytest.mark.parametrize("name", ROUNDTRIP_NAMES)
def test_roundtrip_against_the_rebuilt_bimodule_matches_the_whole_products(name):
    """reconstruction_matches of Γ and the bimodule rebuilt from its own
    (f, R) reports what the comparison on every column reports: nothing."""
    bim, data = _extracted(name)
    rebuilt = reconstruct(_structure(name), data.f, data.R, data.size)
    assert reconstruction_matches(bim, rebuilt).violations == \
        reconstruction_matches_by_whole_products(bim, rebuilt).violations == []


@pytest.mark.parametrize("name", NON_SCALAR_F)
def test_roundtrip_against_another_frame_reports_the_whole_products_violations(name):
    """Γ against its own data in another frame: the right actions differ,
    and every violation and witness is the whole comparison's, entry for
    entry."""
    bim, _ = _extracted(name)
    rebuilt = _in_another_frame(name)
    report = reconstruction_matches(bim, rebuilt)
    assert report.violations == reconstruction_matches_by_whole_products(bim, rebuilt).violations
    assert "the right action differs from the rebuilt one" in {v.detail for v in report.violations}


@pytest.mark.parametrize("name", ROUNDTRIP_NAMES)
def test_roundtrip_reports_a_bumped_rebuilt_action_as_the_reference_does(name):
    """One entry of the rebuilt left action and one of the rebuilt right
    action bumped, at the last grading: reconstruction_matches reports
    each action there, witnessed by the bumped column, and so does the
    reference that compares the actions one basis vector at a time."""
    bim, data = _extracted(name)
    h = _structure(name)
    last = h.group.order - 1
    bad = copy.copy(reconstruct(h, data.f, data.R, data.size))
    bad.left, bad.right = list(bad.left), list(bad.right)
    bumped = []
    for side in ("left", "right"):
        whole = getattr(bad, side)
        m = whole[last]
        whole[last] = _bump(m, m.rows // 2, m.cols // 2, h.field.one())
        bumped.append((ROUNDTRIP, (last,), m.cols // 2,
                       f"the {side} action differs from the rebuilt one"))
    report = reconstruction_matches(bim, bad)
    assert [(v.check, v.grading, v.basis_index, v.detail) for v in report.violations] == bumped
    assert report.violations == reconstruction_matches_by_whole_products(bim, bad).violations


def _bicovariant_calculi(h: HopfPiCoalgebra, ideals) -> list[Fodc]:
    """The universal calculus and each ideal's calculus on both routes,
    those that are bicovariant."""
    calcs = [universal_calculus(h)] + [_on_route(h, route, gens)
                                       for gens in ideals for route in ("left", "right")]
    return [calc for calc in calcs if check_bicovariant(calc).ok]


def _with_ideals(label: str) -> tuple:
    """h and the generator lists of its named ideals: a lawful fixture's,
    or a ROUNDTRIP_NAMES structure with none."""
    if label in CONSTRUCTORS:
        return _structure(label), []
    doc = load_document(FIXTURE_DIR / label)
    return doc.hopf, list(doc.ideal_generators.values())


@pytest.mark.parametrize("label", ROUNDTRIP_NAMES + LAWFUL_FIXTURES)
def test_extraction_roundtrip_reports_what_the_whole_comparison_reports(label, monkeypatch):
    """extract_structure with the whole round trip of `oracles` patched in
    (the bimodule rebuilt from (f, R), both actions and both coactions
    compared on every column), and the convolution inverses computed on
    every column, gives the same report: on the universal calculus of each
    ROUNDTRIP_NAMES structure, Taft among them, and on every lawful
    fixture's universal calculus and named ideals' calculi on both routes.
    The round trip runs on each ROUNDTRIP_NAMES structure and passes; on
    Taft the η-side checks fail before it (S² ≠ id)."""
    h, ideals = _with_ideals(label)
    for calc in _bicovariant_calculi(h, ideals):
        bim = calc.to_bimodule()
        data = extract_structure(bim)
        with monkeypatch.context() as patch:
            patch.setattr(structure_mod, "_roundtrip", extraction_roundtrip_by_whole_products)
            patch.setattr(structure_mod, "_convolution_inverses_unless",
                          lambda h, funcs, implied: convolution_inverses_by_whole_products(h, funcs))
            whole = extract_structure(bim)
        assert data.report.violations == whole.report.violations
        assert data.not_run == whole.not_run
    if label in CONSTRUCTORS:              # its universal calculus alone
        assert ROUNDTRIP not in data.not_run
        assert ROUNDTRIP not in {v.check for v in data.report.violations}


def test_extraction_roundtrip_reports_a_coaction_bumped_outside_its_laws(monkeypatch):
    """Γ with one entry of Δ^l_{s,1} bumped and its laws not verified
    again: f and R are extracted as before, and the round trip reports Δ^l
    at (s, 1), as the whole round trip does."""
    h = _structure("F7[Z/4] over S3")
    bim = universal_calculus(h).to_bimodule()
    e = h.group.identity
    s = next(a for a in h.group.elements() if a != e)
    bad = copy.copy(bim)
    bad.delta_l = dict(bim.delta_l)
    d = bim.delta_l[(s, e)]
    bad.delta_l[(s, e)] = _bump(d, 0, d.cols - 1, F7.one())
    data = extract_structure(bad)
    assert data.f is not None and data.R is not None
    assert [(v.grading, v.detail) for v in data.report.violations if v.check == ROUNDTRIP] == [
        ((s, e), "Δ^l differs from the rebuilt one")]
    monkeypatch.setattr(structure_mod, "_roundtrip", extraction_roundtrip_by_whole_products)
    assert extract_structure(bad).report.violations == data.report.violations


@pytest.mark.parametrize("name", ROUNDTRIP_NAMES + ["F7[Z/6]", "Q[Z/5]"])
def test_extraction_rebuilds_and_compares_no_action(name, monkeypatch):
    """The round trip of extract_structure runs and passes, and neither
    rebuilds an action (_rebuilt_left, _rebuilt_right) nor compares one
    (_action_matches): the commutation rule implies that the actions
    agree."""
    bim = universal_calculus(CONSTRUCTORS[name]()).to_bimodule()
    called = []
    for attr in ("_rebuilt_left", "_rebuilt_right", "_action_matches"):
        monkeypatch.setattr(structure_mod, attr, lambda *args, attr=attr, real=getattr(
            structure_mod, attr): called.append(attr) or real(*args))
    data = extract_structure(bim)
    assert ROUNDTRIP not in data.not_run
    assert ROUNDTRIP not in {v.check for v in data.report.violations}
    assert called == []


# -- the Leibniz rule and surjectivity of a calculus ---------------------------

LEIBNIZ_CONSTRUCTORS = {**CONSTRUCTORS, "F2[x]/(x^2)": lambda: restricted_line(2),
                        "F3[x]/(x^3)": lambda: restricted_line(3)}
LEIBNIZ_NAMES = sorted(LEIBNIZ_CONSTRUCTORS)
ROUTES = ("universal", "left", "right")


def _square_of_first_generator(h: HopfPiCoalgebra) -> tuple:
    """(s₁ − ε(s₁)1)², s₁ the first generator of A_1: a vector of ker ε,
    whose right ideal is proper on every structure here; 0 on A_1 = k,
    which has no generator."""
    f = h.field
    e = h.group.identity
    n = h.n(e)
    gens = algebra_generators(h.mult[e], h.unit[e])
    if not gens:
        return (f.zero(),) * n
    s1 = gens[0]
    eps = h.counit[0, s1]
    v = Matrix.column(f, [f.sub(x, f.mul(eps, u)) for x, u in zip(unit_vec(f, n, s1), h.unit[e])])
    return h.mult[e].on_leg(v, n, 1, 1).on_leg(v, 1, 1, 1).col(0)


def _on_route(h: HopfPiCoalgebra, route: str, gens) -> Fodc:
    if route == "universal":
        return universal_calculus(h)
    ideal = right_ideal_from_generators(h, gens)
    return (calculus_from_ideal if route == "left" else calculus_from_ideal_right)(h, ideal)


@lru_cache(maxsize=None)
def _leibniz_structure(name: str) -> HopfPiCoalgebra:
    return LEIBNIZ_CONSTRUCTORS[name]()


@lru_cache(maxsize=None)
def _calculus(name: str, route: str) -> Fodc:
    """The calculus of `route`: universal, or of the right ideal of
    (s₁ − ε(s₁)1)² on the left or the right route."""
    h = _leibniz_structure(name)
    return _on_route(h, route, [_square_of_first_generator(h)])


def _unit_index(h: HopfPiCoalgebra, alpha: int) -> int:
    return next(i for i, x in enumerate(h.unit[alpha]) if x)


def _zero_calculus(h: HopfPiCoalgebra) -> Fodc:
    """The calculus of N = 0 through the public constructor, which builds
    it on a structure that fails an axiom."""
    return calculus_from_kernels(h, [Subspace.zero_space(h.field, h.n(a) ** 2)
                                     for a in h.group.elements()])


def _assert_reports_match(calc: Fodc) -> tuple[list, list]:
    """The Leibniz and surjectivity violations, each equal to the whole
    products' of `oracles`."""
    leibniz = calc.leibniz_report().violations
    assert leibniz == leibniz_by_whole_products(calc).violations
    surjectivity = calc.surjectivity_report().violations
    assert surjectivity == surjectivity_by_whole_left(calc).violations
    return leibniz, surjectivity


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NAMES), st.data())
def test_leibniz_with_m_bumped_in_its_unit_column_reports_the_whole_products(name, data):
    """One entry of m_α bumped by a nonzero scalar in the column of 1_α⊗1_α,
    so that the unit laws fail, and the calculus of N = 0: the Leibniz
    rule is no theorem there, and leibniz_report gives the violations of
    d·m against the whole actions, entry for entry, and at least one;
    surjectivity gives the rank read off the whole left action."""
    h = _structure(name)
    a = data.draw(st.sampled_from(list(h.group.elements())), label="grading")
    n = h.n(a)
    assume(n > 1)                        # on k[ℤ/1], d_α = 0 for any m_α
    u = _unit_index(h, a)
    r = data.draw(st.integers(0, n - 1), label="row")
    delta = data.draw(st.integers(1, 6).map(h.field.from_int).filter(bool), label="delta")
    leibniz, _ = _assert_reports_match(
        _zero_calculus(_with(h, "mult", a, _bump(h.mult[a], r, u * n + u, delta))))
    assert leibniz


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(NAMES), st.data())
def test_surjectivity_with_a_zero_unit_reports_the_whole_left_action(name, data):
    """1_α = 0 at one grading, and the calculus of N = 0: D_α = 0, so
    d_α = 0 and the span of a·d(b) is 0, short of Γ_α = ker m_α.
    surjectivity_report says so at α alone, as the rank read off the whole
    left action does, and the Leibniz rule holds with d_α = 0."""
    h = _structure(name)
    a = data.draw(st.sampled_from(list(h.group.elements())), label="grading")
    assume(h.n(a) > 1)                   # Γ_α = 0 on k[ℤ/1]
    calc = _zero_calculus(_with(h, "unit", a, (h.field.zero(),) * h.n(a)))
    leibniz, surjectivity = _assert_reports_match(calc)
    assert leibniz == []
    assert surjectivity == [Violation("surjectivity", (a,), None,
                                      f"span of a·d(b) has dim 0 < {calc.dim(a)}")]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", LEIBNIZ_NAMES)
def test_lawful_calculi_satisfy_leibniz_as_the_whole_products_do(name, route):
    calc = _calculus(name, route)
    assert _assert_reports_match(calc) == ([], [])


def _lawful_calculi(label: str) -> list[Fodc]:
    """The universal calculus and the calculi of each named ideal on both
    routes of a lawful fixture, or the three calculi of `_calculus`."""
    if label in CONSTRUCTORS:
        return [_calculus(label, route) for route in ROUTES]
    doc = load_document(FIXTURE_DIR / label)
    return [universal_calculus(doc.hopf)] + [
        _on_route(doc.hopf, route, gens)
        for gens in doc.ideal_generators.values() for route in ("left", "right")]


@pytest.mark.parametrize("label", LAWFUL_FIXTURES + ["Taft/F7", "F7[Z/4] over S3"])
def test_lawful_calculi_compute_neither_leibniz_nor_surjectivity(label, monkeypatch):
    """On a lawful structure the Leibniz rule and Γ = A·d(A) are theorems
    (the Fodc docstring): their reports are empty and neither is computed."""
    called = []
    for check in ("_leibniz", "_surjectivity"):
        monkeypatch.setattr(calculus_mod, check,
                            lambda *operands, check=check: called.append(check) or [])
    for calc in _lawful_calculi(label):
        assert calc.leibniz_report().ok and calc.surjectivity_report().ok
    assert called == []


@pytest.mark.parametrize("route", ["left", "right"])
@pytest.mark.parametrize("fixture", LAWFUL_FIXTURES)
def test_named_ideal_calculi_report_the_whole_products(fixture, route):
    """Every named ideal of every lawful fixture, on both routes: the
    whole products find no Leibniz or surjectivity violation either."""
    doc = load_document(FIXTURE_DIR / fixture)
    for gens in doc.ideal_generators.values():
        assert _assert_reports_match(_on_route(doc.hopf, route, gens)) == ([], [])
