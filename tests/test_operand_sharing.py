"""Checks and maps computed once per distinct operand tuple, and documents
that share their repeated blocks.

verify_pi_coalgebra and verify_hopf compute each identity once per
distinct tuple of operand objects and stamp the result with every grading
that reads that tuple; docio parses each distinct block of a document once.
The calculus and structure layers share their per-grading maps and checks
the same way (HopfPiCoalgebra.shared).  The reports and data must not
depend on how the components are shared: `oracles.unshared` gives every
grading its own copies, so everything is computed at every grading, and
the reports must agree violation for violation and the data matrices
entry for entry.  A calculus job builds no whole module action of Γ_α,
and a structure job builds each once per distinct quotient.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfpi import (
    HopfPiCoalgebra,
    ad_map,
    calculus_from_ideal,
    calculus_from_ideal_right,
    check_ad_invariant,
    check_bicovariant,
    check_left_covariant,
    check_right_covariant,
    constant_family,
    cyclic,
    extract_structure,
    group_algebra,
    induced_delta_l,
    induced_delta_r,
    load_document,
    r_inv,
    right_ideal_from_generators,
    save_document,
    t_inv,
    taft_hopf_algebra,
    universal_calculus,
    verify_all,
    verify_pi_coalgebra,
)
from hopfpi import calculus as calc_mod, cli, docio, hopf
from hopfpi.docio import Document, document_from_json
from hopfpi.errors import HopfPiError
from hopfpi.linalg import Matrix, PrimeField, QQ
from oracles import (
    hopf_laws_by_kron,
    pi_coalgebra_laws_by_kron,
    s3_group,
    twisted_f7_z7,
    unshared,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
F5 = PrimeField(5)


def _rows(report) -> list:
    return [(v.check, v.grading, v.basis_index, v.detail) for v in report.violations]


def _families() -> dict:
    out = {path.name: (lambda p=path: load_document(p).hopf)
           for path in sorted(FIXTURE_DIR.glob("*.json"))}
    for label, grading in (("Z/2", lambda: cyclic(2, names=("1", "s"))), ("S3", s3_group)):
        for base_label, base in (("Q[Z/2]", lambda: group_algebra(cyclic(2), QQ)),
                                 ("F5[Z/3]", lambda: group_algebra(cyclic(3), F5))):
            out[f"{base_label} over {label}"] = (
                lambda b=base, g=grading: constant_family(b(), g()))
    out["F7[Z/7] twisted by Z/3"] = twisted_f7_z7
    return out


FAMILIES = _families()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_shared_and_unshared_reports_agree(name):
    h = FAMILIES[name]()
    assert _rows(verify_all(h)) == _rows(verify_all(unshared(h)))


@pytest.fixture(scope="module")
def s3_document(tmp_path_factory):
    """F5[Z/3] constant over S3 as a document: every block repeats."""
    path = tmp_path_factory.mktemp("s3") / "s3.json"
    save_document(path, constant_family(group_algebra(cyclic(3), F5), s3_group()), name="s3")
    return path


@pytest.fixture(scope="module")
def s3_family(s3_document):
    """The S3 family loaded back, its components shared the way docio
    shares them."""
    return load_document(s3_document).hopf


@pytest.fixture(scope="module")
def s3_renamed(s3_document):
    """The same family with its own basis names on each component: the
    matrices and units are still shared, the witness names are not."""
    data = json.loads(s3_document.read_text())
    for a, comp in data["components"].items():
        comp["basis"] = [f"{x}_{a}" for x in comp["basis"]]
    return document_from_json(data).hopf


def _bumped(m: Matrix, row: int, col: int, delta: int) -> Matrix:
    entries = dict(m.entries)
    key = (row % m.rows, col % m.cols)
    entries[key] = m.field.add(entries.get(key, m.field.zero()), delta)
    return Matrix(m.field, m.rows, m.cols, entries)


def _corrupted(h: HopfPiCoalgebra, which: str, a: int, b: int, row: int, col: int,
               delta: int) -> HopfPiCoalgebra:
    comult, mult, antipode, psi = dict(h.comult), list(h.mult), list(h.antipode), list(h.psi)
    if which == "comult":
        comult[(a, b)] = _bumped(comult[(a, b)], row, col, delta)
    else:
        maps = {"mult": mult, "antipode": antipode, "psi": psi}[which]
        maps[a] = _bumped(maps[a], row, col, delta)
    return HopfPiCoalgebra(h.group, h.field, h.dims, comult, h.counit, mult, h.unit,
                           antipode, psi=psi, basis_names=h.basis_names)


def _assert_reports_agree(h: HopfPiCoalgebra) -> None:
    found = _rows(verify_all(h))
    assert found
    assert found == _rows(verify_all(unshared(h)))
    assert found == _rows(pi_coalgebra_laws_by_kron(h).merge(hopf_laws_by_kron(h)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["comult", "mult", "antipode", "psi"]),
       st.integers(0, 5), st.integers(0, 5), st.integers(0, 8), st.integers(0, 8),
       st.integers(1, 4))
def test_one_corrupted_component_reports_agree(s3_family, s3_renamed, which, a, b, row, col,
                                               delta):
    """One entry of one Δ_{α,β}, m_α, S_α or Ψ_α bumped: the other gradings
    still share their operands, and the report is the one computed at
    every grading, and the one the explicit Kronecker forms give, with
    each witness named in the basis of its own component."""
    for family in (s3_family, s3_renamed):
        _assert_reports_agree(_corrupted(family, which, a, b, row, col, delta))


@pytest.mark.parametrize("which", ["comult", "mult", "antipode", "psi"])
def test_each_corrupted_component_reports_agree(s3_renamed, which):
    """Entry (0, 0) bumped, at each grading in turn: column 0 is the unit
    e, so the unit laws (S(1) = 1, Ψ(1) = 1, Δ(1) = 1⊗1) fail as well,
    and their witnesses are rendered in the basis of their component."""
    keys = ([(a, b) for a in range(6) for b in range(6)] if which == "comult"
            else [(a, 0) for a in range(6)])
    for a, b in keys:
        _assert_reports_agree(_corrupted(s3_renamed, which, a, b, 0, 0, 1))


def test_coassociativity_runs_once_per_operand_tuple(s3_family, monkeypatch):
    """All 216 grading triples of a constant family read one operand tuple,
    so one product pair is compared; unshared, every triple is."""
    calls = []
    diff = hopf._diff_columns

    def counting(check, *args, **kwargs):
        calls.append(check)
        return diff(check, *args, **kwargs)

    monkeypatch.setattr(hopf, "_diff_columns", counting)
    assert verify_pi_coalgebra(s3_family).ok
    assert calls.count("coassociativity") == 1
    calls.clear()
    assert verify_pi_coalgebra(unshared(s3_family)).ok
    assert calls.count("coassociativity") == 6 ** 3


def test_document_parses_each_distinct_block_once(s3_document, monkeypatch):
    """The 36 comult blocks of the S3 family are one block: parsed once,
    one Matrix; likewise each other repeated block."""
    contexts = []
    parse = docio._parse_matrix

    def counting(f, obj, rows, cols, context):
        contexts.append(context)
        return parse(f, obj, rows, cols, context)

    monkeypatch.setattr(docio, "_parse_matrix", counting)
    h = load_document(s3_document).hopf
    assert [c for c in contexts if c.startswith("comult")] == ["comult[0,0]"]
    assert len(h.comult) == 36 and len({id(m) for m in h.comult.values()}) == 1
    for maps in (h.mult, h.unit, h.antipode, h.psi, h.basis_names):
        assert len({id(x) for x in maps}) == 1


# -- the calculus and structure layers -----------------------------------------


def _calculus_families() -> dict:
    """{name: () -> (h, named ideal generators)}: every fixture with its
    ideals, constant families over Z/2 and S3, the twisted family, which
    shares only part of its components, and Taft/F7 constant over Z/2,
    whose structure report fails at every grading."""
    out = {path.name: (lambda p=path: (lambda d: (d.hopf, d.ideal_generators))(load_document(p)))
           for path in sorted(FIXTURE_DIR.glob("*.json"))}
    for label, grading in (("Z/2", lambda: cyclic(2, names=("1", "s"))), ("S3", s3_group)):
        for base_label, base, ideals in (
                ("Q[Z/2]", lambda: group_algebra(cyclic(2), QQ), {"aug": [(1, -1)]}),
                ("F5[Z/3]", lambda: group_algebra(cyclic(3), F5), {"sq": [(1, 3, 1)], "zero": []})):
            out[f"{base_label} over {label}"] = (
                lambda b=base, g=grading, i=ideals: (constant_family(b(), g()), i))
    out["F7[Z/7] twisted by Z/3"] = lambda: (twisted_f7_z7(), {"sq": [[1, 5, 1, 0, 0, 0, 0]],
                                                                 "zero": []})
    out["Taft/F7 over Z/2"] = lambda: (
        constant_family(taft_hopf_algebra(PrimeField(7)), cyclic(2, names=("1", "s"))),
        {"x": [(0, 0, 1, 0)], "zero": []})
    return out


CALCULUS_FAMILIES = _calculus_families()


def _jobs(ideals) -> list:
    jobs = [["verify"], ["calculus", "--universal"], ["calculus", "--universal", "--right"],
            ["structure", "--universal"], ["enumerate"], ["enumerate", "--max-dim", "1"]]
    for name in ideals:
        jobs += [["calculus", "--ideal", name], ["calculus", "--ideal", name, "--right"],
                 ["structure", "--ideal", name]]
    return jobs


def _render(doc: Document, argv) -> tuple:
    """The report of one CLI job on doc, rendered as text and JSON, or the
    error it ends in."""
    args = cli.build_parser().parse_args([argv[0], "doc.json", *argv[1:]])
    try:
        report = cli._DISPATCH[args.subcommand](doc, args)
    except HopfPiError as exc:
        return type(exc).__name__, str(exc)
    return report.exit_code, report.to_text(), report.to_json()


@pytest.mark.parametrize("name", sorted(CALCULUS_FAMILIES))
def test_shared_and_unshared_cli_reports_agree(name):
    """calculus, structure and enumerate on h and on its unshared copy:
    the same report, byte for byte, for every named ideal and route."""
    h, ideals = CALCULUS_FAMILIES[name]()
    shared, copy = Document(name, h, ideals), Document(name, unshared(h), ideals)
    for argv in _jobs(ideals):
        assert _render(shared, argv) == _render(copy, argv), argv


def _rows_of(report) -> list:
    return [(v.check, v.grading, v.basis_index, v.detail) for v in report.violations]


def _translation_maps(h) -> list:
    """r⁻¹, t⁻¹, ad and S⁻¹ at every grading, and ker ε."""
    return [[(r_inv(h, a), t_inv(h, a), ad_map(h, a), h.antipode_inv(a))
             for a in h.group.elements()], h.counit_kernel()]


def _calculus_data(h, ideals) -> list:
    """The translation maps, every map, verdict and coaction of the
    universal calculus and of the route calculi of each ideal with its
    ad-invariance report, and the structure data and report of each
    bicovariant one."""
    out = _translation_maps(h)
    calcs = [universal_calculus(h)]
    for gens in ideals.values():
        ideal = right_ideal_from_generators(h, gens)
        out.append(_rows_of(check_ad_invariant(h, ideal)))
        calcs += [calculus_from_ideal(h, ideal), calculus_from_ideal_right(h, ideal)]
    pairs = [(a, b) for a in h.group.elements() for b in h.group.elements()]
    for calc in calcs:
        left, right = check_left_covariant(calc), check_right_covariant(calc)
        out.append((calc.kernels, calc.incl, calc.proj, calc.lift, calc.drop, calc.d,
                    calc.left, calc.right, _rows_of(calc.leibniz_report()),
                    _rows_of(calc.surjectivity_report()), _rows_of(left), _rows_of(right)))
        if left.ok:
            out.append([induced_delta_l(calc, a, b) for a, b in pairs])
        if right.ok:
            out.append([induced_delta_r(calc, a, b) for a, b in pairs])
        if check_bicovariant(calc).ok:
            try:
                data = extract_structure(calc.to_bimodule())
            except HopfPiError as exc:
                out.append((type(exc).__name__, str(exc)))
                continue
            out.append((data.size, data.omega, data.eta, data.F, data.f, data.g, data.R,
                        _rows_of(data.report), data.not_run))
    return out


@pytest.mark.parametrize("name", sorted(CALCULUS_FAMILIES))
def test_shared_and_unshared_calculus_data_agree(name):
    """The calculus maps, induced coactions and structure data of h and of
    its unshared copy are equal matrices, and their reports agree
    violation for violation."""
    h, ideals = CALCULUS_FAMILIES[name]()
    if not verify_all(h).ok:
        with pytest.raises(HopfPiError):
            universal_calculus(unshared(h))
        return
    assert _calculus_data(h, ideals) == _calculus_data(unshared(h), ideals)


@pytest.mark.parametrize("which", ["comult", "mult", "antipode"])
def test_translation_maps_of_a_partly_shared_family_agree(s3_family, which):
    """Entry (0, 0) of one Δ_{α,β}, m_α or S_α bumped, at each grading in
    turn: that grading stops sharing the bumped operand while the others
    still share theirs, so a map memoised under fewer operands than it
    reads would return another grading's value.  The axioms fail, but
    r⁻¹, t⁻¹, ad and S⁻¹ are still defined (S_α stays invertible), and
    each must equal the one computed from the unshared copy."""
    keys = ([(a, b) for a in range(6) for b in range(6)] if which == "comult"
            else [(a, 0) for a in range(6)])
    for a, b in keys:
        h = _corrupted(s3_family, which, a, b, 0, 0, 1)
        assert _translation_maps(h) == _translation_maps(unshared(h)), (a, b)


def test_taft_family_structure_fails_at_every_grading():
    """The failing structure report of Taft/F7 over Z/2 names both
    gradings, so re-stamping a shared violation is exercised there."""
    h, _ = CALCULUS_FAMILIES["Taft/F7 over Z/2"]()
    data = extract_structure(universal_calculus(h).to_bimodule())
    assert {v.grading[0] for v in data.report.violations} == set(h.group.elements())


def _count_whole_actions(monkeypatch) -> tuple[list, Counter]:
    """Every _Quotient built from here on, and how often each evaluates
    its whole left and right action, keyed by (side, quotient)."""
    built, evaluated = [], Counter()
    init = calc_mod._Quotient.__init__

    def building(q, *args):
        built.append(q)
        init(q, *args)

    monkeypatch.setattr(calc_mod._Quotient, "__init__", building)
    for side in ("left", "right"):
        real = getattr(calc_mod._Quotient, side).func

        def counted(q, real=real, side=side):
            evaluated[(side, id(q))] += 1
            return real(q)

        prop = cached_property(counted)
        prop.__set_name__(calc_mod._Quotient, side)
        monkeypatch.setattr(calc_mod._Quotient, side, prop)
    return built, evaluated


@pytest.mark.parametrize("name", sorted(CALCULUS_FAMILIES))
def test_calculus_jobs_build_no_whole_action(name, monkeypatch):
    """Leibniz and surjectivity read Γ's actions only on the vectors they
    use: no calculus job evaluates a whole module action of Γ_α, and a
    structure job evaluates each once per distinct quotient, for
    to_bimodule, when the calculus is bicovariant, and none otherwise."""
    h, ideals = CALCULUS_FAMILIES[name]()
    doc = Document(name, h, ideals)
    built, evaluated = _count_whole_actions(monkeypatch)
    for argv in _jobs(ideals):
        built.clear()
        evaluated.clear()
        _render(doc, argv)
        # the universal calculus is bicovariant once the axioms hold
        if argv == ["structure", "--universal"]:
            assert bool(evaluated) == verify_all(h).ok
        if argv[0] != "structure" or not evaluated:
            assert not evaluated, argv
            continue
        assert evaluated == Counter({(side, id(q)): 1 for q in built
                                     for side in ("left", "right")}), argv


def test_leibniz_runs_once_per_operand_tuple(monkeypatch):
    """The six gradings of F₇[ℤ/4] over S₃ read one (d, m, lift, drop, 1,
    S): _leibniz runs once for the universal calculus and once for each
    route calculus of an ideal; on the unshared copy, once per grading."""
    h = constant_family(group_algebra(cyclic(4), PrimeField(7)), s3_group())
    calls = []
    real = calc_mod._leibniz

    def counted(*operands):
        calls.append(operands)
        return real(*operands)

    monkeypatch.setattr(calc_mod, "_leibniz", counted)
    for family, per_calculus in ((h, 1), (unshared(h), 6)):
        ideal = right_ideal_from_generators(family, [(1, 5, 1, 0)])     # (g − 1)²
        for calc in (universal_calculus(family), calculus_from_ideal(family, ideal),
                     calculus_from_ideal_right(family, ideal)):
            calls.clear()
            assert calc.leibniz_report().ok
            assert len(calls) == per_calculus
