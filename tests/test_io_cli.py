"""Definition-document parsing and the command-line front-end."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from hopfpi import (
    PrimeField,
    check_ad_invariant,
    cyclic,
    enumerate_right_ideals,
    group_algebra,
    taft_hopf_algebra,
    verify_hopf,
    verify_pi_coalgebra,
)
from hopfpi.cli import main
from hopfpi.docio import document_from_json, document_to_json, load_document, save_document
from hopfpi.errors import ParseError

F = Fraction


# -- documents -----------------------------------------------------------------


def test_fixture_files_load_and_verify(fixture_dir):
    for name in ("kz2_rational.json", "f7_z3.json", "kz2_constant_z2.json",
                 "f7z3_constant_z2.json", "taft4_rational.json", "q_z3_skew_basis.json"):
        doc = load_document(fixture_dir / name)
        assert verify_pi_coalgebra(doc.hopf).ok, name
        assert verify_hopf(doc.hopf).ok, name


def test_document_roundtrip(kz2_const):
    data = document_to_json(kz2_const, name="roundtrip",
                            ideals={"kerEps": [[1, -1]]})
    doc = document_from_json(data)
    h = doc.hopf
    assert h.dims == kz2_const.dims
    for key, m in kz2_const.comult.items():
        assert doc.hopf.comult[key] == m
    assert h.counit == kz2_const.counit
    for a in h.group.elements():
        assert h.mult[a] == kz2_const.mult[a]
        assert h.antipode[a] == kz2_const.antipode[a]
        assert h.psi[a] == kz2_const.psi[a]
    assert doc.ideal_generators["kerEps"] == [(F(1), F(-1))]


def test_fractional_document_rewrites_identically(fixture_dir):
    """Writing a loaded document back gives the file: integral rationals
    as JSON numbers, the others as "n/d" strings."""
    raw = json.loads((fixture_dir / "q_z3_skew_basis.json").read_text())
    doc = document_from_json(raw)
    assert document_to_json(doc.hopf, name=raw["name"]) == raw


def test_rational_scalars_parse_exactly(kz2):
    data = document_to_json(kz2, name="scalars")
    data["counit"] = ["1/1", "3/3"]  # still the all-ones functional
    doc = document_from_json(data)
    assert doc.hopf.counit == kz2.counit


def test_parse_rejects_floats(kz2):
    data = document_to_json(kz2)
    data["counit"] = [1.0, 1]
    with pytest.raises(ParseError):
        document_from_json(data)


@pytest.mark.parametrize("scalar", ["1e10000000", "1.5", "+3", " 3", "1_000", "3/-7", "1" * 1001])
def test_parse_accepts_only_integer_and_fraction_strings(kz2, scalar):
    """Exponent and decimal forms and over-long numerals are rejected at once."""
    data = document_to_json(kz2)
    data["counit"] = [scalar, 1]
    with pytest.raises(ParseError):
        document_from_json(data)


def test_cli_rejects_exponent_and_long_scalars(fixture_dir, tmp_path, capsys):
    for scalar in ("1e10000000", "9" * 5000):
        data = json.loads((fixture_dir / "kz2_rational.json").read_text())
        data["counit"] = [scalar, 1]
        p = tmp_path / "bad_scalar.json"
        p.write_text(json.dumps(data))
        code, out = run_cli(capsys, "verify", str(p))
        assert (code, out) == (2, "")


def test_cli_rejects_prime_beyond_certified_range(fixture_dir, tmp_path, capsys):
    data = json.loads((fixture_dir / "f7_z3.json").read_text())
    data["field"] = {"prime": 2**89 - 1}   # prime, but above the Miller–Rabin bound
    p = tmp_path / "big_prime.json"
    p.write_text(json.dumps(data))
    assert main(["verify", str(p)]) == 2
    assert "too large to certify prime" in capsys.readouterr().err


def test_parse_rejects_bad_schema(kz2):
    data = document_to_json(kz2)
    data["schema"] = "hpc-0"
    with pytest.raises(ParseError):
        document_from_json(data)


def test_parse_rejects_missing_comult(kz2):
    data = document_to_json(kz2)
    del data["comult"]["0,0"]
    with pytest.raises(ParseError) as err:
        document_from_json(data)
    assert "comult" in str(err.value)


def test_parse_rejects_bad_group(kz2):
    data = document_to_json(kz2)
    data["group"]["table"] = [[0, 1], [1, 1]]
    with pytest.raises(ParseError) as err:
        document_from_json(data)
    assert "group" in str(err.value)
    # an invalid table is blamed before the count of names is checked
    data["group"]["names"] = ["1"]
    with pytest.raises(ParseError, match="^group: group table invalid"):
        document_from_json(data)


def _bool_as_int(case: str) -> dict:
    """The trivial group algebra over F_7 with one integer written as a JSON
    boolean; read as 0 or 1, each document would be lawful."""
    data = document_to_json(group_algebra(cyclic(1), PrimeField(7)), name="one")
    comp = data["components"]["0"]
    if case == "dim":
        comp["dim"] = True
    elif case == "mult triple":
        comp["mult"] = [[False, False, False, 1]]
    else:
        data["group"]["table"] = [[False]]
    return data


@pytest.mark.parametrize("case", ["dim", "mult triple", "group table"])
def test_booleans_are_not_integers(case, tmp_path, capsys):
    """true/false where the schema wants an integer is malformed input, as
    {"prime": true} is: ParseError, exit 2, on every subcommand."""
    data = _bool_as_int(case)
    with pytest.raises(ParseError):
        document_from_json(data)
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(data))
    for args in (["verify"], ["calculus", "--universal"], ["structure", "--universal"]):
        code, out = run_cli(capsys, args[0], str(p), *args[1:])
        assert (code, out) == (2, "")


@pytest.mark.parametrize("where, names", [
    ("group", 5),
    ("basis", 5),
    ("basis", "eu"),
    ("basis", [["e"], {"u": 1}]),
])
def test_display_names_must_be_lists_of_strings(fixture_dir, tmp_path, capsys, where, names):
    """The group's names and a component's basis names are JSON lists of
    strings; anything else is malformed input: ParseError, exit 2, on every
    subcommand, never a traceback and never names read off a string or a
    repr."""
    data = json.loads((fixture_dir / "kz2_rational.json").read_text())
    if where == "group":
        data["group"]["names"] = names
    else:
        data["components"]["0"]["basis"] = names
    with pytest.raises(ParseError):
        document_from_json(data)
    p = tmp_path / "names.json"
    p.write_text(json.dumps(data))
    for args in (["verify"], ["calculus", "--universal"], ["structure", "--universal"]):
        code, out = run_cli(capsys, args[0], str(p), *args[1:])
        assert (code, out) == (2, "")


@pytest.mark.parametrize("doc, where", [
    ("kz2_constant_z2.json", "group"),
    ("kz2_rational.json", "basis"),
])
def test_display_names_must_be_distinct(fixture_dir, tmp_path, capsys, doc, where):
    """Two group elements, or two basis vectors of one component, with one
    display name would make a witness or a value ambiguous: ParseError,
    exit 2, on every subcommand, and stderr names the repeated name."""
    data = json.loads((fixture_dir / doc).read_text())
    if where == "group":
        data["group"]["names"] = ["a"] * len(data["group"]["names"])
    else:
        data["components"]["0"]["basis"] = ["e"] * data["components"]["0"]["dim"]
    with pytest.raises(ParseError, match="repeated"):
        document_from_json(data)
    p = tmp_path / "repeated.json"
    p.write_text(json.dumps(data))
    for args in (["verify"], ["calculus", "--universal"], ["structure", "--universal"]):
        code = main([args[0], str(p), *args[1:]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "is repeated" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("doc, where", [
    ("kz2_constant_z2.json", "group"),
    ("kz2_rational.json", "basis"),
])
def test_empty_name_lists_are_the_wrong_length(fixture_dir, tmp_path, capsys, doc, where):
    """An empty list of group or basis names is one name per element short,
    not an absent list: ParseError, exit 2, on every subcommand, and no
    fallback to index names."""
    data = json.loads((fixture_dir / doc).read_text())
    if where == "group":
        data["group"]["names"] = []
    else:
        data["components"]["0"]["basis"] = []
    with pytest.raises(ParseError, match="0 .*names for"):
        document_from_json(data)
    p = tmp_path / "empty.json"
    p.write_text(json.dumps(data))
    for args in (["verify"], ["calculus", "--universal"], ["structure", "--universal"]):
        code = main([args[0], str(p), *args[1:]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "names for" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("doc, names, message", [
    ("kz2_rational.json", [], "0 names for 1 group element"),
    ("kz2_rational.json", ["1", "t"], "2 names for 1 group element"),
    ("kz2_constant_z2.json", [], "0 names for 2 group elements"),
    ("kz2_constant_z2.json", ["1"], "1 names for 2 group elements"),
    ("kz2_constant_z2.json", ["1", "s", "t"], "3 names for 2 group elements"),
])
def test_group_names_of_the_wrong_length_blame_the_names(fixture_dir, tmp_path, capsys,
                                                         doc, names, message):
    """An empty, short or long list of group names next to a valid table is
    an error of group.names, not of the group table: ParseError, exit 2,
    on every subcommand."""
    data = json.loads((fixture_dir / doc).read_text())
    data["group"]["names"] = names
    with pytest.raises(ParseError) as err:
        document_from_json(data)
    assert err.value.context == "group.names"
    assert str(err.value) == f"group.names: {message}"
    p = tmp_path / "names.json"
    p.write_text(json.dumps(data))
    for args in (["verify"], ["calculus", "--universal"], ["structure", "--universal"]):
        code = main([args[0], str(p), *args[1:]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: group.names: {message}\n"


def test_parse_rejects_wrong_shape(kz2):
    data = document_to_json(kz2)
    data["antipode"]["0"] = [[1, 0]]
    with pytest.raises(ParseError):
        document_from_json(data)


# -- CLI ------------------------------------------------------------------------


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_verify_pass(fixture_dir, capsys):
    code, out = run_cli(capsys, "verify", str(fixture_dir / "kz2_rational.json"))
    assert code == 0
    assert "result: PASS" in out


def test_cli_verify_corrupted_antipode(fixture_dir, capsys):
    code, out = run_cli(capsys, "verify", str(fixture_dir / "kz2_bad_antipode.json"))
    assert code == 1
    assert "antipode-axiom" in out
    assert "basis u" in out


def test_cli_truncated_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"schema": "hpc-1", "group": {')
    code, _ = run_cli(capsys, "verify", str(bad))
    assert code == 2


def test_cli_calculus_universal(fixture_dir, capsys):
    code, out = run_cli(capsys, "calculus", str(fixture_dir / "kz2_rational.json"),
                        "--universal")
    assert code == 0
    assert "Gamma: [2]" in out
    assert "covariance: bicovariant" in out


def test_cli_calculus_ideal_f7(fixture_dir, capsys):
    code, out = run_cli(capsys, "calculus", str(fixture_dir / "f7_z3.json"),
                        "--ideal", "R1")
    assert code == 0
    assert "Gamma: [3]" in out
    assert "covariance: bicovariant" in out


def test_cli_calculus_kereps(fixture_dir, capsys):
    code, out = run_cli(capsys, "calculus", str(fixture_dir / "kz2_rational.json"),
                        "--ideal", "kerEps")
    assert code == 0
    assert "Gamma: [0]" in out


def test_cli_calculus_right_route(fixture_dir, capsys):
    code, out = run_cli(capsys, "calculus", str(fixture_dir / "f7_z3.json"),
                        "--ideal", "R1", "--right")
    assert code == 0
    assert "Gamma: [3]" in out


def test_cli_calculus_unknown_ideal(fixture_dir, capsys):
    code, _ = run_cli(capsys, "calculus", str(fixture_dir / "kz2_rational.json"),
                      "--ideal", "nope")
    assert code == 2


def test_cli_calculus_bad_generator(fixture_dir, tmp_path, capsys):
    data = json.loads((fixture_dir / "kz2_rational.json").read_text())
    data["ideals"]["bad"] = [[1, 0]]  # ε = 1 ≠ 0
    p = tmp_path / "bad_ideal.json"
    p.write_text(json.dumps(data))
    code, _ = run_cli(capsys, "calculus", str(p), "--ideal", "bad")
    assert code == 2


def test_cli_verify_exit1_blocks_calculus(fixture_dir, capsys):
    code, out = run_cli(capsys, "calculus", str(fixture_dir / "kz2_bad_antipode.json"),
                        "--universal")
    assert code == 1
    assert "not computed" in out


def test_cli_structure_kz2(fixture_dir, capsys):
    code, out = run_cli(capsys, "structure", str(fixture_dir / "kz2_rational.json"),
                        "--universal")
    assert code == 0
    assert "frame size: 1" in out
    assert "reconstruction-roundtrip" in out
    assert "result: PASS" in out


def test_cli_structure_f7(fixture_dir, capsys):
    code, out = run_cli(capsys, "structure", str(fixture_dir / "f7_z3.json"),
                        "--universal")
    assert code == 0
    assert "frame size: 2" in out


def test_cli_structure_constant_family(fixture_dir, capsys):
    code, out = run_cli(capsys, "structure",
                        str(fixture_dir / "f7z3_constant_z2.json"), "--ideal", "R1")
    assert code == 0
    assert "frame size: 1" in out


@pytest.mark.parametrize("name, which", [
    *[(p, ("--universal",)) for p in ("kz2_rational.json", "f7_z3.json",
                                      "kz2_constant_z2.json", "f7z3_constant_z2.json",
                                      "taft4_rational.json", "q_z3_skew_basis.json",
                                      "kz2_bad_antipode.json")],
    ("f7z3_constant_z2.json", ("--ideal", "R1")),
])
def test_cli_structure_verifies_axioms_once(fixture_dir, capsys, monkeypatch, name, which):
    """One structure job runs each axiom suite once: the CLI, the
    bicovariance decision, the calculus's bimodule and the reconstruction
    share the verdict memoised on the structure.  No bimodule law is
    verified: the calculus's laws and those of the reconstructed bimodule
    are theorems of what the job has already checked."""
    import hopfpi.hopf as hopf_mod
    import hopfpi.structure as struct_mod

    calls = {"pi": 0, "hopf": 0, "laws": 0}

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(hopf_mod, "verify_pi_coalgebra",
                        counting("pi", hopf_mod.verify_pi_coalgebra))
    monkeypatch.setattr(hopf_mod, "verify_hopf", counting("hopf", hopf_mod.verify_hopf))
    monkeypatch.setattr(struct_mod.CovariantBimodule, "verify",
                        counting("laws", struct_mod.CovariantBimodule.verify))
    code, out = run_cli(capsys, "structure", str(fixture_dir / name), *which)
    assert code in (0, 1)
    assert calls["pi"] == calls["hopf"] == 1
    assert calls["laws"] == 0


def test_cli_enumerate_f7(fixture_dir, capsys):
    code, out = run_cli(capsys, "enumerate", str(fixture_dir / "f7_z3.json"))
    assert code == 0
    assert out.count("yes") >= 4 * 5
    assert "[6]" in out and "[3]" in out and "[0]" in out


def test_cli_enumerate_rational_unsupported(fixture_dir, capsys):
    code, _ = run_cli(capsys, "enumerate", str(fixture_dir / "kz2_rational.json"))
    assert code == 2


@pytest.mark.parametrize("bound", ["-1", "x"])
def test_cli_enumerate_rejects_a_malformed_max_dim(fixture_dir, capsys, bound):
    """A bound that is not a dimension is malformed input: argparse exits 2
    with a usage message, and nothing is enumerated."""
    with pytest.raises(SystemExit) as exit_:
        main(["enumerate", str(fixture_dir / "f7_z3.json"), "--max-dim", bound])
    captured = capsys.readouterr()
    assert exit_.value.code == 2 and captured.out == ""
    assert "--max-dim" in captured.err and "Traceback" not in captured.err


def test_cli_enumerate_max_dim(fixture_dir, capsys):
    code, out = run_cli(capsys, "enumerate", str(fixture_dir / "f7_z3.json"),
                        "--max-dim", "1")
    assert code == 0
    assert "[0]" not in out   # the 2-dim ideal (Γ = 0) is filtered out


def test_cli_json_format(fixture_dir, capsys):
    code, out = run_cli(capsys, "verify", str(fixture_dir / "f7_z3.json"),
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "pass"
    assert any(c["name"] == "coassociativity" for c in payload["checks"])


def test_cli_reports_deterministic(fixture_dir, capsys):
    outputs = []
    for _ in range(2):
        code, out = run_cli(capsys, "enumerate", str(fixture_dir / "f7_z3.json"))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    jsons = []
    for _ in range(2):
        code, out = run_cli(capsys, "structure", str(fixture_dir / "f7_z3.json"),
                            "--universal", "--format", "json")
        assert code == 0
        jsons.append(out)
    assert jsons[0] == jsons[1]


def test_cli_structure_non_involutive_reports_obstruction(fixture_dir, capsys):
    """On the Taft fixture the mixed f/g identities fail (order-four
    antipode); the CLI reports the obstruction as a mathematical error."""
    code = main(["structure", str(fixture_dir / "taft4_rational.json"), "--universal"])
    capsys.readouterr()
    assert code == 1


def test_cli_calculus_taft_ideal(fixture_dir, capsys):
    code, out = run_cli(capsys, "calculus", str(fixture_dir / "taft4_rational.json"),
                        "--ideal", "kerEpsPart")
    assert code == 0
    assert "Gamma: [4]" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_structure_failure_prints_full_report(fixture_dir, capsys, fmt):
    """A failed identity still yields the whole report on stdout: every
    check that ran, the failing one with its witness, and a note for each
    check that could not run."""
    code, out = run_cli(capsys, "structure", str(fixture_dir / "taft4_rational.json"),
                        "--universal", "--format", fmt)
    assert code == 1
    if fmt == "text":
        assert "[fail] frame-multiplicativity" in out
        assert "left multiplication rule a η_0" in out
        assert "involutive antipode" in out
        assert "note: intertwiner-identity not run" in out
        assert out.endswith("result: FAIL\n")
        return
    payload = json.loads(out)
    assert payload["result"] == "fail"
    assert [(c["name"], c["status"]) for c in payload["checks"]] == [
        ("bicovariant", "pass"),
        ("frame-multiplicativity", "fail"),
        ("frame-normalisation", "pass"),
        ("coaction-matrix-comultiplication", "pass"),
        ("coaction-matrix-counit", "pass"),
        ("reconstruction-roundtrip", "pass"),
    ]
    [witness] = payload["checks"][1]["witnesses"]
    assert "η" in witness and "involutive antipode" in witness
    assert payload["dims"]["frame size"] == 3
    assert set(payload["values"]) == {"f", "R"}
    assert any(n.startswith("intertwiner-identity not run") for n in payload["notes"])


def test_cli_reads_bicovariance_off_the_two_covariance_reports(tmp_path, capsys):
    """On Taft/F₁₁ an ideal that is not ad-invariant gives a left-route
    calculus that is left covariant only: `enumerate` lists such rows with
    bicovariant "no", and `calculus --ideal` on one reports bicovariance
    failing with the right-covariance witnesses."""
    h = taft_hopf_algebra(PrimeField(11))
    ideal = next(i for i in enumerate_right_ideals(h) if not check_ad_invariant(h, i).ok)
    path = tmp_path / "taft_f11.json"
    save_document(path, h, "Taft/F11",
                  ideals={"leftOnly": [list(v) for v in ideal.subspace.basis.to_rows()]})
    _, out = run_cli(capsys, "enumerate", str(path), "--format", "json")
    rows = json.loads(out)["tables"]["right ideals in ker ε"]["rows"]
    assert all(row[7] == ("yes" if row[5] == row[6] == "yes" else "no") for row in rows)
    assert any(row[5] == "yes" and row[6] == "no" for row in rows)
    _, out = run_cli(capsys, "calculus", str(path), "--ideal", "leftOnly", "--format", "json")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert [checks[n]["status"] for n in ("left-covariant", "right-covariant", "bicovariant")] \
        == ["pass", "fail", "fail"]
    assert checks["bicovariant"]["witnesses"] == checks["right-covariant"]["witnesses"] != []


def test_cli_structure_without_psi_notes_skipped_checks(fixture_dir, tmp_path, capsys):
    """Without Ψ there are no functionals f, g: the checks that need them
    are left out with a note instead of the run ending in a traceback."""
    data = json.loads((fixture_dir / "f7_z3.json").read_text(encoding="utf-8"))
    data.pop("psi", None)
    path = tmp_path / "f7_z3_without_psi.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out = run_cli(capsys, "structure", str(path), "--universal", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [c["name"] for c in payload["checks"]] == [
        "bicovariant", "coaction-matrix-comultiplication", "coaction-matrix-counit"]
    assert [n.split(" not run")[0] for n in payload["notes"]] == [
        "frame-multiplicativity", "frame-normalisation", "intertwiner-identity",
        "reconstruction-roundtrip"]
