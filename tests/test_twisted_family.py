"""A family that is not constant: F_7[ℤ/7] twisted by π = ℤ/3.

Every other multi-graded structure the tests build is a constant family,
on which Δ_{α,β}, S_α and their inverses read the same matrix at every
grading, so a construction that confuses α with α⁻¹ or reads the wrong
Δ_{α,β} passes there.  On `oracles.twisted_f7_z7` the gradings differ
(Δ_{α,β} = (φ_β⊗id)Δ, S_α = S∘φ_α), and the axioms, both route calculi,
their covariance and the structure reports must still come out right.
"""

from __future__ import annotations

import json

import pytest

from hopfpi import (
    calculus_from_ideal,
    calculus_from_ideal_right,
    check_ad_invariant,
    check_bicovariant,
    check_left_covariant,
    check_right_covariant,
    right_ideal_from_generators,
    save_document,
    universal_calculus,
    verify_all,
)
from hopfpi.cli import main
from oracles import twisted_f7_z7

SQ = (1, 5, 1, 0, 0, 0, 0)      # (g − e)² = g² − 2g + e over F_7


@pytest.fixture(scope="module")
def twisted():
    return twisted_f7_z7()


@pytest.fixture(scope="module")
def twisted_document(twisted, tmp_path_factory):
    path = tmp_path_factory.mktemp("twisted") / "twisted.json"
    save_document(path, twisted, name="F7[Z/7] twisted by Z/3", ideals={"sq": [list(SQ)]})
    return path


def _run(capsys, *argv) -> dict:
    code = main([*argv, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["result"]) == (0, "pass"), report
    return report


def test_twisted_family_verifies(twisted):
    assert verify_all(twisted).ok
    assert len({id(s) for s in twisted.antipode}) == 3
    assert len({id(d) for d in twisted.comult.values()}) == 3


def test_universal_calculus_of_the_twisted_family(twisted):
    calc = universal_calculus(twisted)
    assert calc.gamma_dims == [42, 42, 42]
    assert check_bicovariant(calc).ok


@pytest.mark.parametrize("build", [calculus_from_ideal, calculus_from_ideal_right])
def test_ideal_of_the_twisted_family_is_bicovariant_on_both_routes(twisted, build):
    """((g − e)²) has dimension 5 and is ad-invariant, so the calculus of
    either route has Γ_α = 7 at every α and is left and right covariant."""
    ideal = right_ideal_from_generators(twisted, [SQ])
    assert ideal.dim == 5
    assert check_ad_invariant(twisted, ideal).ok
    calc = build(twisted, ideal)
    assert calc.gamma_dims == [7, 7, 7]
    assert check_left_covariant(calc).ok
    assert check_right_covariant(calc).ok
    assert check_bicovariant(calc).ok


@pytest.mark.parametrize("which, frame", [(["--universal"], 6), (["--ideal", "sq"], 1)],
                         ids=["universal", "ideal-sq"])
def test_structure_reports_of_the_twisted_family_pass(twisted_document, capsys, which, frame):
    """Every structure check passes on the universal calculus (a frame of
    dim ker ε = 6 invariant forms) and on the calculus of ((g − e)²) (one
    form), none of them not run."""
    report = _run(capsys, "structure", str(twisted_document), *which)
    assert report["dims"]["frame size"] == frame
    assert report["dims"]["Gamma"] == ([42] * 3 if frame == 6 else [7] * 3)
    assert report["checks"] and all(c["status"] == "pass" for c in report["checks"])
    assert report["notes"] == []


@pytest.mark.parametrize("route", [[], ["--right"]], ids=["left", "right"])
@pytest.mark.parametrize("which, gamma", [(["--universal"], 42), (["--ideal", "sq"], 7)],
                         ids=["universal", "ideal-sq"])
def test_calculus_reports_of_the_twisted_family_pass(twisted_document, capsys, route, which,
                                                      gamma):
    report = _run(capsys, "calculus", str(twisted_document), *which, *route)
    assert report["dims"]["Gamma"] == [gamma] * 3
    assert "covariance: bicovariant" in report["notes"]
