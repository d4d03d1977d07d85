"""Acceptance suite: one test per criterion, one visible line per result.

Everything here is exact; there are no tolerances to tune.  The
independent oracles (rank-nullity counts, exhaustive span enumeration)
are implemented inline so they cannot share a code path with the
library routines they check.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

from hopfpi import (
    ad_map,
    calculus_from_ideal,
    calculus_from_ideal_right,
    check_ad_invariant,
    check_bicovariant,
    enumerate_right_ideals,
    extract_structure,
    ideal_from_calculus,
    phi_l,
    phi_r,
    r_inv,
    r_map,
    reconstruct,
    reconstruction_matches,
    right_ideal_from_generators,
    t_inv,
    t_map,
    universal_bimodule,
    universal_calculus,
    verify_hopf,
    verify_pi_coalgebra,
    zero_ideal,
)
from hopfpi.cli import main as cli_main
from hopfpi.linalg import Matrix, Subspace
from oracles import flip, full_space, interchange_product, subspace_tensor

F = Fraction


@contextmanager
def announce(capsys, number: int, title: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"acceptance {number} ({title}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_axiom_suite(all_fixtures, capsys):
    """Every fixture passes the full axiom verification, fast."""
    with announce(capsys, 1, "axiom suite"):
        for name, h in all_fixtures.items():
            started = time.perf_counter()
            assert verify_pi_coalgebra(h).ok, name
            assert verify_hopf(h).ok, name
            assert time.perf_counter() - started < 1.0, f"{name} took too long"


def test_criterion_2_universal_dimensions(all_fixtures, capsys):
    """dim ker m_α = n_α² − n_α and the r/t images are exactly A⊗ker ε,
    ker ε⊗A."""
    with announce(capsys, 2, "universal calculus dimensions"):
        for h in all_fixtures.values():
            f = h.field
            ker_eps = h.counit_kernel()
            asq = universal_bimodule(h)
            n1 = h.n(h.group.identity)
            for a in h.group.elements():
                n = h.n(a)
                # rank-nullity oracle: multiplication is onto (unital algebra)
                assert h.mult[a].rank() == n
                assert asq.dim(a) == n * n - h.mult[a].rank() == n * n - n
                r_img = Subspace.from_spanning(
                    f, n * n1, [r_map(h, a).apply(v) for v in asq.sub[a].basis.to_rows()])
                assert r_img == subspace_tensor(full_space(f, n), ker_eps)
                t_img = Subspace.from_spanning(
                    f, n1 * n, [t_map(h, a).apply(v) for v in asq.sub[a].basis.to_rows()])
                assert t_img == subspace_tensor(ker_eps, full_space(f, n))
                eye = Matrix.identity(f, n * n)
                assert r_inv(h, a) @ r_map(h, a) == eye
                assert t_inv(h, a) @ t_map(h, a) == eye


def test_criterion_3_translation_identities(kz2_const, capsys):
    """The comultiplication interchanges with r/t through the two-sided
    coactions of the tensor square, on every grading pair."""
    h = kz2_const
    f = h.field
    e = h.group.identity
    with announce(capsys, 3, "r/t interchange identities"):
        for a in h.group.elements():
            for b in h.group.elements():
                ab = h.group.mul(a, b)
                lhs = h.comult[(a, b)].kron(Matrix.identity(f, h.n(e))) @ r_map(h, ab)
                rhs = Matrix.identity(f, h.n(a)).kron(r_map(h, b)) @ phi_l(h, a, b)
                assert lhs == rhs
                lhs_t = Matrix.identity(f, h.n(e)).kron(h.comult[(a, b)]) @ t_map(h, ab)
                rhs_t = t_map(h, a).kron(Matrix.identity(f, h.n(b))) @ phi_r(h, a, b)
                assert lhs_t == rhs_t
        for a in h.group.elements():
            collapse_l = (Matrix.identity(f, h.n(a)).kron(h.counit)
                          .kron(Matrix.identity(f, h.n(e))) @ phi_l(h, a, e))
            assert collapse_l == r_map(h, a)
            collapse_r = (h.counit.kron(Matrix.identity(f, h.n(e)))
                          .kron(Matrix.identity(f, h.n(a))) @ phi_r(h, e, a))
            assert collapse_r == t_map(h, a)


def _oracle_ideal_spans(p, order):
    """Independent enumeration of right ideals inside ker ε of F_p[Z/order].

    Plain modular arithmetic over complete vector sets, no library code.
    """
    def mul(v, w):
        out = [0] * order
        for i, x in enumerate(v):
            for j, y in enumerate(w):
                out[(i + j) % order] = (out[(i + j) % order] + x * y) % p
        return tuple(out)

    inside = [v for v in itertools.product(range(p), repeat=order) if sum(v) % p == 0]
    spans = set()
    for v in inside:
        for w in inside:
            span = set()
            for a in range(p):
                for b in range(p):
                    span.add(tuple((a * x + b * y) % p for x, y in zip(v, w)))
            spans.add(frozenset(span))
    units = [tuple(1 if i == j else 0 for i in range(order)) for j in range(order)]
    return [s for s in spans if all(mul(v, u) in s for v in s for u in units)]


def _full_vector_set(ideal, p, order):
    vectors = {tuple([0] * order)}
    basis = [tuple(int(x) % p for x in v) for v in ideal.subspace.basis.to_rows()]
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        vec = [0] * order
        for c, bvec in zip(coeffs, basis):
            vec = [(x + c * y) % p for x, y in zip(vec, bvec)]
        vectors.add(tuple(vec))
    return frozenset(vectors)


def test_criterion_4_classification_roundtrip(f7z3, capsys):
    """All right ideals (vs the exhaustive oracle), the dimension formula,
    and exact ideal recovery from the quotient calculus."""
    with announce(capsys, 4, "ideal classification round-trip"):
        oracle = _oracle_ideal_spans(7, 3)
        assert len(oracle) == 4
        ideals = enumerate_right_ideals(f7z3)
        assert len(ideals) == 4
        oracle_sets = set(oracle)
        seen_dims = []
        n = f7z3.n(0)
        for ideal in ideals:
            assert _full_vector_set(ideal, 7, 3) in oracle_sets
            calc = calculus_from_ideal(f7z3, ideal)
            seen_dims.append(calc.dim(0))
            assert calc.dim(0) == n * (n - 1) - n * ideal.dim
            recovered = ideal_from_calculus(calc)
            assert recovered == ideal
            rebuilt = calculus_from_ideal(f7z3, recovered)
            for a in f7z3.group.elements():
                assert rebuilt.kernels[a] == calc.kernels[a]
            # the right-route construction gives the same dimensions
            calc_r = calculus_from_ideal_right(f7z3, ideal)
            assert calc_r.gamma_dims == calc.gamma_dims
        assert sorted(seen_dims) == [0, 3, 3, 6]


def _all_test_ideals(all_fixtures):
    out = []
    for name, h in all_fixtures.items():
        if name == "f7z3":
            out.extend((h, i) for i in enumerate_right_ideals(h))
        elif name == "f7z3_const":
            out.extend((h, i) for i in enumerate_right_ideals(h))
        else:
            out.append((h, zero_ideal(h)))
            out.append((h, right_ideal_from_generators(h, [(F(1), F(-1))])))
    return out


def test_criterion_5_ad_invariance_equivalence(all_fixtures, capsys):
    """check_ad_invariant(R) agrees with bicovariance of the quotient
    calculus on every fixture and every ideal, with zero disagreements."""
    with announce(capsys, 5, "ad-invariance equivalence"):
        disagreements = 0
        for h, ideal in _all_test_ideals(all_fixtures):
            calc = calculus_from_ideal(h, ideal)
            if check_ad_invariant(h, ideal).ok != check_bicovariant(calc).ok:
                disagreements += 1
        assert disagreements == 0


def test_criterion_6_leibniz_everywhere(all_fixtures, capsys):
    """Leibniz on all basis pairs, the spanning property, and d(1) = 0 for
    every constructed calculus."""
    with announce(capsys, 6, "Leibniz and spanning"):
        for h, ideal in _all_test_ideals(all_fixtures):
            for calc in (universal_calculus(h), calculus_from_ideal(h, ideal)):
                assert calc.leibniz_report().ok
                assert calc.surjectivity_report().ok
                for a in h.group.elements():
                    img = calc.d[a].apply(h.unit[a])
                    assert all(x == h.field.zero() for x in img)


def test_criterion_7_structure_suite(kz2, f7z3, capsys):
    """Frames, functionals, R data and reconstruction on the universal
    calculi; every defining identity is re-verified during extraction and
    the reconstruction reproduces the original actions."""
    with announce(capsys, 7, "invariance structure suite"):
        for h, expect_size in ((kz2, 1), (f7z3, 2)):
            bim = universal_calculus(h).to_bimodule()
            data = extract_structure(bim)
            assert data.report.ok
            assert data.size == expect_size
            assert data.f is not None and data.g is not None
            assert data.R is not None and data.eta is not None
            rebuilt = reconstruct(h, data.f, data.R, data.size)
            assert rebuilt.verify().ok
            assert reconstruction_matches(bim, rebuilt).ok


def test_criterion_8_adjoint_coaction_identities(all_fixtures, capsys):
    """Coassociativity of ad and its multiplicativity rule on all pairs."""
    with announce(capsys, 8, "adjoint coaction identities"):
        for h in all_fixtures.values():
            f = h.field
            g = h.group
            e = g.identity
            n1 = h.n(e)
            for a in g.elements():
                for b in g.elements():
                    ab = g.mul(a, b)
                    lhs = ad_map(h, a).kron(Matrix.identity(f, h.n(b))) @ ad_map(h, b)
                    rhs = Matrix.identity(f, n1).kron(h.comult[(a, b)]) @ ad_map(h, ab)
                    assert lhs == rhs
            for a in g.elements():
                na = h.n(a)
                ai = g.inv(a)
                tdim = n1 * na
                mult2 = interchange_product(h.mult[e], h.mult[a], n1, na, n1, na)
                mu3 = mult2 @ mult2.kron(Matrix.identity(f, tdim))
                x_map = Matrix.column(f, h.unit[e]).kron(h.antipode[ai])
                z_map = h.comult[(e, a)]
                reorder = flip(f, n1, h.n(ai)).kron(Matrix.identity(f, na))
                spread = Matrix.identity(f, n1).kron(h.comult[(ai, a)])
                rhs = mu3 @ x_map.kron(ad_map(h, a)).kron(z_map) @ reorder @ spread
                assert ad_map(h, a) @ h.mult[e] == rhs


def test_criterion_9_deterministic_reports(fixture_dir, capsys):
    """Two runs of the enumeration command are byte-identical."""
    with announce(capsys, 9, "deterministic reports"):
        outputs = []
        for _ in range(2):
            code = cli_main(["enumerate", str(fixture_dir / "f7_z3.json")])
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        assert outputs[0]  # nonempty
