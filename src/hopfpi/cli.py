"""Batch command-line front-end.

Subcommands: verify | calculus | structure | enumerate, each reading a
definition document (see docio) and emitting a deterministic report as
text or JSON on stdout.  Exit codes: 0 success, 1 mathematical
violation, 2 malformed or unsupported input.  Timing goes to stderr so
stdout stays byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import calculus as calc_mod
from . import structure as struct_mod
from .docio import Document, load_document
from .errors import (
    DimensionMismatch,
    HopfPiError,
    NotAGroup,
    NotARightIdeal,
    NotInKernelOfCounit,
    ParseError,
    TooLarge,
    UnknownIdeal,
    UnsupportedField,
)
from .hopf import HOPF_CHECKS, PI_CHECKS, PSI_CHECKS, verify_all
from .reporting import Report

_INPUT_ERRORS = (ParseError, UnknownIdeal, NotInKernelOfCounit, NotARightIdeal,
                 TooLarge, UnsupportedField, DimensionMismatch, NotAGroup)


def _bucket_violations(report, names, output: Report, group) -> None:
    by_name: dict[str, list] = {n: [] for n in names}
    for v in report.violations:
        by_name.setdefault(v.check, []).append(v)
    for n in by_name:
        output.add_check(n, not by_name[n], [v.render(group) for v in by_name[n]])


def _dims_table(h) -> dict:
    return {f"A_{h.group.name(a)}": h.n(a) for a in h.group.elements()}


def _run_verification(doc: Document, output: Report) -> bool:
    """The verdict of verify_all; its checks go into `output` for `verify`,
    and for the other commands only when it fails."""
    h = doc.hopf
    report = verify_all(h)
    if output.command == "verify" or not report.ok:
        names = PI_CHECKS + HOPF_CHECKS + (PSI_CHECKS if h.psi is not None else ())
        _bucket_violations(report, names, output, h.group)
    return report.ok


def cmd_verify(doc: Document, args) -> Report:
    output = Report(command="verify", document=doc.name)
    output.dims = _dims_table(doc.hopf)
    _run_verification(doc, output)
    return output


def _resolve_ideal(doc: Document, args) -> calc_mod.RightIdeal:
    h = doc.hopf
    if args.universal:
        return calc_mod.zero_ideal(h)
    name = args.ideal
    if name not in doc.ideal_generators:
        known = ", ".join(sorted(doc.ideal_generators)) or "none"
        raise UnknownIdeal(f"ideal {name!r} not in document (known: {known})")
    return calc_mod.right_ideal_from_generators(h, doc.ideal_generators[name])


def _build_calculus(doc: Document, args):
    """The calculus the arguments name, and its ideal for the report: the
    universal calculus is the one of the zero ideal, on either route."""
    ideal = _resolve_ideal(doc, args)
    if args.universal:
        return calc_mod.universal_calculus(doc.hopf), ideal
    if getattr(args, "right", False):
        return calc_mod.calculus_from_ideal_right(doc.hopf, ideal), ideal
    return calc_mod.calculus_from_ideal(doc.hopf, ideal), ideal


def cmd_calculus(doc: Document, args) -> Report:
    h = doc.hopf
    output = Report(command="calculus", document=doc.name)
    if not _run_verification(doc, output):
        output.notes.append("structure fails verification; calculus not computed")
        return output
    calc, ideal = _build_calculus(doc, args)
    grp = h.group
    output.dims = _dims_table(h)
    output.dims["ideal"] = ideal.dim
    output.dims["A2"] = [calc.asq.dim(a) for a in grp.elements()]
    output.dims["N"] = [calc.kernels[a].dim for a in grp.elements()]
    output.dims["Gamma"] = calc.gamma_dims
    output.values["ideal basis"] = [h.render_element(grp.identity, v)
                                    for v in ideal.subspace.basis.to_rows()]
    left = calc_mod.check_left_covariant(calc)
    right = calc_mod.check_right_covariant(calc)
    bicov = left.merge(right)         # check_bicovariant, the axioms having passed
    output.add_report("leibniz", calc.leibniz_report(), grp)
    output.add_report("surjectivity", calc.surjectivity_report(), grp)
    output.add_report("left-covariant", left, grp)
    output.add_report("right-covariant", right, grp)
    output.add_report("bicovariant", bicov, grp)
    verdict = ("bicovariant" if bicov.ok else
               "left covariant" if left.ok else
               "right covariant" if right.ok else "not covariant")
    output.notes.append(f"covariance: {verdict}")
    return output


def cmd_structure(doc: Document, args) -> Report:
    h = doc.hopf
    grp = h.group
    output = Report(command="structure", document=doc.name)
    if not _run_verification(doc, output):
        output.notes.append("structure fails verification; extraction not attempted")
        return output
    calc, _ideal = _build_calculus(doc, args)
    bicov = calc_mod.check_bicovariant(calc)
    output.add_report("bicovariant", bicov, grp)
    output.dims = _dims_table(h)
    output.dims["Gamma"] = calc.gamma_dims
    if not bicov.ok:
        output.notes.append("calculus is not bicovariant; no structure data")
        return output
    data = struct_mod.extract_structure(calc.to_bimodule())
    output.dims["frame size"] = data.size
    f = h.field
    fvals: dict = {}
    if data.f is not None:
        rows = [t.to_rows() for t in data.f]       # row (i, j) of T_α: f_ij on A_α
        for i in range(data.size):
            for j in range(data.size):
                fvals[f"f[{i}][{j}]"] = {
                    f"on A_{grp.name(a)}": [f.render(x) for x in rows[a][i * data.size + j]]
                    for a in grp.elements()
                }
    output.values["f"] = fvals
    rvals: dict = {}
    if data.R is not None:
        for b in grp.elements():
            rvals[f"R in A_{grp.name(b)}"] = [
                [h.render_element(b, struct_mod.r_block(data.R[b], h.n(b), j, i))
                 for i in range(data.size)]
                for j in range(data.size)
            ]
    output.values["R"] = rvals
    not_run = dict(data.not_run)
    for name in struct_mod.CHECKS:
        witnesses = [v.render(grp) for v in data.report.violations if v.check == name]
        if witnesses or name not in not_run:
            output.add_check(name, not witnesses, witnesses)
            not_run.pop(name, None)
    for name, reason in not_run.items():
        output.notes.append(f"{name} not run: {reason}")
    return output


def cmd_enumerate(doc: Document, args) -> Report:
    h = doc.hopf
    grp = h.group
    output = Report(command="enumerate", document=doc.name)
    if not _run_verification(doc, output):
        output.notes.append("structure fails verification; enumeration not attempted")
        return output
    ideals = calc_mod.enumerate_right_ideals(h, max_dim=args.max_dim)
    output.dims = _dims_table(h)
    output.dims["ker ε"] = h.counit_kernel().dim
    columns = ["ideal", "dim R", "basis", "dim Γ", "ad-invariant",
               "left", "right", "bicovariant", "thm-agree"]
    rows = []
    all_agree = True
    for idx, ideal in enumerate(ideals):
        calc = calc_mod.calculus_from_ideal(h, ideal)
        ad_ok = calc_mod.check_ad_invariant(h, ideal).ok
        left_ok = calc_mod.check_left_covariant(calc).ok
        right_ok = calc_mod.check_right_covariant(calc).ok
        bicov_ok = left_ok and right_ok
        agree = ad_ok == bicov_ok
        all_agree = all_agree and agree
        basis = "; ".join(h.render_element(grp.identity, v)
                          for v in ideal.subspace.basis.to_rows()) or "0"
        rows.append([f"R{idx}", ideal.dim, basis, str(calc.gamma_dims),
                     _yn(ad_ok), _yn(left_ok), _yn(right_ok), _yn(bicov_ok), _yn(agree)])
    output.tables["right ideals in ker ε"] = {"columns": columns, "rows": rows}
    output.add_check("ad-invariance-matches-bicovariance", all_agree)
    return output


def _yn(b: bool) -> str:
    return "yes" if b else "no"


def dimension(text: str) -> int:
    """A dimension bound on the command line: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a dimension is at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfpi",
        description="Exact computer algebra for Hopf group coalgebras: axiom "
                    "verification, differential calculi, covariance and "
                    "invariance structure.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("path", help="definition document (JSON, schema hpc-1)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run the full axiom suite")
    common(p)

    p = sub.add_parser("calculus", help="build a differential calculus and decide covariance")
    common(p)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--universal", action="store_true",
                       help="the universal calculus (zero ideal)")
    which.add_argument("--ideal", metavar="NAME", help="named ideal from the document")
    p.add_argument("--right", action="store_true",
                   help="right covariant construction (default: left)")

    p = sub.add_parser("structure", help="extract invariant frames, functionals and R data")
    common(p)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--universal", action="store_true")
    which.add_argument("--ideal", metavar="NAME")

    p = sub.add_parser("enumerate", help="enumerate right ideals in ker ε (prime fields)")
    common(p)
    p.add_argument("--max-dim", type=dimension, default=None, dest="max_dim",
                   help="only ideals of dimension at most this")
    return parser


_DISPATCH = {
    "verify": cmd_verify,
    "calculus": cmd_calculus,
    "structure": cmd_structure,
    "enumerate": cmd_enumerate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        doc = load_document(args.path)
        report = _DISPATCH[args.subcommand](doc, args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HopfPiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = report.to_json() + "\n" if args.format == "json" else report.to_text()
    sys.stdout.write(out)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    print(f"elapsed_ms={elapsed_ms}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
