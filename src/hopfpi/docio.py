"""Definition documents: the JSON file format for Hopf π-coalgebra data.

Schema `hpc-1`.  All scalars are exact: JSON integers or strings like
"3/7"; floats are rejected.  Matrices are dense row lists; per-component
multiplication is given by structure-constant triples (i, j, k, value)
meaning e_i·e_j contains value·e_k.

Top-level keys:

    schema      "hpc-1"
    name        free-form label (optional)
    group       {"table": [[...]], "names": [...]}   grading group π
    field       "rationals" | {"prime": p}
    components  {"<α>": {"dim", "basis", "mult", "unit"}}
    comult      {"<α>,<β>": matrix of shape (dim_α·dim_β) × dim_{αβ}}
    counit      row of length dim_1
    antipode    {"<α>": matrix dim_{α^{-1}} × dim_α}
    psi         {"<α>": matrix dim_1 × dim_α}        (optional)
    ideals      {"<name>": [generator vectors in A_1]}  (optional)

The group's "names" and a component's "basis" are optional display names,
each a list of distinct strings, one per element or basis vector (an empty
list is the wrong length, not an absent one).

A block that repeats within a document is parsed once, and every place
that repeats it shares the one Matrix or tuple.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, replace

from .errors import (
    DimensionMismatch,
    NotAGroup,
    ParseError,
)
from .groups import group_from_table
from .hopf import HopfPiCoalgebra
from .linalg import Field, Matrix, PrimeField, Rationals

SCHEMA = "hpc-1"


@dataclass
class Document:
    """A parsed definition document: the structure plus named ideal generators."""

    name: str
    hopf: HopfPiCoalgebra
    ideal_generators: dict = dc_field(default_factory=dict)  # name -> list of vectors


def _require(cond: bool, message: str, context: str):
    if not cond:
        raise ParseError(message, context=context)


def _is_int(obj) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _parse_names(obj, context: str):
    """Display names: a JSON list of distinct strings, or None when absent.
    A repeated name would make a witness or a value ambiguous."""
    _require(obj is None or isinstance(obj, list) and all(isinstance(s, str) for s in obj),
             "names must be a list of strings", context)
    seen: set = set()
    for name in obj or ():
        _require(name not in seen, f"name {name!r} is repeated", context)
        seen.add(name)
    return obj


def _parse_scalar(f: Field, obj, context: str, *index: int):
    """obj as a scalar of f.  A bad scalar is blamed on context[i][j]…,
    a string built only then, since documents hold many scalars."""
    try:
        return f.parse(obj)
    except (ValueError, ZeroDivisionError) as exc:
        where = context + "".join(f"[{i}]" for i in index)
        raise ParseError(f"bad scalar {obj!r} ({exc})", context=where) from exc


def _parse_matrix(f: Field, obj, rows: int, cols: int, context: str) -> Matrix:
    """A dense row list as a Matrix: the shape is checked here and each
    scalar is canonical as parsed, so the nonzero ones are adopted as is."""
    _require(isinstance(obj, list) and len(obj) == rows,
             f"expected {rows} rows, got {len(obj) if isinstance(obj, list) else type(obj).__name__}",
             context)
    entries = {}
    zero = f.zero()
    for r, row in enumerate(obj):
        _require(isinstance(row, list) and len(row) == cols,
                 f"row {r}: expected {cols} entries", context)
        for c, v in enumerate(row):
            v = _parse_scalar(f, v, context, r, c)
            if v != zero:
                entries[(r, c)] = v
    return Matrix._unchecked(f, rows, cols, entries)


def _parse_vector(f: Field, obj, length: int, context: str) -> tuple:
    _require(isinstance(obj, list) and len(obj) == length,
             f"expected a vector of length {length}", context)
    return tuple(_parse_scalar(f, v, context, i) for i, v in enumerate(obj))


def _parse_mult(f: Field, triples, n: int, context: str) -> Matrix:
    """m_α from its structure-constant triples (i, j, k, value)."""
    _require(isinstance(triples, list), "mult triples required", context)
    entries: dict = {}
    zero = f.zero()
    for t, item in enumerate(triples):
        _require(isinstance(item, list) and len(item) == 4,
                 f"mult entry {t} must be [i, j, k, value]", context)
        i, j, k, v = item
        _require(all(_is_int(x) and 0 <= x < n for x in (i, j, k)),
                 f"mult entry {t} has indices out of range", context)
        sc = _parse_scalar(f, v, f"{context}.mult", t)
        key = (k, i * n + j)
        entries[key] = f.add(entries.get(key, zero), sc)
    return Matrix._unchecked(f, n, n * n, {key: v for key, v in entries.items() if v != zero})


class _Shared:
    """One object per distinct block of one document.

    A JSON block that repeats (Δ_{α,β} = Δ at every grading pair of a
    constant family, say) is parsed once and its Matrix or tuple reused,
    so the axiom checks, which are computed once per distinct tuple of
    operand objects, see the repetition.  A block is keyed by its parser,
    the shape it is parsed to and its repr, which tells apart every JSON
    value (1, true, 1.0 and "1" included); a malformed block raises at
    its first occurrence, as it would unshared.
    """

    def __init__(self, f: Field):
        self.field = f
        self._memo: dict = {}

    def parse(self, parser, obj, shape: tuple, context: str):
        """parser(field, obj, *shape, context), once per distinct block."""
        key = (parser, shape, repr(obj))
        if key not in self._memo:
            self._memo[key] = parser(self.field, obj, *shape, context)
        return self._memo[key]

    def names(self, names: tuple) -> tuple:
        """One tuple object per distinct tuple of basis names."""
        return self._memo.setdefault(("names", names), names)


def parse_field_spec(obj) -> Field:
    if obj == "rationals":
        return Rationals()
    if isinstance(obj, dict) and set(obj.keys()) == {"prime"}:
        p = obj["prime"]
        _require(_is_int(p), "prime must be an integer", "field")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise ParseError(str(exc), context="field") from exc
    raise ParseError('field must be "rationals" or {"prime": p}', context="field")


def _pair_key(a: int, b: int) -> str:
    return f"{a},{b}"


def _parse_pair_key(key: str, order: int, context: str) -> tuple[int, int]:
    parts = key.split(",")
    _require(len(parts) == 2, f"key {key!r} is not of the form 'a,b'", context)
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"key {key!r} is not a pair of integers", context=context)
    _require(0 <= a < order and 0 <= b < order, f"key {key!r} out of range", context)
    return a, b


def document_from_json(data: dict, name: str = "") -> Document:
    """Build the structure from parsed JSON; shape errors become ParseError."""
    _require(isinstance(data, dict), "document must be a JSON object", "document")
    _require(data.get("schema") == SCHEMA,
             f'schema must be "{SCHEMA}", got {data.get("schema")!r}', "schema")

    grp_block = data.get("group")
    _require(isinstance(grp_block, dict) and "table" in grp_block,
             'group block with a "table" required', "group")
    table = grp_block["table"]
    _require(isinstance(table, list) and all(isinstance(row, list) and all(map(_is_int, row))
                                             for row in table),
             "group table must be a list of rows of integers", "group")
    group_names = _parse_names(grp_block.get("names"), "group")
    try:
        grp = group_from_table(table)
    except NotAGroup as exc:
        raise ParseError(f"group table invalid: {exc}", context="group") from exc
    if group_names is not None:
        # the names are checked against the valid table, so a wrong count
        # blames the names, not the table
        _require(len(group_names) == grp.order,
                 f"{len(group_names)} names for {grp.order} group "
                 f"element{'' if grp.order == 1 else 's'}", "group.names")
        grp = replace(grp, names=tuple(group_names))

    f = parse_field_spec(data.get("field"))
    shared = _Shared(f)

    comp_block = data.get("components")
    _require(isinstance(comp_block, dict), "components block required", "components")
    dims = []
    mult = []
    unit = []
    basis_names = []
    for a in grp.elements():
        key = str(a)
        _require(key in comp_block, f"missing component {key}", "components")
        comp = comp_block[key]
        ctx = f"components[{key}]"
        _require(isinstance(comp, dict) and _is_int(comp.get("dim")),
                 "component needs an integer dim", ctx)
        n = comp["dim"]
        _require(n >= 1, "component dimension must be positive", ctx)
        dims.append(n)
        names = _parse_names(comp.get("basis"), ctx)
        if names is None:
            names = [f"x{i}" for i in range(n)]
        _require(len(names) == n, f"{len(names)} basis names for dim {n}", ctx)
        basis_names.append(shared.names(tuple(str(s) for s in names)))
        mult.append(shared.parse(_parse_mult, comp.get("mult"), (n,), ctx))
        unit.append(shared.parse(_parse_vector, comp.get("unit"), (n,), f"{ctx}.unit"))

    e = grp.identity
    comult_block = data.get("comult")
    _require(isinstance(comult_block, dict), "comult block required", "comult")
    comult = {}
    for a in grp.elements():
        for b in grp.elements():
            key = _pair_key(a, b)
            _require(key in comult_block, f"missing comult at {key}", "comult")
            comult[(a, b)] = shared.parse(
                _parse_matrix, comult_block[key], (dims[a] * dims[b], dims[grp.mul(a, b)]),
                f"comult[{key}]")
    for key in comult_block:
        _parse_pair_key(key, grp.order, "comult")

    counit_row = _parse_vector(f, data.get("counit"), dims[e], "counit")
    counit = Matrix.row_vector(f, counit_row)

    anti_block = data.get("antipode")
    _require(isinstance(anti_block, dict), "antipode block required", "antipode")
    antipode = []
    for a in grp.elements():
        key = str(a)
        _require(key in anti_block, f"missing antipode at {key}", "antipode")
        antipode.append(shared.parse(
            _parse_matrix, anti_block[key], (dims[grp.inv(a)], dims[a]), f"antipode[{key}]"))

    psi = None
    if "psi" in data and data["psi"] is not None:
        psi_block = data["psi"]
        _require(isinstance(psi_block, dict), "psi block must be an object", "psi")
        psi = []
        for a in grp.elements():
            key = str(a)
            _require(key in psi_block, f"missing psi at {key}", "psi")
            psi.append(shared.parse(_parse_matrix, psi_block[key], (dims[e], dims[a]),
                                    f"psi[{key}]"))

    try:
        hopf = HopfPiCoalgebra(grp, f, dims, comult, counit, mult, unit, antipode,
                               psi=psi, basis_names=basis_names)
    except DimensionMismatch as exc:
        raise ParseError(str(exc), context="document") from exc

    ideals = {}
    if "ideals" in data and data["ideals"] is not None:
        _require(isinstance(data["ideals"], dict), "ideals block must be an object", "ideals")
        for iname, gens in data["ideals"].items():
            _require(isinstance(gens, list), f"ideal {iname!r} must be a list of vectors", "ideals")
            ideals[str(iname)] = [
                _parse_vector(f, gv, dims[e], f"ideals[{iname}][{gi}]")
                for gi, gv in enumerate(gens)
            ]

    return Document(name=str(data.get("name") or name), hopf=hopf, ideal_generators=ideals)


def load_document(path) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(str(exc), context=str(path)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", context=str(path)) from exc
    return document_from_json(data, name=str(path))


# ---------------------------------------------------------------------------
# writing


def _render_scalar(f: Field, v):
    """JSON form: integral scalars as numbers, other rationals as "n/d"."""
    if type(v) is not int:
        v = f.canon(v)
    return v if type(v) is int else str(v)


def _render_matrix(f: Field, m: Matrix):
    return [[_render_scalar(f, v) for v in row] for row in m.to_rows()]


def document_to_json(h: HopfPiCoalgebra, name: str = "", ideals: dict | None = None) -> dict:
    """Serialisable form of a structure (inverse of document_from_json)."""
    f = h.field
    grp = h.group
    out: dict = {"schema": SCHEMA}
    if name:
        out["name"] = name
    out["group"] = {"table": [list(row) for row in grp.table]}
    if grp.names:
        out["group"]["names"] = list(grp.names)
    out["field"] = "rationals" if isinstance(f, Rationals) else {"prime": f.p}
    comps = {}
    for a in grp.elements():
        n = h.n(a)
        triples = []
        for (k, col), v in sorted(h.mult[a].entries.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            triples.append([col // n, col % n, k, _render_scalar(f, v)])
        comps[str(a)] = {
            "dim": n,
            "basis": [h.basis_name(a, i) for i in range(n)],
            "mult": triples,
            "unit": [_render_scalar(f, v) for v in h.unit[a]],
        }
    out["components"] = comps
    out["comult"] = {
        _pair_key(a, b): _render_matrix(f, h.comult[(a, b)])
        for a in grp.elements() for b in grp.elements()
    }
    out["counit"] = [_render_scalar(f, v) for v in h.counit.row(0)]
    out["antipode"] = {str(a): _render_matrix(f, h.antipode[a]) for a in grp.elements()}
    if h.psi is not None:
        out["psi"] = {str(a): _render_matrix(f, h.psi[a]) for a in grp.elements()}
    if ideals:
        out["ideals"] = {
            str(iname): [[_render_scalar(f, v) for v in gv] for gv in gens]
            for iname, gens in ideals.items()
        }
    return out


def save_document(path, h: HopfPiCoalgebra, name: str = "", ideals: dict | None = None) -> None:
    data = document_to_json(h, name=name, ideals=ideals)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=False)
        fh.write("\n")
