"""The public surface of hopfpi carries no code that only the tests call.

Three checks, by reading the sources with `ast` alone:

* every name that `hopfpi/__init__.py` exports is used somewhere other
  than its own definition: in another part of `src/hopfpi`, in the
  README's typical library session, or in `perfbench/` (whose tracer
  names the functions it wraps in strings); the paper-level API that has
  no caller of its own is listed in PAPER_API;
* so is every public method of an exported class, but only a read as
  an attribute counts (`x.name`, or `Class.name` for a classmethod), so
  a bare name or another class's method of the same name does not keep
  it; the field protocol that has no caller of its own is listed in
  FIELD_PROTOCOL;
* no module of `src/hopfpi` imports a name it never uses, so removing a
  caller does not leave its import behind.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hopfpi"

# Constructions of the paper that the library offers without calling them
# itself: the ideal of a covariant calculus and its induced coactions.
PAPER_API = {"ideal_from_calculus", "induced_delta_l", "induced_delta_r"}

# Methods every scalar field offers, whether or not the library calls them.
FIELD_PROTOCOL = {"from_int"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _readme_session() -> ast.Module:
    """The python block after "A typical library session:" in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("A typical library session:", 1)[1]
    return ast.parse(re.search(r"```python\n(.*?)```", block, re.S).group(1))


def _exports() -> dict[str, str]:
    """{name: module} for every name hopfpi/__init__.py exports; a star
    import exports the public top-level names of its module."""
    out = {}
    for node in _parse(PACKAGE / "__init__.py").body:
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            if alias.name != "*":
                out[alias.asname or alias.name] = node.module
                continue
            for top in _parse(PACKAGE / f"{node.module}.py").body:
                if isinstance(top, (ast.ClassDef, ast.FunctionDef)) and not top.name.startswith("_"):
                    out[top.name] = node.module
    return out


def _used_names(tree: ast.AST, strings: bool = False) -> Counter:
    """How often each name is read in tree, as a bare name or an attribute;
    with `strings`, also the dotted parts of string constants, which is how
    the perfbench tracer names the functions it wraps."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def _attribute_reads(tree: ast.AST, strings: bool = False) -> Counter:
    """How often each attribute is read in tree, keyed (owner, name): the
    owner is the bare name it is read on (`Matrix.identity`), else None;
    with `strings`, also each dotted string constant `Owner.name`, which is
    how the perfbench tracer names the methods it wraps."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            out[(owner, node.attr)] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            out.update(zip([None, *parts], parts))
    return out


def _definition(tree: ast.Module, name: str) -> ast.AST | None:
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name:
            return node
    return None


def _modules() -> dict[str, ast.Module]:
    return {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def _outside_names() -> Counter:
    """Names read by the README session and by perfbench, strings included."""
    out = _used_names(_readme_session())
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        out |= _used_names(_parse(path), strings=True)
    return out


def _uncalled(definitions, modules: dict[str, ast.Module], outside: Counter,
              allowed: set[str]) -> list[str]:
    """`label` of each (label, name, node) whose name is read nowhere in
    src/hopfpi but in its definition `node` (None for an assignment), nor
    in `outside`, unless allowed."""
    counts = sum((_used_names(tree) for tree in modules.values()), Counter())
    uncalled = []
    for label, name, node in definitions:
        inside = _used_names(node)[name] if node is not None else 0    # a recursive call
        if counts[name] <= inside and name not in outside and name not in allowed:
            uncalled.append(label)
    return uncalled


def test_every_export_has_a_caller():
    modules = _modules()
    definitions = [(f"{home}.{name}", name, _definition(modules[home], name))
                   for name, home in sorted(_exports().items())]
    uncalled = _uncalled(definitions, modules, _outside_names(), PAPER_API)
    assert uncalled == [], f"exported but called only by the tests: {uncalled}"


def _is_classmethod(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "classmethod" for d in node.decorator_list)


def _method_reads(reads: Counter, cls: str, node: ast.FunctionDef) -> int:
    """Reads of method `node` of class `cls` among `reads`: as `Class.name`
    for a classmethod, as any attribute `x.name` otherwise."""
    if _is_classmethod(node):
        return reads[(cls, node.name)]
    return sum(n for (_, attr), n in reads.items() if attr == node.name)


def test_every_public_method_has_a_caller():
    modules = _modules()
    inside = sum((_attribute_reads(tree) for tree in modules.values()), Counter())
    outside = _attribute_reads(_readme_session())
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= _attribute_reads(_parse(path), strings=True)
    methods = []
    for name, home in sorted(_exports().items()):
        cls = _definition(modules[home], name)
        if not isinstance(cls, ast.ClassDef):
            continue
        methods += [(f"{home}.{name}.{node.name}", name, node) for node in cls.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert methods
    uncalled = [label for label, cls, node in methods
                if _method_reads(inside, cls, node) <= _method_reads(_attribute_reads(node), cls, node)
                and not _method_reads(outside, cls, node) and node.name not in FIELD_PROTOCOL]
    assert uncalled == [], f"public methods called only by the tests: {uncalled}"


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":      # its imports are the exports
            continue
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound != "*" and bound not in used:
                        unused.append(f"{path.stem}: {bound}")
    assert unused == [], f"imported but never used: {unused}"
