"""Finite groups presented by full multiplication tables.

Elements are indices 0..order-1; these indices are the gradings used
everywhere else in the package.  Construction verifies the axioms
exhaustively (the grading group is always small).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotAGroup


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    names: tuple[str, ...] = field(default=(), compare=False)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def name(self, a: int) -> str:
        if self.names:
            return self.names[a]
        return str(a)

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def group_from_table(table, names=None) -> FiniteGroup:
    """Build a group from a square multiplication table, verifying axioms.

    Raises NotAGroup with a witness (element or triple) on failure.
    """
    rows = [tuple(int(x) for x in row) for row in table]
    n = len(rows)
    if n == 0:
        raise NotAGroup("empty table")
    for row in rows:
        if len(row) != n:
            raise NotAGroup(f"table is {n} rows but a row has {len(row)} entries")
        for x in row:
            if not 0 <= x < n:
                raise NotAGroup(f"entry {x} out of range [0, {n})", witness=x)
    tbl = tuple(rows)

    identity = None
    for e in range(n):
        if all(tbl[e][a] == a and tbl[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")

    inverse = []
    for a in range(n):
        inv_a = None
        for b in range(n):
            if tbl[a][b] == identity and tbl[b][a] == identity:
                inv_a = b
                break
        if inv_a is None:
            raise NotAGroup(f"element {a} has no inverse", witness=a)
        inverse.append(inv_a)

    for a in range(n):
        for b in range(n):
            for c in range(n):
                if tbl[tbl[a][b]][c] != tbl[a][tbl[b][c]]:
                    raise NotAGroup(
                        f"associativity fails at ({a},{b},{c})", witness=(a, b, c)
                    )

    group_names = () if names is None else tuple(str(s) for s in names)
    if names is not None and len(group_names) != n:
        raise NotAGroup(f"{len(group_names)} names for {n} elements")
    return FiniteGroup(n, tbl, identity, tuple(inverse), group_names)


def cyclic(n: int, names=None) -> FiniteGroup:
    """ℤ/n with table[a][b] = (a+b) mod n."""
    if n < 1:
        raise NotAGroup(f"cyclic({n}): order must be positive")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return group_from_table(table, names=names)


def trivial_group() -> FiniteGroup:
    return cyclic(1, names=("1",))
