"""B+ tree keyed on app-component count, supporting range candidate queries.

The tree is persistent: ``insert`` copies the root-to-leaf path and returns a
new tree sharing all untouched nodes, which is what lets the signature store
hand out immutable snapshots while inserts proceed (single writer, many
readers).  Keys are ints; each leaf slot holds the tuple of references filed
under that key, in insertion order.

Conventions (order ``b`` = max children of an internal node):

* a node splits when it would exceed b - 1 keys,
* separators copy up from leaves and move up from internal nodes,
* equal keys descend to the right of their separator,
* all leaves sit at the same depth; there are no delete operations.

Insertion costs O(log_b n) node copies; a range query visiting k entries
costs O(log_b n + k).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

DEFAULT_ORDER = 32


class IndexInvariantError(Exception):
    """Raised by audit() when the tree structure is malformed."""


@dataclass(frozen=True)
class _Leaf:
    keys: tuple[int, ...]
    vals: tuple[tuple, ...]


@dataclass(frozen=True)
class _Inner:
    keys: tuple[int, ...]
    children: tuple


class BplusIndex:
    """Immutable B+ tree of int key -> tuple of refs."""

    __slots__ = ("order", "root", "entry_count")

    def __init__(self, order: int = DEFAULT_ORDER, root=None, entry_count: int = 0):
        if order < 3:
            raise ValueError("order must be at least 3")
        self.order = order
        self.root = root if root is not None else _Leaf((), ())
        self.entry_count = entry_count

    def __len__(self) -> int:
        return self.entry_count

    def insert(self, key: int, ref) -> "BplusIndex":
        new_root, split = self._insert(self.root, key, ref)
        if split is not None:
            sep, right = split
            new_root = _Inner((sep,), (new_root, right))
        return BplusIndex(self.order, new_root, self.entry_count + 1)

    def _insert(self, node, key: int, ref):
        max_keys = self.order - 1
        if isinstance(node, _Leaf):
            i = bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                vals = node.vals[:i] + (node.vals[i] + (ref,),) + node.vals[i + 1 :]
                return _Leaf(node.keys, vals), None
            keys = node.keys[:i] + (key,) + node.keys[i:]
            vals = node.vals[:i] + ((ref,),) + node.vals[i:]
            if len(keys) <= max_keys:
                return _Leaf(keys, vals), None
            mid = len(keys) // 2
            left = _Leaf(keys[:mid], vals[:mid])
            right = _Leaf(keys[mid:], vals[mid:])
            return left, (right.keys[0], right)
        i = bisect_right(node.keys, key)
        child, split = self._insert(node.children[i], key, ref)
        children = node.children[:i] + (child,) + node.children[i + 1 :]
        keys = node.keys
        if split is not None:
            sep, right = split
            keys = keys[:i] + (sep,) + keys[i:]
            children = children[: i + 1] + (right,) + children[i + 1 :]
        if len(keys) <= max_keys:
            return _Inner(keys, children), None
        mid = len(keys) // 2
        up = keys[mid]
        left = _Inner(keys[:mid], children[: mid + 1])
        right_node = _Inner(keys[mid + 1 :], children[mid + 1 :])
        return left, (up, right_node)

    def range(self, lo: int, hi: int) -> list:
        """All refs with lo <= key <= hi, in key order then insertion order."""
        return [ref for _, refs in self.groups(lo, hi) for ref in refs]

    def groups(self, lo: int, hi: int) -> list[tuple[int, tuple]]:
        """(key, its refs) for each key in [lo, hi], in key order."""
        out: list = []
        if hi >= lo:
            self._collect(self.root, lo, hi, out)
        return out

    def _collect(self, node, lo: int, hi: int, out: list) -> None:
        if isinstance(node, _Leaf):
            i = bisect_left(node.keys, lo)
            while i < len(node.keys) and node.keys[i] <= hi:
                out.append((node.keys[i], node.vals[i]))
                i += 1
            return
        start = bisect_right(node.keys, lo)
        # Descend every child whose key interval intersects [lo, hi].
        for i in range(start, len(node.children)):
            if i > start and node.keys[i - 1] > hi:
                break
            self._collect(node.children[i], lo, hi, out)

    def keys(self) -> list[int]:
        return [k for k, _ in self.groups(float("-inf"), float("inf"))]

    def audit(self) -> None:
        """Verify structural invariants; raises IndexInvariantError."""
        b = self.order
        leaf_depths: set[int] = set()
        entries = 0

        def walk(node, depth: int, lo, hi, is_root: bool) -> None:
            nonlocal entries
            keys = node.keys
            for a, c in zip(keys, keys[1:]):
                if a >= c:
                    raise IndexInvariantError(f"keys not strictly sorted: {keys}")
            for k in keys:
                if (lo is not None and k < lo) or (hi is not None and k >= hi):
                    raise IndexInvariantError(f"key {k} outside separator bounds [{lo},{hi})")
            if isinstance(node, _Leaf):
                leaf_depths.add(depth)
                if len(node.keys) != len(node.vals):
                    raise IndexInvariantError("leaf keys/vals length mismatch")
                if len(node.keys) > b - 1:
                    raise IndexInvariantError("overfull leaf")
                if not is_root and len(node.keys) < b // 2:
                    raise IndexInvariantError("underfull leaf")
                entries += sum(len(v) for v in node.vals)
                return
            if len(node.children) != len(keys) + 1:
                raise IndexInvariantError("internal child count != keys + 1")
            if len(node.children) > b:
                raise IndexInvariantError("internal node with too many children")
            min_children = 2 if is_root else (b + 1) // 2
            if len(node.children) < min_children:
                raise IndexInvariantError("underfull internal node")
            bounds = [lo, *keys, hi]
            for i, child in enumerate(node.children):
                walk(child, depth + 1, bounds[i], bounds[i + 1], False)

        walk(self.root, 0, None, None, True)
        if len(leaf_depths) > 1:
            raise IndexInvariantError(f"leaves at unequal depths: {sorted(leaf_depths)}")
        if entries != self.entry_count:
            raise IndexInvariantError(f"entry count {self.entry_count} != stored {entries}")
        all_keys = self.keys()
        if any(a >= c for a, c in zip(all_keys, all_keys[1:])):
            raise IndexInvariantError("leaf chain out of order")
