"""Dense node interning and the uint64-packed bitset compute kernel.

The set-based machinery in :mod:`repro.core.relations` represents run-scale
state as ``set[str]`` / ``set[tuple[str, str]]`` and pays a hash lookup per
element.  This module re-platforms that data path on *dense interned ids*
(each run node gets an index ``0 .. n-1``, assigned once per
:class:`~repro.workflow.run.Run` and memoized on it) and *packed bitsets*:

* a node set is one unbounded Python integer whose bit ``i`` is node ``i``
  (CPython stores it as an array of native words, so ``&``/``|``/``~`` run
  word-parallel at C speed — 64 nodes per machine operation);
* a relation or adjacency structure is one such row per source node, with
  bit ``j`` of row ``i`` meaning ``i → j``.

This is the kernel of joins and closures (:class:`PackedRelation`, driven by
:func:`~repro.core.relations.evaluate_regex_relation_packed`) and of the
reachability closures behind restriction pushdown (:func:`closure_mask`).
Per-seed frontier searches stay on sets: on sparse runs their per-edge cost
tracks the real out-degree, where a packed wave pays the full row width.

When numpy is importable (a soft dependency, probed at import time — see
:data:`HAS_NUMPY`) wide row unions additionally take a vectorized path:
rows are serialized to a fixed-width little-endian uint64 word layout
(``row_byte_width`` = ``ceil(n / 64) * 8`` bytes per row), mirrored into an
``(n, words)`` ``uint64`` matrix, and a propagation becomes one
``np.bitwise_or.reduce`` over the selected rows.  The kernel is exactly
equivalent with or without numpy; the probe only switches implementations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workflow.run import Run

__all__ = [
    "WORD_BITS",
    "HAS_NUMPY",
    "word_count",
    "row_byte_width",
    "bit_indices",
    "rows_to_bytes",
    "NodeInterner",
    "PackedAdjacency",
    "PackedRunView",
    "build_run_view",
    "closure_mask",
    "PackedRelation",
]

WORD_BITS = 64


def _load_numpy() -> Any:
    """Probe for numpy without making it a hard dependency."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


_NUMPY: Any = _load_numpy()
HAS_NUMPY: bool = _NUMPY is not None

# Vectorize a propagation only when it unions at least this many rows (below
# that, the Python big-int loop wins on constant factors) ...
_NUMPY_MIN_FANOUT = 32
# ... and only mirror a dense uint64 matrix for graphs up to this many nodes
# (the mirror costs n * ceil(n/64) * 8 bytes; 16384 nodes = 32 MiB).
_DENSE_NODE_LIMIT = 1 << 14


def word_count(bits: int) -> int:
    """Number of 64-bit words needed for a ``bits``-wide bitset row."""
    return (bits + WORD_BITS - 1) // WORD_BITS


def row_byte_width(bits: int) -> int:
    """Serialized row width in bytes: whole little-endian uint64 words."""
    return word_count(bits) * 8


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out: list[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def rows_to_bytes(rows: Sequence[int], bits: int) -> bytes:
    """Serialize rows into the fixed-width little-endian word layout."""
    width = row_byte_width(bits)
    return b"".join(row.to_bytes(width, "little") for row in rows)


class NodeInterner:
    """Dense ``node id -> bit index`` table for one run, built once.

    ``ids`` preserves run node order, so bit indices (and therefore every
    packed row) are deterministic for a given run.
    """

    __slots__ = ("ids", "index", "full_mask")

    def __init__(self, ids: Iterable[str]) -> None:
        self.ids: tuple[str, ...] = tuple(ids)
        self.index: dict[str, int] = {
            node_id: position for position, node_id in enumerate(self.ids)
        }
        self.full_mask: int = (1 << len(self.ids)) - 1

    def __len__(self) -> int:
        return len(self.ids)

    def mask_of(self, node_ids: Iterable[str]) -> int:
        """Pack a node-id collection into a bitset (unknown ids dropped)."""
        index = self.index
        mask = 0
        for node_id in node_ids:
            position = index.get(node_id)
            if position is not None:
                mask |= 1 << position
        return mask

    def nodes_of(self, mask: int) -> list[str]:
        """Unpack a bitset back into node ids, in bit (= run) order."""
        ids = self.ids
        return [ids[position] for position in bit_indices(mask)]


class PackedAdjacency:
    """One packed row per source node; ``propagate`` is the kernel hot loop."""

    __slots__ = ("node_count", "rows", "_dense")

    def __init__(self, node_count: int, rows: Sequence[int]) -> None:
        if len(rows) != node_count:
            raise ValueError(f"expected {node_count} rows, got {len(rows)}")
        self.node_count = node_count
        self.rows: list[int] = list(rows)
        # Lazily-built numpy mirror; idempotent to race on (see _matrix).
        self._dense: Any = None

    def propagate(self, mask: int) -> int:
        """Union of the successor rows of every set bit of ``mask``."""
        if (
            _NUMPY is not None
            and 0 < self.node_count <= _DENSE_NODE_LIMIT
            and mask.bit_count() >= _NUMPY_MIN_FANOUT
        ):
            return self._propagate_dense(mask)
        rows = self.rows
        out = 0
        while mask:
            low = mask & -mask
            out |= rows[low.bit_length() - 1]
            mask ^= low
        return out

    def _matrix(self) -> Any:
        """The ``(n, words)`` uint64 mirror of the rows, built on first use.

        Safe to race from threads: every builder computes the same immutable
        array and the attribute store is atomic under the GIL.
        """
        dense = self._dense
        if dense is None:
            words = word_count(self.node_count)
            flat = _NUMPY.frombuffer(
                rows_to_bytes(self.rows, self.node_count), dtype=_NUMPY.uint64
            )
            dense = flat.reshape(self.node_count, words)
            self._dense = dense
        return dense

    def _propagate_dense(self, mask: int) -> int:
        width = row_byte_width(self.node_count)
        mask_bytes = _NUMPY.frombuffer(
            mask.to_bytes(width, "little"), dtype=_NUMPY.uint8
        )
        selected = _NUMPY.unpackbits(mask_bytes, bitorder="little")[: self.node_count]
        rows = self._matrix()[selected.astype(bool)]
        if not len(rows):
            return 0
        out = _NUMPY.bitwise_or.reduce(rows, axis=0)
        return int.from_bytes(out.tobytes(), "little")


class PackedRunView:
    """The memoized packed form of a run.

    ``by_tag`` and ``any_tag`` are the forward per-tag and wildcard
    adjacency the join path reads; ``backward_any_tag`` is the reversed
    wildcard adjacency behind backward reachability closures.  Built once
    per run (see ``Run.packed``) and reused by every query, which is what
    retires the old per-call adjacency rebuilds in the join and closure
    paths.
    """

    __slots__ = ("interner", "by_tag", "any_tag", "backward_any_tag")

    def __init__(
        self,
        interner: NodeInterner,
        by_tag: Mapping[str, PackedAdjacency],
        any_tag: PackedAdjacency,
        backward_any_tag: PackedAdjacency,
    ) -> None:
        self.interner = interner
        self.by_tag: dict[str, PackedAdjacency] = dict(by_tag)
        self.any_tag = any_tag
        self.backward_any_tag = backward_any_tag


def build_run_view(run: "Run") -> PackedRunView:
    """Intern a run's nodes and pack its adjacency: forward by tag, plus the
    wildcard union in both directions."""
    interner = NodeInterner(run.nodes)
    index = interner.index
    node_count = len(interner)
    by_tag: dict[str, list[int]] = {}
    forward_any = [0] * node_count
    backward_any = [0] * node_count
    for edge in run.edges:
        source = index[edge.source]
        target = index[edge.target]
        target_bit = 1 << target
        tag_rows = by_tag.get(edge.tag)
        if tag_rows is None:
            tag_rows = [0] * node_count
            by_tag[edge.tag] = tag_rows
        tag_rows[source] |= target_bit
        forward_any[source] |= target_bit
        backward_any[target] |= 1 << source
    return PackedRunView(
        interner,
        {tag: PackedAdjacency(node_count, rows) for tag, rows in by_tag.items()},
        PackedAdjacency(node_count, forward_any),
        PackedAdjacency(node_count, backward_any),
    )


def closure_mask(adjacency: PackedAdjacency, seeds: int) -> int:
    """Reachability closure of a seed mask (seeds included), by wavefront.

    Each round propagates the whole frontier in one word-parallel union, so
    the loop runs once per BFS level instead of once per node.
    """
    reach = seeds
    frontier = seeds
    while frontier:
        fresh = adjacency.propagate(frontier) & ~reach
        reach |= fresh
        frontier = fresh
    return reach


class PackedRelation:
    """A node-pair relation as packed rows (bit ``j`` of row ``i`` = ``i → j``)."""

    __slots__ = ("node_count", "rows")

    def __init__(self, node_count: int, rows: Sequence[int]) -> None:
        if len(rows) != node_count:
            raise ValueError(f"expected {node_count} rows, got {len(rows)}")
        self.node_count = node_count
        self.rows: list[int] = list(rows)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def empty(cls, node_count: int) -> "PackedRelation":
        return cls(node_count, [0] * node_count)

    @classmethod
    def identity(cls, node_count: int, universe: int) -> "PackedRelation":
        """The diagonal over a node universe (the empty path)."""
        rows = [0] * node_count
        for position in bit_indices(universe):
            rows[position] = 1 << position
        return cls(node_count, rows)

    @classmethod
    def from_pairs(
        cls, interner: NodeInterner, pairs: Iterable[tuple[str, str]]
    ) -> "PackedRelation":
        """Pack a set-based relation (pairs with unknown ids are dropped)."""
        index = interner.index
        rows = [0] * len(interner)
        for source, target in pairs:
            source_bit = index.get(source)
            target_bit = index.get(target)
            if source_bit is not None and target_bit is not None:
                rows[source_bit] |= 1 << target_bit
        return cls(len(interner), rows)

    @classmethod
    def from_adjacency(
        cls, adjacency: PackedAdjacency, allowed: int | None
    ) -> "PackedRelation":
        """A single-step relation from packed adjacency, restricted to a
        universe mask on both endpoints (``None`` = unrestricted)."""
        if allowed is None:
            return cls(adjacency.node_count, adjacency.rows)
        rows = [0] * adjacency.node_count
        source_mask = allowed
        adjacency_rows = adjacency.rows
        while source_mask:
            low = source_mask & -source_mask
            position = low.bit_length() - 1
            rows[position] = adjacency_rows[position] & allowed
            source_mask ^= low
        return cls(adjacency.node_count, rows)

    # -- inspection --------------------------------------------------------------

    def is_empty(self) -> bool:
        return not any(self.rows)

    def pair_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def to_pairs(self, interner: NodeInterner) -> set[tuple[str, str]]:
        """Unpack into the set-based :data:`~repro.core.relations.NodePairs`."""
        ids = interner.ids
        out: set[tuple[str, str]] = set()
        for position, row in enumerate(self.rows):
            if not row:
                continue
            source = ids[position]
            for target in bit_indices(row):
                out.add((source, ids[target]))
        return out

    # -- algebra -----------------------------------------------------------------

    def union(self, other: "PackedRelation") -> "PackedRelation":
        return PackedRelation(
            self.node_count,
            [mine | theirs for mine, theirs in zip(self.rows, other.rows)],
        )

    def compose(self, other: "PackedRelation") -> "PackedRelation":
        """Relational composition: row ``i`` becomes the union of the other
        relation's rows over row ``i``'s set bits (a boolean matrix product
        computed word-parallel)."""
        other_rows = other.rows
        out = [0] * self.node_count
        for position, row in enumerate(self.rows):
            acc = 0
            while row:
                low = row & -row
                acc |= other_rows[low.bit_length() - 1]
                row ^= low
            out[position] = acc
        return PackedRelation(self.node_count, out)

    def transitive_closure(self) -> "PackedRelation":
        """``R+`` by in-place row sweeps to a fixpoint.

        Each sweep replaces row ``i`` with ``row[i] | union(row[j] for j in
        row[i])`` against the *current* rows, so reachability discovered
        early in a sweep accelerates later rows; sweeps repeat until no row
        changes.  Equivalent to the set-based semi-naive fixpoint.
        """
        rows = list(self.rows)
        changed = True
        while changed:
            changed = False
            for position, row in enumerate(rows):
                if not row:
                    continue
                acc = row
                pending = row
                while pending:
                    low = pending & -pending
                    acc |= rows[low.bit_length() - 1]
                    pending ^= low
                if acc != row:
                    rows[position] = acc
                    changed = True
        return PackedRelation(self.node_count, rows)

    def with_diagonal(self, universe: int) -> "PackedRelation":
        """Add the identity over a universe mask (``R`` → ``R ∪ id``)."""
        rows = list(self.rows)
        for position in bit_indices(universe):
            rows[position] |= 1 << position
        return PackedRelation(self.node_count, rows)

    def restrict(self, sources: int | None, targets: int | None) -> "PackedRelation":
        """Keep pairs with the source in ``sources`` and target in ``targets``
        (``None`` = unconstrained, mirroring the set-based ``restrict``)."""
        rows = self.rows
        out = [0] * self.node_count
        target_mask = -1 if targets is None else targets
        if sources is None:
            for position, row in enumerate(rows):
                out[position] = row & target_mask
        else:
            pending = sources
            while pending:
                low = pending & -pending
                position = low.bit_length() - 1
                out[position] = rows[position] & target_mask
                pending ^= low
        return PackedRelation(self.node_count, out)
