"""Dense node interning and the uint64-packed bitset compute kernel.

The set-based machinery in :mod:`repro.core.relations` represents run-scale
state as ``set[str]`` / ``set[tuple[str, str]]`` and pays a hash lookup per
element.  This module re-platforms that data path on *dense interned ids*
(each run node gets an index ``0 .. n-1`` in the run's topological order,
assigned once per :class:`~repro.workflow.run.Run` and memoized on it) and
*packed bitsets*:

* a node set is one unbounded Python integer whose bit ``i`` is node ``i``
  (CPython stores it as an array of native words, so ``&``/``|``/``~`` run
  word-parallel at C speed — 64 nodes per machine operation);
* a relation or adjacency structure is one such row per source node, with
  bit ``j`` of row ``i`` meaning ``i → j``.

Runs are DAGs, so under topological numbering every relation over run paths
is upper-triangular plus the diagonal: ``i → j`` implies ``i <= j``.  That
is what lets :meth:`PackedRelation.transitive_closure` finish in one pass.

This is the kernel of the joins and closures that answer an unsafe query
without node lists (:class:`PackedRelation`, driven by
:func:`~repro.core.relations.evaluate_regex_relation_packed`) and of the
reachability closures behind restriction pushdown (:func:`closure_mask`).
The frontier sweep (:func:`~repro.core.relations.frontier_search`) keeps
string-keyed node maps and uses packed integers only for its seed sets: it
follows the run's real out-degree, where a packed wave pays the full row
width.
"""

from __future__ import annotations

from itertools import compress
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.errors import RelationOrderError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workflow.run import Run

__all__ = [
    "bit_indices",
    "NodeInterner",
    "PackedAdjacency",
    "PackedRunView",
    "build_run_view",
    "closure_mask",
    "PackedRelation",
]


#: ``bin()`` digits to truth values: least significant digit first, each
#: ``"1"`` becomes a true byte for :func:`itertools.compress`.
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative ``mask``, ascending.

    Scans the binary text at C speed.  Peeling off the lowest bit instead
    copies the whole integer once per set bit, which goes quadratic on
    wide dense masks (a sweep's seed sets, dense packed rows).
    """
    flags = bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)
    return list(compress(range(len(flags)), flags))


class NodeInterner:
    """Dense ``node id -> bit index`` table for one run, built once.

    ``ids`` keeps the order it is given; :func:`build_run_view` passes the
    run's topological order, so bit ``i`` precedes bit ``j`` in that order
    exactly when ``i < j``, and every packed row is deterministic for a
    given run.
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
        """Unpack a bitset back into node ids, in bit (= topological) order."""
        ids = self.ids
        return [ids[position] for position in bit_indices(mask)]


class PackedAdjacency:
    """One packed row per source node; ``propagate`` is the kernel hot loop."""

    __slots__ = ("node_count", "rows")

    def __init__(self, node_count: int, rows: Sequence[int]) -> None:
        if len(rows) != node_count:
            raise ValueError(f"expected {node_count} rows, got {len(rows)}")
        self.node_count = node_count
        self.rows: list[int] = list(rows)

    def propagate(self, mask: int) -> int:
        """Union of the successor rows of every set bit of ``mask``."""
        rows = self.rows
        out = 0
        while mask:
            low = mask & -mask
            out |= rows[low.bit_length() - 1]
            mask ^= low
        return out


class PackedRunView:
    """The memoized packed form of a run.

    ``by_tag`` and ``any_tag`` are the forward per-tag and wildcard
    adjacency the join reads; ``any_tag`` and ``backward_any_tag`` are the
    wildcard adjacency behind the forward and backward reachability
    closures.  Built once per run (see ``Run.packed``) and reused by every
    query.
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
    """Intern a run's nodes in topological order and pack its adjacency:
    forward by tag, plus the wildcard union in both directions."""
    interner = NodeInterner(run.topological_order)
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


def _support(rows: Sequence[int]) -> int:
    """The bitmask of the non-empty rows (bit ``i`` set iff ``rows[i]``)."""
    return int("".join("1" if row else "0" for row in reversed(rows)) or "0", 2)


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
    def identity(cls, node_count: int) -> "PackedRelation":
        """The diagonal over every node (the empty path)."""
        return cls(node_count, [1 << position for position in range(node_count)])

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

    # -- inspection --------------------------------------------------------------

    def is_empty(self) -> bool:
        return not any(self.rows)

    def iter_pairs(self, interner: NodeInterner) -> Iterator[tuple[str, str]]:
        """Unpack row by row, holding one row's targets at a time."""
        ids = interner.ids
        for position, row in enumerate(self.rows):
            if row:
                source = ids[position]
                for target in bit_indices(row):
                    yield source, ids[target]

    def to_pairs(self, interner: NodeInterner) -> set[tuple[str, str]]:
        """Unpack into the set-based :data:`~repro.core.relations.NodePairs`."""
        return set(self.iter_pairs(interner))

    # -- algebra -----------------------------------------------------------------

    def union(self, other: "PackedRelation") -> "PackedRelation":
        return PackedRelation(
            self.node_count,
            [mine | theirs for mine, theirs in zip(self.rows, other.rows)],
        )

    def compose(self, other: "PackedRelation") -> "PackedRelation":
        """Relational composition: row ``i`` becomes the union of the other
        relation's rows over row ``i``'s set bits (a boolean matrix product
        computed word-parallel).  Bits whose row in ``other`` is empty are
        masked off first, so they are never peeled."""
        other_rows = other.rows
        support = _support(other_rows)
        out = [0] * self.node_count
        for position, row in enumerate(self.rows):
            row &= support
            acc = 0
            while row:
                low = row & -row
                acc |= other_rows[low.bit_length() - 1]
                row ^= low
            out[position] = acc
        return PackedRelation(self.node_count, out)

    def transitive_closure(self) -> "PackedRelation":
        """``R+`` in one pass from the highest bit index down.

        Requires a relation over topologically numbered nodes: no row has a
        bit below its own index (diagonal bits are allowed).  Row ``i`` then
        only needs the finished closure rows of its successors ``j > i``,
        ORed in ascending order; a successor already inside an ORed closure
        row is skipped, since that row is closed and covers its closure.
        Diagonal bits stay as they are: with ``D`` the diagonal part,
        ``(R' ∪ D)+ = R'+ ∪ D`` (Purdom 1970; Goralčíková & Koubek 1979).

        Raises :class:`~repro.errors.RelationOrderError` when a row points
        backward, instead of returning a wrong closure.
        """
        rows = list(self.rows)
        for position in range(self.node_count - 1, -1, -1):
            row = rows[position]
            if not row:
                continue
            if row & ((1 << position) - 1):
                raise RelationOrderError(
                    f"row {position} has a pair to a lower bit index; the "
                    "one-pass closure needs topologically numbered rows"
                )
            acc = row
            pending = row & ~(1 << position)
            while pending:
                low = pending & -pending
                closed = rows[low.bit_length() - 1]
                acc |= closed
                pending = (pending ^ low) & ~closed
            rows[position] = acc
        return PackedRelation(self.node_count, rows)

    def with_diagonal(self) -> "PackedRelation":
        """Add the identity over every node (``R`` → ``R ∪ id``)."""
        return PackedRelation(
            self.node_count,
            [row | (1 << position) for position, row in enumerate(self.rows)],
        )
