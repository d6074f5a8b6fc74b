"""Dense node interning, the run's integer adjacency and the packed bitset kernel.

The set-based machinery in :mod:`repro.core.relations` represents run-scale
state as ``set[str]`` / ``set[tuple[str, str]]`` and pays a hash lookup per
element.  This module re-platforms that data path on *dense interned ids*:
each run node gets a position ``0 .. n-1`` in the run's topological order,
assigned once per :class:`~repro.workflow.run.Run` and memoized on it, and
each edge tag gets a small tag id.  Every edge points to a higher position,
which is what the one-pass algorithms here and in
:mod:`repro.core.relations` rely on.

Two representations share that numbering:

* :class:`PackedRunView` lists, per position, its ``(successor position,
  tag id)`` and ``(predecessor position, tag id)`` pairs.  The frontier
  sweep (:func:`~repro.core.relations.frontier_search`) walks them with DFA
  rows indexed by tag id, and the restriction universe
  (:func:`~repro.core.relations.restriction_universe`) is two ``bytearray``
  flag passes over them;
* a *packed bitset* is one unbounded Python integer whose bit ``i`` is node
  ``i`` (CPython stores it as an array of native words, so ``&``/``|``/``~``
  run word-parallel at C speed); a relation is one such row per source
  node, with bit ``j`` of row ``i`` meaning ``i → j``.  Under topological
  numbering every relation over run paths is upper-triangular plus the
  diagonal, so :meth:`PackedRelation.transitive_closure` finishes in one
  pass.  This is the kernel of the join that answers an unsafe query
  without node lists (:class:`PackedRelation`, driven by
  :func:`~repro.core.relations.evaluate_regex_relation_packed`).

A :class:`PackedRelation` is also every executor operator's answer: the
sweep and the label decode pack their hits into one, and the service unpacks
it once, in sorted order, through the interner's lexicographic rank table
(:meth:`PackedRelation.to_pairs`).
"""

from __future__ import annotations

from itertools import compress
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.errors import RelationOrderError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.automata.dfa import DFA
    from repro.workflow.run import Run

__all__ = [
    "bit_indices",
    "NodeInterner",
    "PackedAdjacency",
    "PackedRunView",
    "build_run_view",
    "PackedRelation",
]


#: ``bin()`` digits to truth values: least significant digit first, each
#: ``"1"`` becomes a true byte for :func:`itertools.compress`.
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative ``mask``, ascending.

    A dense mask is scanned as binary text at C speed; peeling off the
    lowest bit instead copies the whole integer once per set bit, which goes
    quadratic on wide dense masks (a sweep's seed sets, dense packed rows).
    A sparse mask is peeled all the same: the scan costs a Python step per
    bit of width, which dominates on a wide row with a few bits set.
    """
    if mask.bit_count() * 32 < mask.bit_length():
        indices: list[int] = []
        while mask:
            low = mask & -mask
            indices.append(low.bit_length() - 1)
            mask ^= low
        return indices
    flags = bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)
    return list(compress(range(len(flags)), flags))


class NodeInterner:
    """Dense ``node id -> position`` table for one run, built once.

    ``ids`` keeps the order it is given; :func:`build_run_view` passes the
    run's topological order, so position ``i`` precedes position ``j`` in
    that order exactly when ``i < j``, and every packed row and flag array
    is deterministic for a given run.
    """

    __slots__ = ("ids", "index", "_rank_table")

    def __init__(self, ids: Iterable[str]) -> None:
        self.ids: tuple[str, ...] = tuple(ids)
        self.index: dict[str, int] = {
            node_id: position for position, node_id in enumerate(self.ids)
        }
        self._rank_table: tuple[list[int], list[int]] | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def positions(self, node_ids: Iterable[str]) -> list[int]:
        """The distinct positions of the known ids, in first-seen order
        (unknown ids dropped)."""
        index = self.index
        return list(map(index.__getitem__, filter(index.__contains__, dict.fromkeys(node_ids))))

    @property
    def rank_table(self) -> tuple[list[int], list[int]]:
        """``(order, ranks)``: ``order`` lists the positions by sorted id and
        ``ranks[p]`` is the place of position ``p`` in it — the lexicographic
        rank table :meth:`PackedRelation.to_pairs` walks.

        Built on first use and kept (two threads may build it at once; both
        results are equal).
        """
        table = self._rank_table
        if table is None:
            ids = self.ids
            order = sorted(range(len(ids)), key=ids.__getitem__)
            ranks = [0] * len(ids)
            for rank, position in enumerate(order):
                ranks[position] = rank
            table = self._rank_table = (order, ranks)
        return table


class PackedAdjacency:
    """One packed row per source node (bit ``j`` of row ``i`` = edge ``i → j``)."""

    __slots__ = ("node_count", "rows")

    def __init__(self, node_count: int, rows: Sequence[int]) -> None:
        if len(rows) != node_count:
            raise ValueError(f"expected {node_count} rows, got {len(rows)}")
        self.node_count = node_count
        self.rows: list[int] = list(rows)


#: Per position, its ``(neighbour position, tag id)`` pairs.
IntAdjacency = tuple[tuple[tuple[int, int], ...], ...]

#: A DFA over one run's symbol numbering: per state, the next state by
#: symbol id (``None`` where the transition dies), and per state whether it
#: accepts.
DenseDFA = tuple[list[list[int | None]], list[bool]]

#: How many dense DFAs one run view keeps before it starts over.
_DENSE_DFA_MEMO = 64


class PackedRunView:
    """The memoized integer form of a run.

    ``successors[p]`` and ``predecessors[p]`` list the ``(neighbour position,
    tag id)`` pairs of the node at position ``p``; ``tags[t]`` is the tag
    with id ``t``.  ``by_tag`` and ``any_tag`` are the forward per-tag and
    wildcard packed rows the join reads, packed from ``successors`` on first
    use: only a request without node lists needs them.  Built once per run
    (see ``Run.packed``) and reused by every query.
    """

    __slots__ = (
        "interner",
        "tags",
        "successors",
        "predecessors",
        "_packed",
        "_dense_dfas",
    )

    def __init__(
        self,
        interner: NodeInterner,
        tags: Sequence[str],
        successors: IntAdjacency,
        predecessors: IntAdjacency,
    ) -> None:
        self.interner = interner
        self.tags: tuple[str, ...] = tuple(tags)
        self.successors = successors
        self.predecessors = predecessors
        self._packed: tuple[dict[str, PackedAdjacency], PackedAdjacency] | None = None
        self._dense_dfas: dict[
            tuple[int, tuple[str, ...]], tuple["DFA", DenseDFA]
        ] = {}

    def _pack(self) -> tuple[dict[str, PackedAdjacency], PackedAdjacency]:
        """The packed forward rows, by tag and as the wildcard union (two
        threads may pack at once; both results are equal)."""
        packed = self._packed
        if packed is None:
            node_count = len(self.successors)
            by_tag = [[0] * node_count for _ in self.tags]
            any_tag = [0] * node_count
            for source, pairs in enumerate(self.successors):
                for target, tag in pairs:
                    bit = 1 << target
                    by_tag[tag][source] |= bit
                    any_tag[source] |= bit
            packed = self._packed = (
                {
                    tag: PackedAdjacency(node_count, rows)
                    for tag, rows in zip(self.tags, by_tag)
                },
                PackedAdjacency(node_count, any_tag),
            )
        return packed

    @property
    def by_tag(self) -> dict[str, PackedAdjacency]:
        return self._pack()[0]

    @property
    def any_tag(self) -> PackedAdjacency:
        return self._pack()[1]

    def dense_dfa(self, dfa: "DFA", macro_tags: tuple[str, ...] = ()) -> DenseDFA:
        """``dfa`` over this run's tag ids, with ``macro_tags`` numbered after
        the run's tags: the rows the sweep indexes by symbol id.

        Memoized per (DFA, macro symbols), so a repeated query pays no table
        build; the memo holds the DFA itself, so an id is never reused while
        its entry lives.  Two threads may build one entry twice; both results
        are equal.
        """
        key = (id(dfa), macro_tags)
        cached = self._dense_dfas.get(key)
        if cached is not None and cached[0] is dfa:
            return cached[1]
        dead = dfa.dead_state()
        symbols = (*self.tags, *macro_tags)
        rows: list[list[int | None]] = []
        for row in dfa.transitions:
            dense: list[int | None] = []
            for symbol in symbols:
                state = row.get(symbol)
                dense.append(None if state == dead else state)
            rows.append(dense)
        dense = (rows, [state in dfa.accepting for state in range(dfa.state_count)])
        if len(self._dense_dfas) >= _DENSE_DFA_MEMO:
            self._dense_dfas.clear()
        self._dense_dfas[key] = (dfa, dense)
        return dense


def build_run_view(run: "Run") -> PackedRunView:
    """Intern a run's nodes in topological order and its tags in order of
    first use, and list each position's tagged neighbours both ways."""
    interner = NodeInterner(run.topological_order)
    index = interner.index
    node_count = len(interner)
    edges = run.edges
    tag_ids: dict[str, int] = {}
    sources = [index[edge.source] for edge in edges]
    targets = [index[edge.target] for edge in edges]
    tags = [tag_ids.setdefault(edge.tag, len(tag_ids)) for edge in edges]
    successors: list[list[tuple[int, int]]] = [[] for _ in range(node_count)]
    predecessors: list[list[tuple[int, int]]] = [[] for _ in range(node_count)]
    for source, target, tag in zip(sources, targets, tags):
        successors[source].append((target, tag))
        predecessors[target].append((source, tag))
    return PackedRunView(
        interner,
        tuple(tag_ids),
        tuple(map(tuple, successors)),
        tuple(map(tuple, predecessors)),
    )


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

    def __len__(self) -> int:
        """The number of pairs (the rows' popcounts)."""
        return sum(map(int.bit_count, self.rows))

    def iter_pairs(self, interner: NodeInterner) -> Iterator[tuple[str, str]]:
        """Unpack row by row, in no particular order, holding one row's
        targets at a time."""
        ids = interner.ids
        for position, row in enumerate(self.rows):
            if row:
                source = ids[position]
                for target in bit_indices(row):
                    yield source, ids[target]

    def to_pairs(self, interner: NodeInterner) -> tuple[tuple[str, str], ...]:
        """Unpack into ``(source id, target id)`` pairs in sorted order.

        The result equals ``tuple(sorted(self.iter_pairs(interner)))``, but
        no pair is ever compared: the non-empty rows are walked in
        ``interner.rank_table`` order and each row's targets are sorted by
        rank, once per distinct row value (looked up by object first, since
        hashing a wide row costs as much as its width).
        """
        ids = interner.ids
        order, ranks = interner.rank_table
        rows = self.rows
        names_by_value: dict[int, list[str]] = {}
        names_by_object: dict[int, list[str]] = {}
        pairs: list[tuple[str, str]] = []
        for position in compress(order, map(rows.__getitem__, order)):
            row = rows[position]
            names = names_by_object.get(id(row))
            if names is None:
                names = names_by_value.get(row)
                if names is None:
                    targets = bit_indices(row)
                    targets.sort(key=ranks.__getitem__)
                    names = names_by_value[row] = [ids[target] for target in targets]
                # ``rows`` keeps every row alive, so no id is reused here.
                names_by_object[id(row)] = names
            source = ids[position]
            pairs.extend([(source, name) for name in names])
        return tuple(pairs)

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
