"""Compact boolean matrices over small index sets.

The core query engine manipulates *path-transition relations*: for a DFA with
state set ``Q``, the relation ``M[q1][q2] = 1`` means "some path with the
property at hand drives the DFA from ``q1`` to ``q2``".  These relations are
composed by boolean matrix multiplication thousands of times per query, so the
representation matters even in pure Python.  Rows are stored as integer
bitmasks which makes multiplication a handful of integer OR operations.

DFAs for provenance queries are small (a few states), so these matrices are
typically 2x2 to 10x10.  A first-contact build multiplies only a few distinct
ones, hundreds of times over, so it runs them through one
:class:`MatrixAlgebra`: a unique table that keeps one object per distinct
matrix and computed tables that answer a repeated ``@`` or ``|`` by lookup.
"""

from __future__ import annotations

import base64
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from repro.automata.dfa import DFA

__all__ = ["BooleanMatrix", "MatrixAlgebra"]


class BooleanMatrix:
    """A square boolean matrix with rows stored as integer bitmasks.

    ``rows[i]`` has bit ``j`` set iff entry ``(i, j)`` is true.  Instances are
    immutable and hashable, so they can be cached and used in sets (the cycle
    power cache of the query index relies on this).
    """

    __slots__ = ("_size", "_rows")

    def __init__(self, size: int, rows: Sequence[int] | None = None) -> None:
        if size < 0:
            raise ValueError("matrix size must be non-negative")
        self._size = size
        if rows is None:
            self._rows: tuple[int, ...] = (0,) * size
        else:
            if len(rows) != size:
                raise ValueError(f"expected {size} rows, got {len(rows)}")
            mask = (1 << size) - 1
            self._rows = tuple(row & mask for row in rows)

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, size: int) -> "BooleanMatrix":
        """The identity relation (used for empty paths / atomic modules)."""
        return cls(size, [1 << i for i in range(size)])

    @classmethod
    def zero(cls, size: int) -> "BooleanMatrix":
        """The empty relation."""
        return cls(size)

    @classmethod
    def full(cls, size: int) -> "BooleanMatrix":
        """The complete relation."""
        mask = (1 << size) - 1
        return cls(size, [mask] * size)

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "BooleanMatrix":
        """Build a matrix from explicit ``(row, column)`` pairs."""
        rows = [0] * size
        for row, column in pairs:
            if not (0 <= row < size and 0 <= column < size):
                raise ValueError(f"pair ({row}, {column}) outside a {size}x{size} matrix")
            rows[row] |= 1 << column
        return cls(size, rows)

    @classmethod
    def from_function(cls, size: int, mapping: dict[int, int]) -> "BooleanMatrix":
        """Build a matrix from a (partial) function ``row -> column``."""
        return cls.from_pairs(size, mapping.items())

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "BooleanMatrix":
        """Rebuild a matrix from :meth:`to_rows` output (the matrix is square,
        so the size is the row count)."""
        return cls(len(rows), [int(row) for row in rows])

    # -- serialization -------------------------------------------------------

    def to_rows(self) -> list[int]:
        """The rows as a JSON-ready list of integer bitmasks.

        Python integers serialize losslessly at any size, so this round-trips
        matrices of arbitrary dimension (see :mod:`repro.store`).
        """
        return list(self._rows)

    def to_packed(self) -> str:
        """The rows as one base64 string of fixed-width little-endian bytes.

        Each row bitmask is packed into ``ceil(size / 8)`` bytes, so an
        ``n × n`` matrix costs ``~n²/6`` base64 characters instead of the
        ``O(n²)`` decimal digits of :meth:`to_rows` — the store's compact
        on-disk encoding (size travels separately, alongside the string).
        """
        width = (self._size + 7) // 8
        packed = b"".join(row.to_bytes(width, "little") for row in self._rows)
        return base64.b64encode(packed).decode("ascii")

    @classmethod
    def from_packed(cls, size: int, data: str) -> "BooleanMatrix":
        """Rebuild a matrix from :meth:`to_packed` output (strict: a payload
        whose byte length disagrees with ``size`` raises ``ValueError``).

        The whole payload is decoded as *one* little-endian integer and rows
        are sliced out by shift-and-mask — a single pass over the packed
        buffer instead of a bytes-slice-and-convert per row, which is what
        lets store format 2 deserialize straight into the row bitmasks.
        """
        packed = base64.b64decode(data.encode("ascii"), validate=True)
        width = (size + 7) // 8
        if len(packed) != width * size:
            raise ValueError(
                f"packed matrix holds {len(packed)} bytes, "
                f"a {size}x{size} matrix needs {width * size}"
            )
        if size == 0:
            return cls(0)
        buffer = int.from_bytes(packed, "little")
        row_bits = width * 8
        mask = (1 << row_bits) - 1
        rows = [(buffer >> (index * row_bits)) & mask for index in range(size)]
        return cls(size, rows)

    # -- basic queries -------------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    @property
    def rows(self) -> tuple[int, ...]:
        return self._rows

    def get(self, row: int, column: int) -> bool:
        """Return entry ``(row, column)``."""
        return bool(self._rows[row] >> column & 1)

    def row_mask(self, row: int) -> int:
        """Return the bitmask of columns set in ``row``."""
        return self._rows[row]

    def is_zero(self) -> bool:
        return not any(self._rows)

    # -- state-vector products ----------------------------------------------------
    #
    # State vectors are plain integer bitmasks (bit ``i`` = state ``i``), so
    # the group-at-a-time decoder can move single DFA-state *sets* through a
    # relation in O(|Q|) integer operations instead of paying for a full
    # |Q| x |Q| matrix product per node pair.

    def propagate_row(self, mask: int) -> int:
        """Row-vector product ``v @ M`` for the row vector ``mask``.

        Returns the bitmask of columns reachable from any row in ``mask``.
        Bits of ``mask`` outside the matrix are ignored.
        """
        remaining = mask & ((1 << self._size) - 1)
        result = 0
        rows = self._rows
        while remaining:
            low_bit = remaining & -remaining
            result |= rows[low_bit.bit_length() - 1]
            remaining ^= low_bit
        return result

    def propagate_column(self, mask: int) -> int:
        """Column-vector product ``M @ v`` for the column vector ``mask``.

        Returns the bitmask of rows whose successors intersect ``mask``.
        """
        result = 0
        bit = 1
        for row in self._rows:
            if row & mask:
                result |= bit
            bit <<= 1
        return result

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate over all true ``(row, column)`` entries."""
        for row_index, row in enumerate(self._rows):
            remaining = row
            while remaining:
                low_bit = remaining & -remaining
                yield row_index, low_bit.bit_length() - 1
                remaining ^= low_bit

    # -- algebra -------------------------------------------------------------

    def __or__(self, other: "BooleanMatrix") -> "BooleanMatrix":
        self._check_compatible(other)
        return BooleanMatrix(self._size, [a | b for a, b in zip(self._rows, other._rows)])

    def __and__(self, other: "BooleanMatrix") -> "BooleanMatrix":
        self._check_compatible(other)
        return BooleanMatrix(self._size, [a & b for a, b in zip(self._rows, other._rows)])

    def __matmul__(self, other: "BooleanMatrix") -> "BooleanMatrix":
        """Boolean matrix product: ``(A @ B)[i][k]`` iff exists j with
        ``A[i][j]`` and ``B[j][k]``."""
        self._check_compatible(other)
        other_rows = other._rows
        result_rows = []
        for row in self._rows:
            accumulator = 0
            remaining = row
            while remaining:
                low_bit = remaining & -remaining
                accumulator |= other_rows[low_bit.bit_length() - 1]
                remaining ^= low_bit
            result_rows.append(accumulator)
        return BooleanMatrix(self._size, result_rows)

    def power(self, exponent: int) -> "BooleanMatrix":
        """Boolean matrix power by repeated squaring (exponent >= 0)."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        result = BooleanMatrix.identity(self._size)
        base = self
        remaining = exponent
        while remaining:
            if remaining & 1:
                result = result @ base
            base = base @ base
            remaining >>= 1
        return result

    def transitive_closure(self) -> "BooleanMatrix":
        """Return the transitive closure (without the reflexive part)."""
        closure = self
        while True:
            expanded = closure | (closure @ closure)
            if expanded == closure:
                return closure
            closure = expanded

    def reflexive_transitive_closure(self) -> "BooleanMatrix":
        """Return the reflexive-transitive closure."""
        return self.transitive_closure() | BooleanMatrix.identity(self._size)

    def transpose(self) -> "BooleanMatrix":
        columns = [0] * self._size
        for row_index, row in enumerate(self._rows):
            remaining = row
            while remaining:
                low_bit = remaining & -remaining
                columns[low_bit.bit_length() - 1] |= 1 << row_index
                remaining ^= low_bit
        return BooleanMatrix(self._size, columns)

    # -- dunder plumbing -----------------------------------------------------

    def _check_compatible(self, other: "BooleanMatrix") -> None:
        if not isinstance(other, BooleanMatrix):
            raise TypeError(f"expected BooleanMatrix, got {type(other).__name__}")
        if self._size != other._size:
            raise ValueError(f"size mismatch: {self._size} vs {other._size}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanMatrix):
            return NotImplemented
        return self._size == other._size and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._size, self._rows))

    def __repr__(self) -> str:
        body = ", ".join(format(row, f"0{self._size}b")[::-1] for row in self._rows)
        return f"BooleanMatrix({self._size}, [{body}])"


class MatrixAlgebra:
    """Hash-consed matrices of one DFA with memoized ``@`` and ``|``.

    This is the unique-table / computed-table pair of BDD packages (Bryant,
    *Graph-Based Algorithms for Boolean Function Manipulation*, 1986):

    * the *unique table* maps every matrix to its one canonical object, so
      equal matrices built anywhere in one build are one object;
    * the *computed tables* map the identities ``(id(a), id(b))`` of two
      canonical operands to their canonical product or union.  Keying on
      identity is sound because the unique table keeps every canonical
      operand alive, so its ``id`` is never reused while the tables exist;
      an operand that is not canonical is refused (``ValueError``) before
      its key is stored.

    ``tag_matrices`` maps every tag of the DFA's alphabet to the canonical
    transition matrix of its :attr:`~repro.automata.dfa.DFA.tag_classes`
    class, built once per class.  An algebra lives for one (specification,
    DFA) build: the safety check and the query index share it, and nothing
    cached keeps it.
    """

    __slots__ = ("dfa", "identity", "zero", "tag_matrices", "_unique", "_products", "_unions")

    def __init__(self, dfa: "DFA") -> None:
        self.dfa = dfa
        size = dfa.state_count
        self._unique: dict[BooleanMatrix, BooleanMatrix] = {}
        self._products: dict[tuple[int, int], BooleanMatrix] = {}
        self._unions: dict[tuple[int, int], BooleanMatrix] = {}
        self.identity = self.canonical(BooleanMatrix.identity(size))
        self.zero = self.canonical(BooleanMatrix.zero(size))
        self.tag_matrices: dict[str, BooleanMatrix] = {}
        for members in dfa.tag_classes:
            matrix = self.canonical(dfa.transition_matrix(members[0]))
            self.tag_matrices.update(dict.fromkeys(members, matrix))

    def canonical(self, matrix: BooleanMatrix) -> BooleanMatrix:
        """The one object of the unique table equal to ``matrix``."""
        return self._unique.setdefault(matrix, matrix)

    def mul(self, left: BooleanMatrix, right: BooleanMatrix) -> BooleanMatrix:
        """The canonical ``left @ right`` of two canonical operands."""
        key = (id(left), id(right))
        product = self._products.get(key)
        if product is None:
            self._check_canonical(left, right)
            product = self._products[key] = self.canonical(left @ right)
        return product

    def join(self, left: BooleanMatrix, right: BooleanMatrix) -> BooleanMatrix:
        """The canonical ``left | right`` of two canonical operands."""
        zero = self.zero
        if left is right or right is zero:
            return left
        if left is zero:
            return right
        key = (id(left), id(right))
        union = self._unions.get(key)
        if union is None:
            self._check_canonical(left, right)
            union = self._unions[key] = self.canonical(left | right)
        return union

    def _check_canonical(self, *operands: BooleanMatrix) -> None:
        for operand in operands:
            if self._unique.get(operand) is not operand:
                raise ValueError(f"operand is not canonical in this algebra: {operand!r}")
