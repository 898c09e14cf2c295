"""Bit-level encodings of integer matrices (the paper's input format).

The communication model partitions *bit positions*, not entries, so we need a
fixed global numbering of the bits of an n×m matrix of k-bit entries.  The
codec here owns that numbering:

* entry ``(i, j)`` occupies ``k`` consecutive positions starting at
  ``(i * cols + j) * k`` (row-major entries, LSB first within an entry);
* every helper that talks about "the bits of submatrix C" goes through
  :meth:`MatrixBitCodec.block_positions` so there is exactly one place the
  layout is defined.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.exact.matrix import Matrix


class MatrixBitCodec:
    """Bijection between ``rows x cols`` matrices of k-bit entries and
    bit-tuples of length ``rows * cols * k``.

    >>> codec = MatrixBitCodec(2, 2, 2)
    >>> codec.total_bits
    8
    >>> m = Matrix([[1, 2], [3, 0]])
    >>> codec.decode(codec.encode(m)) == m
    True
    """

    def __init__(self, rows: int, cols: int, k: int):
        if rows < 1 or cols < 1 or k < 1:
            raise ValueError("rows, cols and k must all be >= 1")
        self.rows = rows
        self.cols = cols
        self.k = k
        self.total_bits = rows * cols * k

    # ------------------------------------------------------------------
    # Position arithmetic
    # ------------------------------------------------------------------
    def bit_index(self, i: int, j: int, b: int) -> int:
        """Global position of bit ``b`` (LSB = 0) of entry ``(i, j)``."""
        self._check_entry(i, j)
        if not 0 <= b < self.k:
            raise ValueError(f"bit index {b} out of range for k={self.k}")
        return (i * self.cols + j) * self.k + b

    def entry_of_bit(self, position: int) -> tuple[int, int, int]:
        """Inverse of :meth:`bit_index`: ``(i, j, b)`` for a global position."""
        if not 0 <= position < self.total_bits:
            raise ValueError("bit position out of range")
        entry, b = divmod(position, self.k)
        i, j = divmod(entry, self.cols)
        return i, j, b

    def entry_positions(self, i: int, j: int) -> range:
        """All ``k`` positions of entry ``(i, j)``."""
        self._check_entry(i, j)
        start = (i * self.cols + j) * self.k
        return range(start, start + self.k)

    def block_positions(
        self, row_range: range | Sequence[int], col_range: range | Sequence[int]
    ) -> frozenset[int]:
        """All bit positions of the submatrix on the given rows × columns."""
        positions: set[int] = set()
        for i in row_range:
            for j in col_range:
                positions.update(self.entry_positions(i, j))
        return frozenset(positions)

    def column_positions(self, columns: Iterable[int]) -> frozenset[int]:
        """All bit positions of whole columns (π₀ assigns column halves)."""
        return self.block_positions(range(self.rows), list(columns))

    def row_positions(self, rows: Iterable[int]) -> frozenset[int]:
        """All bit positions of whole rows."""
        return self.block_positions(list(rows), range(self.cols))

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, m: Matrix) -> tuple[int, ...]:
        """Matrix → bit tuple.  Entries must fit in ``k`` bits."""
        if m.shape != (self.rows, self.cols):
            raise ValueError(f"expected shape {(self.rows, self.cols)}, got {m.shape}")
        ints = m.to_int_rows()
        bits: list[int] = []
        limit = 1 << self.k
        for row in ints:
            for value in row:
                if not 0 <= value < limit:
                    raise ValueError(
                        f"entry {value} does not fit in {self.k} bits"
                    )
                for b in range(self.k):
                    bits.append((value >> b) & 1)
        return tuple(bits)

    def decode(self, bits: Sequence[int]) -> Matrix:
        """Bit tuple → matrix."""
        if len(bits) != self.total_bits:
            raise ValueError(
                f"expected {self.total_bits} bits, got {len(bits)}"
            )
        rows: list[list[int]] = []
        cursor = 0
        for _ in range(self.rows):
            row: list[int] = []
            for _ in range(self.cols):
                value = 0
                for b in range(self.k):
                    value |= (bits[cursor] & 1) << b
                    cursor += 1
                row.append(value)
            rows.append(row)
        return Matrix(rows)

    def decode_partial(
        self, assignment: dict[int, int], default: int = 0
    ) -> Matrix:
        """Decode from a sparse position→bit map, unset positions ``default``."""
        bits = [default] * self.total_bits
        for pos, bit in assignment.items():
            if not 0 <= pos < self.total_bits:
                raise ValueError(f"bit position {pos} out of range")
            bits[pos] = bit & 1
        return self.decode(bits)

    # ------------------------------------------------------------------
    # Permutation action (Lemma 3.9 machinery)
    # ------------------------------------------------------------------
    def position_permutation(
        self, row_perm: Sequence[int], col_perm: Sequence[int]
    ) -> list[int]:
        """The bit-position permutation induced by permuting matrix rows and
        columns.

        Returns ``sigma`` with the meaning: the bit at position ``p`` of the
        *original* matrix appears at position ``sigma[p]`` of the permuted
        matrix ``m.permute_rows(row_perm).permute_cols(col_perm)``.

        Lemma 3.9 moves submatrices around by row/column permutations; this
        is the corresponding action on partitions (a partition follows its
        bits).
        """
        if sorted(row_perm) != list(range(self.rows)):
            raise ValueError("row_perm must be a permutation of the rows")
        if sorted(col_perm) != list(range(self.cols)):
            raise ValueError("col_perm must be a permutation of the columns")
        # permute_rows(perm): new_row[i] = old_row[perm[i]]; so old row r
        # lands at new index row_perm.index(r).  Precompute inverses.
        row_dest = [0] * self.rows
        for new_i, old_i in enumerate(row_perm):
            row_dest[old_i] = new_i
        col_dest = [0] * self.cols
        for new_j, old_j in enumerate(col_perm):
            col_dest[old_j] = new_j
        sigma = [0] * self.total_bits
        for p in range(self.total_bits):
            i, j, b = self.entry_of_bit(p)
            sigma[p] = self.bit_index(row_dest[i], col_dest[j], b)
        return sigma

    def _check_entry(self, i: int, j: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ValueError(f"entry ({i}, {j}) out of range for {self.rows}x{self.cols}")


def int_to_bits(value: int, width: int) -> tuple[int, ...]:
    """LSB-first fixed-width bit tuple of a non-negative integer."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if value >> width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return tuple((value >> b) & 1 for b in range(width))


def bits_to_int(bits: Sequence[int]) -> int:
    """Inverse of :func:`int_to_bits`."""
    value = 0
    for b, bit in enumerate(bits):
        value |= (bit & 1) << b
    return value


def unpack_rows(packed: int, rows: int, cols: int, width: int) -> list[list[int]]:
    """The row-major ``width``-bit entries of a packed payload (LSB first
    within an entry, the layout :meth:`MatrixBitCodec.encode` uses)."""
    mask = (1 << width) - 1
    return [
        [packed >> (i * cols + j) * width & mask for j in range(cols)]
        for i in range(rows)
    ]
