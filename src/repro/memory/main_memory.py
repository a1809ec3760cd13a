"""Functional main memory and a bump-pointer allocator.

The simulator keeps program data in a flat, word-addressed numpy array.
Addresses are byte addresses; loads and stores move aligned 8-byte words
(the mini-ISA has no sub-word accesses).  Workload builders allocate arrays
through :meth:`MainMemory.alloc_array` and get back base byte addresses to
pass into kernels via registers.
"""

from __future__ import annotations

import numpy as np

_WORD = 8
_MASK64 = (1 << 64) - 1


class MainMemory:
    """Flat functional memory.

    ``capacity_bytes`` bounds the footprint of a workload; the default
    (64 MiB) is far larger than any of the scaled-down inputs need.
    Allocation starts at ``base`` so that address 0 stays unmapped, which
    catches uninitialised-pointer bugs in hand-written kernels.
    """

    def __init__(self, capacity_bytes: int = 64 << 20, base: int = 0x1_0000) -> None:
        if capacity_bytes % _WORD:
            raise ValueError("capacity must be a multiple of 8 bytes")
        self._words = np.zeros(capacity_bytes // _WORD, dtype=np.uint64)
        self._num_words = capacity_bytes // _WORD
        self._capacity = capacity_bytes
        self._base = base
        self._brk = base
        self._allocations: dict[str, tuple[int, int]] = {}

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    # -- functional access --------------------------------------------------

    @property
    def words(self) -> np.ndarray:
        """The backing word array (uint64), for whole-image comparisons.

        Treat as read-only: writes must go through :meth:`write_word` /
        :meth:`write_array` so wrapping stays uniform.
        """
        return self._words

    def read_word(self, addr: int) -> int:
        index = (addr & _MASK64) >> 3
        if index >= self._num_words:
            raise IndexError(f"load outside simulated memory: {addr:#x}")
        # .item() skips the numpy-scalar round trip of `int(arr[i])`.
        return self._words.item(index)

    def write_word(self, addr: int, value: int) -> None:
        index = (addr & _MASK64) >> 3
        if index >= self._num_words:
            raise IndexError(f"store outside simulated memory: {addr:#x}")
        self._words[index] = value & _MASK64

    # -- allocation -----------------------------------------------------------

    def alloc(self, nbytes: int, name: str = "", align: int = 64) -> int:
        """Reserve *nbytes* and return the base byte address.

        Allocations are cache-line aligned by default so arrays never share
        lines, keeping prefetch accuracy accounting clean.
        """
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        addr = (self._brk + align - 1) // align * align
        if addr + nbytes > self._capacity:
            raise MemoryError(
                f"workload footprint exceeds {self._capacity >> 20} MiB"
            )
        self._brk = addr + nbytes
        if name:
            self._allocations[name] = (addr, nbytes)
        return addr

    def alloc_array(self, values, name: str = "") -> int:
        """Copy an iterable/ndarray of 64-bit values into memory.

        Returns the base address.  Values are wrapped to uint64.
        """
        data = np.asarray(values, dtype=np.int64).astype(np.uint64)
        addr = self.alloc(int(data.size) * _WORD, name=name)
        start = addr >> 3
        self._words[start:start + data.size] = data
        return addr

    def alloc_zeros(self, count: int, name: str = "") -> int:
        """Allocate *count* zeroed 64-bit words and return the base address."""
        return self.alloc(count * _WORD, name=name)

    def write_array(self, addr: int, values) -> None:
        """Bulk-write 64-bit values starting at *addr* (initialisation)."""
        data = np.asarray(values, dtype=np.int64).astype(np.uint64)
        start = addr >> 3
        if start + data.size > self._words.shape[0]:
            raise IndexError("bulk write outside simulated memory")
        self._words[start:start + data.size] = data

    def read_array(self, addr: int, count: int) -> np.ndarray:
        """Read *count* words starting at *addr* as an int64 ndarray."""
        start = addr >> 3
        return self._words[start:start + count].astype(np.int64)

    def allocation(self, name: str) -> tuple[int, int]:
        """Return ``(base_address, nbytes)`` of a named allocation."""
        return self._allocations[name]

    @property
    def footprint_bytes(self) -> int:
        """Bytes allocated so far."""
        return self._brk - self._base
