"""Block sets: which blocks of the file a node currently holds.

The file consists of ``k`` equal-sized blocks, numbered ``0 .. k-1``
(the paper numbers them ``b_1 .. b_k``; we use 0-based indices throughout
the code and only shift to 1-based in rendered output).

A node's holdings are a subset of ``{0, .., k-1}``. The natural Python
representation is an arbitrary-precision integer used as a bitmask: bitwise
operations on ints are implemented in C and make the hot inner loops of the
randomized simulator fast, while :class:`BlockSet` wraps a mask in a
friendlier API for library users.

The module-level helpers (:func:`bit_indices`, :func:`random_set_bit`,
:func:`rarest_set_bit`, ...) operate on raw masks and are what the
simulation engines use directly.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import ConfigError

__all__ = [
    "BlockSet",
    "full_mask",
    "bit_indices",
    "bit_count",
    "nth_set_bit",
    "random_set_bit",
    "rarest_set_bit",
    "highest_set_bit",
    "lowest_set_bit",
    "mask_from_indices",
]


def full_mask(k: int) -> int:
    """Return the mask with all ``k`` block bits set."""
    if k < 1:
        raise ConfigError(f"file must have at least one block, got k={k}")
    return (1 << k) - 1


def mask_from_indices(indices: Iterable[int], k: int) -> int:
    """Build a mask from an iterable of block indices, validating range."""
    mask = 0
    for b in indices:
        if not 0 <= b < k:
            raise ConfigError(f"block index {b} out of range for k={k}")
        mask |= 1 << b
    return mask


def bit_count(mask: int) -> int:
    """Number of set bits (blocks held)."""
    return mask.bit_count()


def bit_indices(mask: int) -> np.ndarray:
    """Indices of set bits of ``mask``, ascending, as an int64 array.

    Uses ``numpy.unpackbits`` on the little-endian byte representation so a
    1000-bit mask decodes in a few microseconds rather than a Python loop
    over all bits.
    """
    if mask == 0:
        return np.empty(0, dtype=np.int64)
    nbytes = (mask.bit_length() + 7) // 8
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")
    return np.flatnonzero(bits).astype(np.int64)


def lowest_set_bit(mask: int) -> int:
    """Index of the lowest set bit; ``mask`` must be non-zero."""
    if mask == 0:
        raise ValueError("mask has no set bits")
    return (mask & -mask).bit_length() - 1


def highest_set_bit(mask: int) -> int:
    """Index of the highest set bit; ``mask`` must be non-zero.

    The paper's hypercube rule transmits "the highest-index block" a node
    holds, which is exactly this function applied to the node's mask.
    """
    if mask == 0:
        raise ValueError("mask has no set bits")
    return mask.bit_length() - 1


_WORD = (1 << 64) - 1


def nth_set_bit(mask: int, r: int) -> int:
    """Index of the ``r``-th lowest set bit of ``mask`` (``r`` from 0).

    Skips whole 64-bit words by popcount, halves the word it lands in
    down to a byte the same way, then drops at most seven low bits: a
    few dozen int operations at any popcount, with no array decode.
    """
    if r < 0:
        raise ValueError(f"bit rank must be non-negative, got {r}")
    shift = 0
    word = mask & _WORD
    count = word.bit_count()
    while r >= count:
        r -= count
        mask >>= 64
        if not mask:
            raise ValueError("mask has too few set bits")
        shift += 64
        word = mask & _WORD
        count = word.bit_count()
    for width, low_mask in ((32, 0xFFFFFFFF), (16, 0xFFFF), (8, 0xFF)):
        low = word & low_mask
        count = low.bit_count()
        if r >= count:
            r -= count
            word >>= width
            shift += width
        else:
            word = low
    for _ in range(r):
        word &= word - 1
    return shift + (word & -word).bit_length() - 1


def random_set_bit(mask: int, rng: random.Random) -> int:
    """Pick a uniformly random set bit of ``mask``.

    One ``randrange(popcount)`` draw. Up to 8 set bits the chosen one is
    reached by dropping low bits (cheapest on the short useful sets the
    randomized engines mostly see); above that :func:`nth_set_bit`
    skips whole words.
    """
    n = mask.bit_count()
    if n == 0:
        raise ValueError("mask has no set bits")
    if n == 1:
        return mask.bit_length() - 1
    if n <= 8:
        target = rng.randrange(n)
        m = mask
        for _ in range(target):
            m &= m - 1  # drop lowest set bit
        return (m & -m).bit_length() - 1
    return nth_set_bit(mask, rng.randrange(n))


#: Largest popcount :func:`rarest_set_bit` settles with a pure-int walk;
#: above it the numpy gather wins (measured crossover: about 24-28 set
#: bits at k = 64 and k = 1000).
RAREST_WALK_MAX = 20


def rarest_set_bit(mask: int, freq: np.ndarray, rng: random.Random) -> int:
    """Pick the set bit of ``mask`` whose global frequency is lowest.

    ``freq[b]`` is the number of nodes currently holding block ``b``. Ties
    are broken uniformly at random, as in BitTorrent-style rarest-first:
    one ``randrange(len(ties))`` draw over the ties in ascending order,
    none when the minimum is unique.
    """
    if mask == 0:
        raise ValueError("mask has no set bits")
    if mask & (mask - 1) == 0:
        return mask.bit_length() - 1
    if mask.bit_count() <= RAREST_WALK_MAX:
        item = freq.item
        best = None
        ties: list[int] = []
        while mask:
            low = mask & -mask
            mask ^= low
            b = low.bit_length() - 1
            f = item(b)
            if best is None or f < best:
                best = f
                ties = [b]
            elif f == best:
                ties.append(b)
        if len(ties) == 1:
            return ties[0]
        return ties[rng.randrange(len(ties))]
    indices = bit_indices(mask)
    candidate_freqs = freq[indices]
    lowest = candidate_freqs.min()
    ties = indices[candidate_freqs == lowest]
    if len(ties) == 1:
        return int(ties[0])
    return int(ties[rng.randrange(len(ties))])


class BlockSet:
    """A set of blocks out of a file of ``k`` blocks.

    This is the public-facing wrapper around a raw bitmask. It behaves like
    a specialised immutable-size, mutable-content set of ints in
    ``range(k)``.

    >>> s = BlockSet(5)
    >>> s.add(2); s.add(4)
    >>> sorted(s)
    [2, 4]
    >>> s.is_complete
    False
    >>> t = BlockSet.complete(5)
    >>> (t - s).count
    3
    """

    __slots__ = ("_k", "_mask")

    def __init__(self, k: int, blocks: Iterable[int] = ()) -> None:
        if k < 1:
            raise ConfigError(f"file must have at least one block, got k={k}")
        self._k = k
        self._mask = mask_from_indices(blocks, k)

    # -- constructors ------------------------------------------------------

    @classmethod
    def complete(cls, k: int) -> "BlockSet":
        """The set holding every block of a ``k``-block file."""
        s = cls(k)
        s._mask = full_mask(k)
        return s

    @classmethod
    def from_mask(cls, k: int, mask: int) -> "BlockSet":
        """Wrap a raw bitmask (validated against ``k``)."""
        if mask < 0 or mask >> k:
            raise ConfigError(f"mask {mask:#x} has bits outside range(k={k})")
        s = cls(k)
        s._mask = mask
        return s

    # -- basic protocol ----------------------------------------------------

    @property
    def k(self) -> int:
        """Total number of blocks in the file."""
        return self._k

    @property
    def mask(self) -> int:
        """The raw bitmask (bit ``b`` set iff block ``b`` is held)."""
        return self._mask

    @property
    def count(self) -> int:
        """Number of blocks held."""
        return self._mask.bit_count()

    @property
    def is_complete(self) -> bool:
        """True when every block of the file is held."""
        return self._mask == full_mask(self._k)

    @property
    def is_empty(self) -> bool:
        """True when no block is held."""
        return self._mask == 0

    def __contains__(self, block: int) -> bool:
        return 0 <= block < self._k and bool(self._mask >> block & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(int(b) for b in bit_indices(self._mask))

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockSet):
            return NotImplemented
        return self._k == other._k and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self._k, self._mask))

    def __repr__(self) -> str:
        if self.is_complete:
            body = "complete"
        elif self.count <= 12:
            body = "{" + ", ".join(str(b) for b in self) + "}"
        else:
            body = f"{self.count} blocks"
        return f"BlockSet(k={self._k}, {body})"

    # -- mutation ----------------------------------------------------------

    def add(self, block: int) -> None:
        """Record receipt of ``block``."""
        if not 0 <= block < self._k:
            raise ConfigError(f"block index {block} out of range for k={self._k}")
        self._mask |= 1 << block

    def discard(self, block: int) -> None:
        """Forget ``block`` (used only by failure-injection tests)."""
        if 0 <= block < self._k:
            self._mask &= ~(1 << block)

    # -- set algebra -------------------------------------------------------

    def __sub__(self, other: "BlockSet") -> "BlockSet":
        self._check_compatible(other)
        return BlockSet.from_mask(self._k, self._mask & ~other._mask)

    def __and__(self, other: "BlockSet") -> "BlockSet":
        self._check_compatible(other)
        return BlockSet.from_mask(self._k, self._mask & other._mask)

    def __or__(self, other: "BlockSet") -> "BlockSet":
        self._check_compatible(other)
        return BlockSet.from_mask(self._k, self._mask | other._mask)

    def missing(self) -> "BlockSet":
        """Blocks of the file not yet held."""
        return BlockSet.from_mask(self._k, full_mask(self._k) & ~self._mask)

    def useful_for(self, other: "BlockSet") -> "BlockSet":
        """Blocks we hold that ``other`` lacks (what we could upload to it)."""
        self._check_compatible(other)
        return BlockSet.from_mask(self._k, self._mask & ~other._mask)

    def is_interesting_to(self, other: "BlockSet") -> bool:
        """True when we hold at least one block ``other`` lacks.

        This is the paper's notion of an "interested" neighbor.
        """
        self._check_compatible(other)
        return bool(self._mask & ~other._mask)

    def _check_compatible(self, other: "BlockSet") -> None:
        if self._k != other._k:
            raise ConfigError(
                f"block sets refer to different files (k={self._k} vs k={other._k})"
            )
