"""Circular numeric identifier space with base-``b`` digit arithmetic.

Pastry (Rowstron & Druschel 2001) assigns each node and each key a
fixed-width identifier drawn from a circular numeric space.  The
identifier is treated as a sequence of digits of base ``b`` (the paper
uses ``b = 16``, i.e. 4 bits per digit).  Prefix-digit matching drives
both routing and Corona's *wedge* construction: the wedge of a channel
at polling level ``l`` is the set of nodes whose first ``l`` digits
match the channel identifier's.

Identifiers are immutable value objects; all digit math is derived
lazily from the integer value so that hashing and comparison stay
cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

#: Width of the identifier space in bits (the paper uses SHA-1, 160 bits).
ID_BITS = 160

#: Largest identifier value plus one; identifiers live in ``[0, ID_SPACE)``.
ID_SPACE = 1 << ID_BITS

#: Power-of-two bases whose digit width divides the 160-bit identifier
#: exactly.  Bases like 8 or 64 (3- and 6-bit digits) would leave a
#: ragged tail of bits belonging to no digit, making prefix length and
#: digit extraction disagree.
_VALID_BASES = (2, 4, 16, 32, 256)


def bits_per_digit(base: int) -> int:
    """Return the number of bits encoding one base-``base`` digit.

    Pastry requires the base to be a power of two so that digits align
    with the binary representation; we additionally require the digit
    width to divide :data:`ID_BITS` (see ``_VALID_BASES``).
    """
    if base not in _VALID_BASES:
        raise ValueError(f"base must be one of {_VALID_BASES}, got {base!r}")
    return base.bit_length() - 1


@lru_cache(maxsize=None)
def digits_per_id(base: int) -> int:
    """Return how many base-``base`` digits make up one identifier."""
    return ID_BITS // bits_per_digit(base)


@dataclass(frozen=True, slots=True)
class NodeId:
    """An identifier in the circular ``[0, 2**160)`` space.

    The same type is used for node identifiers and channel (key)
    identifiers; both live in the same space, which is what makes
    consistent hashing and wedge membership well defined.
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < ID_SPACE:
            raise ValueError(
                f"identifier {self.value:#x} outside [0, 2**{ID_BITS})"
            )

    # ------------------------------------------------------------------
    # digit arithmetic
    # ------------------------------------------------------------------
    def digit(self, index: int, base: int) -> int:
        """Return the ``index``-th most significant base-``base`` digit."""
        ndigits = digits_per_id(base)
        if not 0 <= index < ndigits:
            raise IndexError(f"digit index {index} outside [0, {ndigits})")
        shift = (ndigits - 1 - index) * bits_per_digit(base)
        return (self.value >> shift) & (base - 1)

    def digits(self, base: int) -> tuple[int, ...]:
        """Return all digits, most significant first."""
        return tuple(self.digit(i, base) for i in range(digits_per_id(base)))

    def shared_prefix_len(self, other: "NodeId", base: int) -> int:
        """Return the number of leading base-``base`` digits shared with
        ``other``.

        This is the quantity Pastry routing and Corona wedges are built
        on: a node belongs to channel ``c``'s level-``l`` wedge iff
        ``node.shared_prefix_len(c, b) >= l``.
        """
        if self.value == other.value:
            return digits_per_id(base)
        xor = self.value ^ other.value
        bpd = bits_per_digit(base)
        # Index (from the top) of the first differing bit.
        first_diff_bit = ID_BITS - xor.bit_length()
        return first_diff_bit // bpd

    # ------------------------------------------------------------------
    # circular distance
    # ------------------------------------------------------------------
    def distance_cw(self, other: "NodeId") -> int:
        """Clockwise distance from ``self`` to ``other`` along the ring."""
        return (other.value - self.value) % ID_SPACE

    def between_cw(self, low: "NodeId", high: "NodeId") -> bool:
        """Return True if ``self`` lies in the clockwise arc ``(low, high]``."""
        return low.distance_cw(self) <= low.distance_cw(high) and self != low

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def hex(self) -> str:
        """Return the canonical 40-character hex rendering."""
        return f"{self.value:040x}"
