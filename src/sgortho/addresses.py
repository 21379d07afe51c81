"""Canonical vertex addresses on the gasket graph hierarchy.

A vertex is F_word(q_corner) for a word over {0,1,2}.  Junction points have
two minimal representations, F_{w i}(q_j) = F_{w j}(q_i) for i != j, and any
representation can be padded with trailing letters equal to its corner since
F_c fixes q_c.  The canonical form strips such trailing letters and then picks
the lexicographically smaller of the two twins, so equal points compare equal.
"""

from __future__ import annotations


class VertexAddress:
    """An immutable (word, corner) pair, ordered, equal and hashed by value."""

    __slots__ = ("word", "corner")

    def __init__(self, word: tuple[int, ...], corner: int):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "corner", corner)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to VertexAddress.{name}")

    def __eq__(self, other):
        if other.__class__ is not VertexAddress:
            return NotImplemented
        return self.word == other.word and self.corner == other.corner

    def __lt__(self, other):
        if other.__class__ is not VertexAddress:
            return NotImplemented
        return (self.word, self.corner) < (other.word, other.corner)

    def __hash__(self):
        return hash((self.word, self.corner))

    def __repr__(self) -> str:
        return f"VertexAddress({self.word!r}, {self.corner!r})"

    @staticmethod
    def make(word, corner: int) -> "VertexAddress":
        """Canonicalize (word, corner) so equal points get equal addresses."""
        word = tuple(word)
        if corner not in (0, 1, 2) or any(c not in (0, 1, 2) for c in word):
            raise ValueError("letters and corner must be 0, 1 or 2")
        while word and word[-1] == corner:
            word = word[:-1]
        if word and word[-1] > corner:
            word, corner = word[:-1] + (corner,), word[-1]
        return VertexAddress(word, corner)

    @property
    def level(self) -> int:
        return len(self.word)

    def is_boundary(self) -> bool:
        return not self.word

    def spine_depth(self) -> int | None:
        """Depth n if this vertex is F_0^n(q_1) or F_0^n(q_2), else None."""
        if self.corner in (1, 2) and all(c == 0 for c in self.word):
            return len(self.word)
        return None

    def reflect(self) -> "VertexAddress":
        """Image under the reflection fixing q0 (swaps letters/corners 1 and 2)."""
        swap = {0: 0, 1: 2, 2: 1}
        return VertexAddress.make(tuple(swap[c] for c in self.word),
                                  swap[self.corner])

    def __str__(self) -> str:
        return ("".join(map(str, self.word)) or "e") + "." + str(self.corner)


def spine_address(depth: int, target: int) -> VertexAddress:
    """Address of F_0^depth(q_target) for target in {1, 2}."""
    if target not in (1, 2):
        raise ValueError("spine target must be corner 1 or 2")
    return VertexAddress.make((0,) * depth, target)


def mapped(word, addr: VertexAddress) -> VertexAddress:
    """Address of F_word(point of addr)."""
    return VertexAddress.make(tuple(word) + addr.word, addr.corner)
