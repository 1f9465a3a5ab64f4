"""Level alphabets and the letter actions that drive the tree construction.

The alphabet at level n consists of the level-n quotient of the input
group (cosets, in their canonical enumeration order) followed by five
fresh letters x, y, z, p, q.  Two commuting actions permute the letters:

* the coset action of the input group: left multiplication on the coset
  block, extended to an even permutation by swapping p and q exactly when
  left multiplication is odd; the letters x, y, z are always fixed;
* the marker action of the even permutation group on the six symbols
  x, y, z, o, p, q, where o stands for the identity coset.

Both actions land in the even permutations of the alphabet.  A
:class:`Seed` bundles one input-group element with one marker permutation;
seeds generate the directed tree automorphisms in
:mod:`branchgroups.treeauto`.
"""

from __future__ import annotations

import functools
import math

from .perm import IndexedAlphabet, Perm, compose, random_even_perm
from .resfin import build_level_map, format_word, word_inverse

__all__ = [
    "MARKERS",
    "MARKER_ALPHABET",
    "Seed",
    "build_alphabet",
    "coset_action",
    "marker_action",
    "marker_perm",
    "random_marker_perm",
    "seed_is_trivial",
]

MARKERS = ("x", "y", "z", "o", "p", "q")
MARKER_ALPHABET = IndexedAlphabet(6, labels=MARKERS)


def build_alphabet(oracle, n):
    """The level-n alphabet, which is the level-n quotient map
    (:class:`resfin.Level`): read from the oracle's cache, and built by
    :func:`resfin.build_level_map` only on a miss."""
    got = oracle.cache.get(("level_map", n))
    return got if got is not None else build_level_map(oracle, n)


@functools.lru_cache(maxsize=math.factorial(6) // 2)
def marker_perm(cycles_text):
    """An even permutation of the six marker symbols, from cycle notation.

    Kept per spelling, least recently used out first, at most as many
    as there are even permutations of six symbols (360): a session's
    few spellings are parsed once, and a file of distinct spellings
    cannot grow the memo further.  Errors are not kept.  Permutations
    are immutable, so every reader shares the result."""
    p = Perm.from_cycles(MARKER_ALPHABET, cycles_text)
    if p.sign != 1:
        raise ValueError("marker permutations must be even")
    return p


def random_marker_perm(rng):
    return random_even_perm(MARKER_ALPHABET, rng)


class Seed:
    """A pair (input-group word, even marker permutation).

    Seeds are the elements whose recursively defined tree actions generate
    the directed part of the branch groups.  The group word is kept for
    printing; the group element is its key (``oracle.element_key``), read
    once and kept, by which seeds compare, hash and merge.  Indices outside
    the oracle's generators raise ``ValueError``.
    """

    __slots__ = ("oracle", "g", "marker", "_key")

    def __init__(self, oracle, g=(), marker=None):
        if marker is None:
            marker = Perm.identity(MARKER_ALPHABET)
        if marker.alphabet is not MARKER_ALPHABET:
            raise ValueError("marker part must permute the six marker symbols")
        if marker.sign != 1:
            raise ValueError("marker part must be even")
        self.g = tuple(g)
        oracle.check_word(self.g)
        self.oracle = oracle
        self.marker = marker
        self._key = None

    def mul(self, other):
        if other.oracle is not self.oracle:
            raise ValueError("seeds belong to different input groups")
        return Seed(self.oracle, self.g + other.g, compose(self.marker, other.marker))

    def inv(self):
        return Seed(self.oracle, word_inverse(self.oracle, self.g), self.marker.inverse())

    def commutator(self, other):
        """``self^-1 other^-1 self other``."""
        return self.inv().mul(other.inv()).mul(self).mul(other)

    def key(self):
        """``(element key, marker permutation)``: equal for two seeds of
        one oracle exactly when they are equal."""
        if self._key is None:
            self._key = (self.oracle.element_key(self.g), self.marker)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Seed):
            return NotImplemented
        return self.oracle is other.oracle and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Seed({format_word(self.oracle, self.g)!r}, {self.marker})"


def seed_is_trivial(seed):
    """Triviality of a seed letter: the marker part first, then the
    seed's kept key against the oracle's ``identity_key``, so the group
    word is read at most once per seed.  The tests check it against the
    reference decider :func:`resfin.decide_word_problem`."""
    return seed.marker.is_identity and seed.key()[0] == seed.oracle.identity_key


def coset_action(oracle, n, seed):
    """The input-group part of a seed acting on the level-n alphabet.

    Cosets move by left multiplication; x, y, z stay fixed; p and q swap
    exactly when left multiplication is an odd permutation of the cosets,
    which makes the result even.  The sign of left multiplication by an
    element of order o in a quotient of order N is (-1)^(N - N/o)
    (:meth:`FiniteQuotient.left_mult_sign`), so no cycle decomposition
    runs.  Cached per level and group element, by the seed's kept key.
    """
    level = build_alphabet(oracle, n)
    cache_key = ("coset_action", n, seed.key()[0])
    got = oracle.cache.get(cache_key)
    if got is not None:
        return got
    quotient = level.quotient
    img = quotient.apply_word(seed.g)
    images = level.identity_images.copy()
    block = quotient.left_mult_images(img)
    images[: quotient.order] = block
    if quotient.left_mult_sign(img) == -1:
        images[level.p_index] = level.q_index
        images[level.q_index] = level.p_index
    return oracle.cache.setdefault(cache_key, Perm(level, images, check=False, sign=1))


def marker_action(oracle, n, seed):
    """The marker part of a seed acting on the level-n alphabet.

    Each tracked symbol s moves to the image symbol at the same level,
    with o standing for the identity coset; all other cosets are fixed.
    """
    level = build_alphabet(oracle, n)
    marker = seed.marker
    cache_key = ("marker_action", n, marker)
    got = oracle.cache.get(cache_key)
    if got is not None:
        return got
    spots = [level.x_index, level.y_index, level.z_index, 0, level.p_index, level.q_index]
    images = level.identity_images.copy()
    for sym in range(6):
        images[spots[sym]] = spots[marker(sym)]
    # the marker part is even, and so is its action on six letters
    return oracle.cache.setdefault(cache_key, Perm(level, images, check=False, sign=1))
