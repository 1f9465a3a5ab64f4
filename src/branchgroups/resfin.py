"""Residually finite input groups and their finite quotient chains.

An input group is presented through a :class:`GroupOracle`: a finite
symmetric generating set (with an explicit involution pairing), a total
word-problem decider, and an effective residual-finiteness query that maps
every nontrivial word to a finite quotient detecting it.  Every bundled
query reads only a word's length or exponent sum, so each oracle streams
in closed form the quotients that the query first answers, by the word
length k at which it first answers them (:meth:`GroupOracle.components`),
and no word is queried.

Words are plain tuples of generator indices.  The inverse of generator
``i`` is generator ``oracle.inverse[i]``.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter

import numpy as np

from .perm import IndexedAlphabet, _decimal_cycles, _inverse_walk

__all__ = [
    "NOT_CONJUGATE",
    "UNSUPPORTED",
    "CapExceeded",
    "DEFAULT_VERTEX_CAP",
    "FiniteQuotient",
    "PairQuotient",
    "GroupOracle",
    "IntegerOracle",
    "DihedralOracle",
    "CyclicOracle",
    "ProductOracle",
    "Level",
    "build_level_map",
    "decide_word_problem",
    "kernel_min_length_check",
    "word_inverse",
    "parse_word",
    "format_word",
    "format_quotient_map",
    "oracle_from_selector",
]


class _Marker:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


NOT_CONJUGATE = _Marker("NOT_CONJUGATE")
UNSUPPORTED = _Marker("UNSUPPORTED")
DEFAULT_VERTEX_CAP = 2_000_000


class CapExceeded(RuntimeError):
    """A materialization would exceed its oracle's ``vertex_cap``
    (vertices of a level permutation or portrait, the codes of a
    quotient-chain fold, or the elements of a finite input group); use
    depth-bounded checks or a smaller level instead."""


def _inverse(perm):
    """The inverse of a permutation of ``0..len(perm)-1``, such as the
    element of each code from the visit order ``codes``."""
    inverse = np.empty(len(perm), dtype=np.int32)
    inverse[perm] = np.arange(len(perm), dtype=np.int32)
    return inverse


class FiniteQuotient:
    """A finite quotient of the input group, enumerated by the
    breadth-first search from the identity that expands each element by
    every generator in order: element ``x`` is the ``x``-th element the
    search reaches, and element 0 is the identity.

    The search reaches the elements in shortlex order of their least
    geodesic words (Epstein et al., *Word Processing in Groups*, 1992,
    ch. 2).  The least word of an element x is that of its parent, the
    first element reached from which a generator leads to x, followed by
    the least such generator; so the elements of one depth are reached in
    lexicographic order of their least words.  The enumeration thus
    depends only on the kernel and on the order of the generators, and
    every bundled quotient writes it in closed form, with no search:
    :class:`_FamilyQuotient` for the cyclic and dihedral groups,
    :class:`PairQuotient` for the image of a direct product.

    Each quotient numbers its elements one way, by code, and has:

    - ``order`` and ``key``, which identifies the quotient up to an
      identical homomorphism from the source and deduplicates components;
    - ``codes``, the code of each element, and ``label``, the element of
      each code, both built on first read; code 0 is the identity's;
    - ``_product(left, right)``, the code of a product, on int codes or
      arrays of them alike, its only multiplication rule, and ``_gens``,
      the code of each generator;
    - ``_order(code)``, the order of an element;
    - ``shape``, the depth of each code's element and its index in the
      post-order of the search tree (children in generator order), from
      which a product writes its own enumeration;
    - ``cycle_walk(s)``, left multiplication by generator ``s`` in cycles;
    - ``fold`` and ``factors_through``, which work on parameters and side
      by side and enumerate nothing.

    The rest is written once, here: a word's running code is its
    generators' codes multiplied from 0 one :meth:`step` at a time, and
    its element is that code's (:meth:`element`, :meth:`apply_word`), so
    no quotient stores a multiplication table; left multiplication by an
    element is one gather of the product rule over every code
    (:meth:`left_mult_images`).  By Cayley's theorem left multiplication
    by an element of order o in a group of order N has N/o cycles, all of
    length o, so its sign is (-1)^(N - N/o) (:meth:`left_mult_sign`).
    """

    def step(self, code, s):
        """The code of the element coded ``code`` times generator ``s``."""
        return self._product(code, self._gens[s])

    def element(self, code):
        """The element of a code."""
        return int(self.label[code])

    def apply_word(self, word):
        """The element of a word: :meth:`step` folded over its generators
        from the identity's code 0, read by :meth:`element`."""
        code = 0
        for s in word:
            code = self.step(code, s)
        return self.element(code)

    def left_mult_images(self, i):
        """Image array of left multiplication by element ``i``: the
        element of its code times each code."""
        return self.label[self._product(int(self.codes[i]), self.codes)].astype(np.int64)

    def left_mult_sign(self, i):
        """The sign of left multiplication by element ``i``, from its order."""
        o = self._order(int(self.codes[i]))
        return -1 if (self.order - self.order // o) % 2 else 1

    def __repr__(self):
        return f"{type(self).__name__}(order={self.order}, key={self.key!r})"


class _FamilyQuotient(FiniteQuotient):
    """A cyclic or dihedral quotient, given by its ``key``: the family and
    the parameter ``n``.  Code ``e*n + m`` stands for a^e t^m, with e = 0
    only in C_n, so the order and the generators' codes (``a``, then ``t``
    and ``t'``) follow from the key.  The visit order is written once, on
    first read, as ``label``, the element of each code
    (:func:`_cyclic_label`, :func:`_dihedral_label`); ``codes`` is its
    inverse, built only when a left multiplication, an element's order or
    a pair over this quotient reads it.  Multiplication is the product
    rule

        a^e' t^m' . a^e t^m = a^(e'+e) t^((-1)^e m' + m)

    on codes, ints or arrays alike (:meth:`_product`), so the left regular
    representation is known outright:

    - each generator's cycles are written from ``label`` as element
      indices (:meth:`cycle_walk`): ``t`` runs the rotations' labels
      from element 0 and, in D_n, the reflections' the other way from
      element 1, and ``a`` pairs each rotation with its reflection;
    - an element's order is 2 for a reflection and n / gcd(m, n) for a
      rotation.

    Two quotients of one family (the components of one oracle) fold to
    the family's quotient at the lcm of their parameters and factor by
    divisibility, so neither enumerates anything.
    """

    def __init__(self, family, n):
        self.key = (family, n)
        self.n = n
        self.order = n if family == "cyclic" else 2 * n
        self._gens = (1 % n, -1 % n) if family == "cyclic" else (n, 1 % n, -1 % n)

    @cached_property
    def label(self):
        label = (_cyclic_label if self.order == self.n else _dihedral_label)(self.n)
        # read-only, since the cycle of t in C_n is the label itself
        label.flags.writeable = False
        return label

    @cached_property
    def codes(self):
        return _inverse(self.label)

    def _product(self, left, right):
        """The code of the product of the elements coded ``left`` and
        ``right``, each an int or an array."""
        n = self.n
        f, k = divmod(left, n)
        e, m = divmod(right, n)
        return (f ^ e) * n + (k * (1 - 2 * e) + m) % n

    def _order(self, code):
        n = self.n
        e, m = divmod(code, n)
        return 2 if e else n // gcd(m, n)

    @cached_property
    def shape(self):
        """Depth and post-order index of each code.  With P = n//2 and
        M = (n-1)//2, the rotation t^m lies at depth m' = min(m, n - m),
        on the t branch of the tree for m <= P and on the t' branch
        otherwise, deepest first: post-order P - m' or P + M - m', and
        n - 1 at the identity.  In D_n a reflection lies one deeper, and
        its branch comes first, so a rotation's index moves up by n."""
        n = self.n
        e, m = np.divmod(np.arange(self.order, dtype=np.int32), n)
        half, rest = n // 2, (n - 1) // 2
        positive = m <= half
        depth = np.where(positive, m, n - m)
        post = np.where(positive, half - depth, half + rest - depth)
        post[depth == 0] = n - 1
        if self.order > n:
            post += n * (1 - e)
        return depth + e, post

    def cycle_walk(self, s):
        """Left multiplication by generator ``s`` in the layout of
        :func:`perm._cycle_walk`, each cycle from its least element,
        written as element indices from ``label`` with no gather.  With
        P = n//2 and M = (n-1)//2:

        - ``t`` walks t^0, t^1, ..., t^(n-1) from element 0: the
          rotations' labels as they stand, (0 1 3 ... 2P-1 2M ... 4 2) in
          C_n, where the walk is the read-only ``label`` itself, and
          (0 2 6 ... 4M-2 [2n-2] 4M-1 ... 7 3) in D_n.  In D_n it
          walks a, a t^-1, a t^-2, ... from element 1: the reflections'
          labels backwards after the first, (1 5 9 ... 4M+1 [2n-1] 4M ...
          8 4).  ``t'`` runs each cycle the other way.
        - ``a`` swaps t^m and a t^m: (0 1)(2 4)(3 5)(6 8)(7 9)... up to
          (4M-1 4M+1), then (2n-2 2n-1), each cycle from its rotation.

        The bracketed places and the last cycle of ``a`` are those of
        t^(n/2) and a t^(n/2), at even n only."""
        n = self.n
        e, m = divmod(self._gens[s], n)
        if e:
            # 0..2n-1 with 4m - 1 and 4m swapped for m = 1..M, so that
            # (4m-2 4m) and (4m-1 4m+1) are cycles
            letters = np.arange(self.order, dtype=np.int32)
            paired = 4 * ((n - 1) // 2) + 2
            letters[3:paired:4] += 1
            letters[4:paired:4] -= 1
            return letters, np.arange(0, self.order + 1, 2)
        label, bounds = self.label, np.arange(0, self.order + 1, n)
        rotations, reflections = label[:n], label[n:]
        if m != 1:
            return np.concatenate((rotations[:1], rotations[:0:-1], reflections)), bounds
        if self.order == n:
            return label, bounds
        return np.concatenate((rotations, reflections[:1], reflections[:0:-1])), bounds

    def factors_through(self, other):
        """Whether this quotient's map from the source factors through
        ``other``'s: C_a (or D_a) is a quotient of C_b (or D_b) exactly
        when a divides b."""
        return other.n % self.n == 0

    def fold(self, other):
        """The image of the source in this quotient times ``other``: ``t``
        maps to an element of order lcm(a, b) in C_a x C_b (or D_a x D_b),
        so the image is the family's quotient at the lcm."""
        return _FamilyQuotient(self.key[0], lcm(self.n, other.n))


def _cyclic_label(k):
    """The visit order of the cyclic group of order ``k`` over ``t``,
    ``t'``, as the element of each code, code ``c`` standing for ``t^c``.
    The search reaches t^0, t^1, t^-1, t^2, t^-2, ..., so t^j is element
    2j - 1 and t^-j element 2j; at even ``k``, ``t^(k/2)`` is reached
    first as a positive power, at k - 1.  Written with no remainder."""
    half = k // 2
    label = np.empty(k, dtype=np.int32)
    label[0] = 0
    label[1 : half + 1] = np.arange(1, 2 * half, 2, dtype=np.int32)
    label[half + 1 :] = np.arange(2 * (k - half - 1), 0, -2, dtype=np.int32)
    return label


def _dihedral_label(h):
    """The visit order of the dihedral group of order ``2h`` over ``a``,
    ``t``, ``t'``, as the element of each code, code ``e*h + m`` standing
    for ``a^e t^m``.  The search reaches t^0 and a, then t^m, t^-m, a t^m,
    a t^-m for m = 1, 2, ..., M = (h-1)//2, each at 4m - 2, 4m - 1, 4m
    and 4m + 1; at even ``h``, ``t^(h/2)`` and ``a t^(h/2)`` come last,
    at 2h - 2 and 2h - 1."""
    last = (h - 1) // 2
    label = np.empty(2 * h, dtype=np.int32)
    rotations, reflections = label[:h], label[h:]
    rotations[0], reflections[0] = 0, 1
    # 4m for m = 1..M: codes 1..M hold m, codes h-M..h-1 hold -M..-1
    fours = np.arange(4, 4 * last + 1, 4, dtype=np.int32)
    rotations[1 : last + 1] = fours - 2
    rotations[h - last :] = fours[::-1] - 1
    reflections[1 : last + 1] = fours
    reflections[h - last :] = fours[::-1] + 1
    if h % 2 == 0:
        rotations[h // 2], reflections[h // 2] = 2 * h - 2, 2 * h - 1
    return label


_NOTHING = np.zeros(1, dtype=np.int32)


class PairQuotient(FiniteQuotient):
    """The image of a direct product G0 x G1 in Q0 x Q1, where ``sides``
    are the quotients Q0 and Q1 of the two factors (None for a side on
    which the product acts trivially) and ``widths`` the numbers of
    generators of G0 and G1, which come first.  The image is all of
    Q0 x Q1, so the order is the product of the sides' orders; the pair
    of side elements coded c0 and c1 has code ``c0 * |Q1| + c1``, and
    codes multiply side by side (:meth:`_product`).

    The enumeration is written, not searched.  The least geodesic word of
    (x, y) is u.v, u and v being those of x and y, since the side-0
    generators come first.  Words of one length compare by u first, and
    u before u' exactly when u comes first in the post-order of the
    side-0 search tree (a word after all its extensions, since after u
    the word goes on with a side-1 generator); for one u they compare by
    the index of y.  So the visit order sorts the pairs by
    (depth0[x] + depth1[y], post0[x], y) (:func:`_shortlex_pairs`), and
    a pair's own depth and post-order index are depth0[x] + depth1[y]
    and post0[x] * |Q1| + post1[y], so products nest.  With one side
    trivial, the codes and the visit order are the other side's and
    nothing is sorted.

    Everything but the order and the generators' codes is built on first
    read, so a fold, a factor test or a cap check enumerates nothing.  An
    element's order is the lcm of its sides'.  Two pairs fold and factor
    side by side.
    """

    def __init__(self, sides, widths):
        self.sides = sides
        self.widths = widths
        self.key = ("pair", *(None if side is None else side.key for side in sides))
        self._width = _side_order(sides[1])
        self.order = _side_order(sides[0]) * self._width
        first, second = sides
        self._gens = (
            (0,) * widths[0] if first is None else tuple(g * self._width for g in first._gens)
        ) + ((0,) * widths[1] if second is None else second._gens)

    @cached_property
    def codes(self):
        return self._lone("codes") if None in self.sides else _shortlex_pairs(*self.sides)

    @cached_property
    def label(self):
        return self._lone("label") if None in self.sides else _inverse(self.codes)

    def _lone(self, name):
        """``codes`` or ``label`` of a pair with a trivial side: those of
        the other side, whose codes are the pair's."""
        first, second = self.sides
        lone = first if second is None else second
        return _NOTHING if lone is None else getattr(lone, name)

    def _product(self, left, right):
        """Side by side on ``c0 * |Q1| + c1``.  A trivial side keeps the
        right operand's side code, which is 0 and, for an array, already
        has the product's shape."""
        width = self._width
        c0, c1 = divmod(left, width)
        d0, d1 = divmod(right, width)
        first, second = self.sides
        if first is not None:
            d0 = first._product(c0, d0)
        if second is not None:
            d1 = second._product(c1, d1)
        return d0 * width + d1

    def _order(self, code):
        sides = zip(self.sides, divmod(code, self._width))
        return lcm(*(1 if side is None else side._order(c) for side, c in sides))

    @cached_property
    def shape(self):
        """Depth and post-order index of each code ``c0 * |Q1| + c1``, from
        the sides' at c0 and c1."""
        (depth0, post0), (depth1, post1) = map(_side_shape, self.sides)
        return (depth0[:, None] + depth1).ravel(), (post0[:, None] * self._width + post1).ravel()

    def cycle_walk(self, s):
        """Left multiplication by generator ``s`` from its side's cycles,
        all of one length o: the side cycle through x, with the other
        side's element fixed at y, is a cycle of the pair.  The side's
        cycle letters are turned into its codes, each pair's element read
        from the label, each cycle turned to start at its least element,
        and the cycles sorted by it, so the other side's codes may run in
        any order."""
        side = int(s >= self.widths[0])
        inner = self.sides[side]
        if inner is None:
            return _NOTHING[:0], _NOTHING[:0]
        letters, bounds = inner.cycle_walk(s - side * self.widths[0])
        if not len(letters):
            return letters, bounds
        o = int(bounds[1])
        cycles = inner.codes[letters].reshape(-1, o)
        if side:
            x, y = np.arange(_side_order(self.sides[0]))[:, None, None], cycles[None]
        else:
            x, y = cycles[:, None], np.arange(self._width)[:, None]
        walk = self.label[x * self._width + y].reshape(-1, o)
        walk = np.take_along_axis(walk, (walk.argmin(axis=1)[:, None] + np.arange(o)) % o, axis=1)
        return walk[np.argsort(walk[:, 0])].ravel(), np.arange(0, self.order + 1, o)

    def factors_through(self, other):
        """Side by side: a trivial side factors through anything, and only
        a trivial side factors through one."""
        return all(a is None or (b is not None and a.factors_through(b)) for a, b in zip(self.sides, other.sides))

    def fold(self, other):
        """The image in this pair times ``other``: on each side, the image
        of that factor in the product of the two sides."""
        sides = tuple(b if a is None else a if b is None else a.fold(b) for a, b in zip(self.sides, other.sides))
        return PairQuotient(sides, self.widths)


def _side_order(side):
    return 1 if side is None else side.order


def _side_shape(side):
    return (_NOTHING, _NOTHING) if side is None else side.shape


def _shortlex_pairs(first, second):
    """The visit order of the pairs of elements of ``first`` and
    ``second``, as codes ``c0 * |second| + c1`` sorted by (depth of x plus
    depth of y, post-order index of x, y), x and y being the sides'
    elements.  Listing side-0 codes by post-order and side-1 codes in
    side-1 element order (``second.codes``) gives the last two keys with
    no sort; one stable sort by depth then gives the first."""
    width = second.order
    (depth0, post0), (depth1, _) = first.shape, second.shape
    by_post = (_inverse(post0)[:, None] * width + second.codes).ravel()
    depth = (depth0[:, None] + depth1).ravel()[by_post]
    return by_post[np.argsort(depth.astype(np.min_scalar_type(depth.max())), kind="stable")]


class GroupOracle:
    """Base class for bundled input groups.

    Subclasses supply element keys (canonical forms, which decide the
    word problem): ``gen_keys``, ``identity_key`` and their product
    ``multiply``, whose fold keys every word (:meth:`element_key`); also
    ``components`` (the effective residual-finiteness query, streamed by
    word length) and optionally ``conjugate``.  All public state is
    immutable after construction; caches are filled idempotently, so
    concurrent use is safe.
    ``vertex_cap``, set once by :func:`oracle_from_selector`, bounds
    everything built from the oracle: the codes of each chain fold (so
    every alphabet), and the vertices of level permutations and portraits.
    """

    vertex_cap = DEFAULT_VERTEX_CAP

    def __init__(self, name, gen_names, inverse, gen_keys, identity_key):
        if not len(gen_names) == len(inverse) == len(gen_keys):
            raise ValueError("involution pairing and keys must cover every generator")
        for i, j in enumerate(inverse):
            if inverse[j] != i:
                raise ValueError("involution pairing is not an involution")
        self.name = name
        self.gen_names = tuple(gen_names)
        self.gen_indices = frozenset(range(len(gen_names)))
        self.gen_by_name = {n: i for i, n in enumerate(self.gen_names)}
        self.inverse = tuple(inverse)
        self.gen_keys = tuple(gen_keys)
        self.identity_key = identity_key
        self.cache = {}

    # -- subclass API --

    def multiply(self, left, right):
        """The key of the product of the elements keyed ``left`` and ``right``."""
        raise NotImplementedError

    def components(self):
        """The quotients that the residual-finiteness query first answers,
        as pairs ``(k, quotient)`` in order of the word length ``k`` at
        which they are first met, and within one length in the order of
        their shortest words, each interned (:meth:`_intern`) as it is
        reached.  The stream is endless for an infinite group and ends for
        a finite one.  The query itself, the per-word rule in each
        oracle's docstring, lives in the tests as the reference this
        stream must equal."""
        raise NotImplementedError

    def conjugate(self, g, k):
        """Conjugator word with ``c^-1 g c = k``, NOT_CONJUGATE, or UNSUPPORTED."""
        return UNSUPPORTED

    # -- shared plumbing --

    def check_word(self, word):
        """Raise ``ValueError`` on generator indices outside the generators."""
        if not self.gen_indices.issuperset(word):
            raise ValueError(f"generator indices must lie in range({len(self.gen_names)})")

    def element_key(self, word):
        """A word's key: its generators' keys multiplied from ``identity_key``."""
        self.check_word(word)
        key, gen_keys, multiply = self.identity_key, self.gen_keys, self.multiply
        for s in word:
            key = multiply(key, gen_keys[s])
        return key

    def is_identity(self, word):
        return self.element_key(word) == self.identity_key

    def ball(self, radius):
        """The spanning tree of the radius ball, identity included: the
        breadth-first search from the identity that extends each frontier
        key by every generator in order, by one product each, and keeps
        the elements it has not seen.  Element ``i`` is kept as its parent
        ``parents[i]`` and generator ``gens[i]``, the last letter of its
        least shortest word (:func:`_ball_word`); element 0 is the identity,
        with parent 0 and generator -1.  So the elements come in (length,
        lex) order of those words, and no word is stored.  Returns the pair
        ``(parents, gens)`` of int arrays, searched once per radius.  The
        search stops at an empty frontier, so a finite group's ball costs
        its order, whatever the radius."""
        got = self.cache.get(("ball", radius))
        if got is not None:
            return got
        seen = {self.identity_key}
        parents, gens = array("q", [0]), array("q", [-1])
        frontier = [(0, self.identity_key)]
        for _ in range(radius):
            if not frontier:
                break
            new = []
            for parent, key in frontier:
                for s, gen_key in enumerate(self.gen_keys):
                    cand_key = self.multiply(key, gen_key)
                    if cand_key not in seen:
                        seen.add(cand_key)
                        new.append((len(parents), cand_key))
                        parents.append(parent)
                        gens.append(s)
            frontier = new
        return self.cache.setdefault(("ball", radius), (parents, gens))

    def _intern(self, quotient):
        """The oracle's one quotient with ``quotient.key``: the first one
        interned under that key, kept in ``cache``."""
        return self.cache.setdefault(("quotient", quotient.key), quotient)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def _ball_word(ball, i):
    """The least shortest word of element ``i`` of a :meth:`GroupOracle.ball`,
    spelled from its parent pointers."""
    parents, gens = ball
    word = []
    while i:
        word.append(gens[i])
        i = parents[i]
    return tuple(reversed(word))


def word_inverse(oracle, word):
    return tuple(oracle.inverse[s] for s in reversed(word))


def parse_word(oracle, text):
    """Parse a whitespace-separated word over generator names."""
    names = oracle.gen_by_name
    out = []
    for tok in text.split():
        if tok not in names:
            raise ValueError(f"unknown generator {tok!r} for group {oracle.name}")
        out.append(names[tok])
    return tuple(out)


def format_word(oracle, word):
    return " ".join(oracle.gen_names[s] for s in word) if word else ""


# ---------------------------------------------------------------------------
# bundled groups


class _CyclicBase(GroupOracle):
    """A cyclic group with generators ``t`` and ``t'``: its finite cyclic
    quotients, and conjugacy, which in an abelian group is equality."""

    def __init__(self, name, minus_one):
        super().__init__(name, ("t", "t'"), (1, 0), (1, minus_one), 0)

    def conjugate(self, g, k):
        if self.element_key(g) == self.element_key(k):
            return ()
        return NOT_CONJUGATE


class IntegerOracle(_CyclicBase):
    """The infinite cyclic group, generators ``t`` and ``t'``.

    The residual-finiteness query sends a word with exponent sum m != 0 to
    the cyclic group of order |m| + 1, where m survives.  An element of
    length k is t^k or t^-k, so C_(k+1) is the quotient first met at k.
    """

    def __init__(self):
        super().__init__("integers", -1)

    def multiply(self, left, right):
        return left + right

    def components(self):
        for k in itertools.count(1):
            yield k, self._intern(_FamilyQuotient("cyclic", k + 1))


class DihedralOracle(GroupOracle):
    """The infinite dihedral group with generators ``a`` (an involution)
    and ``t``; the defining relation conjugates ``t`` to its inverse.

    Normal form: (eps, m) standing for a^eps t^m, and (e, m)(e', m') =
    (e xor e', (-1)^e' m + m') as in :meth:`_FamilyQuotient._product`.  The
    residual-finiteness query sends a nontrivial word w to the dihedral
    group of order 2(|w| + 1), rotation image for ``t`` and reflection
    image for ``a``; any rotation of exponent up to |w| survives there,
    and reflections survive in every dihedral quotient.  Every length has
    elements, so D_(k+1) is the quotient first met at length k.
    """

    def __init__(self):
        super().__init__("dihedral_infinite", ("a", "t", "t'"), (0, 2, 1), ((1, 0), (0, 1), (0, -1)), (0, 0))

    def multiply(self, left, right):
        (e, m), (f, k) = left, right
        return (e ^ f, (-m if f else m) + k)

    def components(self):
        for k in itertools.count(1):
            yield k, self._intern(_FamilyQuotient("dihedral", k + 1))

    def conjugate(self, g, k):
        (e1, m1) = self.element_key(g)
        (e2, m2) = self.element_key(k)
        if e1 != e2:
            return NOT_CONJUGATE
        if e1 == 0:
            if m1 == m2:
                return ()
            if m1 == -m2:
                return (0,)  # conjugation by the involution flips the exponent
            return NOT_CONJUGATE
        if (m1 - m2) % 2 != 0:
            return NOT_CONJUGATE
        j = (m2 - m1) // 2
        gen = 1 if j >= 0 else 2
        return (gen,) * abs(j)


class CyclicOracle(_CyclicBase):
    """A finite cyclic group of order m, generators ``t`` and ``t'``.

    The residual-finiteness query sends every nontrivial word to the group
    itself, C_m, first met at length 1 (``t`` is nontrivial, as m >= 2);
    its stream of components ends there.
    """

    def __init__(self, order):
        if order < 2:
            raise ValueError("cyclic order must be at least 2")
        super().__init__(f"finite:{order}", order - 1)
        self.group_order = order

    def multiply(self, left, right):
        return (left + right) % self.group_order

    def components(self):
        yield 1, self._intern(_FamilyQuotient("cyclic", self.group_order))


class ProductOracle(GroupOracle):
    """Direct product of two bundled oracles; generators are the two
    generating sets side by side, names prefixed with ``1.`` and ``2.``;
    keys are pairs of the sides' keys, multiplied componentwise.

    The residual-finiteness query answers on the side of the first
    nontrivial projection, with the other side acting trivially.  Word
    length adds over the sides, so a nontrivial left projection of a
    shortest word is itself shortest and its quotient was met at its own
    length; the quotients first met at length k are the left side's at k,
    reached by words of left generators, which come first, then the right
    side's: the two sides' streams merged by length.
    """

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._split = len(left.gen_names)
        names = tuple(f"1.{n}" for n in left.gen_names) + tuple(f"2.{n}" for n in right.gen_names)
        inv = tuple(left.inverse) + tuple(i + self._split for i in right.inverse)
        keys = tuple((k, right.identity_key) for k in left.gen_keys) + tuple((left.identity_key, k) for k in right.gen_keys)
        super().__init__(f"product:{left.name},{right.name}", names, inv, keys, (left.identity_key, right.identity_key))

    def _project(self, word):
        self.check_word(word)
        lw = tuple(s for s in word if s < self._split)
        rw = tuple(s - self._split for s in word if s >= self._split)
        return lw, rw

    def multiply(self, left, right):
        return (self.left.multiply(left[0], right[0]), self.right.multiply(left[1], right[1]))

    def components(self):
        widths = (self._split, len(self.gen_names) - self._split)
        left = ((k, (q, None)) for k, q in self.left.components())
        right = ((k, (None, q)) for k, q in self.right.components())
        # merge is stable: at equal lengths the left side comes first
        for k, pair in heapq.merge(left, right, key=itemgetter(0)):
            yield k, self._intern(PairQuotient(pair, widths))

    def conjugate(self, g, k):
        lg, rg = self._project(g)
        lk, rk = self._project(k)
        wl = self.left.conjugate(lg, lk)
        wr = self.right.conjugate(rg, rk)
        if wl is UNSUPPORTED or wr is UNSUPPORTED:
            return UNSUPPORTED
        if wl is NOT_CONJUGATE or wr is NOT_CONJUGATE:
            return NOT_CONJUGATE
        return tuple(wl) + tuple(s + self._split for s in wr)


# ---------------------------------------------------------------------------
# the quotient chain


class Level(IndexedAlphabet):
    """Level n of the construction: the level-n quotient map and the
    level-n alphabet, one object.

    The map is the corestriction of the product of the quotients that
    the residual-finiteness query answers on the nontrivial elements of
    word length 1 to n (:func:`_components_to`); ``quotient.apply_word``
    gives a word's element.  Every nontrivial kernel element has word
    length at least n + 1: an element of length at most n survives in the
    component the query answers on its shortest representative, and every
    word for the element has the same image.

    The alphabet is the quotient's elements (cosets) first, then x y z p
    q.  A letter's label is a rule of its index and the level n:
    ``q<i>@<n>`` for coset i and ``x@<n>`` to ``q@<n>`` for the special
    letters, so letters at distinct levels have distinct labels.
    """

    __slots__ = ("oracle", "level", "quotient", "x_index", "y_index", "z_index", "p_index", "q_index")
    anonymous = False

    def __init__(self, oracle, level, quotient):
        super().__init__(quotient.order + 5)
        self.oracle = oracle
        self.level = level
        self.quotient = quotient
        base = quotient.order
        self.x_index = base
        self.y_index = base + 1
        self.z_index = base + 2
        self.p_index = base + 3
        self.q_index = base + 4

    @property
    def alphabet(self):
        return self

    def label(self, i):
        if i < self.x_index:
            return f"q{i}@{self.level}"
        return f"{'xyzpq'[i - self.x_index]}@{self.level}"

    letter_at = label

    def _parse(self, label):
        # exactly what label() writes, else KeyError; TypeError for a
        # label that is not a string
        head, _, at = str.partition(label, "@")
        if at == str(self.level):
            digits = head[1:]
            if digits.isdecimal():
                # int() takes any Unicode decimal, so the label is written
                # back; the length test keeps int() off long text
                i = int(digits) if len(digits) < 19 else self.x_index
                if i < self.x_index and head == f"q{i}":
                    return i
            elif len(head) == 1 and head in "xyzpq":
                return self.x_index + "xyzpq".index(head)
        raise KeyError(f"unknown letter {label!r}")


def _components_to(oracle, n):
    """The distinct finite quotients whose product is the level-n map.

    They are the residual-finiteness query's answers on the shortest
    representatives of the nontrivial elements of the radius-n ball, in
    (length, lex) order of those words, each kept at its first appearance:
    components with one ``key`` (the family and parameter, or a pair of
    those) are one quotient with one map from the source.  The oracle
    streams them by word length (:meth:`GroupOracle.components`), so no
    ball is searched; a key is first met at one length only.
    """
    for k, quotient in oracle.components():
        if k > n:
            return
        yield quotient


def build_level_map(oracle, n):
    """Build (and cache) the level-n :class:`Level`: its quotient is the
    image of the input group in the product of the level-n components
    (:func:`_components_to`).
    Cached per oracle and level, so letter indices are stable across a run.

    The image is folded one component at a time: the running image ``A``
    and the next component ``C`` give the image in ``A`` x ``C``
    (:meth:`FiniteQuotient.fold`), the family's quotient at the lcm or,
    for a product, the sides folded side by side.  A component that
    factors through ``A`` is skipped; it adds nothing to the kernel.  The
    final kernel is the intersection of the component kernels either
    way, so the enumeration is that of the image in the full product.

    The oracle's ``vertex_cap`` bounds each fold's ``A.order * C.order``
    codes; a larger fold raises :class:`CapExceeded`.  Each component is
    folded as the oracle's stream reaches it, and no fold enumerates
    anything (every quotient lists its elements on first read), so the
    cap fires before any ball is searched, any work is done on the image,
    or any later component is listed.  On every bundled infinite group
    the image grows with each component it keeps, so the components read
    depend on the cap, not on ``n``: about 20 at the default cap.  A
    finite group's stream ends, so its level map costs the same at every
    ``n``.
    """
    if n < 1:
        raise ValueError("quotient chain level must be at least 1")
    got = oracle.cache.get(("level_map", n))
    if got is not None:
        return got
    components = _components_to(oracle, n)
    image, cap = next(components), oracle.vertex_cap
    for component in components:
        if component.factors_through(image):
            continue
        ambient = image.order * component.order
        if ambient > cap:
            raise CapExceeded(f"level {n} quotient would fold over {ambient} codes, more than the cap {cap}")
        image = image.fold(component)
    return oracle.cache.setdefault(("level_map", n), Level(oracle, n, image))


def decide_word_problem(oracle, word):
    """Reference word-problem decider: evaluate the level-|w| quotient map.

    The level map detects every nontrivial element of length at most its
    level, so the image is trivial exactly when the word is.
    """
    if not word:
        return True
    qm = build_level_map(oracle, len(word))
    return qm.quotient.apply_word(word) == 0


def kernel_min_length_check(oracle, n):
    """Confirm on the radius-n ball that the level-n kernel contains no
    short nontrivial element.  The ball keeps one element per node of its
    spanning tree, identity first, so every element after the first is
    nontrivial.  Each element's running code (:meth:`FiniteQuotient.step`)
    is one step from its parent's, so no word is applied; the element is
    in the kernel exactly when its code is 0, the identity's.  The map is
    built from no ball element, so the check is independent of it.
    Returns a dict report with a counterexample word, spelled from the
    parent pointers, on failure."""
    step = build_level_map(oracle, n).quotient.step
    ball = oracle.ball(n)
    parents, gens = ball
    codes = array("q", [0])
    for i in range(1, len(parents)):
        code = step(codes[parents[i]], gens[i])
        if code == 0:
            return {"passed": False, "level": n, "radius": n, "checked": i,
                    "counterexample": format_word(oracle, _ball_word(ball, i))}
        codes.append(code)
    return {"passed": True, "level": n, "radius": n, "checked": len(parents) - 1, "counterexample": None}


# ---------------------------------------------------------------------------
# external formats


def format_quotient_map(qm):
    """Homomorphism output: an ``order`` header, then one line per
    generator with its image as a permutation of the quotient enumeration
    (left multiplication), in cycle notation over element indices.

    Each pair of mutually inverse generators is walked once
    (:meth:`FiniteQuotient.cycle_walk`): the image of ``inverse[s]`` is
    that of ``s`` inverted, whose cycles are those of ``s`` with each
    tail reversed.  A cyclic or dihedral quotient writes the cycles of
    ``a`` and ``t`` as element indices from its label, with no codes,
    and a product those of each generator from its side's cycles."""
    quotient = qm.quotient
    inverse = qm.oracle.inverse
    lines = [f"order {quotient.order}"]
    walks = []
    for s, name in enumerate(qm.oracle.gen_names):
        walk = _inverse_walk(*walks[inverse[s]]) if inverse[s] < s else quotient.cycle_walk(s)
        walks.append(walk)
        lines.append(f"{name} -> {_decimal_cycles(*walk)}")
    return "\n".join(lines)


def oracle_from_selector(selector, vertex_cap=DEFAULT_VERTEX_CAP):
    """Resolve a group selector: ``dihedral_infinite``, ``integers``,
    ``finite:<order>`` or ``product:<sel>,<sel>,...`` (nested to the
    left), setting ``vertex_cap`` on every oracle built.  A finite order
    above the cap is refused: its quotient holds a code per element."""
    plain = {"integers": IntegerOracle, "dihedral_infinite": DihedralOracle}
    if selector in plain:
        oracle = plain[selector]()
    elif selector.startswith("finite:"):
        try:
            order = int(selector.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad finite group selector {selector!r}") from None
        oracle = CyclicOracle(order)
        if order > vertex_cap:
            raise CapExceeded(f"finite group order {order} exceeds the vertex cap {vertex_cap}")
    elif selector.startswith("product:"):
        parts = [p.strip() for p in selector.split(":", 1)[1].split(",")]
        if len(parts) < 2:
            raise ValueError(f"product selector needs at least two components: {selector!r}")
        left = parts[0] if len(parts) == 2 else "product:" + ",".join(parts[:-1])
        oracle = ProductOracle(oracle_from_selector(left, vertex_cap), oracle_from_selector(parts[-1], vertex_cap))
    else:
        raise ValueError(f"unknown group selector {selector!r}")
    oracle.vertex_cap = vertex_cap
    return oracle
