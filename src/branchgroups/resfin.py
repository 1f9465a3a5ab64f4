"""Residually finite input groups and their finite quotient chains.

An input group is presented through a :class:`GroupOracle`: a finite
symmetric generating set (with an explicit involution pairing), a total
word-problem decider, and an effective residual-finiteness query that maps
every nontrivial word to a finite quotient detecting it.  On trivial words
the query returns the explicit :data:`TRIVIAL` marker instead of
diverging; all bundled groups have decidable word problems, so the marker
plays the role of the combined machine that answers "identity".

Words are plain tuples of generator indices.  The inverse of generator
``i`` is generator ``oracle.inverse[i]``.
"""

from __future__ import annotations

from array import array
from functools import cached_property, reduce
from itertools import islice
from math import gcd, lcm

import numpy as np

from .perm import _cycle_walk, _decimal_cycles, _inverse_walk

__all__ = [
    "TRIVIAL",
    "NOT_CONJUGATE",
    "UNSUPPORTED",
    "CapExceeded",
    "FiniteQuotient",
    "GroupOracle",
    "IntegerOracle",
    "DihedralOracle",
    "CyclicOracle",
    "ProductOracle",
    "QuotientMap",
    "efrf_query",
    "level_components",
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


TRIVIAL = _Marker("TRIVIAL")
NOT_CONJUGATE = _Marker("NOT_CONJUGATE")
UNSUPPORTED = _Marker("UNSUPPORTED")


class CapExceeded(RuntimeError):
    """A materialization would exceed its cap (vertices of a level
    permutation or portrait, or the ambient table of a quotient-chain
    fold); use depth-bounded checks or a smaller level instead."""


def _ints(row):
    """An int32 view of an ``array("i")`` row."""
    return np.frombuffer(row, dtype=np.int32)


def _int_row(values):
    """An ``array("i")`` copy of a contiguous int32 array."""
    row = array("i")
    row.frombytes(memoryview(values).cast("B"))
    return row


def _closure(rows):
    """Breadth-first closure from code 0 over ambient rows, ``rows[s][c]``
    being the code of ``c`` times generator ``s``.  Returns the label of
    every code (its element index, or -1 where unreached) and the codes of
    the elements in the order the search reaches them."""
    seen = bytearray(len(rows[0]))
    seen[0] = 1
    codes = [0]
    append = codes.append
    for code in codes:
        for row in rows:
            nxt = row[code]
            if not seen[nxt]:
                seen[nxt] = 1
                append(nxt)
    codes = np.array(codes, dtype=np.int32)
    label = np.full(len(seen), -1, dtype=np.int32)
    label[codes] = np.arange(len(codes), dtype=np.int32)
    return label, codes


def _spanning_tree(right):
    """The spanning tree of the breadth-first search, read off its right
    rows: element ``x`` is element ``parent[x]`` times generator
    ``via[x]``, reached first in that order.

    The search labels elements in the order it reaches them, expanding
    element ``p`` by every generator before ``p + 1``.  So once ``p`` is
    expanded the labels handed out are exactly ``0..reach[p]``, where
    ``reach`` is the running maximum of each element's row entries;
    ``parent[x]`` is the first ``p`` with ``reach[p] >= x``, and
    ``via[x]`` the first generator taking ``parent[x]`` to ``x``.  Both
    are 0 at the identity."""
    reach = np.maximum.accumulate(reduce(np.maximum, right))
    x = np.arange(len(reach), dtype=np.int32)
    parent = np.searchsorted(reach, x).astype(np.int32)
    via = np.zeros_like(x)
    for s in reversed(range(len(right))):
        via[right[s][parent] == x] = s
    via[0] = 0
    return parent, via


class FiniteQuotient:
    """A finite group stored as the right regular action of its generators
    on a canonical enumeration.

    ``rows[s][c]`` is the code of element ``c`` times generator ``s``, over
    the codes ``0..N-1`` of a finite ambient set in which code 0 is the
    identity.  The enumeration is the breadth-first closure from code 0,
    expanding in generator order; element 0 is always the identity.  It
    depends only on which generator words are equal in the group, not on
    the codes.

    The closure keeps ``right[s]``, an ``array("i")`` row per generator,
    where ``right[s][x]`` is the index of element ``x`` times generator
    ``s``.  The search records only the order in which it reaches the
    codes; the label of each code is its place in that order, the right
    rows are gathered from the ambient rows once the search ends, and the
    ambient rows and the label table are dropped.  Two more tables are
    built the first time something reads them:

    - ``left[s]``, where ``left[s][x]`` is the index of generator ``s``
      times element ``x``;
    - ``_tree``, the spanning tree of the search as the pair of rows
      ``(parent, via)``, where element ``x`` is element ``parent[x]``
      times generator ``via[x]``, reached first in that order
      (:func:`_spanning_tree`).

    Such a generic quotient multiplies on the left by a walk along its
    spanning tree (:meth:`_tree_images`).  ``key`` identifies the quotient
    up to an identical homomorphism from the source, and is used to
    deduplicate components in product constructions.

    The cyclic and dihedral quotients of the bundled groups skip the
    search and the tree: :func:`_cyclic_quotient` and
    :func:`_dihedral_quotient` write the visit order and the right rows in
    closed form.  Such a quotient keeps its visit order, ``codes`` (the
    ambient code of each element) and ``label`` (the element of each
    code), and is marked with ``_family``, the builder and its parameter
    ``n``.  Ambient code ``e*n + m`` stands for a^e t^m, with e = 0 only
    in C_n, so its left regular representation is known outright:

    - left multiplication is one gather of the product rule
      a^e' t^m' . a^e t^m = a^(e'+e) t^((-1)^e m' + m);
    - ``t`` is one n-cycle t^0 -> t^1 -> ... in C_n, and two in D_n,
      (0, m) -> (0, m+1) from element 0 and (1, m) -> (1, m-1) from
      element 1; ``a`` swaps (0, m) and (1, m), (0, m) first, the cycles
      in the visit order of the rotations (:meth:`cycle_walk`);
    - an element's order is 2 for a reflection and n / gcd(m, n) for a
      rotation, which gives the sign of its left multiplication
      (:meth:`left_mult_sign`).

    Two quotients of one family fold and factor by ``n`` alone.
    """

    _family = None

    def __init__(self, rows, key=None):
        label, codes = _closure(rows)
        self._store((label[np.asarray(row)[codes]] for row in rows), key)

    def _store(self, right, key):
        self.right = tuple(map(_int_row, right))
        self.order = len(self.right[0])
        self.gen_images = tuple(row[0] for row in self.right)
        self.key = key

    @cached_property
    def _tree(self):
        return tuple(map(_int_row, _spanning_tree([_ints(row) for row in self.right])))

    @cached_property
    def left(self):
        return tuple(_int_row(self._left_images(g)) for g in self.gen_images)

    def _tree_images(self, start, tree):
        """Images in this quotient of ``tree``'s spanning-tree words, each
        multiplied on the left by element ``start``: element ``x`` of
        ``tree`` maps to the image of ``parent[x]`` times generator
        ``via[x]``, and ``parent[x]`` comes before ``x``."""
        right = self.right
        images = array("i", [start])
        append = images.append
        for p, s in islice(zip(*tree._tree), 1, None):
            append(right[s][images[p]])
        return _ints(images)

    def _left_images(self, i):
        """The int32 images of left multiplication by element ``i``."""
        if self._family is None:
            return self._tree_images(i, self)
        n = self._family[1]
        e, m = np.divmod(self.codes, n)
        f, k = divmod(int(self.codes[i]), n)
        return self.label[(e ^ f) * n + (m + k * (1 - 2 * e)) % n]

    def left_mult_images(self, i):
        """Image array of left multiplication by element ``i``: one gather
        in a closed-form quotient, a spanning-tree walk in a generic one.
        For a generator's image this is its ``left`` row."""
        return self._left_images(i).astype(np.int64)

    def left_mult_sign(self, images):
        """The sign of the left multiplication whose image array is
        ``images``, that of element ``i = images[0]``, the image of the
        identity.  Cayley's representation is semiregular: all N/o cycles
        have length o, the order of ``i``, so the sign is (-1)^(N - N/o).
        A closed-form quotient reads o off the code of ``i``; a generic one
        walks the cycle of ``images`` through the identity, which runs
        through the o powers of ``i``."""
        x = int(images[0])
        if self._family is None:
            o = 1
            while x:
                o, x = o + 1, int(images[x])
        else:
            n = self._family[1]
            e, m = divmod(int(self.codes[x]), n)
            o = 2 if e else n // gcd(m, n)
        return -1 if (self.order - self.order // o) % 2 else 1

    def cycle_walk(self, s):
        """Left multiplication by generator ``s`` as a cycle walk
        (:func:`perm._cycle_walk`).  A generic quotient walks its left row;
        a closed-form one writes the cycles of ``a``, ``t`` or ``t'`` from
        its visit order, each cycle from its least element."""
        if self._family is None:
            return _cycle_walk(_ints(self.left[s]))
        n = self._family[1]
        codes, label = self.codes, self.label
        e, m = divmod(int(codes[self.gen_images[s]]), n)
        if e:
            rotations = codes[codes < n]
            return label[np.stack([rotations, rotations + n], axis=1).ravel()], np.arange(0, self.order + 1, 2)
        steps = np.arange(n, dtype=np.int32) * (1 if m == 1 else -1)
        cycles = (steps % n, n + -steps % n)[: self.order // n]
        return label[np.concatenate(cycles)], np.arange(0, self.order + 1, n)

    def apply_word(self, word):
        acc = 0
        right = self.right
        for letter in word:
            acc = right[letter][acc]
        return acc

    def factors_through(self, other):
        """Whether this quotient's map from the source factors through
        ``other``'s, over the same generators: every word trivial in
        ``other`` is trivial here.

        The candidate map sends ``other``'s element ``x`` to the image of
        its spanning-tree word; it is the factorization exactly when it
        commutes with every generator row.  Within one family, C_a
        (or D_a) is a quotient of C_b (or D_b) exactly when a divides b."""
        family = self._same_family(other)
        if family is not None:
            _, a, b = family
            return b % a == 0
        images = self._tree_images(0, other)
        return all(np.array_equal(images[_ints(there)], _ints(here)[images]) for here, there in zip(self.right, other.right))

    def fold(self, other):
        """The image of the source in this quotient times ``other``: the
        closure over the codes ``i * other.order + j`` of the pairs.

        The closure runs over the ambient right rows and records only the
        order in which it reaches the codes.  Both row sets then pair the
        two factors' rows, ``(i, j)`` times generator ``s`` on either
        side having code ``here[s][i] * width + there[s][j]``; they are
        gathered at the reached codes only, after the ambient rows are
        dropped.

        Within one family the image is the family's quotient at the lcm
        of the two parameters: ``t`` maps to an element of order lcm(a, b)
        in C_a x C_b (or D_a x D_b), and the enumeration depends only on
        the kernel."""
        family = self._same_family(other)
        if family is not None:
            builder, a, b = family
            return builder(lcm(a, b))
        width = other.order
        label, codes = _closure(
            [_int_row(np.add.outer(_ints(here) * width, _ints(there)).ravel()) for here, there in zip(self.right, other.right)]
        )
        i, j = np.divmod(codes, width)

        def paired(mine, theirs):
            for here, there in zip(mine, theirs):
                yield label[_ints(here)[i] * width + _ints(there)[j]]

        image = FiniteQuotient.__new__(FiniteQuotient)
        image._store(paired(self.right, other.right), None)
        image.left = tuple(map(_int_row, paired(self.left, other.left)))
        return image

    def _same_family(self, other):
        """``(builder, a, b)`` when both quotients come from one
        closed-form builder, at parameters ``a`` and ``b``; else None."""
        if self._family and other._family and self._family[0] is other._family[0]:
            return (*self._family, other._family[1])
        return None

    def __repr__(self):
        return f"FiniteQuotient(order={self.order}, key={self.key!r})"


def _closed_form(codes, right, key, family):
    """A quotient whose breadth-first visit order is known: ``codes``
    holds the ambient codes in the order the search reaches them,
    ``right[s]`` the codes of those elements times generator ``s``.
    Labels are places in ``codes``, so each row is one gather; the
    quotient keeps ``codes`` and ``label``.  ``family`` is
    ``(builder, n)``."""
    label = np.empty(len(codes), dtype=np.int32)
    label[codes] = np.arange(len(codes), dtype=np.int32)
    quotient = FiniteQuotient.__new__(FiniteQuotient)
    quotient._store((label[row] for row in right), key)
    quotient.codes = codes
    quotient.label = label
    quotient._family = family
    return quotient


def _cyclic_quotient(k):
    """The cyclic group of order ``k`` over ``t``, ``t'``, code ``c``
    standing for ``t^c``.  The search reaches t^0, t^1, t^-1, t^2,
    t^-2, ...; at even ``k``, ``t^(k/2)`` is reached first as a positive
    power."""
    x = np.arange(k, dtype=np.int32)
    codes = np.where(x % 2 == 1, (x + 1) // 2, k - x // 2) % k
    return _closed_form(codes, [(codes + 1) % k, (codes - 1) % k], ("cyclic", k), (_cyclic_quotient, k))


def _dihedral_quotient(h):
    """The dihedral group of order ``2h`` over ``a``, ``t``, ``t'``, code
    ``e*h + m`` standing for ``a^e t^m``.  The search reaches (0, 0),
    (1, 0), then (0, m), (0, -m), (1, m), (1, -m) for m = 1, 2, ...,
    each code where it first appears; at even ``h``, ``m = h/2`` adds
    (0, h/2) and (1, h/2) only.  On the right, ``a`` flips e and negates
    m and ``t`` adds 1 to m."""
    m = np.arange(1, (h + 1) // 2, dtype=np.int32)
    first = np.array([0, h], dtype=np.int32)
    middle = first + h // 2 if h % 2 == 0 else first[:0]
    codes = np.concatenate((first, np.stack([m, h - m, h + m, 2 * h - m], axis=1).ravel(), middle))
    e, m = np.divmod(codes, h)
    right = [(1 - e) * h + -m % h, e * h + (m + 1) % h, e * h + (m - 1) % h]
    return _closed_form(codes, right, ("dihedral", h), (_dihedral_quotient, h))


class GroupOracle:
    """Base class for bundled input groups.

    Subclasses supply ``element_key`` (a canonical form making the word
    problem decidable), ``detect`` (the effective residual-finiteness
    query) and optionally ``conjugate``.  All public state is immutable
    after construction; caches are filled idempotently, so concurrent use
    is safe.
    """

    def __init__(self, name, gen_names, inverse):
        if len(gen_names) != len(inverse):
            raise ValueError("involution pairing must cover every generator")
        for i, j in enumerate(inverse):
            if inverse[j] != i:
                raise ValueError("involution pairing is not an involution")
        self.name = name
        self.gen_names = tuple(gen_names)
        self.inverse = tuple(inverse)
        self.cache = {}

    # -- subclass API --

    def element_key(self, word):
        raise NotImplementedError

    def detect(self, word):
        """A FiniteQuotient in which ``word`` has nontrivial image, or None."""
        raise NotImplementedError

    def conjugate(self, g, k):
        """Conjugator word with ``c^-1 g c = k``, NOT_CONJUGATE, or UNSUPPORTED."""
        return UNSUPPORTED

    # -- shared plumbing --

    def is_identity(self, word):
        return self.element_key(word) == self.element_key(())

    def ball(self, radius):
        """Shortest representative words for all elements of the radius ball,
        identity included, in deterministic (length, lex) order: a tuple,
        searched once per radius."""
        got = self.cache.get(("ball", radius))
        if got is not None:
            return got
        reps = {self.element_key(()): ()}
        out = [()]
        frontier = [()]
        for _ in range(radius):
            new = []
            for w in frontier:
                for s in range(len(self.gen_names)):
                    cand = w + (s,)
                    key = self.element_key(cand)
                    if key not in reps:
                        reps[key] = cand
                        out.append(cand)
                        new.append(cand)
            frontier = new
        return self.cache.setdefault(("ball", radius), tuple(out))

    def _quotient(self, key, builder):
        got = self.cache.get(("quotient", key))
        if got is None:
            got = self.cache.setdefault(("quotient", key), builder())
        return got

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def word_inverse(oracle, word):
    return tuple(oracle.inverse[s] for s in reversed(word))


def parse_word(oracle, text):
    """Parse a whitespace-separated word over generator names."""
    names = {n: i for i, n in enumerate(oracle.gen_names)}
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

    def __init__(self, name):
        super().__init__(name, ("t", "t'"), (1, 0))

    def _cyclic(self, k):
        return self._quotient(("cyclic", k), lambda: _cyclic_quotient(k))

    def conjugate(self, g, k):
        if self.element_key(g) == self.element_key(k):
            return ()
        return NOT_CONJUGATE


class IntegerOracle(_CyclicBase):
    """The infinite cyclic group, generators ``t`` and ``t'``.

    The residual-finiteness query sends a word with exponent sum m != 0 to
    the cyclic group of order |m| + 1, where m survives.
    """

    def __init__(self):
        super().__init__("integers")

    def element_key(self, word):
        return sum(1 if s == 0 else -1 for s in word)

    def detect(self, word):
        m = self.element_key(word)
        if m == 0:
            return None
        return self._cyclic(abs(m) + 1)


class DihedralOracle(GroupOracle):
    """The infinite dihedral group with generators ``a`` (an involution)
    and ``t``; the defining relation conjugates ``t`` to its inverse.

    Normal form: (eps, m) standing for a^eps t^m.  The residual-finiteness
    query sends a nontrivial word w to the dihedral group of order
    2(|w| + 1), rotation image for ``t`` and reflection image for ``a``;
    any rotation of exponent up to |w| survives there, and reflections
    survive in every dihedral quotient.
    """

    def __init__(self):
        super().__init__("dihedral_infinite", ("a", "t", "t'"), (0, 2, 1))

    def element_key(self, word):
        eps, m = 0, 0
        for s in word:
            if s == 0:
                eps, m = eps ^ 1, -m
            elif s == 1:
                m += 1
            else:
                m -= 1
        return (eps, m)

    def _dihedral(self, half):
        return self._quotient(("dihedral", half), lambda: _dihedral_quotient(half))

    def detect(self, word):
        if self.is_identity(word):
            return None
        return self._dihedral(len(word) + 1)

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
    """A finite cyclic group of order m, generators ``t`` and ``t'``."""

    def __init__(self, order):
        if order < 2:
            raise ValueError("cyclic order must be at least 2")
        super().__init__(f"finite:{order}")
        self.group_order = order

    def element_key(self, word):
        return sum(1 if s == 0 else -1 for s in word) % self.group_order

    def detect(self, word):
        if self.element_key(word) == 0:
            return None
        return self._cyclic(self.group_order)


class ProductOracle(GroupOracle):
    """Direct product of two bundled oracles; generators are the two
    generating sets side by side, names prefixed with ``1.`` and ``2.``."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._split = len(left.gen_names)
        names = tuple(f"1.{n}" for n in left.gen_names) + tuple(f"2.{n}" for n in right.gen_names)
        inv = tuple(left.inverse) + tuple(i + self._split for i in right.inverse)
        super().__init__(f"product:{left.name},{right.name}", names, inv)

    def _project(self, word):
        lw = tuple(s for s in word if s < self._split)
        rw = tuple(s - self._split for s in word if s >= self._split)
        return lw, rw

    def element_key(self, word):
        lw, rw = self._project(word)
        return (self.left.element_key(lw), self.right.element_key(rw))

    def detect(self, word):
        lw, rw = self._project(word)
        if not self.left.is_identity(lw):
            side, offset, inner = 0, 0, self.left.detect(lw)
        elif not self.right.is_identity(rw):
            side, offset, inner = 1, self._split, self.right.detect(rw)
        else:
            return None
        key = ("proj", side, inner.key)

        def build():
            # The codes are the inner quotient's indices, so the
            # breadth-first closure re-enumerates them deterministically;
            # the generators of the other side act trivially.
            fixed = range(inner.order)
            rows = tuple(
                inner.right[s - offset] if offset <= s < offset + len(inner.right) else fixed
                for s in range(len(self.gen_names))
            )
            return FiniteQuotient(rows, key=key)

        return self._quotient(key, build)

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


def efrf_query(oracle, word):
    """Effective residual-finiteness query.

    Returns :data:`TRIVIAL` for words representing the identity, otherwise
    a pair ``(quotient, witness)`` where ``witness`` is the nontrivial
    image index of the word in the quotient.
    """
    quotient = oracle.detect(word)
    if quotient is None:
        return TRIVIAL
    witness = quotient.apply_word(word)
    if witness == 0:
        raise AssertionError("residual-finiteness query produced a trivial image")
    return quotient, witness


class QuotientMap:
    """The level-n quotient map: the corestriction of the product of the
    per-word quotients over the shortest representatives of the
    nontrivial elements of the radius-n ball.

    Every nontrivial kernel element has word length at least n + 1: an
    element of length at most n lies in the ball, its own shortest
    representative is one of the detected words, and every word for the
    element has the same image.
    """

    def __init__(self, oracle, level, quotient):
        self.oracle = oracle
        self.level = level
        self.quotient = quotient

    def apply(self, word):
        return self.quotient.apply_word(word)


def level_components(oracle, n):
    """The distinct finite quotients whose product is the level-n map.

    They are the residual-finiteness query's answers on the shortest
    representatives of the nontrivial elements of the radius-n ball
    (``oracle.ball(n)[1:]``), in the ball's (length, lex) order.
    Components with an identical (quotient, generator images) descriptor
    detect the same kernel and are collapsed, keeping the first
    appearance.
    """
    components = []
    seen_keys = set()
    for w in oracle.ball(n)[1:]:
        quotient, _ = efrf_query(oracle, w)
        dedup = quotient.key if quotient.key is not None else id(quotient)
        if dedup not in seen_keys:
            seen_keys.add(dedup)
            components.append(quotient)
    return components


def build_level_map(oracle, n, cap=None):
    """Build (and cache) the level-n quotient map: the image of the input
    group in the product of :func:`level_components`.

    The image is folded one component at a time: the running image ``A``
    and the next component ``C`` close to the image in ``A`` x ``C``
    (:meth:`FiniteQuotient.fold`).  A component that factors through
    ``A`` is skipped; it adds nothing to the kernel.  The final kernel is
    the intersection of the component kernels either way, so the
    breadth-first enumeration is that of the image in the full product.

    ``cap`` bounds the ambient table of each fold, ``A.order * C.order``
    codes; a larger fold raises :class:`CapExceeded` before it starts.
    """
    if n < 1:
        raise ValueError("quotient chain level must be at least 1")
    got = oracle.cache.get(("level_map", n))
    if got is not None:
        return got
    components = level_components(oracle, n)
    if not components:
        raise ValueError("input group must be infinite (no nontrivial words found)")

    image = components[0]
    for component in components[1:]:
        if component.factors_through(image):
            continue
        ambient = image.order * component.order
        if cap is not None and ambient > cap:
            raise CapExceeded(f"level {n} quotient would fold over {ambient} codes, more than the cap {cap}")
        image = image.fold(component)
    qm = QuotientMap(oracle, n, image)
    return oracle.cache.setdefault(("level_map", n), qm)


def decide_word_problem(oracle, word):
    """Reference word-problem decider: evaluate the level-|w| quotient map.

    The level map detects every nontrivial element of length at most its
    level, so the image is trivial exactly when the word is.
    """
    if not word:
        return True
    qm = build_level_map(oracle, len(word))
    return qm.apply(word) == 0


def kernel_min_length_check(oracle, n, level_map=None):
    """Confirm on the radius-n ball that the level-n kernel contains no
    short nontrivial element.  Returns a dict report with a counterexample
    word on failure.  ``level_map`` overrides the built map, which lets a
    test feed a deliberately corrupted one."""
    qm = level_map if level_map is not None else build_level_map(oracle, n)
    checked = 0
    for w in oracle.ball(n):
        if not w or oracle.is_identity(w):
            continue
        checked += 1
        if qm.apply(w) == 0:
            return {"passed": False, "level": n, "radius": n, "checked": checked, "counterexample": format_word(oracle, w)}
    return {"passed": True, "level": n, "radius": n, "checked": checked, "counterexample": None}


# ---------------------------------------------------------------------------
# external formats


def format_quotient_map(qm):
    """Homomorphism output: an ``order`` header, then one line per
    generator with its image as a permutation of the quotient enumeration
    (left multiplication), in cycle notation over element indices.

    Each pair of mutually inverse generators is walked once
    (:meth:`FiniteQuotient.cycle_walk`): the image of ``inverse[s]`` is
    that of ``s`` inverted, whose cycles are those of ``s`` with each
    tail reversed.  A closed-form quotient writes the cycles of ``a`` and
    ``t`` from its visit order; only a generic one walks its left rows."""
    quotient = qm.quotient
    inverse = qm.oracle.inverse
    lines = [f"order {quotient.order}"]
    walks = []
    for s, name in enumerate(qm.oracle.gen_names):
        walk = _inverse_walk(*walks[inverse[s]]) if inverse[s] < s else quotient.cycle_walk(s)
        walks.append(walk)
        lines.append(f"{name} -> {_decimal_cycles(*walk)}")
    return "\n".join(lines)


def oracle_from_selector(selector):
    """Resolve a group selector: ``dihedral_infinite``, ``integers``,
    ``finite:<order>`` or ``product:<sel>,<sel>``."""
    if selector == "integers":
        return IntegerOracle()
    if selector == "dihedral_infinite":
        return DihedralOracle()
    if selector.startswith("finite:"):
        try:
            order = int(selector.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad finite group selector {selector!r}") from None
        return CyclicOracle(order)
    if selector.startswith("product:"):
        parts = selector.split(":", 1)[1].split(",")
        if len(parts) < 2:
            raise ValueError(f"product selector needs at least two components: {selector!r}")
        oracles = [oracle_from_selector(p.strip()) for p in parts]
        acc = oracles[0]
        for nxt in oracles[1:]:
            acc = ProductOracle(acc, nxt)
        return acc
    raise ValueError(f"unknown group selector {selector!r}")
