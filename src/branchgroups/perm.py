"""Exact permutations of finite indexed alphabets.

Composition convention, fixed once for the whole package:
``compose(p, q)`` is the map ``i -> p(q(i))``, i.e. apply ``q`` first and
then ``p``.  Every other module (tree automorphisms, word calculus, the
CLI) uses this convention.
"""

from __future__ import annotations

import itertools
import re
from operator import getitem

import numpy as np

__all__ = [
    "IndexedAlphabet",
    "Perm",
    "PreconditionError",
    "compose",
    "compose_all",
    "random_even_perm",
    "orbit",
    "check_alternating_generation",
    "three_cycles_generate_alternating",
]


class PreconditionError(ValueError):
    """A documented precondition was violated; the message names the clause."""


class IndexedAlphabet:
    """An ordered finite alphabet.

    Permutations act on the index range ``0..size-1``.  Labels exist for
    parsing (:meth:`index`) and printing (:meth:`label`) only.  Without
    literal labels or a subclass's label rule an alphabet is anonymous:
    its letters are named by their decimal indices, written straight
    from the index arrays.  An alphabet is an object, not a value: it
    has no name, and two alphabets are the same only when they are one
    object, so code that builds an alphabet builds it once and shares it.

    ``identity_images`` is the alphabet's one int64 array ``0..size-1``,
    built on first use and read-only: code that writes images starts from
    a ``.copy()`` of it.  Beside it the alphabet keeps its one identity
    :class:`Perm`, which :meth:`Perm.identity` returns.
    """

    __slots__ = ("size", "_labels", "_index", "_identity", "_identity_perm")

    def __init__(self, size, labels=None):
        if size < 1:
            raise ValueError("alphabet size must be positive")
        self._index = {}
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != size:
                raise ValueError("label count does not match alphabet size")
            self._index = {s: i for i, s in enumerate(labels)}
            if len(self._index) != size:
                raise ValueError("labels must be pairwise distinct")
        self.size = size
        self._labels = labels
        self._identity = None
        self._identity_perm = None

    @property
    def identity_images(self):
        if self._identity is None:
            arr = np.arange(self.size, dtype=np.int64)
            arr.setflags(write=False)
            self._identity = arr
        return self._identity

    @property
    def anonymous(self):
        return self._labels is None

    @property
    def labels(self):
        """The label of each letter, or None for an anonymous alphabet."""
        if self.anonymous:
            return None
        return tuple(map(self.label, range(self.size)))

    def label(self, i):
        return str(i) if self._labels is None else self._labels[i]

    def index(self, label):
        """The index of the letter named ``label``.  Labels read once are
        kept: a word file names few distinct letters, so nearly every
        lookup is a hit."""
        i = self._index.get(label)
        if i is None:
            i = self._index[label] = self._parse(label)
        return i

    def _parse(self, label):
        # literal labels are all kept from the start
        if self._labels is not None:
            raise KeyError(f"unknown letter {label!r}")
        i = int(label)
        if not 0 <= i < self.size:
            raise KeyError(label)
        return i

    def __repr__(self):
        return f"{type(self).__name__}({self.size})"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_CYCLES_ONLY_RE = re.compile(r"\s*(?:\([^()]*\)\s*)*")


class Perm:
    """A bijection of an :class:`IndexedAlphabet`, stored as an image array.

    Immutable value type: safe to share between threads, usable as a dict
    key.  Keys elsewhere hold the permutation itself, so only this module
    knows how images are stored.  Two permutations are equal when they
    act on the same alphabet object and their image bytes are equal.
    ``images[i]`` is the image of letter ``i``.  The sign is carried
    through ``identity``, ``from_cycles``, ``inverse`` and ``compose``;
    only a permutation built from raw images decomposes its cycles, once.

    ``Perm(alphabet, images)`` copies and validates the images.  With
    ``check=False`` it does neither: the caller hands over a fresh int64
    array that nothing else writes, and the permutation marks it read-only.
    A caller that knows the sign from the construction passes it as
    ``sign``, which is trusted.
    """

    __slots__ = ("alphabet", "images", "_hash", "_sign", "_is_identity")

    def __init__(self, alphabet, images, check=True, sign=None):
        arr = np.array(images, dtype=np.int64) if check else np.asarray(images, dtype=np.int64)
        if arr.shape != (alphabet.size,):
            raise ValueError("image array does not match alphabet size")
        # bincount refuses negative images and the copy truncates fractions
        if check and (arr.min(initial=0) < 0 or not np.array_equal(arr, images)
                      or not (np.bincount(arr, minlength=alphabet.size) == 1).all()):
            raise ValueError("images do not form a bijection")
        arr.setflags(write=False)
        self.alphabet = alphabet
        self.images = arr
        self._hash = None
        self._sign = sign
        self._is_identity = None

    @classmethod
    def identity(cls, alphabet):
        """The alphabet's one identity permutation, built on first use."""
        p = alphabet._identity_perm
        if p is None:
            p = cls(alphabet, alphabet.identity_images, check=False, sign=1)
            alphabet._identity_perm = p
        return p

    @classmethod
    def from_cycles(cls, alphabet, text):
        """Parse cycle notation like ``(a b c)(d e)`` over label names.

        ``()`` and the empty string denote the identity.  Cycles must be
        disjoint.  Each cycle's labels are checked in order, then the
        text around the cycles, which may only be whitespace.  The images
        start from a copy of the alphabet's identity array and only the
        moved letters are written, so a cycle costs its own length, not
        the alphabet's.
        """
        images = alphabet.identity_images.copy()
        seen = set()
        transpositions = 0
        for body in _CYCLE_RE.findall(text):
            idx = list(map(alphabet.index, body.split()))
            if not idx:
                continue
            before = len(seen)
            seen.update(idx)
            # the set grows by one per letter only when the cycle repeats
            # no letter and meets no earlier cycle
            if len(seen) != before + len(idx):
                raise ValueError(f"cycles are not disjoint in {text!r}")
            transpositions += len(idx) - 1
            for a, b in zip(idx, idx[1:] + idx[:1]):
                images[a] = b
        if not _CYCLES_ONLY_RE.fullmatch(text):
            rest = _CYCLE_RE.sub("", text).strip()
            raise ValueError(f"unexpected text {rest!r} in cycle notation")
        return cls(alphabet, images, check=False, sign=-1 if transpositions % 2 else 1)

    def __call__(self, i):
        return int(self.images[i])

    @property
    def is_identity(self):
        """Whether every letter is fixed: the image bytes equal those of
        the alphabet's identity array, compared once per permutation."""
        if self._is_identity is None:
            self._is_identity = self.images.tobytes() == self.alphabet.identity_images.tobytes()
        return self._is_identity

    def inverse(self):
        inv = np.empty(self.alphabet.size, dtype=np.int64)
        inv[self.images] = self.alphabet.identity_images
        return Perm(self.alphabet, inv, check=False, sign=self._sign)

    def cycles(self):
        """Nontrivial cycles as index tuples, each starting at its least
        element, ordered by that element."""
        letters, bounds = _cycle_walk(self.images)
        letters = letters.tolist()
        return [tuple(letters[a:b]) for a, b in itertools.pairwise(bounds)]

    def cycle_type(self):
        """Sorted multiset of cycle lengths, fixed points included."""
        return tuple(np.sort(_cycle_lengths(self.images)).tolist())

    @property
    def sign(self):
        """+1 for even permutations, -1 for odd ones.

        Known from the construction when there is one; otherwise computed
        once from the cycle decomposition, as the parity of
        ``size - number_of_cycles``.
        """
        if self._sign is None:
            ncycles = len(_cycle_lengths(self.images))
            self._sign = 1 if (self.alphabet.size - ncycles) % 2 == 0 else -1
        return self._sign

    def __eq__(self, other):
        """The same alphabet object and equal image bytes (every image
        array is int64, so equal bytes are equal images)."""
        if not isinstance(other, Perm):
            return NotImplemented
        return self.alphabet is other.alphabet and self.images.tobytes() == other.images.tobytes()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.alphabet.size, self.images.tobytes()))
        return self._hash

    def __str__(self):
        """Cycle notation over the letter labels: an anonymous alphabet's
        letters are written as decimal indices (:func:`_decimal_cycles`);
        any other alphabet formats the labels of the moved letters only."""
        letters, bounds = _cycle_walk(self.images)
        if self.alphabet.anonymous:
            return _decimal_cycles(letters, bounds)
        names = list(map(self.alphabet.label, letters.tolist()))
        cycles = ["(" + " ".join(names[a:b]) + ")" for a, b in itertools.pairwise(bounds.tolist())]
        return "".join(cycles) or "()"

    def __repr__(self):
        return f"Perm({self})"


def _least_letters(images):
    """Each letter's cycle's least letter, via path-doubling minimum labels.

    After step k, ``rep[i]`` is the least letter among ``i`` and its next
    2^k - 1 images.  Once a step changes nothing, ``rep`` is constant
    along every orbit of the 2^k-th power, and the length-2^k windows
    from one such orbit cover its whole cycle, so ``rep`` is already each
    cycle's least letter and the doubling stops early.
    """
    n = len(images)
    rep = np.arange(n, dtype=np.int64)
    power = np.asarray(images, dtype=np.int64)
    span = 1
    while span < n:
        ahead = rep[power]
        if not (ahead < rep).any():
            break
        np.minimum(rep, ahead, out=rep)
        del ahead
        power = power[power]
        span *= 2
    return rep


def _cycle_lengths(images):
    """Cycle lengths of an image array, fixed points included, in the
    order of each cycle's least letter."""
    counts = np.bincount(_least_letters(images))
    return counts[counts > 0]


def _cycle_walk(images):
    """The moved letters of an image array in cycle-notation order (each
    cycle from its least letter, cycles by that letter), and ``bounds``,
    where cycle ``k`` is ``letters[bounds[k]:bounds[k + 1]]``.

    Only the moved letters are walked, renumbered in increasing order so
    that least letters stay least.  A letter's place in its cycle is its
    number of backward steps to the least letter, found by pointer
    jumping: each round adds the distance of the letter it points at and
    doubles the jump, until every letter points at its least letter.
    The work arrays are as long as the alphabet, so each is dropped as
    soon as it is spent.

    Images that are not a bijection raise ``ValueError``: a moved
    letter's image must be moved, and no two moved letters may share an
    image.  A bijection's places settle within ``ceil(log2 m) + 1``
    rounds, and the jumping stops there in any case.
    """
    moved = np.flatnonzero(images != np.arange(len(images)))
    m = len(moved)
    if not m:
        return moved, moved
    targets = images[moved]
    if (images[targets] == targets).any():
        raise ValueError("images do not form a bijection")
    local = np.arange(m)
    index = np.empty(len(images), dtype=np.int64)
    index[moved] = local
    step = index[targets]
    del index, targets
    jump = np.empty(m, dtype=np.int64)
    jump[step] = local
    if not np.array_equal(jump[step], local):
        raise ValueError("images do not form a bijection")
    rep = _least_letters(step)
    del step
    at_rep = rep == local
    jump[at_rep] = local[at_rep]
    place = (~at_rep).astype(np.int64)
    for _ in range((m - 1).bit_length() + 1):
        if np.array_equal(jump, rep):
            break
        place += place[jump]
        jump = jump[jump]
    else:
        raise ValueError("images do not form a bijection")
    del jump, local
    lengths = np.bincount(rep, minlength=m)
    ends = np.cumsum(lengths)
    letters = np.empty(m, dtype=np.int64)
    letters[(ends - lengths)[rep] + place] = moved
    return letters, np.concatenate(([0], ends[at_rep]))


def _inverse_walk(letters, bounds):
    """The cycle walk of the inverse permutation, from that of the
    permutation: each cycle keeps its least letter first and runs its
    other letters backwards, so the cycles keep their order and
    ``bounds``."""
    starts = bounds[:-1]
    # place i of the cycle letters[a:b] takes place a + b - i, but a stays
    take = np.repeat(starts + bounds[1:], np.diff(bounds)) - np.arange(len(letters))
    take[starts] = starts
    return letters[take], bounds


def _decimal_cycles(letters, bounds):
    """Cycle notation of a cycle walk over decimal letter names, in any
    letter order and with any cycle bounds.

    The text is written as bytes, one row per letter after a header row:
    the letter's digits, most significant first, then ``" "``, or ``")"``
    where its cycle ends, then ``"("`` where the next cycle starts (the
    header row's last cell opens the first cycle).  The digits are peeled
    off from the units up by floor division, each as a remainder by
    multiply-subtract, since numpy's integer ``%`` is many times slower
    than ``//``; the leading column takes what is left.  Every other
    cell, before a letter's leading digit or in an unused separator,
    holds 0, and one ``bytes.translate`` drops them."""
    if not len(letters):
        return "()"
    top = int(letters.max())
    width = len(str(top))
    text = np.empty((len(letters) + 1, width + 2), dtype=np.uint8)
    rest = letters.astype(np.min_scalar_type(top))
    for col in reversed(range(1, width)):
        quot = rest // 10
        text[1:, col] = rest - quot * 10 + ord("0")
        if col < width - 1:
            text[1:, col][rest == 0] = 0
        rest = quot
    # every letter is below 10 ** width, so what is left is one digit
    text[1:, 0] = rest + ord("0")
    if width > 1:
        text[1:, 0][rest == 0] = 0
    text[:, width] = ord(" ")
    text[:, width + 1] = 0
    text[0, :-1] = 0
    # row p + 1 holds place p, so row b holds the last letter before place b
    text[bounds[1:], width] = ord(")")
    text[bounds[:-1], width + 1] = ord("(")
    return text.tobytes().translate(None, b"\0").decode("ascii")


def compose(p, q):
    """The product ``p o q``: apply ``q`` first, then ``p``."""
    if p.alphabet is not q.alphabet:
        raise ValueError("cannot compose permutations of different alphabets")
    sign = p._sign * q._sign if p._sign is not None and q._sign is not None else None
    return Perm(p.alphabet, p.images[q.images], check=False, sign=sign)


def compose_all(perms, alphabet=None):
    """Compose left to right: ``compose_all([a, b, c]) = a o b o c``.

    The rightmost factor acts first, matching the convention above.
    """
    perms = list(perms)
    if not perms:
        if alphabet is None:
            raise ValueError("empty product needs an explicit alphabet")
        return Perm.identity(alphabet)
    acc = perms[-1]
    for p in reversed(perms[:-1]):
        acc = compose(p, acc)
    return acc


def random_even_perm(alphabet, rng):
    """Uniform-ish even permutation: shuffle, then fix parity by one swap.

    The shuffle is ``random.shuffle``'s own loop, so the images are those
    of ``rng.shuffle`` on ``0..size-1``; each swap of two distinct places
    flips the sign, so the sign is known without a cycle decomposition."""
    img = list(range(alphabet.size))
    odd = False
    for i in reversed(range(1, len(img))):
        j = rng.randrange(i + 1)
        if j != i:
            img[i], img[j] = img[j], img[i]
            odd = not odd
    if odd:
        img[0], img[1] = img[1], img[0]
    return Perm(alphabet, img, check=False, sign=1)


def orbit(gen_rows, starts, act=getitem):
    """The union of the orbits of ``starts`` under the generators: every
    item reached from them by repeated ``act(row, item)``.  By default the
    items are points and each row lists a generator's images."""
    seen = set(starts)
    queue = list(seen)
    while queue:
        x = queue.pop()
        for g in gen_rows:
            y = act(g, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def _image_set(row, points):
    return frozenset(row[x] for x in points)


def check_alternating_generation(omega, a_sub, b_sub, g_gens):
    """Test whether the conjugates of the even group on ``a_sub`` under the
    group generated by ``g_gens`` generate the full even group on ``omega``.

    Preconditions (checked, reported by clause):
      (1) omega is the union of a_sub and b_sub;
      (2) a_sub and b_sub intersect in exactly one point;
      (3) ``|a_sub| >= 3``;
      (4) every generator is an even permutation of omega;
      (5) at least two points of ``a_sub`` minus the intersection point are
          fixed by all generators;
      (6) the group generated by ``g_gens`` moves the intersection point
          onto all of b_sub.

    The even group on ``a_sub`` is generated by its 3-cycles, and a
    conjugate of a 3-cycle is the 3-cycle on the image of its support, so
    the conjugates in question are generated by the 3-cycles whose
    supports lie in the orbit of the 3-subsets of ``a_sub``.  A set of
    3-cycles generates the even group on ``omega`` exactly when the
    hypergraph of their supports is connected on ``omega`` (Jordan; see
    Dixon & Mortimer, *Permutation Groups*, 1996, section 3.3).  The test
    is one union-find over the supports; nothing is enumerated beyond the
    at most C(n, 3) supports.
    """
    a_set = frozenset(a_sub)
    b_set = frozenset(b_sub)
    n = omega.size
    if a_set | b_set != frozenset(range(n)):
        raise PreconditionError("violated clause (1): omega must equal the union of the two subsets")
    meet = a_set & b_set
    if len(meet) != 1:
        raise PreconditionError("violated clause (2): subsets must intersect in exactly one point")
    (w,) = meet
    if len(a_set) < 3:
        raise PreconditionError("violated clause (3): |A| >= 3 required")
    gen_rows = []
    for g in g_gens:
        if g.alphabet is not omega:
            raise PreconditionError("generator acts on a different alphabet")
        if g.sign != 1:
            raise PreconditionError("violated clause (4): generators must be even")
        gen_rows.append(g.images.tolist())
    fixed = [x for x in sorted(a_set - {w}) if all(r[x] == x for r in gen_rows)]
    if len(fixed) < 2:
        raise PreconditionError("violated clause (5): need two common fixed points in A minus the meet")
    if not b_set <= orbit(gen_rows, [w]):
        raise PreconditionError("violated clause (6): generated group is not transitive on B")

    triples = (frozenset(s) for s in itertools.combinations(sorted(a_set), 3))
    return three_cycles_generate_alternating(n, orbit(gen_rows, triples, _image_set))


def three_cycles_generate_alternating(n, supports):
    """Whether 3-cycles with the given 3-point ``supports`` generate the
    even group on ``0..n-1`` (``n >= 3``): exactly when their support
    hypergraph is connected on all ``n`` points."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in supports:
        first, *rest = s
        root = find(first)
        for x in rest:
            parent[find(x)] = root
    return len({find(x) for x in range(n)}) == 1
