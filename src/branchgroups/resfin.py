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
from itertools import islice
from operator import getitem

import numpy as np

from .perm import IndexedAlphabet, Perm

__all__ = [
    "TRIVIAL",
    "NOT_CONJUGATE",
    "UNSUPPORTED",
    "FiniteQuotient",
    "GroupOracle",
    "IntegerOracle",
    "DihedralOracle",
    "CyclicOracle",
    "ProductOracle",
    "QuotientMap",
    "efrf_query",
    "words_up_to",
    "build_level_map",
    "decide_word_problem",
    "kernel_min_length_check",
    "word_inverse",
    "parse_word",
    "format_word",
    "format_quotient_map",
    "oracle_from_selector",
    "parse_group_descriptor",
    "format_group_descriptor",
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

TABLE_CAP = 10_000


class FiniteQuotient:
    """A finite group stored as the right regular action of its generators
    on a canonical enumeration.

    The enumeration is the breadth-first closure of the generator images
    from ``identity``, expanding in generator order; element 0 is always
    the identity.  ``act(x, g)`` is the raw element ``x`` times the raw
    generator image ``g``: a leaf quotient passes its group law, and a
    product passes :func:`_act_rows` with tuples of component indices as
    raw elements and tuples of component rows as generator images.

    The closure keeps what it computes and nothing else:

    - ``right[s]``, an ``array("i")`` row per generator, where
      ``right[s][x]`` is the index of element ``x`` times generator ``s``;
    - the spanning tree of the search, where element ``x`` is element
      ``parent[x]`` times generator ``via[x]``.

    The raw elements and their index are dropped once the closure ends;
    every product is a walk in these tables.  ``key`` identifies the
    quotient up to an identical homomorphism from the source, and is used
    to deduplicate components in product constructions.
    """

    def __init__(self, identity, gen_images, act, key=None):
        elems = [identity]
        index = {identity: 0}
        right = tuple(array("i") for _ in gen_images)
        parent = array("i", [0])
        via = array("i", [0])
        steps = tuple(enumerate(zip(gen_images, right)))
        order = 1
        for x, cur in enumerate(elems):
            for s, (img, row) in steps:
                nxt = act(cur, img)
                j = index.setdefault(nxt, order)
                if j == order:
                    order += 1
                    elems.append(nxt)
                    parent.append(x)
                    via.append(s)
                row.append(j)
        self.order = order
        self.right = right
        self.parent = parent
        self.via = via
        self.gen_images = tuple(row[0] for row in right)
        self.key = key

    def mult(self, i, j):
        """The product of elements ``i`` and ``j``: ``i`` times the
        generators on the tree path to ``j``."""
        path = []
        while j:
            path.append(self.via[j])
            j = self.parent[j]
        for s in reversed(path):
            i = self.right[s][i]
        return i

    def multiplication_table(self):
        """Materialize the full table; guarded for large orders."""
        if self.order > TABLE_CAP:
            raise ValueError(f"order {self.order} exceeds table cap {TABLE_CAP}")
        return np.stack([self.left_mult_images(i) for i in range(self.order)])

    def left_mult_images(self, i):
        """Image array of left multiplication by element ``i``, filled in
        enumeration order: ``i * x`` is ``i * parent[x]`` times generator
        ``via[x]``, and ``parent[x]`` comes before ``x``."""
        right = self.right
        images = array("i", [i])
        append = images.append
        for p, s in islice(zip(self.parent, self.via), 1, None):
            append(right[s][images[p]])
        return np.frombuffer(images, dtype=np.int32).astype(np.int64)

    def apply_word(self, word):
        acc = 0
        right = self.right
        for letter in word:
            acc = right[letter][acc]
        return acc

    def __repr__(self):
        return f"FiniteQuotient(order={self.order}, key={self.key!r})"


def _act_rows(u, rows):
    """A raw product element (a tuple of component indices) times the
    generator whose component right-multiplication rows are ``rows``."""
    return tuple(map(getitem, rows, u))


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
        identity included, in deterministic (length, lex) order."""
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
        return out

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


class IntegerOracle(GroupOracle):
    """The infinite cyclic group, generators ``t`` and ``t'``.

    The residual-finiteness query sends a word with exponent sum m != 0 to
    the cyclic group of order |m| + 1, where m survives.
    """

    def __init__(self):
        super().__init__("integers", ("t", "t'"), (1, 0))

    def element_key(self, word):
        return sum(1 if s == 0 else -1 for s in word)

    def _cyclic(self, k):
        return self._quotient(
            ("cyclic", k),
            lambda: FiniteQuotient(0, (1 % k, (k - 1) % k), lambda a, b: (a + b) % k, key=("cyclic", k)),
        )

    def detect(self, word):
        m = self.element_key(word)
        if m == 0:
            return None
        return self._cyclic(abs(m) + 1)

    def conjugate(self, g, k):
        if self.element_key(g) == self.element_key(k):
            return ()
        return NOT_CONJUGATE


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
        def mult(u, v):
            (e1, m1), (e2, m2) = u, v
            return (e1 ^ e2, ((-m1 if e2 else m1) + m2) % half)

        return self._quotient(
            ("dihedral", half),
            lambda: FiniteQuotient(
                (0, 0),
                ((1, 0), (0, 1 % half), (0, (half - 1) % half)),
                mult,
                key=("dihedral", half),
            ),
        )

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


class CyclicOracle(GroupOracle):
    """A finite cyclic group of order m, generators ``t`` and ``t'``."""

    def __init__(self, order):
        if order < 2:
            raise ValueError("cyclic order must be at least 2")
        super().__init__(f"finite:{order}", ("t", "t'"), (1, 0))
        self.group_order = order

    def element_key(self, word):
        return sum(1 if s == 0 else -1 for s in word) % self.group_order

    def detect(self, word):
        if self.element_key(word) == 0:
            return None
        m = self.group_order
        return self._quotient(
            ("cyclic", m),
            lambda: FiniteQuotient(0, (1 % m, (m - 1) % m), lambda a, b: (a + b) % m, key=("cyclic", m)),
        )

    def conjugate(self, g, k):
        if self.element_key(g) == self.element_key(k):
            return ()
        return NOT_CONJUGATE


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
            # Raw elements are 1-tuples of component indices, so the
            # breadth-first closure re-enumerates them deterministically;
            # the generators of the other side act trivially.
            fixed = range(inner.order)
            rows = tuple(
                (inner.right[s - offset] if offset <= s < offset + len(inner.right) else fixed,)
                for s in range(len(self.gen_names))
            )
            return FiniteQuotient((0,), rows, _act_rows, key=key)

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


def words_up_to(oracle, n):
    """All words of length 1..n with nontrivial image, in (length, lex) order."""
    out = []
    gens = range(len(oracle.gen_names))
    frontier = [()]
    for _ in range(n):
        frontier = [w + (s,) for w in frontier for s in gens]
        out.extend(w for w in frontier if not oracle.is_identity(w))
    return out


class QuotientMap:
    """The level-n quotient map: the corestriction of the product of the
    per-word quotients over all nontrivial words of length at most n.

    Every nontrivial kernel element has word length at least n + 1, since
    its own shortest representative is one of the detected words.
    """

    def __init__(self, oracle, level, quotient):
        self.oracle = oracle
        self.level = level
        self.quotient = quotient

    @property
    def gen_images(self):
        return self.quotient.gen_images

    def apply(self, word):
        return self.quotient.apply_word(word)


def build_level_map(oracle, n):
    """Build (and cache) the level-n quotient map.

    The product ranges over the distinct quotient descriptors produced by
    the residual-finiteness query on words of length at most n; components
    with an identical (quotient, generator images) descriptor detect the
    same kernel and are collapsed.  The enumeration of the image is the
    breadth-first closure from the identity tuple, where each generator
    acts on a tuple of component indices through the components'
    right-multiplication rows.  The map keeps the image's own rows and
    spanning tree (see :class:`FiniteQuotient`), not the index tuples.
    """
    if n < 1:
        raise ValueError("quotient chain level must be at least 1")
    got = oracle.cache.get(("level_map", n))
    if got is not None:
        return got
    components = []
    seen_keys = set()
    for w in words_up_to(oracle, n):
        quotient, _ = efrf_query(oracle, w)
        dedup = quotient.key if quotient.key is not None else id(quotient)
        if dedup not in seen_keys:
            seen_keys.add(dedup)
            components.append(quotient)
    if not components:
        raise ValueError("input group must be infinite (no nontrivial words found)")

    identity = (0,) * len(components)
    gen_rows = tuple(tuple(c.right[s] for c in components) for s in range(len(oracle.gen_names)))
    product = FiniteQuotient(identity, gen_rows, _act_rows, key=("level", oracle.name, n))
    qm = QuotientMap(oracle, n, product)
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


def kernel_min_length_check(oracle, n, radius, level_map=None):
    """Confirm on the radius ball that the level-n kernel contains no short
    nontrivial element.  Returns a dict report with a counterexample word
    on failure.  ``level_map`` overrides the built map, which lets a test
    feed a deliberately corrupted one."""
    if radius > n:
        raise ValueError("radius must not exceed the chain level")
    qm = level_map if level_map is not None else build_level_map(oracle, n)
    checked = 0
    for w in oracle.ball(radius):
        if not w or oracle.is_identity(w):
            continue
        checked += 1
        if qm.apply(w) == 0:
            return {"passed": False, "level": n, "radius": radius, "checked": checked, "counterexample": format_word(oracle, w)}
    return {"passed": True, "level": n, "radius": radius, "checked": checked, "counterexample": None}


# ---------------------------------------------------------------------------
# external formats


def format_quotient_map(qm):
    """Homomorphism output: an ``order`` header, then one line per
    generator with its image as a permutation of the quotient enumeration
    (left multiplication), in cycle notation over element indices."""
    quotient = qm.quotient
    alphabet = IndexedAlphabet(quotient.order, name=f"quotient:{qm.oracle.name}:{qm.level}")
    lines = [f"order {quotient.order}"]
    for s, name in enumerate(qm.oracle.gen_names):
        perm = Perm(alphabet, quotient.left_mult_images(quotient.gen_images[s]), check=False)
        lines.append(f"{name} -> {perm}")
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


def format_group_descriptor(oracle):
    lines = [f"group {oracle.name}"]
    for i, name in enumerate(oracle.gen_names):
        lines.append(f"gen {name} inverse {oracle.gen_names[oracle.inverse[i]]}")
    lines.append(f"family {oracle.name}")
    return "\n".join(lines)


def parse_group_descriptor(text):
    """Parse a group descriptor file and resolve it to a bundled oracle.

    The descriptor names the group, lists generators with their involution
    pairing, and names the quotient family (a bundled selector).  The
    generator list is validated against the resolved oracle."""
    name = None
    family = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "group" and len(parts) == 2:
            name = parts[1]
        elif parts[0] == "gen" and len(parts) == 4 and parts[2] == "inverse":
            gens.append((parts[1], parts[3]))
        elif parts[0] == "family" and len(parts) == 2:
            family = parts[1]
        else:
            raise ValueError(f"bad descriptor line {lineno}: {raw!r}")
    if name is None or family is None:
        raise ValueError("descriptor must name a group and a quotient family")
    oracle = oracle_from_selector(family)
    if gens:
        declared = [g for g, _ in gens]
        if list(oracle.gen_names) != declared:
            raise ValueError("descriptor generators do not match the quotient family")
        for g, ginv in gens:
            i = oracle.gen_names.index(g)
            if oracle.gen_names[oracle.inverse[i]] != ginv:
                raise ValueError(f"descriptor pairing for generator {g!r} is wrong")
    return oracle
