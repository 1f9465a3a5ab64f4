"""Lazily evaluated automorphisms of the spherically homogeneous trees.

Automorphisms are symbolic expression trees over three node kinds:
finitary (a permutation of the first-level letters with an automorphism
below each of finitely many letters), directed (the recursively defined
action of a seed pair), and products.  A rooted automorphism is a
finitary node with no sections, and a shift into the subtree below one
first-level letter is a finitary node with the identity root and one
section.  The identity is the product of no factors.  A shift below a
longer path nests one finitary node per letter of the path.  Inverses
are normalized away eagerly by :func:`invert`; directed seeds invert
exactly because the seed assignment is a homomorphism, which the test
suite checks.

Nothing is materialized unless asked for: sections, vertex evaluation and
the one breadth-first walk over sections, which the triviality search and
the portrait both read, run on the expression structure, with paths as
tuples of letter indices; a :class:`Vertex`, a path of alphabet labels, is
converted on the way in and out only.  Full level permutations are only
built on demand, under the oracle's vertex cap.

A directed automorphism at base level n fixes every first-level letter and
acts below letter d as follows: below x it is the directed automorphism of
the same seed one level down, below y it is the rooted coset action of the
seed at the grandchild level, below z the rooted marker action there, and
below every other letter it is trivial.

Equality of automorphisms is only ever decided relative to a depth
(:func:`equal_to_depth`); absolute equality is intentionally not an
operation of this module.

Expression nodes are immutable; per-node lazies and the per-oracle caches
are filled idempotently, so concurrent evaluation is safe and results do
not depend on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import add

import numpy as np

from .alphabet import build_alphabet, coset_action, marker_action, seed_is_trivial
from .perm import IndexedAlphabet, Perm, compose_all
from .resfin import CapExceeded

__all__ = [
    "CapExceeded",
    "Vertex",
    "TreeAut",
    "Portrait",
    "identity_aut",
    "rooted",
    "directed",
    "product",
    "embed_shift",
    "invert",
    "root_perm",
    "section_at",
    "eval_vertex",
    "nontrivial_children",
    "section_search",
    "nontrivial_vertex",
    "equal_to_depth",
    "level_perm",
    "first_moved_level",
    "level_cycle_type",
    "vertex_count",
    "portrait",
    "portrait_text",
    "portrait_dot",
]

@dataclass(frozen=True)
class Vertex:
    """A path in the tree rooted at ``base_level``: the i-th letter is a
    label of the level-``base_level + 1 + i`` alphabet, such as ``"x@1"``
    or ``"q3@2"``.  The empty path is the root.

    Construction does not check the labels; :func:`embed_shift` and
    :func:`eval_vertex` reject a vertex with a label that is not a letter
    of its position's level with ``ValueError``."""

    base_level: int
    letters: tuple = ()

    @property
    def depth(self):
        return len(self.letters)

    def __str__(self):
        return " ".join(self.letters) if self.letters else "-"


def _indices(oracle, vertex):
    """The letter indices of a vertex's path; ``ValueError`` when a label
    is not a letter of the level of its position, an unhashable label
    included."""
    out = []
    for i, label in enumerate(vertex.letters):
        level = vertex.base_level + 1 + i
        try:
            out.append(build_alphabet(oracle, level).index(label))
        except (KeyError, TypeError):
            raise ValueError(f"{label!r} is not a letter of level {level}") from None
    return tuple(out)


def _vertex(oracle, base_level, indices):
    return Vertex(base_level, tuple(
        build_alphabet(oracle, base_level + 1 + i).label(ix)
        for i, ix in enumerate(indices)
    ))


# ---------------------------------------------------------------------------
# expression nodes


class TreeAut:
    __slots__ = ("oracle", "base_level", "_key", "_root", "_children")

    def __init__(self, oracle, base_level):
        self.oracle = oracle
        self.base_level = base_level
        self._key = None
        self._root = None
        self._children = None

    def key(self):
        if self._key is None:
            self._key = self._make_key()
        return self._key

    def __repr__(self):
        return f"{type(self).__name__}(level={self.base_level})"


class FinitaryAut(TreeAut):
    """On a vertex x·w, apply ``sections[x]`` to w, then send x to
    ``perm(x)``.  ``sections`` maps first-level letter indices to
    automorphisms one level down and holds no identity."""

    __slots__ = ("perm", "sections")

    def __init__(self, oracle, base_level, perm, sections):
        super().__init__(oracle, base_level)
        self.perm = perm
        self.sections = sections

    def _make_key(self):
        below = tuple(sorted((x, s.key()) for x, s in self.sections.items())) if self.sections else ()
        return ("fin", self.base_level, self.perm, below)


class DirectedAut(TreeAut):
    __slots__ = ("seed",)

    def __init__(self, oracle, base_level, seed):
        super().__init__(oracle, base_level)
        self.seed = seed

    def _make_key(self):
        return ("dir", self.base_level, self.seed.key())


class ProductAut(TreeAut):
    __slots__ = ("factors",)

    def __init__(self, oracle, base_level, factors):
        super().__init__(oracle, base_level)
        self.factors = tuple(factors)

    def _make_key(self):
        return ("pr", self.base_level, tuple(f.key() for f in self.factors))


# ---------------------------------------------------------------------------
# constructors (normalizing)


def identity_aut(oracle, base_level=0):
    """The identity: the product of no factors."""
    return ProductAut(oracle, base_level, ())


def rooted(oracle, base_level, perm):
    """The automorphism permuting first-level letters by ``perm`` and
    fixing everything below."""
    lvl = build_alphabet(oracle, base_level + 1)
    if perm.alphabet is not lvl:
        raise ValueError(
            f"rooted permutation must act on the level-{base_level + 1} alphabet"
        )
    if perm.is_identity:
        return identity_aut(oracle, base_level)
    return FinitaryAut(oracle, base_level, perm, {})


def directed(oracle, seed, base_level=0):
    """The recursively defined automorphism of a seed pair."""
    if seed_is_trivial(seed):
        return identity_aut(oracle, base_level)
    return DirectedAut(oracle, base_level, seed)


def product(factors, oracle=None, base_level=None):
    """Product of automorphisms; the rightmost factor acts first.

    Flattens nested products, which drops identity factors as the empty
    products they are; no other rewriting happens here."""
    flat = []
    for f in factors:
        if isinstance(f, ProductAut):
            flat.extend(f.factors)
        else:
            flat.append(f)
        if oracle is None:
            oracle, base_level = f.oracle, f.base_level
        elif f.base_level != base_level:
            raise ValueError("product factors must share a base level")
    if oracle is None:
        raise ValueError("empty product needs an explicit oracle and base level")
    if len(flat) == 1:
        return flat[0]
    return ProductAut(oracle, base_level, flat)


def embed_shift(vertex, inner):
    """The automorphism acting as ``inner`` on the subtree below ``vertex``
    and fixing every vertex outside it."""
    if inner.base_level != vertex.base_level + vertex.depth:
        raise ValueError(
            f"inner automorphism must live at level {vertex.base_level + vertex.depth}"
        )
    indices = _indices(inner.oracle, vertex)
    if isinstance(inner, ProductAut) and not inner.factors:
        return identity_aut(inner.oracle, vertex.base_level)
    for i in reversed(range(len(indices))):
        lvl = build_alphabet(inner.oracle, vertex.base_level + i + 1)
        inner = FinitaryAut(inner.oracle, vertex.base_level + i, Perm.identity(lvl), {indices[i]: inner})
    return inner


def invert(a):
    """Structural inverse.  Directed nodes invert seed-wise, which is valid
    because the seed assignment is a homomorphism."""
    if isinstance(a, FinitaryAut):
        sections = {a.perm(x): invert(s) for x, s in a.sections.items()}
        return FinitaryAut(a.oracle, a.base_level, a.perm.inverse(), sections)
    if isinstance(a, DirectedAut):
        return DirectedAut(a.oracle, a.base_level, a.seed.inv())
    if isinstance(a, ProductAut):
        return ProductAut(a.oracle, a.base_level, [invert(f) for f in reversed(a.factors)])
    raise TypeError(f"not a tree automorphism: {a!r}")


# ---------------------------------------------------------------------------
# structure: root permutations, sections, children


def root_perm(a):
    """The permutation induced on first-level letters."""
    if a._root is None:
        lvl = build_alphabet(a.oracle, a.base_level + 1)
        if isinstance(a, DirectedAut):
            # directed automorphisms stabilize the first level
            a._root = Perm.identity(lvl)
        elif isinstance(a, FinitaryAut):
            a._root = a.perm
        elif isinstance(a, ProductAut):
            a._root = compose_all([root_perm(f) for f in a.factors], alphabet=lvl)
        else:
            raise TypeError(f"not a tree automorphism: {a!r}")
    return a._root


def nontrivial_children(a):
    """Map from first-level letter index to the section there, for exactly
    those letters whose section is not structurally the identity.

    This is the one place sections are taken.  A product's section at x
    multiplies, in factor order, each factor's section at the image of x
    under the factors to its right.  Memoized per node, like
    :func:`root_perm`; callers must not mutate the returned dict."""
    if a._children is None:
        a._children = _children(a)
    return a._children


def _children(a):
    if isinstance(a, FinitaryAut):
        return a.sections
    if isinstance(a, DirectedAut):
        lvl = build_alphabet(a.oracle, a.base_level + 1)
        out = {lvl.x_index: DirectedAut(a.oracle, a.base_level + 1, a.seed)}
        for letter, action in ((lvl.y_index, coset_action), (lvl.z_index, marker_action)):
            perm = action(a.oracle, a.base_level + 2, a.seed)
            if not perm.is_identity:
                out[letter] = FinitaryAut(a.oracle, a.base_level + 1, perm, {})
        return out
    if isinstance(a, ProductAut):
        # backs[k] is the inverse first-level image array of the last k
        # factors: the child at letter e of the factor before them is the
        # product's section piece at letter backs[k][e]
        backs = [build_alphabet(a.oracle, a.base_level + 1).identity_images]
        for f in reversed(a.factors[1:]):
            backs.append(backs[-1][root_perm(f).inverse().images])
        slots = {}
        for f, back in zip(a.factors, reversed(backs)):
            for e, child in nontrivial_children(f).items():
                slots.setdefault(int(back[e]), []).append(child)
        return {
            x: product(pieces, oracle=a.oracle, base_level=a.base_level + 1)
            for x, pieces in slots.items()
        }
    raise TypeError(f"not a tree automorphism: {a!r}")


def section_at(a, letter_index):
    """The section at a single first-level letter, as an automorphism one
    level down; see :func:`nontrivial_children`."""
    got = nontrivial_children(a).get(letter_index)
    if got is not None:
        return got
    return identity_aut(a.oracle, a.base_level + 1)


# ---------------------------------------------------------------------------
# evaluation


def eval_vertex(a, vertex):
    """Image of a vertex; length and prefix structure are preserved."""
    if vertex.base_level != a.base_level:
        raise ValueError("vertex must start at the automorphism's base level")
    return _vertex(a.oracle, a.base_level, _eval_indices(a, _indices(a.oracle, vertex)))


def _eval_indices(a, indices):
    if not indices:
        return []
    if isinstance(a, ProductAut):
        out = list(indices)
        for f in reversed(a.factors):
            out = _eval_indices(f, out)
        return out
    if isinstance(a, (FinitaryAut, DirectedAut)):
        first = indices[0]
        return [root_perm(a)(first)] + _eval_indices(section_at(a, first), indices[1:])
    raise TypeError(f"not a tree automorphism: {a!r}")


# ---------------------------------------------------------------------------
# depth-bounded decision procedures


def _section_levels(start, depth, children_of):
    """The breadth-first walk over sections from ``start``, one level of
    entries ``(node, up, letter)`` per step down to depth ``depth - 1``:
    ``node`` is the section at letter index ``letter`` below entry ``up``
    of the level above (both None at the root), and ``children_of(node)``
    maps letter indices to its nontrivial sections.  Nodes with equal
    keys share their entire subtree behavior, so the next level holds the
    children of the first entry per key, in ``children_of``'s order, and
    keys are computed only when the reader asks for that level.  The walk
    stops at an empty level."""
    level = [(start, None, None)]
    for _ in range(depth - 1):
        yield level
        expanded = set()
        nxt = []
        up = 0
        for node, _, _ in level:
            k = node.key()
            if k not in expanded:
                expanded.add(k)
                for letter, child in children_of(node).items():
                    nxt.append((child, up, letter))
            up += 1
        if not nxt:
            return
        level = nxt
    if depth:
        yield level


def section_search(start, depth, root_of, children_of):
    """The first vertex of depth at most ``depth`` moved by ``start``, or
    None if every such vertex is fixed.

    Nodes are tree automorphisms or normal words, and ``root_of(node)``
    is a node's first-level permutation.  Every root of a level of
    :func:`_section_levels` is tested before the next level is asked
    for, so a moved root ends the search without a further expansion;
    the witness path is spelled from the ``up`` pointers.  A level may
    hold duplicates; they have equal roots, so the first moved node of a
    level is the same with and without them.
    """
    levels = []
    for level in _section_levels(start, depth, children_of):
        levels.append(level)
        i = 0
        for node, _, _ in level:
            r = root_of(node)
            if not r.is_identity:
                path = [int(np.flatnonzero(r.images != r.alphabet.identity_images)[0])]
                for entries in reversed(levels[1:]):
                    _, i, letter = entries[i]
                    path.append(letter)
                return _vertex(start.oracle, start.base_level, path[::-1])
            i += 1
    return None


def nontrivial_vertex(a, depth):
    """A vertex of depth at most ``depth`` moved by ``a``, or None if every
    such vertex is fixed; see :func:`section_search`."""
    return section_search(a, depth, root_perm, nontrivial_children)


def equal_to_depth(a, b, depth):
    """Whether a and b agree on every vertex of depth at most ``depth``."""
    return nontrivial_vertex(product([invert(b), a]), depth) is None


# ---------------------------------------------------------------------------
# materialized level permutations


def vertex_count(oracle, base_level, depth):
    n = 1
    for i in range(depth):
        n *= build_alphabet(oracle, base_level + i + 1).size
    return n


def _base_column(oracle, base, level):
    """The identity column of ``level`` below ``base``: the level's letter
    indices tiled once over each vertex of the level above.

    Built once per oracle in the narrowest unsigned type that holds the
    level's letters, and kept read-only in ``oracle.cache``; one column
    holds ``vertex_count(oracle, base, level - base)`` entries of one,
    two or four bytes."""
    key = ("base_column", base, level)
    got = oracle.cache.get(key)
    if got is None:
        size = build_alphabet(oracle, level).size
        letters = np.arange(size, dtype=np.min_scalar_type(size - 1))
        got = np.tile(letters, vertex_count(oracle, base, level - base - 1))
        got.setflags(write=False)
        got = oracle.cache.setdefault(key, got)
    return got


def _level_columns(a, depth):
    """The identity columns of levels 1..``depth`` below ``a``'s base
    level and the image columns of ``a`` on them; guarded by the vertex cap.

    An automorphism maps subtrees onto subtrees, so the image letter at
    level k+1 depends only on the first k+1 letters of a vertex.  Column k
    therefore holds one image letter per level-(k+1) vertex, in
    lexicographic order; only the deepest column has as many entries as
    the level has vertices, and the first d columns alone determine the
    level-d permutation.  The image columns are copies of the shared
    identity columns (:func:`_base_column`) and keep their type."""
    oracle, base, cap = a.oracle, a.base_level, a.oracle.vertex_cap
    total = vertex_count(oracle, base, depth)
    if total > cap:
        raise CapExceeded(
            f"level {depth} has {total} vertices, beyond the cap of {cap}; "
            "use equal_to_depth or portraits instead"
        )
    bases = [_base_column(oracle, base, base + i + 1) for i in range(depth)]
    return bases, _vec_apply(a, [c.copy() for c in bases])


def level_perm(a, depth):
    """The permutation induced on all depth-``depth`` vertices, enumerated
    lexicographically by letter index.  Vectorized; guarded by the cap.
    The vertex alphabet is built once per base level and depth, so the
    level permutations of one level compose."""
    _, cols = _level_columns(a, depth)
    images = np.zeros(1, dtype=np.int64)
    for c in cols:
        s = len(c) // len(images)
        images = np.repeat(images, s)
        images *= s
        images += c
    key = ("vertices", a.base_level, depth)
    alphabet = a.oracle.cache.get(key)
    if alphabet is None:
        alphabet = a.oracle.cache.setdefault(key, IndexedAlphabet(len(images)))
    return Perm(alphabet, images, check=False)


def first_moved_level(a, depth):
    """The shallowest level d <= ``depth`` on which ``a`` moves a vertex,
    or None if ``level_perm(a, d)`` is the identity for every such d.

    One pass builds the columns of every level down to ``depth``; level d
    is moved exactly when one of its first d columns differs from the
    identity column of its level.  Guarded like :func:`level_perm`."""
    bases, cols = _level_columns(a, depth)
    for d, (base, col) in enumerate(zip(bases, cols), 1):
        if (col != base).any():
            return d
    return None


def level_cycle_type(a, depth):
    """The cycle type of ``a`` on the depth-``depth`` vertices, as a map
    from cycle length to count, computed from sections without building
    the level.

    A cycle (v, a(v), ..., a^(L-1)(v)) of the root permutation carries the
    subtrees below its letters around in one block: the level-``depth``
    cycles through them are those of the section of a^L at v on level
    ``depth - 1``, each L times as long.  By the product rule that section
    is the product of the sections of ``a`` along the cycle.  A fixed
    letter without a nontrivial section contributes all of its vertices as
    fixed points.  The work is per distinct section, memoized for this
    call only."""
    memo = {}

    def walk(node, d):
        if d == 0:
            return {1: 1}
        key = (node.key(), d)
        got = memo.get(key)
        if got is not None:
            return got
        got = {}
        r = root_perm(node)
        # on the first level, only the root permutation counts
        children = nontrivial_children(node) if d > 1 else {}
        below = node.base_level + 1
        cycles = r.cycles()
        moved = sum(len(c) for c in cycles)
        fixed = [x for x in children if r(x) == x]
        plain = r.alphabet.size - moved - len(fixed)
        if plain:
            got[1] = plain * vertex_count(node.oracle, below, d - 1)
        blocks = [(1, children[x]) for x in fixed]
        blocks += [
            (len(c), product([children[x] for x in reversed(c) if x in children],
                             oracle=node.oracle, base_level=below))
            for c in cycles
        ]
        for length, sec in blocks:
            for m, count in walk(sec, d - 1).items():
                got[length * m] = got.get(length * m, 0) + count
        memo[key] = got
        return got

    return walk(a, depth)


def _vec_apply(a, cols):
    """Apply ``a`` to the per-level image columns built by :func:`_level_columns`."""
    if not cols:
        return cols
    if isinstance(a, FinitaryAut):
        # sections act below their letters before the root moves them
        if len(cols) > 1:
            for letter, inner in a.sections.items():
                mask = cols[0] == letter
                if mask.any():
                    _apply_below(inner, mask, cols[1:])
        cols[0][:] = a.perm.images[cols[0]]
        return cols
    if isinstance(a, ProductAut):
        for f in reversed(a.factors):
            cols = _vec_apply(f, cols)
        return cols
    if isinstance(a, DirectedAut):
        lvl = build_alphabet(a.oracle, a.base_level + 1)
        if len(cols) > 1:
            first = cols[0]
            mask = first == lvl.x_index
            if mask.any():
                _apply_below(DirectedAut(a.oracle, a.base_level + 1, a.seed), mask, cols[1:])
            rows = cols[1].reshape(len(first), -1)
            for letter, action in ((lvl.y_index, coset_action), (lvl.z_index, marker_action)):
                mask = first == letter
                if mask.any():
                    rows[mask] = action(a.oracle, a.base_level + 2, a.seed).images[rows[mask]]
        return cols
    raise TypeError(f"not a tree automorphism: {a!r}")


def _apply_below(inner, mask, cols):
    """Apply ``inner`` to the subtrees below the masked vertices of the
    level above ``cols[0]``, in place.  Each column lists the subtrees of
    that level's vertices as equal consecutive rows, so the masked
    subtrees are the masked rows."""
    rows = [c.reshape(len(mask), -1) for c in cols]
    sub = _vec_apply(inner, [r[mask].ravel() for r in rows])
    for r, s in zip(rows, sub):
        r[mask] = s.reshape(-1, r.shape[1])


# ---------------------------------------------------------------------------
# portraits and the wreath decomposition


class Portrait:
    """The first-level permutation of the section at every vertex above
    a depth, kept one level at a time.

    Each distinct section is one small integer id: ``section_perms[s]``
    is the root permutation of section ``s`` and ``section_labels[s]``
    its text.  ``levels[d]`` lists the section id of every level-d
    vertex, breadth-first in letter-index order, so a level runs
    lexicographically and its vertices' path texts come from the level
    above (:meth:`level_texts`).

    ``labels`` gives the same vertices one object each, built when read:
    a dict from each :class:`Vertex` to its permutation, in level
    order."""

    def __init__(self, oracle, depth, base_level, levels, section_perms, section_labels):
        self.oracle = oracle
        self.depth = depth
        self.base_level = base_level
        self.levels = levels
        self.section_perms = section_perms
        self.section_labels = section_labels

    def _names(self, d):
        """The letter labels of level ``d`` below the base level."""
        return build_alphabet(self.oracle, self.base_level + d).labels

    def level_texts(self):
        """The path text of each vertex, one sequence per level from the
        root down, in the order of ``levels``: ``"-"`` for the root, and
        a parent's text followed by the letter's label below it."""
        texts = ("-",)
        for d in range(self.depth):
            if d == 1:
                texts = self._names(1)
            elif d:
                names = self._names(d)
                texts = [f"{t} {n}" for t in texts for n in names]
            yield texts

    @property
    def labels(self):
        """A dict from each :class:`Vertex` to its permutation."""
        out, paths = {}, [()]
        for d, ids in enumerate(self.levels):
            if d:
                names = self._names(d)
                paths = [p + (n,) for p in paths for n in names]
            for path, s in zip(paths, ids):
                out[Vertex(self.base_level, path)] = self.section_perms[s]
        return out


def portrait(a, depth):
    """The portrait of ``a`` down to ``depth``: every vertex above that
    depth is labeled with the first-level permutation of its section.

    Reads the levels of :func:`_section_levels`, interning each section
    by its key as an id with its root permutation and label text.  Each
    distinct section of a level gets one row of child ids, the identity's
    id except where the walk's next level holds a child; the next level
    is those rows laid end to end, so no vertex gets an object or a
    lookup of its own.  Guarded by the vertex cap."""
    total, cap = 0, a.oracle.vertex_cap
    for d in range(depth):
        total += vertex_count(a.oracle, a.base_level, d)
        if total > cap:
            raise CapExceeded(f"portrait would label more than {cap} vertices")
    index, perms, labels = {}, [], []

    def intern(node):
        key = node.key()
        s = index.get(key)
        if s is None:
            s = index[key] = len(perms)
            r = root_perm(node)
            perms.append(r)
            labels.append(str(r))
        return s

    walk = _section_levels(a, depth, nontrivial_children)
    levels, above = [], []
    for d in range(depth):
        entries = next(walk, ())  # () below the walk's empty level
        ids = [intern(node) for node, _, _ in entries]
        level = ids
        if d:
            below = a.base_level + d
            ident = intern(identity_aut(a.oracle, below))
            size = build_alphabet(a.oracle, below).size
            rows = {s: [ident] * size for s in dict.fromkeys(levels[-1])}
            for s, (_, up, letter) in zip(ids, entries):
                rows[above[up]][letter] = s
            level = [c for s in levels[-1] for c in rows[s]]
        levels.append(level)
        above = ids
    return Portrait(a.oracle, depth, a.base_level, levels, perms, labels)


def _repeat_each(items, k):
    """Each item ``k`` times in a row: the parent text of each vertex of
    a level, given the level above and its fan-out."""
    return chain.from_iterable(map(repeat, items, repeat(k, len(items))))


def portrait_text(p):
    chunks = [f"portrait depth={p.depth}"]
    tails = [" " + label for label in p.section_labels]
    for texts, ids in zip(p.level_texts(), p.levels):
        chunks.append("\n".join(map(add, texts, map(tails.__getitem__, ids))))
    return "\n".join(chunks)


def portrait_dot(p):
    nodes, edges, above = [], [], None
    labels = p.section_labels
    for texts, ids in zip(p.level_texts(), p.levels):
        nodes.append("\n".join(map('  "{}" [label="{}"];'.format, texts, map(labels.__getitem__, ids))))
        if above is not None:
            k = len(texts) // len(above)
            edges.append("\n".join(map('  "{}" -> "{}";'.format, _repeat_each(above, k), texts)))
        above = texts
    return "\n".join(["digraph portrait {", *nodes, *edges, "}"])

