import functools
import hashlib
import itertools
import math
import tracemalloc
import weakref
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchgroups import perm, resfin
from branchgroups.alphabet import Seed, coset_action
from branchgroups.perm import IndexedAlphabet, Perm, _cycle_walk
from branchgroups.resfin import (
    NOT_CONJUGATE,
    UNSUPPORTED,
    DihedralOracle,
    IntegerOracle,
    ProductOracle,
    build_level_map,
    decide_word_problem,
    format_quotient_map,
    kernel_min_length_check,
    oracle_from_selector,
    parse_word,
    word_inverse,
)
from branchgroups.wordcalc import seed_is_trivial
from conftest import ball_words


def level_components(oracle, n):
    """The level-n map's components as a list: the oracle's stream of
    quotients met at word lengths 1 to n."""
    return [q for _, q in itertools.takewhile(lambda met: met[0] <= n, oracle.components())]


@pytest.fixture(scope="module")
def zz():
    return IntegerOracle()

@pytest.fixture(scope="module")
def dinf():
    return DihedralOracle()


def test_efrf_query_integers(zz):
    quotient, witness = efrf_query(zz, parse_word(zz, "t"))
    assert quotient.order == 2
    assert witness != 0
    assert efrf_query(zz, parse_word(zz, "t t'")) is TRIVIAL


def test_efrf_query_dihedral(dinf):
    quotient, witness = efrf_query(dinf, parse_word(dinf, "a"))
    assert quotient.order >= 2
    assert witness != 0
    # image of a is an involution in every dihedral quotient
    assert quotient.left_mult_images(witness)[witness] == 0


def _words(oracle, n):
    """Every word of length 1..n, in (length, lex) order."""
    gens = range(len(oracle.gen_names))
    return (w for k in range(1, n + 1) for w in itertools.product(gens, repeat=k))


# selector -> highest level whose words of length 1..n number at most 2e5
SWEEP_LEVELS = {
    "dihedral_infinite": 10,
    "integers": 16,
    "finite:2": 16,
    "finite:6": 16,
    "product:integers,integers": 8,
    "product:dihedral_infinite,integers": 7,
    "product:integers,dihedral_infinite": 7,
    "product:finite:4,integers": 8,
    "product:integers,integers,integers": 6,
    "product:dihedral_infinite,dihedral_infinite": 6,
}


@pytest.mark.parametrize("selector", sorted(SWEEP_LEVELS))
def test_level_components_match_all_words_sweep(selector):
    # the reference is the definition by all words of length at most n:
    # the distinct keys of the query's quotients on every nontrivial word,
    # in order of first appearance; one sweep in (length, lex) order gives
    # every level as a prefix
    oracle = oracle_from_selector(selector)
    top = SWEEP_LEVELS[selector]
    assert sum(len(oracle.gen_names) ** k for k in range(1, top + 1)) <= 200_000
    keys, seen, prefix = [], set(), {}
    for w in _words(oracle, top):
        if not oracle.is_identity(w):
            key = efrf_query(oracle, w)[0].key
            if key not in seen:
                seen.add(key)
                keys.append(key)
        prefix[len(w)] = len(keys)
    for n in range(1, top + 1):
        assert [q.key for q in level_components(oracle, n)] == keys[: prefix[n]], n


def _ball_components(oracle, n):
    """The keys of the query's quotients on the radius-n ball's nontrivial
    elements, in ball order, each at its first appearance."""
    return list(dict.fromkeys(efrf_query(oracle, w)[0].key for w in ball_words(oracle, n)[1:]))


_FACTORS = st.one_of(st.sampled_from(["integers", "dihedral_infinite"]), st.integers(2, 12).map("finite:{}".format))


@settings(max_examples=40, deadline=None)
@given(factors=st.lists(_FACTORS, min_size=2, max_size=3))
@example(factors=["finite:2", "dihedral_infinite", "integers"])
@example(factors=["dihedral_infinite", "finite:12"])
def test_components_by_length_match_ball_queries(factors):
    # the closed form, on its own oracle, lists the ball-driven components
    # in order at every level
    selector = "product:" + ",".join(factors)
    closed, reference = oracle_from_selector(selector), oracle_from_selector(selector)
    for n in range(1, 6):
        assert [q.key for q in level_components(closed, n)] == _ball_components(reference, n), (selector, n)


def test_every_selector_has_a_level_one_component():
    # so the level-1 fold always starts from a component
    for selector in SWEEP_LEVELS:
        assert level_components(oracle_from_selector(selector), 1), selector


def _assert_interned(oracle, quotient):
    """``quotient`` is the one the oracle keeps under its own key, and so
    is each side of a pair in its side's oracle, nested pairs included."""
    assert oracle.cache[("quotient", quotient.key)] is quotient
    if isinstance(oracle, resfin.ProductOracle):
        for side_oracle, side in zip((oracle.left, oracle.right), quotient.sides):
            if side is not None:
                _assert_interned(side_oracle, side)


@pytest.mark.parametrize("selector", sorted(SWEEP_LEVELS) + ["product:integers,dihedral_infinite,finite:5"])
def test_level_components_are_the_interned_quotients(selector):
    # every query on the ball answers with the quotient kept under its key,
    # so the components are those kept quotients, one object per key
    oracle = oracle_from_selector(selector)
    for n in (1, 2, 3):
        for w in ball_words(oracle, n)[1:]:
            _assert_interned(oracle, efrf_query(oracle, w)[0])
        for component in level_components(oracle, n):
            _assert_interned(oracle, component)


TRIVIAL = resfin._Marker("TRIVIAL")


def _detect(oracle, word):
    """The per-word residual-finiteness query, each oracle's rule as its
    docstring states it: a quotient in which ``word`` survives, interned,
    or None for a trivial word.  The dihedral group answers D_(|w|+1),
    the integers C_(|m|+1) for exponent sum m, ``finite:m`` the group
    C_m, and a product the pair of the side of the first nontrivial
    projection.  ``components`` streams its answers by word length."""
    if oracle.is_identity(word):
        return None
    if isinstance(oracle, ProductOracle):
        lw, rw = oracle._project(word)
        left = not oracle.left.is_identity(lw)
        sides = (_detect(oracle.left, lw), None) if left else (None, _detect(oracle.right, rw))
        quotient = resfin.PairQuotient(sides, (oracle._split, len(oracle.gen_names) - oracle._split))
    elif isinstance(oracle, DihedralOracle):
        quotient = resfin._FamilyQuotient("dihedral", len(word) + 1)
    elif isinstance(oracle, IntegerOracle):
        quotient = resfin._FamilyQuotient("cyclic", abs(oracle.element_key(word)) + 1)
    else:
        quotient = resfin._FamilyQuotient("cyclic", oracle.group_order)
    return oracle._intern(quotient)


def efrf_query(oracle, word, detect=_detect):
    """Effective residual-finiteness query.

    Returns :data:`TRIVIAL` for words representing the identity, otherwise
    a pair ``(quotient, witness)`` where ``witness`` is the nontrivial
    image index of the word in the quotient.
    """
    quotient = detect(oracle, word)
    if quotient is None:
        return TRIVIAL
    witness = quotient.apply_word(word)
    if witness == 0:
        raise AssertionError("residual-finiteness query produced a trivial image")
    return quotient, witness


def _reference_closure(rows):
    """The breadth-first closure loop from code 0 over ambient rows,
    ``rows[s][c]`` being the code of ``c`` times generator ``s``, as it was
    when it wrote the spanning tree while searching: the label of every
    code (-1 where unreached), the reached codes in order, and ``parent``,
    ``via`` of each element."""
    rows = [np.asarray(row).tolist() for row in rows]
    label = [-1] * len(rows[0])
    label[0] = 0
    codes, parent, via = [0], [0], [0]
    steps = tuple(enumerate(rows))
    order = 1
    for x, code in enumerate(codes):
        for s, row in steps:
            nxt = row[code]
            if label[nxt] < 0:
                label[nxt] = order
                order += 1
                codes.append(nxt)
                parent.append(x)
                via.append(s)
    return label, codes, parent, via


_TREES = weakref.WeakKeyDictionary()


def _spanning_tree(quotient):
    """The spanning tree of the breadth-first search, read off the right
    rows: element ``x`` is element ``parent[x]`` times generator
    ``via[x]``, reached first in that order.

    The search labels elements in the order it reaches them, expanding
    element ``p`` by every generator before ``p + 1``.  So once ``p`` is
    expanded the labels handed out are exactly ``0..reach[p]``, where
    ``reach`` is the running maximum of each element's row entries;
    ``parent[x]`` is the first ``p`` with ``reach[p] >= x``, and
    ``via[x]`` the first generator taking ``parent[x]`` to ``x``.  Both
    are 0 at the identity.  Kept per quotient while it lives."""
    got = _TREES.get(quotient)
    if got is not None:
        return got
    right = [np.asarray(row) for row in _right(quotient)]
    reach = np.maximum.accumulate(functools.reduce(np.maximum, right))
    x = np.arange(len(reach))
    parent = np.searchsorted(reach, x)
    via = np.zeros_like(x)
    for s in reversed(range(len(right))):
        via[right[s][parent] == x] = s
    via[0] = 0
    _TREES[quotient] = parent, via
    return parent, via


def _tree_images(quotient, start, tree=None):
    """Images in ``quotient`` of the spanning-tree words of ``tree``
    (``quotient`` itself by default), each multiplied on the left by
    element ``start``: element ``x`` of ``tree`` maps to the image of
    ``parent[x]`` times generator ``via[x]``, and ``parent[x]`` comes
    before ``x``."""
    parent, via = _spanning_tree(quotient if tree is None else tree)
    right = _right(quotient)
    images = [start]
    for p, s in zip(parent[1:].tolist(), via[1:].tolist()):
        images.append(right[s][images[p]])
    return np.array(images)


def _tree_shape(quotient):
    """Depth and post-order index (children in generator order) of each
    element, read off the spanning tree.  Children come in label order,
    which is generator order; the reverse of a pre-order that visits
    children last to first is the post-order."""
    parent, _ = _spanning_tree(quotient)
    depth = [0] * quotient.order
    children = [[] for _ in range(quotient.order)]
    for x, p in enumerate(parent[1:].tolist(), 1):
        depth[x] = depth[p] + 1
        children[p].append(x)
    post, stack = [0] * quotient.order, [0]
    for place in reversed(range(quotient.order)):
        x = stack.pop()
        post[x] = place
        stack += children[x]
    return depth, post


class _ClosureQuotient(resfin.FiniteQuotient):
    """A quotient closed over ambient rows by the reference loop, keeping
    its right-multiplication rows ``right`` and its generators' elements
    ``gen_images``, with the word walk, fold, factor test, left
    multiplication and sign that hold for any quotient: the reference the
    closed forms are checked against."""

    def __init__(self, rows, key=None):
        self.label, self.codes, _, _ = _reference_closure(rows)
        rows = [np.asarray(row) for row in rows]
        self.right = tuple(array("i", [self.label[c] for c in row[self.codes].tolist()]) for row in rows)
        self.order = len(self.codes)
        self.gen_images = tuple(row[0] for row in self.right)
        self.key = key

    def apply_word(self, word):
        return _walk(self.right, word)

    def left_mult_images(self, i):
        return _tree_images(self, i)

    def cycle_walk(self, s):
        return _cycle_walk(self.left_mult_images(self.gen_images[s]))

    def _order(self, code):
        # the length of the cycle of left multiplication through the
        # identity, which runs through the powers of the element
        i = self.label[code]
        images, o, x = self.left_mult_images(i), 1, i
        while x:
            o, x = o + 1, int(images[x])
        return o

    def factors_through(self, other):
        # the map sending other's element x to the image of its
        # spanning-tree word is the factorization exactly when it commutes
        # with every generator row
        images = _tree_images(self, 0, other)
        return all(np.array_equal(images[np.asarray(there)], np.asarray(here)[images]) for here, there in zip(self.right, other.right))

    def fold(self, other):
        # the closure over the codes i * other.order + j of the pairs
        width = other.order
        return _ClosureQuotient([np.add.outer(np.asarray(here) * width, there).ravel() for here, there in zip(self.right, other.right)])


def _walk(right, word):
    """The element of ``word``, walked from the identity along
    right-multiplication rows."""
    acc = 0
    for s in word:
        acc = right[s][acc]
    return int(acc)


_RIGHT = weakref.WeakKeyDictionary()


def _right(quotient):
    """Right multiplication by each generator as ``array("i")`` rows: a
    reference's own rows, or for a bundled quotient the element of each
    element's code times the generator on the ambient rows the references
    are closed over (:func:`_gen_rows`).  Kept per quotient while it
    lives."""
    if isinstance(quotient, _ClosureQuotient):
        return quotient.right
    got = _RIGHT.get(quotient)
    if got is None:
        rows = (quotient.label[np.asarray(row)[quotient.codes]].tolist() for row in _gen_rows(quotient))
        got = _RIGHT[quotient] = tuple(array("i", row) for row in rows)
    return got


def _gen_images(quotient):
    """The element of each generator, as ``apply_word`` gives it."""
    return [quotient.apply_word((s,)) for s in range(len(_right(quotient)))]


@st.composite
def _ambient_rows(draw):
    """Row tables over 1 to 300 codes: each row an arbitrary function or
    a permutation of the codes below ``live`` (codes from ``live`` up are
    never reached), with generator 0 acting trivially, a duplicated row,
    or an identity row passed as a ``range`` mixed in."""
    n = draw(st.integers(1, 300))
    live = min(n, draw(st.integers(1, 300)))
    gens = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["functions", "permutations"])) == "functions":
        rows = [rng.integers(live, size=n).tolist() for _ in range(gens)]
    else:
        rows = [rng.permutation(live).tolist() + rng.integers(live, size=n - live).tolist() for _ in range(gens)]
    if draw(st.booleans()):
        rows[0] = list(range(n))
    if gens > 1 and draw(st.booleans()):
        rows[-1] = list(rows[draw(st.integers(0, gens - 2))])
    if draw(st.booleans()):
        rows[draw(st.integers(0, gens - 1))] = range(n)
    return rows


@given(rows=_ambient_rows())
@example(rows=[[1, 0, 0, 2]])  # codes 2 and 3 unreachable
@example(rows=[[1, 2, 0], [1, 2, 0]])  # duplicate rows
@example(rows=[[0, 1, 2], [1, 2, 0]])  # generator 0 acts trivially
@example(rows=[[1, 0], range(2)])  # the other side of a product projection
@example(rows=[[0], [0]])  # the trivial group
def test_closure_matches_reference_loop(rows):
    # the reference quotient's rows, and the spanning tree that reference
    # left multiplication walks, are those of the loop that wrote the
    # tree while searching
    label, codes, parent, via = _reference_closure(rows)
    quotient = _ClosureQuotient(rows)
    assert quotient.order == len(codes)
    assert [list(row) for row in quotient.right] == [[label[row[c]] for c in codes] for row in rows]
    got_parent, got_via = _spanning_tree(quotient)
    assert got_parent.tolist() == parent and got_via.tolist() == via


def _tuple_closure(components, n_gens, limit):
    """Reference closure of the level image: raw elements are tuples of
    component indices, keyed in a dict; None once it passes ``limit``."""
    gens = [tuple(_right(c)[s] for c in components) for s in range(n_gens)]
    elems = [(0,) * len(components)]
    index = {elems[0]: 0}
    right, parent, via = [[] for _ in gens], [0], [0]
    for x, cur in enumerate(elems):
        for s, rows in enumerate(gens):
            nxt = tuple(row[i] for row, i in zip(rows, cur))
            j = index.setdefault(nxt, len(elems))
            if j == len(elems):
                if j == limit:
                    return None
                elems.append(nxt)
                parent.append(x)
                via.append(s)
            right[s].append(j)
    return len(elems), right, parent, via


@pytest.mark.parametrize("selector", sorted(SWEEP_LEVELS))
def test_fold_matches_tuple_closure(selector):
    # the fold, with its skipped components, must enumerate the image
    # exactly as one closure over the full product of the components does
    oracle = oracle_from_selector(selector)
    for n in range(1, SWEEP_LEVELS[selector] + 1):
        reference = _tuple_closure(level_components(oracle, n), len(oracle.gen_names), 60_000)
        if reference is None:
            break
        order, right, parent, via = reference
        quotient = build_level_map(oracle, n).quotient
        assert quotient.order == order, n
        assert [list(row) for row in _right(quotient)] == right, n
        assert [row.tolist() for row in _spanning_tree(quotient)] == [parent, via], n
        _assert_left_rows(quotient)
    assert n > 1


def _left_rows(quotient):
    """Left multiplication by each generator's image."""
    return [quotient.left_mult_images(g) for g in _gen_images(quotient)]


def _assert_left_rows(quotient):
    # left multiplication by each generator's image, as the spanning-tree
    # walk computes it
    for row, g in zip(_left_rows(quotient), _gen_images(quotient)):
        assert np.array_equal(row, _tree_images(quotient, g)), g


@pytest.mark.parametrize("selector", sorted(SWEEP_LEVELS))
def test_leaf_left_rows_match_tree_walk(selector):
    oracle = oracle_from_selector(selector)
    for component in level_components(oracle, SWEEP_LEVELS[selector]):
        _assert_left_rows(component)


def test_factors_through():
    cyclic = _cyclic_quotient
    assert cyclic(2).factors_through(cyclic(6))
    assert cyclic(3).factors_through(cyclic(6))
    assert not cyclic(4).factors_through(cyclic(6))
    three_four = cyclic(3).fold(cyclic(4))
    assert three_four.order == 12
    assert cyclic(12).factors_through(three_four)
    assert not cyclic(12).factors_through(cyclic(3))
    assert not cyclic(12).factors_through(cyclic(4))
    # dihedral groups of order 2 * half: D_6 onto D_3, but not onto D_4
    assert _dihedral_quotient(3).factors_through(_dihedral_quotient(6))
    assert not _dihedral_quotient(4).factors_through(_dihedral_quotient(6))
    # the two sides of a product agree on the first generator, which acts
    # trivially on the second side's projection
    product = oracle_from_selector("product:integers,integers")
    first, _ = efrf_query(product, parse_word(product, "1.t"))
    second, _ = efrf_query(product, parse_word(product, "2.t"))
    assert not second.factors_through(first)
    assert second.factors_through(first.fold(second))


def _cyclic_rows(k):
    """The rows of ``t`` and ``t'`` over the codes of C_k as they were
    defined before the closed form: code c stands for t^c."""
    codes = np.arange(k, dtype=np.int32)
    return [(codes + step) % k for step in (1, -1)]


def _dihedral_rows(h):
    """The rows of ``a``, ``t`` and ``t'`` over the codes of D_h: code
    e*h + m stands for a^e t^m."""
    codes = [divmod(c, h) for c in range(2 * h)]
    return [
        [(e ^ 1) * h + (-m % h) for e, m in codes],
        [e * h + (m + 1) % h for e, m in codes],
        [e * h + (m - 1) % h for e, m in codes],
    ]


def _gen_rows(quotient):
    """The generators' rows over the codes of a bundled quotient."""
    if isinstance(quotient, resfin.PairQuotient):
        return _ambient_pair_rows(quotient)
    family, n = quotient.key
    return (_cyclic_rows if family == "cyclic" else _dihedral_rows)(n)


def _cyclic_quotient(k):
    """The cyclic quotient in closed form."""
    return resfin._FamilyQuotient("cyclic", k)


def _dihedral_quotient(h):
    """The dihedral quotient in closed form."""
    return resfin._FamilyQuotient("dihedral", h)


def _cyclic_by_closure(k):
    """The cyclic quotient closed over its rows."""
    return _ClosureQuotient(_cyclic_rows(k), key=("cyclic", k))


def _dihedral_by_closure(h):
    """The dihedral quotient closed over its rows."""
    return _ClosureQuotient(_dihedral_rows(h), key=("dihedral", h))


FAMILIES = [(_cyclic_quotient, _cyclic_by_closure), (_dihedral_quotient, _dihedral_by_closure)]


def _assert_same_quotient(got, want):
    # array("i") rows compare entry by entry
    assert got.order == want.order
    assert _right(got) == _right(want)
    assert _gen_images(got) == _gen_images(want)
    assert all(map(np.array_equal, _left_rows(got), _left_rows(want)))


@pytest.mark.parametrize("closed_form, by_closure", FAMILIES)
def test_closed_forms_match_closure(closed_form, by_closure):
    for n in range(2, 301):
        got, want = closed_form(n), by_closure(n)
        _assert_same_quotient(got, want)
        # the key is the family and parameter, which a fold keeps
        assert got.key == want.key == got.fold(got).key, n


@pytest.mark.parametrize("closed_form", [_cyclic_quotient, _dihedral_quotient])
def test_closed_form_shapes_match_spanning_tree(closed_form):
    # the closed-form depth and post-order index of every element are
    # those of the search tree read off the rows
    for n in range(2, 301):
        quotient = closed_form(n)
        depth, post = quotient.shape
        codes = quotient.codes
        assert (depth[codes].tolist(), post[codes].tolist()) == _tree_shape(quotient), n


@pytest.mark.parametrize("closed_form, by_closure", FAMILIES)
def test_same_family_fold_and_factoring_match_generic(closed_form, by_closure):
    # quotients built by the closure take the fold and factoring test that
    # hold for any quotient
    plain = {n: by_closure(n) for n in range(2, 61)}
    built = {n: closed_form(n) for n in range(2, 61)}
    for a, b in itertools.product(range(2, 61), repeat=2):
        generic = plain[a].factors_through(plain[b])
        assert built[a].factors_through(built[b]) == generic == (b % a == 0), (a, b)
    # every pair up to 20; past that, b = 60 against every a, consecutive
    # (coprime) pairs and multiples
    pairs = [
        (a, b)
        for a, b in itertools.combinations_with_replacement(range(2, 61), 2)
        if b <= 20 or b == 60 or b == a + 1 or b % a == 0
    ]
    for a, b in pairs:
        generic = plain[a].fold(plain[b])
        for got in (built[a].fold(built[b]), built[b].fold(built[a])):
            _assert_same_quotient(got, generic)
            assert got.key == (built[a].key[0], math.lcm(a, b)), (a, b)


@st.composite
def _pair_quotients(draw, budget=3000, nested=True):
    """A pair quotient of order about ``budget`` at most.  Each side is
    trivial (None, beside two or three generators), C_k or D_h (k, h up
    to 60), or, one level down, a pair of those."""
    sides, widths = [], []
    for room in (budget // 2, None):
        if room is None:
            room = budget // (1 if sides[0] is None else sides[0].order)
        kinds = ["trivial", "cyclic", "dihedral"] + (["pair"] if nested and room >= 8 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "trivial":
            side, width = None, draw(st.sampled_from([2, 3]))
        elif kind == "cyclic":
            side, width = _cyclic_quotient(draw(st.integers(2, max(2, min(60, room))))), 2
        elif kind == "dihedral":
            side, width = _dihedral_quotient(draw(st.integers(2, max(2, min(60, room // 2))))), 3
        else:
            side = draw(_pair_quotients(room, nested=False))
            width = sum(side.widths)
        sides.append(side)
        widths.append(width)
    return resfin.PairQuotient(tuple(sides), tuple(widths))


def _ambient_pair_rows(pair):
    """The rows of the pair's generators over the codes ``c0 * |Q1| + c1``
    of all pairs of side codes, from each side's rows over its codes."""
    orders = [1 if side is None else side.order for side in pair.sides]
    steps = [
        [np.zeros(1, dtype=np.int64)] * width if side is None else [np.asarray(row) for row in _gen_rows(side)]
        for side, width in zip(pair.sides, pair.widths)
    ]
    first = [np.add.outer(step * orders[1], np.arange(orders[1])).ravel() for step in steps[0]]
    second = [np.add.outer(np.arange(orders[0]) * orders[1], step).ravel() for step in steps[1]]
    return first + second


@settings(max_examples=40)
@given(pair=_pair_quotients())
@example(pair=resfin.PairQuotient((_dihedral_quotient(3), _cyclic_quotient(4)), (3, 2)))
@example(pair=resfin.PairQuotient((None, _dihedral_quotient(5)), (2, 3)))  # a projection
@example(pair=resfin.PairQuotient((_cyclic_quotient(6), None), (2, 3)))
@example(pair=resfin.PairQuotient((None, None), (2, 3)))  # the trivial group
def test_pair_enumeration_matches_reference_loop(pair):
    # the shortlex enumeration, its rows, left multiplication, sign, depth
    # and post-order are those of the closure loop over the ambient rows
    reference = _ClosureQuotient(_ambient_pair_rows(pair))
    assert pair.codes.tolist() == reference.codes and pair.label.tolist() == reference.label
    assert pair.order == reference.order and _right(pair) == reference.right
    assert _gen_images(pair) == _gen_images(reference)
    assert all(map(np.array_equal, _left_rows(pair), _left_rows(reference)))
    depth, post = pair.shape
    assert (depth[pair.codes].tolist(), post[pair.codes].tolist()) == _tree_shape(pair)
    for s, g in enumerate(_gen_images(pair)):
        letters, bounds = pair.cycle_walk(s)
        want_letters, want_bounds = _cycle_walk(_tree_images(pair, g))
        assert np.array_equal(letters, want_letters) and np.array_equal(bounds, want_bounds), s
    cosets = IndexedAlphabet(pair.order)
    for i in {0, 1 % pair.order, pair.order // 2, pair.order - 1}:
        images = pair.left_mult_images(i)
        assert np.array_equal(images, _tree_images(pair, i)), i
        assert pair.left_mult_sign(i) == Perm(cosets, images).sign, i


@functools.cache
def _sweep_quotient(selector, n):
    return build_level_map(oracle_from_selector(selector), n).quotient


@settings(max_examples=30)
@given(pair=_pair_quotients(), trivial=st.sampled_from([0, 1]), seed=st.integers(0, 2**32 - 1))
@example(pair=resfin.PairQuotient((_dihedral_quotient(3), _cyclic_quotient(4)), (3, 2)), trivial=0, seed=0)
def test_apply_word_matches_right_rows_walk(pair, trivial, seed):
    # a word's element by the product rule is the walk of the reference
    # right rows, for eight random words of up to 40 letters in each level
    # 1-4 quotient of every sweep selector and in a generated pair with
    # one side made trivial
    sides = list(pair.sides)
    sides[trivial] = None
    quotients = [resfin.PairQuotient(tuple(sides), pair.widths)]
    quotients += [_sweep_quotient(selector, n) for selector in sorted(SWEEP_LEVELS) for n in (1, 2, 3, 4)]
    rng = np.random.default_rng(seed)
    for quotient in quotients:
        right = _right(quotient)
        for length in rng.integers(0, 41, size=8).tolist():
            word = rng.integers(len(right), size=length).tolist()
            assert quotient.apply_word(word) == _walk(right, word), (quotient, word)


@settings(max_examples=30)
@given(pair=_pair_quotients(), seed=st.integers(0, 2**32 - 1))
@example(pair=resfin.PairQuotient((_dihedral_quotient(3), _cyclic_quotient(4)), (3, 2)), seed=0)
@example(pair=resfin.PairQuotient((None, None), (2, 3)), seed=0)
def test_running_code_is_the_code(pair, seed):
    # a word's running code, ``step`` folded from the identity's code 0,
    # is the code of its element, for eight random words of up to 40
    # letters in a generated pair, nested ones included, and in each
    # level 1-4 quotient of every sweep selector
    quotients = [pair] + [_sweep_quotient(selector, n) for selector in sorted(SWEEP_LEVELS) for n in (1, 2, 3, 4)]
    rng = np.random.default_rng(seed)
    for quotient in quotients:
        for length in rng.integers(0, 41, size=8).tolist():
            word = rng.integers(len(_right(quotient)), size=length).tolist()
            code = functools.reduce(quotient.step, word, 0)
            assert int(quotient.codes[quotient.apply_word(word)]) == code, (quotient, word)


def test_bundled_level_maps_skip_closure_and_tree_walk(monkeypatch):
    # building, reporting and acting by left multiplication: the package
    # holds no search, no spanning tree and no walk of a quotient, and no
    # cycle walk or decomposition runs for a report or a sign
    for name in ("_closure", "_spanning_tree", "_tree_images", "_tree", "_cycle_walk"):
        assert not hasattr(resfin, name) and not hasattr(resfin.FiniteQuotient, name), name

    def refuse(*args):
        raise AssertionError("cycle walk or decomposition ran")

    monkeypatch.setattr(perm, "_cycle_walk", refuse)
    monkeypatch.setattr(perm, "_cycle_lengths", refuse)

    def report_and_act(oracle, n, words):
        qm = build_level_map(oracle, n)
        assert format_quotient_map(qm).startswith(f"order {qm.quotient.order}\n")
        for w in words:
            assert coset_action(oracle, n, Seed(oracle, w)).sign == 1

    for oracle in (IntegerOracle(), DihedralOracle()):
        for n in range(1, 12):
            assert build_level_map(oracle, n).quotient.order > 1
            report_and_act(oracle, n, ball_words(oracle, 2))
    for m in (2, 7, 500_000):
        oracle = oracle_from_selector(f"finite:{m}")
        assert [q.order for q in level_components(oracle, 3)] == [m]
        assert build_level_map(oracle, 3).quotient.order == m
        report_and_act(oracle, 3, ball_words(oracle, 1))
    for selector, top in [
        ("product:integers,integers", 5),
        ("product:dihedral_infinite,integers", 4),
        ("product:integers,dihedral_infinite", 4),
        ("product:dihedral_infinite,dihedral_infinite", 4),
        ("product:integers,integers,integers", 3),
        ("product:finite:6,integers", 3),
    ]:
        oracle = oracle_from_selector(selector)
        for n in range(1, top + 1):
            assert isinstance(build_level_map(oracle, n).quotient, resfin.PairQuotient)
            report_and_act(oracle, n, ball_words(oracle, 1))


def test_level_map_order_cap():
    dihedral = oracle_from_selector("dihedral_infinite", vertex_cap=5040 * 22 - 1)
    # level 10 folds an order-5040 image with an order-22 component
    with pytest.raises(resfin.CapExceeded):
        build_level_map(dihedral, 10)
    assert ("level_map", 10) not in dihedral.cache
    dihedral = oracle_from_selector("dihedral_infinite", vertex_cap=5040 * 22)
    assert build_level_map(dihedral, 10).quotient.order == 55440


def test_vertex_cap_is_set_on_every_oracle_of_a_selector():
    assert DihedralOracle().vertex_cap == resfin.DEFAULT_VERTEX_CAP
    assert oracle_from_selector("integers").vertex_cap == resfin.DEFAULT_VERTEX_CAP
    oracle = oracle_from_selector("product:integers,dihedral_infinite,finite:6", vertex_cap=300)
    parts = [oracle]
    while parts:
        part = parts.pop()
        assert part.vertex_cap == 300
        if isinstance(part, ProductOracle):
            parts += [part.left, part.right]
    with pytest.raises(resfin.CapExceeded, match="finite group order 6 exceeds the vertex cap 5"):
        oracle_from_selector("product:integers,finite:6", vertex_cap=5)
    assert oracle_from_selector("finite:6", vertex_cap=6).group_order == 6



def test_family_folds_enumerate_nothing(monkeypatch):
    # a cyclic or dihedral quotient is its family and parameter: no fold
    # result of a level map lists its elements until something reads them,
    # and no quotient stores a multiplication table
    folded = []

    def recording(self, other, _real=resfin._FamilyQuotient.fold):
        folded.append(_real(self, other))
        return folded[-1]

    monkeypatch.setattr(resfin._FamilyQuotient, "fold", recording)
    for oracle in (IntegerOracle(), DihedralOracle()):
        for n in range(1, 11):
            folded.clear()
            image = build_level_map(oracle, n).quotient
            assert all("label" not in vars(q) and "codes" not in vars(q) for q in folded), (oracle, n)
            assert image is folded[-1] if folded else n == 1, (oracle, n)
        assert not hasattr(image, "right") and not hasattr(image, "gen_images")
        # the visit order is written as the label; the codes, its inverse,
        # wait for a reader of their own
        image.label
        assert "label" in vars(image) and "codes" not in vars(image)
        image.codes
        assert "codes" in vars(image)
    # so folds and factor tests near 10**9 return at once
    for closed_form in (_cyclic_quotient, _dihedral_quotient):
        a, b = closed_form(999_999_937), closed_form(10**9)
        both = a.fold(b)
        assert both.key[1] == 999_999_937 * 10**9 and both.order in (both.key[1], 2 * both.key[1])
        assert a.factors_through(both) and b.factors_through(both) and not both.factors_through(a)
        assert not any("codes" in vars(q) for q in (a, b, both))


def test_level_map_does_not_touch_its_only_component(zz):
    # level 1 of the integers has one component: the map's quotient is
    # that cached component itself, which keeps its own key
    quotient = build_level_map(zz, 1).quotient
    assert quotient is zz.cache[("quotient", ("cyclic", 2))]
    assert quotient.key == ("cyclic", 2)
    _assert_left_rows(quotient)


def _searched_balls(monkeypatch):
    """The radii of the balls searched from here on (cache misses)."""
    searches = []

    def spy(self, radius, _real=resfin.GroupOracle.ball):
        if ("ball", radius) not in self.cache:
            searches.append(radius)
        return _real(self, radius)

    monkeypatch.setattr(resfin.GroupOracle, "ball", spy)
    return searches


def test_level_map_searches_no_ball(monkeypatch):
    # the level map lists its components by word length and searches no
    # ball; the kernel check searches the radius-n ball once, kept in the
    # oracle's cache as its spanning tree: a parent and a generator array,
    # one entry per element, and no word
    dihedral = DihedralOracle()
    searches = _searched_balls(monkeypatch)
    assert build_level_map(dihedral, 10).quotient.order == 55440
    assert searches == [] and not any(key[0] == "ball" for key in dihedral.cache)
    assert kernel_min_length_check(dihedral, 10) == {
        "passed": True, "level": 10, "radius": 10, "checked": 39, "counterexample": None}
    ball = dihedral.ball(10)
    assert searches == [10] and dihedral.ball(10) is ball
    parents, gens = ball
    assert isinstance(parents, array) and isinstance(gens, array) and len(parents) == len(gens) == 40


def test_refused_level_searches_no_ball(monkeypatch):
    # the fold cap fires on component orders alone: Z^2 at level 2000
    # would have a ball of about 8 million words
    product = oracle_from_selector("product:integers,integers")
    searches = _searched_balls(monkeypatch)
    with pytest.raises(resfin.CapExceeded, match="^level 2000 quotient would fold over 2822400 codes"):
        build_level_map(product, 2000)
    assert searches == [] and not any(key[0] == "ball" for key in product.cache)


def _interned(oracle):
    return [key for key in oracle.cache if key[0] == "quotient"]


def test_refused_level_lists_only_the_folded_components():
    # each component is folded as the stream reaches it, so the fold cap
    # fires near length 16 on Z, not after listing a million components
    zz = IntegerOracle()
    with pytest.raises(resfin.CapExceeded, match="^level 1000000 quotient would fold over 5765760 codes"):
        build_level_map(zz, 10**6)
    assert 0 < len(_interned(zz)) <= 25


def test_finite_stream_ends_at_any_level():
    # a finite group's components end at length 1, and its ball at its
    # order, so a chain at a huge level reads two components and four
    # ball words
    product = oracle_from_selector("product:finite:2,finite:3")
    assert build_level_map(product, 10**6).quotient.order == 6
    assert kernel_min_length_check(product, 10**6)["checked"] == 5
    assert len(_interned(product)) <= 2
    assert [len(_interned(side)) for side in (product.left, product.right)] == [1, 1]


def test_build_level_map_integers(zz):
    qm = build_level_map(zz, 1)
    assert qm.quotient.order == 2
    assert qm.quotient.apply_word(parse_word(zz, "t")) != 0
    assert qm.quotient.apply_word(parse_word(zz, "t t")) == 0


def test_chain_is_descending(dinf):
    for n in range(1, 4):
        lo = build_level_map(dinf, n)
        hi = build_level_map(dinf, n + 1)
        for w in ball_words(dinf, 4):
            if hi.quotient.apply_word(w) == 0:
                assert lo.quotient.apply_word(w) == 0


def test_level_map_detects_all_short_words(zz, dinf):
    for oracle in (zz, dinf):
        for n in range(1, 5):
            qm = build_level_map(oracle, n)
            for w in _words(oracle, n):
                assert (qm.quotient.apply_word(w) != 0) == (not oracle.is_identity(w))


def test_residuality_on_ball(dinf):
    r = 3
    for w in ball_words(dinf, r):
        if not w or dinf.is_identity(w):
            continue
        assert any(build_level_map(dinf, n).quotient.apply_word(w) != 0 for n in range(1, r + 1))


def test_decide_word_problem_examples(dinf):
    assert decide_word_problem(dinf, ())
    assert decide_word_problem(dinf, parse_word(dinf, "a a"))
    assert decide_word_problem(dinf, parse_word(dinf, "a t a t"))
    assert not decide_word_problem(dinf, parse_word(dinf, "a t"))


def test_decide_word_problem_matches_native(zz, dinf):
    # exhaustive agreement with the native normal-form decider, and with
    # the seed-letter triviality test that normalization uses; the product
    # stops at length 5, since its level-6 chain has order 176 400
    product = oracle_from_selector("product:integers,integers")
    for oracle, max_length in ((zz, 6), (dinf, 6), (product, 5), (oracle_from_selector("finite:6"), 6)):
        gens = range(len(oracle.gen_names))
        words = [()]
        for _ in range(max_length):
            words = [w + (s,) for w in words for s in gens]
            for w in words:
                trivial = decide_word_problem(oracle, w)
                assert trivial == oracle.is_identity(w)
                assert seed_is_trivial(Seed(oracle, w)) == trivial


def test_kernel_min_length_check(zz, dinf):
    assert kernel_min_length_check(zz, 1)["passed"]
    assert kernel_min_length_check(dinf, 3)["passed"]


def test_kernel_check_catches_corrupted_map():
    # a level-1 map that sends every element to the identity's running
    # code 0, installed where the check reads the built map
    class ZeroQuotient:
        order = 1

        def step(self, code, s):
            return 0

    oracle = DihedralOracle()
    oracle.cache[("level_map", 1)] = resfin.Level(oracle, 1, ZeroQuotient())
    report = kernel_min_length_check(oracle, 1)
    assert not report["passed"]
    assert report["counterexample"] == "a"


@pytest.mark.parametrize("selector, family", [("integers", "cyclic"), ("dihedral_infinite", "dihedral")])
def test_kernel_check_catches_a_kernel_element_at_radius_n(selector, family):
    # a level-n map corrupted to C_n or D_n keeps every element of length
    # below n and kills t^n and t'^n: the only short kernel elements lie on
    # the ball's last layer, so a search one layer short passes the map
    oracle = oracle_from_selector(selector)
    words = ball_words(oracle, 8)
    for n in (2, 3, 5, 8):
        corrupted = oracle.cache[("level_map", n)] = resfin.Level(oracle, n, resfin._FamilyQuotient(family, n))
        report = kernel_min_length_check(oracle, n)
        first = next(i for i, w in enumerate(words) if w and corrupted.quotient.apply_word(w) == 0)
        assert len(words[first]) == n and words[first] == parse_word(oracle, " ".join(["t"] * n))
        assert report == {"passed": False, "level": n, "radius": n, "checked": first,
                          "counterexample": " ".join(["t"] * n)}


def test_kernel_check_spells_its_counterexample_from_the_tree():
    # on a product the first kernel element of a corrupted level-3 map is
    # the right side's t^3, reached after words with letters of both sides
    oracle = oracle_from_selector("product:integers,dihedral_infinite")
    sides = (resfin._FamilyQuotient("cyclic", 12), resfin._FamilyQuotient("dihedral", 3))
    corrupted = oracle.cache[("level_map", 3)] = resfin.Level(oracle, 3, resfin.PairQuotient(sides, (2, 3)))
    words = ball_words(oracle, 3)
    first = next(i for i, w in enumerate(words) if w and corrupted.quotient.apply_word(w) == 0)
    assert kernel_min_length_check(oracle, 3) == {
        "passed": False, "level": 3, "radius": 3, "checked": first, "counterexample": "2.t 2.t 2.t"}
    assert words[first] == parse_word(oracle, "2.t 2.t 2.t")


def test_kernel_check_memory_does_not_grow_with_word_lengths():
    # the ball of finite:5000 at radius 5000 has 5000 elements whose words
    # average 1250 letters: as words it took 51 MB, as a tree under 1 MB
    oracle = oracle_from_selector("finite:5000")
    build_level_map(oracle, 5000)
    tracemalloc.start()
    try:
        report = kernel_min_length_check(oracle, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["passed"] and report["checked"] == 4999
    assert peak < 4 * 2**20


@pytest.mark.parametrize("selector, radius", [
    ("integers", 6), ("dihedral_infinite", 5), ("finite:7", 5), ("product:integers,integers", 4),
    ("product:integers,dihedral_infinite,finite:3", 3)])
def test_ball_is_the_spanning_tree_of_least_shortest_words(selector, radius):
    # one element per key, in (length, lex) order of each element's least
    # word: every word up to the radius, in that order, keeping the first
    # per key; each element's parent comes earlier and spells its prefix
    oracle = oracle_from_selector(selector)
    least = {oracle.identity_key: ()}
    for w in _words(oracle, radius):
        least.setdefault(oracle.element_key(w), w)
    parents, gens = oracle.ball(radius)
    words = ball_words(oracle, radius)
    assert words == list(least.values())
    assert parents[0] == 0 and gens[0] == -1
    for i in range(1, len(words)):
        assert parents[i] < i and words[i] == words[parents[i]] + (gens[i],)
        assert resfin._ball_word((parents, gens), i) == words[i]


def test_efrf_query_rejects_non_separating_quotient():
    def corrupted(oracle, word):
        if oracle.is_identity(word):
            return None
        # collapses rotations: an order-2 quotient cannot separate t
        return oracle._intern(_ClosureQuotient(((1, 0), (0, 1), (0, 1)), key=("bad", 2)))

    bad = DihedralOracle()
    with pytest.raises(AssertionError):
        efrf_query(bad, parse_word(bad, "t"), detect=corrupted)


def test_conjugacy_dihedral(dinf):
    t = parse_word(dinf, "t")
    tinv = parse_word(dinf, "t'")
    t2 = parse_word(dinf, "t t")
    w = dinf.conjugate(t, tinv)
    assert w == parse_word(dinf, "a")
    assert dinf.conjugate(t, t) == ()
    assert dinf.conjugate(t, t2) is NOT_CONJUGATE
    # verify any returned witness: c^-1 g c = k
    g, k = parse_word(dinf, "a t"), parse_word(dinf, "a t t t")
    c = dinf.conjugate(g, k)
    assert c not in (NOT_CONJUGATE, UNSUPPORTED)
    assert dinf.element_key(word_inverse(dinf, c) + g + c) == dinf.element_key(k)


def test_conjugacy_integers(zz):
    assert zz.conjugate((0,), (0,)) == ()
    assert zz.conjugate((0,), (1,)) is NOT_CONJUGATE


def test_product_oracle():
    prod = oracle_from_selector("product:integers,dihedral_infinite")
    assert isinstance(prod, ProductOracle)
    w = parse_word(prod, "1.t 2.a")
    assert not prod.is_identity(w)
    quotient, witness = efrf_query(prod, w)
    assert witness != 0
    assert decide_word_problem(prod, parse_word(prod, "1.t 1.t'"))
    c = prod.conjugate(parse_word(prod, "2.t"), parse_word(prod, "2.t'"))
    assert c == parse_word(prod, "2.a")


def test_product_oracle_conjugate_refused_on_one_side():
    """A product pair is conjugate only when both sides are: here the left
    sides (``t`` and ``t t`` in the integers) are not, so the product
    answers NOT_CONJUGATE whatever the right side says."""
    prod = ProductOracle(IntegerOracle(), DihedralOracle())
    assert prod.conjugate((0,), (0, 0)) is NOT_CONJUGATE


def test_quotient_map_format(zz):
    qm = build_level_map(zz, 1)
    text = format_quotient_map(qm)
    lines = text.splitlines()
    assert lines[0] == "order 2"
    assert lines[1] == "t -> (0 1)"
    assert lines[2] == "t' -> (0 1)"


def test_selector_errors():
    with pytest.raises(ValueError):
        oracle_from_selector("nope")
    with pytest.raises(ValueError):
        oracle_from_selector("finite:x")
    with pytest.raises(ValueError):
        oracle_from_selector("product:integers")


# sha256 of format_quotient_map(build_level_map(oracle, n)), recorded
# before the quotients were stored as right-multiplication tables (levels
# up to 8) and while the components were still found by querying every
# word of length at most n (dihedral 9-10, integers 9-11), or while the
# image was closed over tuples of component indices (dihedral 11,
# integers 12, product 6); the canonical
# enumeration, and with it every letter index, must not move
CANONICAL_DIGESTS = {
    ("integers", 1): "54079ca0f80be444ea148e837354a58b8fc432e3e593fe35079c470f3cc3b80f",
    ("integers", 2): "1f0295c34e55bb91ef9cd15bcb1453d20a4907c53d47eede3c7dfa73beddf61e",
    ("integers", 3): "8c25c1a108df00354bc0452ae7b89c7de4c41024b5c1eb4fe18ada83132c47b6",
    ("integers", 4): "ff046260779d7560b44db606e80d90d31779a863ad304b1c1f44d0a9284c55a7",
    ("integers", 5): "ff046260779d7560b44db606e80d90d31779a863ad304b1c1f44d0a9284c55a7",
    ("integers", 6): "24baeaa97be7516b250a2ca074ad78e9429cf179841ad8117a7c87d9fe74ae20",
    ("integers", 7): "d706678b6ca719dfe46f801698bcaa60953156cd2c993e4533fae4d294e05b59",
    ("integers", 8): "5092852f6f0efedcabefea402e68ae81c7660f4631f3387540d9d46a29d580e4",
    ("integers", 9): "5092852f6f0efedcabefea402e68ae81c7660f4631f3387540d9d46a29d580e4",
    ("integers", 10): "f763413d43c715fe63467b56c6fa78d9cffe18c322a7e6716f10c867983485f5",
    ("integers", 11): "f763413d43c715fe63467b56c6fa78d9cffe18c322a7e6716f10c867983485f5",
    ("integers", 12): "7fa849f62c1fd3575976f3cc02e4bd59061ebfc90015c5adf5a6c61663974534",
    ("dihedral_infinite", 1): "133a7d1412e9a8f733625b8d9bb12e80baa1a3681603db3c42db3652e16abe61",
    ("dihedral_infinite", 2): "9aa43248b6ffff0d0b879fc8c1ad13cb1e431b5aff77775339565c7b73ca4373",
    ("dihedral_infinite", 3): "abff2f600372b5671bba7c2e141970c44296bcdb5371b3ed1f54cfccead284ce",
    ("dihedral_infinite", 4): "ebe44e03bbdd0e0a8d2ca48de1c966486cb6223f1b68980fbc5bb154168ca502",
    ("dihedral_infinite", 5): "ebe44e03bbdd0e0a8d2ca48de1c966486cb6223f1b68980fbc5bb154168ca502",
    ("dihedral_infinite", 6): "d60b7fbfed1f78d9daff09a9d13e19e65307d0a6a4f2d360bb7bf68163db15bd",
    ("dihedral_infinite", 7): "82879e983e76a986fff182c1620298840daebc43eccfcf01a3293544ed15bafb",
    ("dihedral_infinite", 8): "dd3ba9b6d0cb97a8120eecc52648cf61ddb4b89dfc2ec88b0ffa15ba1759ca75",
    ("dihedral_infinite", 9): "dd3ba9b6d0cb97a8120eecc52648cf61ddb4b89dfc2ec88b0ffa15ba1759ca75",
    ("dihedral_infinite", 10): "a0c16428163754f750ac80dbfcebd148bbe80e0722dc5712b0a3c8dcc02baa83",
    ("dihedral_infinite", 11): "a0c16428163754f750ac80dbfcebd148bbe80e0722dc5712b0a3c8dcc02baa83",
    ("product:integers,integers", 1): "1b2906c878c999466a71823011e3719c4ea5d0ef95e90d472c14a4e5a3955d4f",
    ("product:integers,integers", 2): "7116d7b768247bd8b9a3039295cb90c4c6b229099977364bbec68d411f719dae",
    ("product:integers,integers", 3): "7b9429e376aa985551a549bc0b0f962079ceeb13e5a839a57754616e51a519be",
    ("product:integers,integers", 4): "344829244ad0d1e227840bbd11687271befcce1fbf5edc4aa08c74abb72367b0",
    ("product:integers,integers", 5): "344829244ad0d1e227840bbd11687271befcce1fbf5edc4aa08c74abb72367b0",
    ("product:integers,integers", 6): "d42eb09617d7f32b91c2fd4cc2ad0127dfdef6582020b7f157bff96483ff42dd",
    ("finite:6", 1): "1f0295c34e55bb91ef9cd15bcb1453d20a4907c53d47eede3c7dfa73beddf61e",
    ("finite:6", 2): "1f0295c34e55bb91ef9cd15bcb1453d20a4907c53d47eede3c7dfa73beddf61e",
    ("finite:6", 3): "1f0295c34e55bb91ef9cd15bcb1453d20a4907c53d47eede3c7dfa73beddf61e",
    # an involution beside two inverse pairs of generators
    ("product:dihedral_infinite,integers", 3): "a37578c872ad1ba2d49d172b8c4478dd07bdd81317f480b8abc123e14be2c90b",
    # recorded while product quotients were still closed over their
    # ambient rows, before their enumeration was written in shortlex
    # order; the nested product and a finite side among them
    ("product:dihedral_infinite,dihedral_infinite", 1): "6ec6748d2590dfac16b399aa73caf588a94a439cf2def2574d455cd780b3fc38",
    ("product:dihedral_infinite,dihedral_infinite", 2): "a091eda609538912033bad5f38f1fc1914d3dd243cf01ebdbdf4bffafd0b49bc",
    ("product:dihedral_infinite,dihedral_infinite", 3): "9e1d4d3992cc5c606f1114227e926f62ba4fb5d986fc277aae96d2a294b545da",
    ("product:dihedral_infinite,dihedral_infinite", 4): "21ea5f5ce662b1d566100115116c652f9ed79c50896403491df26c8819b5c74c",
    ("product:dihedral_infinite,dihedral_infinite", 5): "21ea5f5ce662b1d566100115116c652f9ed79c50896403491df26c8819b5c74c",
    ("product:integers,dihedral_infinite", 4): "febf2565fe1f3136376b30b5d11264411b8f9da46af3693a53af04d4c517c4d0",
    ("product:integers,integers,integers", 3): "198765f29fd9dd3921cb76bb504a1cca3e2e8d86c2da68006e8703681fda894d",
    ("product:integers,integers,integers", 4): "12258bef1fa7cca9b2922952b0f0ad478b08b26f0fecbb1747804804c287ba0f",
    ("product:finite:6,integers", 5): "c4429f2e0675c7b5777d44b6468697afaeae8012f5e1af5e5d90d63d2ba4d824",
    # recorded while the cycle walks were still gathered from the visit
    # order's codes; an odd cyclic quotient, with no middle power
    ("finite:999", 1): "c4d7eb0ad06fd36959196546cff6358c4d7fa7ca81a813e990c010b12439c32d",
}


def test_canonical_enumeration_digests():
    oracles = {}
    for (selector, n), digest in CANONICAL_DIGESTS.items():
        oracle = oracles.setdefault(selector, oracle_from_selector(selector))
        text = format_quotient_map(build_level_map(oracle, n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (selector, n)


@pytest.mark.parametrize(
    "selector",
    ["integers", "dihedral_infinite", "finite:6", "product:integers,integers", "product:dihedral_infinite,integers"],
)
def test_left_rows_of_inverse_generators_are_inverse(selector):
    """The report prints the image of ``inverse[s]`` as that of ``s``
    inverted; it rests on ``left[inverse[s]]`` undoing ``left[s]``."""
    oracle = oracle_from_selector(selector)
    for n in (1, 2, 3, 4):
        left = _left_rows(build_level_map(oracle, n).quotient)
        for s, t in enumerate(oracle.inverse):
            assert np.array_equal(left[t][left[s]], np.arange(len(left[s]))), (n, s)


def test_quotient_report_walks_once_per_inverse_pair(monkeypatch):
    """A report takes one closed-form walk per pair of mutually inverse
    generators, ``t'`` printed from the walk of ``t``, and walks no image
    array.  No alphabet labels are read, since element indices are
    written straight from the walk."""
    walked = []
    for kind in (resfin._FamilyQuotient, resfin.PairQuotient):

        def counted(self, s, _real=kind.cycle_walk):
            walked.append((self, s))
            return _real(self, s)

        monkeypatch.setattr(kind, "cycle_walk", counted)

    def refuse(*args):
        raise AssertionError("image array walked or alphabet labels read")

    monkeypatch.setattr(perm, "_cycle_walk", refuse)
    monkeypatch.setattr(IndexedAlphabet, "labels", property(refuse))
    for selector, n, walks in [
        ("dihedral_infinite", 10, [0, 1]),
        ("integers", 12, [0]),
        ("product:integers,integers", 6, [0, 2]),
        ("product:dihedral_infinite,integers", 3, [0, 1, 3]),
    ]:
        qm = build_level_map(oracle_from_selector(selector), n)
        walked.clear()
        text = format_quotient_map(qm)
        assert [s for quotient, s in walked if quotient is qm.quotient] == walks, selector
        assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_DIGESTS[(selector, n)]


def test_family_reports_list_no_visit_codes(monkeypatch):
    """A cyclic or dihedral report writes every generator's cycles from
    the visit order as the label of each code: it builds no ``codes``,
    inverts no permutation and gathers nothing over the visit order, and
    it prints the bytes recorded when it did all three."""

    def refuse(*args):
        raise AssertionError("visit order inverted or listed as codes")

    monkeypatch.setattr(resfin, "_inverse", refuse)
    for selector, n in [("integers", 12), ("dihedral_infinite", 10), ("finite:999", 1)]:
        qm = build_level_map(oracle_from_selector(selector), n)
        text = format_quotient_map(qm)
        assert "codes" not in vars(qm.quotient), selector
        assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_DIGESTS[(selector, n)], selector


@pytest.mark.parametrize("closed_form", [_cyclic_quotient, _dihedral_quotient])
def test_closed_form_walks_match_cycle_walk(closed_form):
    # every generator's closed-form cycles are those the generic walk
    # finds in its left multiplication, computed along the spanning tree;
    # 27 720 is the parameter of the level-10 chains of the integers and
    # the infinite dihedral group.  The letters are int32 and the bounds
    # int64, as the report's kernel reads them
    for n in [*range(2, 301), 27720]:
        quotient = closed_form(n)
        for s, g in enumerate(_gen_images(quotient)):
            letters, bounds = quotient.cycle_walk(s)
            want_letters, want_bounds = _cycle_walk(_tree_images(quotient, g))
            assert np.array_equal(letters, want_letters) and np.array_equal(bounds, want_bounds), (n, s)
            assert letters.dtype == np.int32 and bounds.dtype == np.int64, (n, s)


def _modulo_walk(quotient, s):
    """A rotation's ``cycle_walk`` as it was first written, from integer
    remainders."""
    n = quotient.n
    steps = np.arange(n, dtype=np.int32) * (1 if quotient._gens[s] == 1 else -1)
    cycles = (steps % n, n + -steps % n)[: quotient.order // n]
    return quotient.label[np.concatenate(cycles)], np.arange(0, quotient.order + 1, n)


def test_cyclic_codes_match_their_modulo_form():
    # the visit order of C_k, written without a remainder: element for
    # element and dtype for dtype the order of the % form
    for k in [*range(1, 301), 27720]:
        x = np.arange(k, dtype=np.int32)
        want = np.where(x % 2 == 1, (x + 1) // 2, k - x // 2) % k
        codes = resfin._FamilyQuotient("cyclic", k).codes
        assert codes.dtype == want.dtype and np.array_equal(codes, want), k


@pytest.mark.parametrize("closed_form", [_cyclic_quotient, _dihedral_quotient])
def test_rotation_walks_match_their_modulo_form(closed_form):
    # the rotations' cycles, t and t' alike, written without a remainder:
    # element for element and dtype for dtype the walk of the % form
    for n in range(1, 301):
        quotient = closed_form(n)
        for s in range(len(quotient._gens) - 2, len(quotient._gens)):  # t and t'
            letters, bounds = quotient.cycle_walk(s)
            want_letters, want_bounds = _modulo_walk(quotient, s)
            assert letters.dtype == want_letters.dtype, (n, s)
            assert np.array_equal(letters, want_letters) and np.array_equal(bounds, want_bounds), (n, s)


LEFT_MULT_SELECTORS = [
    "integers",
    "dihedral_infinite",
    "finite:2",
    "finite:12",
    "finite:1000",
    "product:integers,integers",
    "product:dihedral_infinite,integers",
    "product:integers,dihedral_infinite",
    "product:integers,integers,integers",
]


@pytest.mark.parametrize("selector", LEFT_MULT_SELECTORS)
def test_left_mult_gather_and_cayley_sign(selector):
    # left multiplication as the spanning-tree walk computes it, and
    # Cayley's sign as the cycle decomposition of the coset block finds
    # it, for every element of the level 1-4 quotients up to 1 000
    # elements; the product quotients at level 4 (3 600 and 7 200
    # elements, whose reference walks take quadratic time in all) are
    # checked on 200 evenly spaced elements; the nested product stops at
    # level 3 (1 728 elements), since its level 4 has 216 000
    oracle = oracle_from_selector(selector)
    for n in (1, 2, 3) if selector.count(",") > 1 else (1, 2, 3, 4):
        quotient = build_level_map(oracle, n).quotient
        cosets = IndexedAlphabet(quotient.order)
        step = quotient.order // 200 if quotient.order > 1000 else 1
        for i in range(0, quotient.order, step):
            images = quotient.left_mult_images(i)
            assert images.dtype == np.int64
            assert np.array_equal(images, _tree_images(quotient, i)), (n, i)
            assert quotient.left_mult_sign(i) == Perm(cosets, images).sign, (n, i)


def test_quotient_products_agree(zz, dinf):
    product = oracle_from_selector("product:integers,dihedral_infinite")
    quotients = [build_level_map(zz, n).quotient for n in (1, 2, 3, 4)]
    quotients += [build_level_map(dinf, n).quotient for n in (1, 2, 3)]
    quotients += [build_level_map(product, n).quotient for n in (1, 2)]
    quotients.append(efrf_query(product, parse_word(product, "2.t 2.t"))[0])  # a projection
    for q in quotients:
        # table[i, j] is the product of elements i and j
        table = np.stack([q.left_mult_images(i) for i in range(q.order)])
        n = q.order
        ident = np.arange(n)
        assert (table[0] == ident).all() and (table[:, 0] == ident).all()
        # associativity: (i j) k == i (j k) for all i, j, k
        assert (table[table] == table[:, table]).all()
        images = _gen_images(q)
        gens = range(len(images))
        for s in gens:
            assert (np.asarray(_right(q)[s]) == table[:, images[s]]).all()
        words = [w for k in range(4) for w in itertools.product(gens, repeat=k)]
        for u in words:
            acc = 0
            for s in u:
                acc = table[acc, images[s]]
            assert q.apply_word(u) == acc
            left = q.left_mult_images(q.apply_word(u))
            for v in words[:20]:
                assert q.apply_word(u + v) == left[q.apply_word(v)]


_KEY_PRODUCT_SELECTORS = (
    "integers",
    "dihedral_infinite",
    "finite:2",
    "finite:7",
    "product:integers,dihedral_infinite",
    "product:integers,dihedral_infinite,finite:5",
)


@functools.cache
def _key_oracle(selector):
    return oracle_from_selector(selector)


@pytest.mark.parametrize("selector", _KEY_PRODUCT_SELECTORS)
@given(data=st.data())
def test_key_product_is_the_word_product(selector, data):
    """Keys multiply like words, the empty word keys the identity, and
    two words have one key exactly when the reference decider calls
    u v^-1 trivial."""
    oracle = _key_oracle(selector)
    gens = st.integers(0, len(oracle.gen_names) - 1)
    u = tuple(data.draw(st.lists(gens, max_size=3), label="u"))
    v = tuple(data.draw(st.lists(gens, max_size=2), label="v"))
    assert oracle.multiply(oracle.element_key(u), oracle.element_key(v)) == oracle.element_key(u + v)
    assert oracle.element_key(()) == oracle.identity_key
    same = oracle.element_key(u) == oracle.element_key(v)
    assert same == decide_word_problem(oracle, u + word_inverse(oracle, v))


@pytest.mark.parametrize("selector, text, key", [
    ("integers", "t t t' t", 2),
    ("finite:7", "t' t' t'", 4),
    ("dihedral_infinite", "a t t", (1, 2)),
    ("dihedral_infinite", "t t a", (1, -2)),
    ("product:integers,dihedral_infinite", "2.t 1.t' 2.a 2.t", (-1, (1, 0))),
    ("product:integers,dihedral_infinite,finite:5", "1.2.a 2.t' 1.2.t 1.1.t", ((1, (1, 1)), 4)),
])
def test_element_keys_keep_their_values(selector, text, key):
    """Keys feed cache keys and key-hash pins, so the fold gives the
    values the per-group word walkers gave: a^e t^m is (e, m), and a
    product key is the pair of its sides' keys."""
    oracle = _key_oracle(selector)
    assert oracle.element_key(parse_word(oracle, text)) == key


_ENTRY_POINTS = {
    "element_key": lambda oracle, w: oracle.element_key(w),
    "is_identity": lambda oracle, w: oracle.is_identity(w),
    "detect": _detect,
    "conjugate_g": lambda oracle, w: oracle.conjugate(w, (0,)),
    "conjugate_k": lambda oracle, w: oracle.conjugate((0,), w),
    "efrf_query": efrf_query,
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("selector", [
    "dihedral_infinite", "integers", "finite:5", "product:integers,dihedral_infinite,finite:5",
])
def test_words_outside_the_generators_are_refused(selector, entry):
    """A word with a generator index outside ``range(len(gen_names))``
    has no element: index -1 must not read the last generator's key, and
    no answer may be given for it."""
    oracle = _key_oracle(selector)
    message = rf"generator indices must lie in range\({len(oracle.gen_names)}\)"
    for bad in (-1, len(oracle.gen_names)):
        for word in ((bad,), (0, bad)):
            with pytest.raises(ValueError, match=message):
                _ENTRY_POINTS[entry](oracle, word)


def test_ball_is_deduplicated(dinf):
    ball = ball_words(dinf, 2)
    keys = [dinf.element_key(w) for w in ball]
    assert len(keys) == len(set(keys))
    assert () in ball
    # a, t, t', at, ta, tt, t't' and identity
    assert len(ball) == 8
