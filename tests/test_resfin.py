import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from branchgroups import perm, resfin
from branchgroups.alphabet import Seed, coset_action
from branchgroups.perm import IndexedAlphabet, Perm, _cycle_walk
from branchgroups.resfin import (
    NOT_CONJUGATE,
    TRIVIAL,
    UNSUPPORTED,
    DihedralOracle,
    IntegerOracle,
    ProductOracle,
    build_level_map,
    decide_word_problem,
    efrf_query,
    format_quotient_map,
    kernel_min_length_check,
    level_components,
    oracle_from_selector,
    parse_word,
    word_inverse,
)
from branchgroups.wordcalc import seed_is_trivial


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


def _reference_closure(rows):
    """The closure loop as it was when it wrote the spanning tree while
    searching: the label of every code (-1 where unreached), the reached
    codes in order, and ``parent``, ``via`` of each element."""
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
    label, codes, parent, via = _reference_closure(rows)
    got_label, got_codes = resfin._closure(rows)
    assert got_label.tolist() == label
    assert got_codes.tolist() == codes
    quotient = resfin.FiniteQuotient(rows)
    assert quotient.order == len(codes)
    assert [list(row) for row in quotient.right] == [[label[row[c]] for c in codes] for row in rows]
    assert [list(row) for row in quotient._tree] == [parent, via]


def _tuple_closure(components, n_gens, limit):
    """Reference closure of the level image: raw elements are tuples of
    component indices, keyed in a dict; None once it passes ``limit``."""
    gens = [tuple(c.right[s] for c in components) for s in range(n_gens)]
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
        assert [list(row) for row in quotient.right] == right, n
        assert [list(row) for row in quotient._tree] == [parent, via], n
        _assert_left_rows(quotient)
    assert n > 1


def _assert_left_rows(quotient):
    # the left rows are left multiplication by each generator's image, as
    # the spanning-tree walk computes it
    assert len(quotient.left) == len(quotient.gen_images)
    for row, g in zip(quotient.left, quotient.gen_images):
        assert np.array_equal(np.asarray(row), quotient._tree_images(g, quotient)), g


@pytest.mark.parametrize("selector", sorted(SWEEP_LEVELS))
def test_leaf_left_rows_match_tree_walk(selector):
    oracle = oracle_from_selector(selector)
    for component in level_components(oracle, SWEEP_LEVELS[selector]):
        _assert_left_rows(component)


def test_factors_through(zz, dinf):
    cyclic = zz._cyclic
    assert cyclic(2).factors_through(cyclic(6))
    assert cyclic(3).factors_through(cyclic(6))
    assert not cyclic(4).factors_through(cyclic(6))
    three_four = cyclic(3).fold(cyclic(4))
    assert three_four.order == 12
    assert cyclic(12).factors_through(three_four)
    assert not cyclic(12).factors_through(cyclic(3))
    assert not cyclic(12).factors_through(cyclic(4))
    # dihedral groups of order 2 * half: D_6 onto D_3, but not onto D_4
    assert dinf._dihedral(3).factors_through(dinf._dihedral(6))
    assert not dinf._dihedral(4).factors_through(dinf._dihedral(6))
    # the two sides of a product agree on the first generator, which acts
    # trivially on the second side's projection
    product = oracle_from_selector("product:integers,integers")
    first, _ = efrf_query(product, parse_word(product, "1.t"))
    second, _ = efrf_query(product, parse_word(product, "2.t"))
    assert not second.factors_through(first)
    assert second.factors_through(first.fold(second))


def _cyclic_by_closure(k):
    """The cyclic quotient closed over its rows as they were defined
    before the closed form: code c stands for t^c."""
    codes = np.arange(k, dtype=np.int32)
    return resfin.FiniteQuotient([(codes + step) % k for step in (1, -1)], key=("cyclic", k))


def _dihedral_by_closure(h):
    """The dihedral quotient closed over its former rows: code e*h + m
    stands for a^e t^m."""
    codes = [divmod(c, h) for c in range(2 * h)]
    rows = [
        [(e ^ 1) * h + (-m % h) for e, m in codes],
        [e * h + (m + 1) % h for e, m in codes],
        [e * h + (m - 1) % h for e, m in codes],
    ]
    return resfin.FiniteQuotient(rows, key=("dihedral", h))


FAMILIES = [(resfin._cyclic_quotient, _cyclic_by_closure), (resfin._dihedral_quotient, _dihedral_by_closure)]


def _assert_same_quotient(got, want):
    # array("i") rows compare entry by entry
    assert got.order == want.order
    assert got.right == want.right and got.left == want.left
    assert got._tree == want._tree
    assert got.gen_images == want.gen_images


@pytest.mark.parametrize("closed_form, by_closure", FAMILIES)
def test_closed_forms_match_closure(closed_form, by_closure):
    for n in range(2, 301):
        got, want = closed_form(n), by_closure(n)
        _assert_same_quotient(got, want)
        assert got.key == want.key, n
        assert want._family is None and got._family == (closed_form, n)


@pytest.mark.parametrize("closed_form, by_closure", FAMILIES)
def test_same_family_fold_and_factoring_match_generic(closed_form, by_closure):
    # quotients built by the closure carry no family, so they take the
    # generic fold and factoring test; one closed-form side alone does too
    plain = {n: by_closure(n) for n in range(2, 61)}
    built = {n: closed_form(n) for n in range(2, 61)}
    for a, b in itertools.product(range(2, 61), repeat=2):
        generic = plain[a].factors_through(plain[b])
        assert built[a].factors_through(built[b]) == generic == (b % a == 0), (a, b)
        assert built[a].factors_through(plain[b]) == generic, (a, b)
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
            assert got._family == (closed_form, math.lcm(a, b)), (a, b)
        if b <= 8:
            mixed = built[a].fold(plain[b])
            _assert_same_quotient(mixed, generic)
            assert mixed._family is None


def test_bundled_level_maps_skip_closure_and_tree_walk(monkeypatch):
    # building, reporting and acting by left multiplication: no search,
    # no spanning tree, no walk of a cycle or of the tree, and no cycle
    # decomposition for the sign
    def refuse(*args):
        raise AssertionError("closure, tree or cycle walk ran")

    for name in ("_closure", "_spanning_tree", "_cycle_walk"):
        monkeypatch.setattr(resfin, name, refuse)
    monkeypatch.setattr(resfin.FiniteQuotient, "_tree_images", refuse)
    monkeypatch.setattr(perm, "_cycle_lengths", refuse)

    def report_and_act(oracle, n, words):
        qm = build_level_map(oracle, n)
        assert format_quotient_map(qm).startswith(f"order {qm.quotient.order}\n")
        for w in words:
            assert coset_action(oracle, n, Seed(oracle, w)).sign == 1

    for oracle in (IntegerOracle(), DihedralOracle()):
        for n in range(1, 12):
            assert build_level_map(oracle, n).quotient.order > 1
            report_and_act(oracle, n, oracle.ball(2))
    for m in (2, 7, 500_000):
        oracle = oracle_from_selector(f"finite:{m}")
        assert [q.order for q in level_components(oracle, 3)] == [m]
        assert build_level_map(oracle, 3).quotient.order == m
        report_and_act(oracle, 3, oracle.ball(1))


def test_level_map_order_cap():
    dihedral = DihedralOracle()
    # level 10 folds an order-5040 image with an order-22 component
    with pytest.raises(resfin.CapExceeded):
        build_level_map(dihedral, 10, cap=5040 * 22 - 1)
    assert ("level_map", 10) not in dihedral.cache
    assert build_level_map(dihedral, 10, cap=5040 * 22).quotient.order == 55440


def test_level_map_does_not_touch_its_only_component(zz):
    # level 1 of the integers has one component: the map's quotient is
    # that cached component itself, which keeps its own key
    quotient = build_level_map(zz, 1).quotient
    assert quotient is zz._cyclic(2)
    assert quotient.key == ("cyclic", 2)
    _assert_left_rows(quotient)


def test_level_map_queries_only_the_ball(monkeypatch):
    # the level map queries only the radius-n ball, and the kernel check
    # shares its one search, kept in the oracle's cache as a tuple
    dihedral = DihedralOracle()
    calls, searches = [], []

    def counting(oracle, word):
        calls.append(word)
        return efrf_query(oracle, word)

    def spy(self, radius, _real=resfin.GroupOracle.ball):
        if ("ball", radius) not in self.cache:
            searches.append(radius)
        return _real(self, radius)

    monkeypatch.setattr(resfin, "efrf_query", counting)
    monkeypatch.setattr(resfin.GroupOracle, "ball", spy)
    assert build_level_map(dihedral, 10).quotient.order == 55440
    assert kernel_min_length_check(dihedral, 10)["passed"]
    ball = dihedral.ball(10)
    assert searches == [10] and isinstance(ball, tuple) and dihedral.ball(10) is ball
    assert 0 < len(calls) <= len(ball)


def test_build_level_map_integers(zz):
    qm = build_level_map(zz, 1)
    assert qm.quotient.order == 2
    assert qm.apply(parse_word(zz, "t")) != 0
    assert qm.apply(parse_word(zz, "t t")) == 0


def test_chain_is_descending(dinf):
    for n in range(1, 4):
        lo = build_level_map(dinf, n)
        hi = build_level_map(dinf, n + 1)
        for w in dinf.ball(4):
            if hi.apply(w) == 0:
                assert lo.apply(w) == 0


def test_level_map_detects_all_short_words(zz, dinf):
    for oracle in (zz, dinf):
        for n in range(1, 5):
            qm = build_level_map(oracle, n)
            for w in _words(oracle, n):
                assert (qm.apply(w) != 0) == (not oracle.is_identity(w))


def test_residuality_on_ball(dinf):
    r = 3
    for w in dinf.ball(r):
        if not w or dinf.is_identity(w):
            continue
        assert any(build_level_map(dinf, n).apply(w) != 0 for n in range(1, r + 1))


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


def test_kernel_check_catches_corrupted_map(dinf):
    class IdentityMap:
        def apply(self, word):
            return 0

    report = kernel_min_length_check(dinf, 1, level_map=IdentityMap())
    assert not report["passed"]
    assert report["counterexample"] == "a"


def test_efrf_query_rejects_non_separating_quotient():
    class Corrupted(DihedralOracle):
        def detect(self, word):
            if self.is_identity(word):
                return None
            # collapses rotations: an order-2 quotient cannot separate t
            return self._quotient(
                ("bad", 2),
                lambda: resfin.FiniteQuotient(((1, 0), (0, 1), (0, 1)), key=("bad", 2)),
            )

    bad = Corrupted()
    with pytest.raises(AssertionError):
        efrf_query(bad, parse_word(bad, "t"))


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
        left = [np.asarray(row) for row in build_level_map(oracle, n).quotient.left]
        for s, t in enumerate(oracle.inverse):
            assert np.array_equal(left[t][left[s]], np.arange(len(left[s]))), (n, s)


def test_quotient_report_walks_once_per_inverse_pair(monkeypatch):
    """A generic quotient walks its left rows once per pair of mutually
    inverse generators, ``t'`` printed from the walk of ``t``; a
    closed-form quotient walks nothing.  No alphabet labels are read,
    since element indices are written straight from the walk."""
    walks = []

    def counted(images, _real=resfin._cycle_walk):
        walks.append(len(images))
        return _real(images)

    def no_labels(alphabet):
        raise AssertionError("alphabet labels read")

    monkeypatch.setattr(resfin, "_cycle_walk", counted)
    monkeypatch.setattr(IndexedAlphabet, "labels", property(no_labels))
    for selector, n, pairs in [("dihedral_infinite", 10, 0), ("integers", 12, 0), ("product:integers,integers", 6, 2)]:
        qm = build_level_map(oracle_from_selector(selector), n)
        walks.clear()
        text = format_quotient_map(qm)
        assert walks == [qm.quotient.order] * pairs, selector
        assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_DIGESTS[(selector, n)]


@pytest.mark.parametrize("closed_form", [resfin._cyclic_quotient, resfin._dihedral_quotient])
def test_closed_form_walks_match_cycle_walk(closed_form):
    # every generator's closed-form cycles are those the generic walk
    # finds in its left multiplication, computed along the spanning tree
    for n in range(2, 301):
        quotient = closed_form(n)
        for s, g in enumerate(quotient.gen_images):
            letters, bounds = quotient.cycle_walk(s)
            want_letters, want_bounds = _cycle_walk(quotient._tree_images(g, quotient))
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
]


@pytest.mark.parametrize("selector", LEFT_MULT_SELECTORS)
def test_left_mult_gather_and_cayley_sign(selector):
    # left multiplication as the spanning-tree walk computes it, and
    # Cayley's sign as the cycle decomposition of the coset block finds
    # it, for every element of the level 1-4 quotients up to 1 000
    # elements; the product quotients at level 4 (3 600 and 7 200
    # elements, whose generic walks take quadratic time in all) are
    # checked on 200 evenly spaced elements
    oracle = oracle_from_selector(selector)
    for n in (1, 2, 3, 4):
        quotient = build_level_map(oracle, n).quotient
        cosets = IndexedAlphabet(quotient.order)
        step = quotient.order // 200 if quotient.order > 1000 else 1
        for i in range(0, quotient.order, step):
            images = quotient.left_mult_images(i)
            assert images.dtype == np.int64
            assert np.array_equal(images, quotient._tree_images(i, quotient)), (n, i)
            assert quotient.left_mult_sign(images) == Perm(cosets, images).sign, (n, i)


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
        gens = range(len(q.gen_images))
        for s in gens:
            assert (np.asarray(q.right[s]) == table[:, q.gen_images[s]]).all()
        words = [w for k in range(4) for w in itertools.product(gens, repeat=k)]
        for u in words:
            acc = 0
            for s in u:
                acc = table[acc, q.gen_images[s]]
            assert q.apply_word(u) == acc
            left = q.left_mult_images(q.apply_word(u))
            for v in words[:20]:
                assert q.apply_word(u + v) == left[q.apply_word(v)]


def test_ball_is_deduplicated(dinf):
    ball = dinf.ball(2)
    keys = [dinf.element_key(w) for w in ball]
    assert len(keys) == len(set(keys))
    assert () in ball
    # a, t, t', at, ta, tt, t't' and identity
    assert len(ball) == 8
