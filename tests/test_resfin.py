import hashlib
import itertools

import numpy as np
import pytest

from branchgroups import resfin
from branchgroups.alphabet import Seed
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
    format_group_descriptor,
    format_quotient_map,
    kernel_min_length_check,
    oracle_from_selector,
    parse_group_descriptor,
    parse_word,
    word_inverse,
    words_up_to,
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
    assert quotient.mult(witness, witness) == 0


def test_words_up_to(zz):
    assert words_up_to(zz, 0) == []
    assert words_up_to(zz, 1) == [(0,), (1,)]
    w2 = words_up_to(zz, 2)
    assert (0, 1) not in w2 and (1, 0) not in w2  # t t' and t' t are trivial
    assert len(w2) == 2 + 2


def test_words_counting_bound(dinf):
    for n in range(4):
        count = len(words_up_to(dinf, n))
        assert count <= sum(3 ** k for k in range(1, n + 1))


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
            for w in words_up_to(oracle, n):
                assert qm.apply(w) != 0


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
    assert kernel_min_length_check(zz, 1, 1)["passed"]
    assert kernel_min_length_check(dinf, 3, 3)["passed"]
    assert kernel_min_length_check(dinf, 2, 0)["passed"]


def test_kernel_check_catches_corrupted_map(dinf):
    class IdentityMap:
        def apply(self, word):
            return 0

    report = kernel_min_length_check(dinf, 1, 1, level_map=IdentityMap())
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
                lambda: resfin.FiniteQuotient(0, (1, 0, 0), lambda a, b: (a + b) % 2, key=("bad", 2)),
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


def test_group_descriptor_roundtrip(dinf):
    text = format_group_descriptor(dinf)
    oracle = parse_group_descriptor(text)
    assert oracle.gen_names == dinf.gen_names
    assert oracle.inverse == dinf.inverse


def test_group_descriptor_errors():
    with pytest.raises(ValueError):
        parse_group_descriptor("group x\nfamily unknown_thing")
    with pytest.raises(ValueError):
        parse_group_descriptor("group x\ngen b inverse b\nfamily integers")
    with pytest.raises(ValueError):
        parse_group_descriptor("gibberish line\n")


def test_selector_errors():
    with pytest.raises(ValueError):
        oracle_from_selector("nope")
    with pytest.raises(ValueError):
        oracle_from_selector("finite:x")
    with pytest.raises(ValueError):
        oracle_from_selector("product:integers")


# sha256 of format_quotient_map(build_level_map(oracle, n)), recorded
# before the quotients were stored as right-multiplication tables; the
# canonical enumeration, and with it every letter index, must not move
CANONICAL_DIGESTS = {
    ("integers", 1): "54079ca0f80be444ea148e837354a58b8fc432e3e593fe35079c470f3cc3b80f",
    ("integers", 2): "1f0295c34e55bb91ef9cd15bcb1453d20a4907c53d47eede3c7dfa73beddf61e",
    ("integers", 3): "8c25c1a108df00354bc0452ae7b89c7de4c41024b5c1eb4fe18ada83132c47b6",
    ("integers", 4): "ff046260779d7560b44db606e80d90d31779a863ad304b1c1f44d0a9284c55a7",
    ("integers", 5): "ff046260779d7560b44db606e80d90d31779a863ad304b1c1f44d0a9284c55a7",
    ("integers", 6): "24baeaa97be7516b250a2ca074ad78e9429cf179841ad8117a7c87d9fe74ae20",
    ("integers", 7): "d706678b6ca719dfe46f801698bcaa60953156cd2c993e4533fae4d294e05b59",
    ("integers", 8): "5092852f6f0efedcabefea402e68ae81c7660f4631f3387540d9d46a29d580e4",
    ("dihedral_infinite", 1): "133a7d1412e9a8f733625b8d9bb12e80baa1a3681603db3c42db3652e16abe61",
    ("dihedral_infinite", 2): "9aa43248b6ffff0d0b879fc8c1ad13cb1e431b5aff77775339565c7b73ca4373",
    ("dihedral_infinite", 3): "abff2f600372b5671bba7c2e141970c44296bcdb5371b3ed1f54cfccead284ce",
    ("dihedral_infinite", 4): "ebe44e03bbdd0e0a8d2ca48de1c966486cb6223f1b68980fbc5bb154168ca502",
    ("dihedral_infinite", 5): "ebe44e03bbdd0e0a8d2ca48de1c966486cb6223f1b68980fbc5bb154168ca502",
    ("dihedral_infinite", 6): "d60b7fbfed1f78d9daff09a9d13e19e65307d0a6a4f2d360bb7bf68163db15bd",
    ("dihedral_infinite", 7): "82879e983e76a986fff182c1620298840daebc43eccfcf01a3293544ed15bafb",
    ("dihedral_infinite", 8): "dd3ba9b6d0cb97a8120eecc52648cf61ddb4b89dfc2ec88b0ffa15ba1759ca75",
    ("product:integers,integers", 1): "1b2906c878c999466a71823011e3719c4ea5d0ef95e90d472c14a4e5a3955d4f",
    ("product:integers,integers", 2): "7116d7b768247bd8b9a3039295cb90c4c6b229099977364bbec68d411f719dae",
    ("product:integers,integers", 3): "7b9429e376aa985551a549bc0b0f962079ceeb13e5a839a57754616e51a519be",
    ("product:integers,integers", 4): "344829244ad0d1e227840bbd11687271befcce1fbf5edc4aa08c74abb72367b0",
    ("product:integers,integers", 5): "344829244ad0d1e227840bbd11687271befcce1fbf5edc4aa08c74abb72367b0",
    ("finite:6", 1): "1f0295c34e55bb91ef9cd15bcb1453d20a4907c53d47eede3c7dfa73beddf61e",
    ("finite:6", 2): "1f0295c34e55bb91ef9cd15bcb1453d20a4907c53d47eede3c7dfa73beddf61e",
    ("finite:6", 3): "1f0295c34e55bb91ef9cd15bcb1453d20a4907c53d47eede3c7dfa73beddf61e",
}


def test_canonical_enumeration_digests():
    oracles = {}
    for (selector, n), digest in CANONICAL_DIGESTS.items():
        oracle = oracles.setdefault(selector, oracle_from_selector(selector))
        text = format_quotient_map(build_level_map(oracle, n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (selector, n)


def test_quotient_products_agree(zz, dinf):
    product = oracle_from_selector("product:integers,dihedral_infinite")
    quotients = [build_level_map(zz, n).quotient for n in (1, 2, 3, 4)]
    quotients += [build_level_map(dinf, n).quotient for n in (1, 2, 3)]
    quotients += [build_level_map(product, n).quotient for n in (1, 2)]
    quotients.append(efrf_query(product, parse_word(product, "2.t 2.t"))[0])  # a projection
    for q in quotients:
        table = q.multiplication_table()
        n = q.order
        ident = np.arange(n)
        assert (table[0] == ident).all() and (table[:, 0] == ident).all()
        # associativity: (i j) k == i (j k) for all i, j, k
        assert (table[table] == table[:, table]).all()
        for i in range(n):
            assert (q.left_mult_images(i) == table[i]).all()
            for j in range(n):
                assert q.mult(i, j) == table[i, j]
        gens = range(len(q.gen_images))
        for s in gens:
            assert (np.asarray(q.right[s]) == table[:, q.gen_images[s]]).all()
        words = [w for k in range(4) for w in itertools.product(gens, repeat=k)]
        for u in words:
            acc = 0
            for s in u:
                acc = table[acc, q.gen_images[s]]
            assert q.apply_word(u) == acc
            for v in words[:20]:
                assert q.apply_word(u + v) == q.mult(q.apply_word(u), q.apply_word(v))


def test_multiplication_table_guard(dinf, zz):
    quotient = build_level_map(zz, 2).quotient  # order 6
    table = quotient.multiplication_table()
    for i in range(quotient.order):
        for j in range(quotient.order):
            assert table[i, j] == quotient.mult(i, j)
    big = resfin.FiniteQuotient(0, (1, 10000), lambda a, b: (a + b) % 10001, key=None)
    with pytest.raises(ValueError):
        big.multiplication_table()


def test_ball_is_deduplicated(dinf):
    ball = dinf.ball(2)
    keys = [dinf.element_key(w) for w in ball]
    assert len(keys) == len(set(keys))
    assert () in ball
    # a, t, t', at, ta, tt, t't' and identity
    assert len(ball) == 8
