import random
import re
import tracemalloc

import pytest

from branchgroups.alphabet import (
    MARKER_ALPHABET,
    Seed,
    build_alphabet,
    coset_action,
    marker_action,
    marker_perm,
    random_marker_perm,
    seed_is_trivial,
)
from branchgroups.perm import IndexedAlphabet, Perm, compose
from branchgroups.resfin import DihedralOracle, IntegerOracle, Level, build_level_map, oracle_from_selector, parse_word
from branchgroups.treeauto import rooted
from conftest import ball_words


@pytest.fixture(scope="module")
def zz():
    return IntegerOracle()


@pytest.fixture(scope="module")
def dinf():
    return DihedralOracle()


def random_seed_elem(oracle, rng, max_len=3):
    g = tuple(rng.randrange(len(oracle.gen_names)) for _ in range(rng.randrange(max_len + 1)))
    return Seed(oracle, g, random_marker_perm(rng))


def test_alphabet_sizes(zz):
    lvl = build_alphabet(zz, 1)
    assert lvl.quotient.order == 2
    assert lvl.size == 7
    for n in (1, 2, 3):
        assert build_alphabet(zz, n).size == build_alphabet(zz, n).quotient.order + 5


def test_letter_order_and_literals(dinf):
    lvl = build_alphabet(dinf, 2)
    order = lvl.quotient.order
    assert lvl.alphabet.labels == tuple(f"q{i}@2" for i in range(order)) + ("x@2", "y@2", "z@2", "p@2", "q@2")
    assert lvl.letter_at(3) == "q3@2"
    assert lvl.letter_at(lvl.x_index) == "x@2"
    assert [lvl.alphabet.index(s) for s in ("x@2", "y@2", "z@2", "p@2", "q@2")] == [
        lvl.x_index, lvl.y_index, lvl.z_index, lvl.p_index, lvl.q_index
    ]
    for label in ("w@2", "x", "x@1", f"q{order}@2"):
        with pytest.raises(KeyError):
            lvl.alphabet.index(label)


def test_level_alphabet_stores_no_labels():
    """A level alphabet is its size and a label rule: building one over a
    200 000-element quotient allocates no per-letter structure (the
    labels alone took 21.9 MiB when they were stored)."""
    oracle = oracle_from_selector("finite:200000")
    quotient = build_level_map(oracle, 1).quotient
    tracemalloc.start()
    try:
        lvl = Level(oracle, 1, quotient)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lvl.size == quotient.order + 5 > 200_000
    assert peak < 2**20


def test_level_alphabet_keeps_only_parsed_labels(dinf):
    """A level alphabet starts with no parsed labels and keeps a label
    only once it has parsed it; a label it refuses is not kept."""
    lvl = Level(dinf, 3, build_level_map(dinf, 3).quotient)
    assert lvl._index == {}
    for _ in range(2):
        assert [lvl.index(s) for s in ("q1@3", "x@3", "q1@3")] == [1, lvl.x_index, 1]
        with pytest.raises(KeyError):
            lvl.index("q01@3")
    assert lvl._index == {"q1@3": 1, "x@3": lvl.x_index}


def test_level_alphabet_differs_from_anonymous_alphabet(dinf):
    """An anonymous alphabet of a level's size parses and prints letters
    differently, so it is a different alphabet; the level alphabet itself
    is built once per oracle and level."""
    lvl = build_alphabet(dinf, 1)
    anon = IndexedAlphabet(lvl.size)
    assert lvl != anon and anon != lvl
    assert build_alphabet(dinf, 1) is lvl
    with pytest.raises(ValueError, match="level-1 alphabet"):
        rooted(dinf, 0, Perm.from_cycles(anon, "(0 1 2)"))


@pytest.mark.parametrize(
    "selector", ["dihedral_infinite", "integers", "finite:5", "product:integers,dihedral_infinite,finite:5"]
)
@pytest.mark.parametrize("map_first", [False, True])
def test_level_alphabet_is_the_level_map(selector, map_first):
    """The level-n alphabet is the level-n quotient map, one object kept
    under one cache entry, whichever of the two is asked for first."""
    oracle = oracle_from_selector(selector)
    for n in (1, 2, 3):
        if map_first:
            build_level_map(oracle, n)
        assert build_alphabet(oracle, n) is build_level_map(oracle, n)
        assert build_alphabet(oracle, n) is oracle.cache[("level_map", n)]
    assert not [key for key in oracle.cache if key[0] == "alphabet"]


def test_printing_formats_moved_letters_only(dinf, monkeypatch):
    lvl = build_alphabet(dinf, 10)
    p = Perm.from_cycles(lvl, "(q5@10 x@10 q@10)")
    formatted = []

    def counted(self, i, _real=Level.label):
        formatted.append(i)
        return _real(self, i)

    monkeypatch.setattr(Level, "label", counted)
    assert str(p) == "(q5@10 x@10 q@10)"
    assert formatted == [5, lvl.x_index, lvl.q_index]


def test_letters_at_distinct_levels_differ(zz):
    labels = [set(build_alphabet(zz, n).alphabet.labels) for n in (1, 2, 3)]
    assert labels[0].isdisjoint(labels[1]) and labels[1].isdisjoint(labels[2])


def test_coset_action_integers_level1(zz):
    # the level-1 quotient has two cosets; the generator swaps them, which
    # is odd, so p and q swap as well
    lvl = build_alphabet(zz, 1)
    p = coset_action(zz, 1, Seed(zz, parse_word(zz, "t")))
    assert p == Perm.from_cycles(lvl.alphabet, "(q0@1 q1@1)(p@1 q@1)")
    assert p.sign == 1


def test_coset_action_identity(zz):
    assert coset_action(zz, 1, Seed(zz)).is_identity


def test_coset_action_fixes_xyz(dinf):
    rng = random.Random(7)
    for n in (1, 2):
        lvl = build_alphabet(dinf, n)
        for _ in range(20):
            s = random_seed_elem(dinf, rng)
            p = coset_action(dinf, n, s)
            for i in (lvl.x_index, lvl.y_index, lvl.z_index):
                assert p(i) == i


def test_marker_action_three_cycle(zz):
    lvl = build_alphabet(zz, 1)
    p = marker_action(zz, 1, Seed(zz, (), marker_perm("(x y z)")))
    assert p == Perm.from_cycles(lvl.alphabet, "(x@1 y@1 z@1)")


def test_marker_action_moves_o_to_coset0(zz):
    lvl = build_alphabet(zz, 1)
    p = marker_action(zz, 1, Seed(zz, (), marker_perm("(o p q)")))
    # o is the identity coset, letter index 0
    assert p(0) == lvl.p_index
    assert p(lvl.q_index) == 0


def test_marker_action_injective_per_level(zz):
    rng = random.Random(8)
    seen = {}
    for _ in range(40):
        m = random_marker_perm(rng)
        p = marker_action(zz, 2, Seed(zz, (), m))
        key = p.images.tobytes()
        if key in seen:
            assert seen[key] == m
        seen[key] = m


def test_actions_are_even(dinf):
    rng = random.Random(9)
    for _ in range(50):
        s = random_seed_elem(dinf, rng)
        n = rng.randrange(1, 4)
        # both actions state their sign; a fresh permutation of the same
        # images decomposes its cycles
        for p in (coset_action(dinf, n, s), marker_action(dinf, n, s)):
            assert p.sign == Perm(p.alphabet, p.images).sign == 1


def test_actions_are_homomorphisms(dinf):
    rng = random.Random(10)
    for _ in range(25):
        u = random_seed_elem(dinf, rng)
        v = random_seed_elem(dinf, rng)
        n = rng.randrange(1, 4)
        uv = u.mul(v)
        assert coset_action(dinf, n, uv) == compose(coset_action(dinf, n, u), coset_action(dinf, n, v))
        assert marker_action(dinf, n, uv) == compose(marker_action(dinf, n, u), marker_action(dinf, n, v))


def test_seed_group_laws(dinf):
    rng = random.Random(11)
    for _ in range(20):
        u = random_seed_elem(dinf, rng)
        assert seed_is_trivial(u.mul(u.inv()))
    u = Seed(dinf, parse_word(dinf, "t a"), marker_perm("(x y z)"))
    v = Seed(dinf, parse_word(dinf, "t"), marker_perm("(x y)(p q)"))
    w = u.mul(v)
    assert w.g == parse_word(dinf, "t a t")
    assert w.marker == compose(u.marker, v.marker)


def test_marker_perm_rejects_odd():
    with pytest.raises(ValueError):
        marker_perm("(x y)")


@pytest.mark.parametrize("text, error, message", [
    ("(x y)", ValueError, "marker permutations must be even"),
    ("(x w)", KeyError, "unknown letter 'w'"),
    ("(x y z", ValueError, "unexpected text '(x y z' in cycle notation"),
    ("(x y)(y z)", ValueError, "cycles are not disjoint"),
])
def test_marker_perm_keeps_no_error(text, error, message):
    """A bad spelling raises the same error each time it is read, and
    the memo of spellings does not keep it."""
    before = marker_perm.cache_info().currsize
    for _ in range(2):
        with pytest.raises(error, match=re.escape(message)):
            marker_perm(text)
    assert marker_perm.cache_info().currsize == before


def test_marker_perm_memo_is_bounded():
    """The memo keeps at most one spelling per even marker permutation
    (360), however many distinct spellings a session reads, and a
    spelling read again is the same object while it is kept."""
    assert marker_perm("(x y z)") is marker_perm("(x y z)")
    for k in range(1000):
        assert marker_perm("(x y z)" + " " * k) == marker_perm("(x y z)")
    assert marker_perm.cache_info().currsize <= 360
    assert marker_perm.cache_info().maxsize == 360


def test_seed_rejects_odd_composed_marker(dinf):
    odd = compose(marker_perm("(x y z)"), Perm.from_cycles(MARKER_ALPHABET, "(p q)"))
    assert odd.sign == -1
    with pytest.raises(ValueError, match="marker part must be even"):
        Seed(dinf, parse_word(dinf, "t"), odd)
    with pytest.raises(ValueError, match="marker part must be even"):
        Seed(dinf, (), odd.inverse())


@pytest.mark.parametrize(
    "selector",
    ["integers", "dihedral_infinite", "finite:5", "product:integers,dihedral_infinite",
     "product:integers,dihedral_infinite,finite:5"],
)
def test_seed_refuses_generator_indices_out_of_range(selector):
    oracle = oracle_from_selector(selector)
    n = len(oracle.gen_names)
    assert Seed(oracle, (0, n - 1)).g == (0, n - 1)
    for bad in ((n,), (-1,), (0, n), (n - 1, -1)):
        with pytest.raises(ValueError, match=rf"range\({n}\)"):
            Seed(oracle, bad)


def test_nontrivial_group_part_detected_in_chain(dinf, zz):
    # every nontrivial element of the radius-3 ball acts nontrivially on
    # the cosets at some level bounded by its word length
    for oracle in (dinf, zz):
        for w in ball_words(oracle, 3):
            if not w or oracle.is_identity(w):
                continue
            s = Seed(oracle, w)
            detected = [
                n for n in range(1, len(w) + 1)
                if not coset_action(oracle, n, s).is_identity
            ]
            assert detected, f"no level up to {len(w)} detected {w} in {oracle.name}"
