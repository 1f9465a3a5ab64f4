import contextlib
import hashlib
import io
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation

from branchgroups import cli, suites
from branchgroups.alphabet import Seed, build_alphabet, coset_action, marker_action, marker_perm, random_marker_perm
from branchgroups.perm import Perm, compose, random_even_perm
from branchgroups.resfin import DEFAULT_VERTEX_CAP, DihedralOracle, IntegerOracle, oracle_from_selector, parse_word
from branchgroups.suites import random_token
from branchgroups.treeauto import (
    CapExceeded,
    DirectedAut,
    FinitaryAut,
    ProductAut,
    Vertex,
    _base_column,
    _indices,
    _level_columns,
    _vertex,
    directed,
    embed_shift,
    equal_to_depth,
    eval_vertex,
    first_moved_level,
    identity_aut,
    invert,
    level_cycle_type,
    level_perm,
    nontrivial_children,
    nontrivial_vertex,
    portrait,
    portrait_dot,
    portrait_text,
    product,
    root_perm,
    rooted,
    section_at,
    vertex_count,
)
from branchgroups.wordcalc import format_token, letters_aut, normal_form, parse_tokens
from conftest import section, vertex_at


@pytest.fixture(scope="module")
def zz():
    return IntegerOracle()


@pytest.fixture(scope="module")
def dinf():
    return DihedralOracle()


def rng_seed_elem(oracle, rng, max_len=2):
    g = tuple(rng.randrange(len(oracle.gen_names)) for _ in range(rng.randrange(max_len + 1)))
    return Seed(oracle, g, random_marker_perm(rng))


def rand_token_aut(oracle, rng, level=0):
    lvl = build_alphabet(oracle, level + 1)
    if rng.random() < 0.5:
        return rooted(oracle, level, random_even_perm(lvl.alphabet, rng))
    return directed(oracle, rng_seed_elem(oracle, rng), level)


def rand_word_aut(oracle, rng, level=0, max_tokens=3):
    toks = [rand_token_aut(oracle, rng, level) for _ in range(rng.randrange(1, max_tokens + 1))]
    return product(toks, oracle=oracle, base_level=level)


def vx(oracle, base, *letters):
    return Vertex(base, tuple(letters))


def test_eval_identity(zz):
    v = vx(zz, 0, "x@1", "y@2")
    assert eval_vertex(identity_aut(zz), v) == v


def test_every_identity_is_the_empty_product(dinf):
    # the identity is the product of no factors, however it is made
    rng = random.Random(29)
    lvl = build_alphabet(dinf, 1)
    h = Seed(dinf, parse_word(dinf, "t"), marker_perm("(x y z)"))
    v = vx(dinf, 0, "x@1", "y@2")
    for level in (0, 1, 2):
        empty = ProductAut(dinf, level, ()).key()
        assert empty == ("pr", level, ())
        made = [
            identity_aut(dinf, level),
            rooted(dinf, level, Perm.identity(build_alphabet(dinf, level + 1).alphabet)),
            directed(dinf, Seed(dinf), level),
            directed(dinf, Seed(dinf, parse_word(dinf, "t t'")), level),
            product([], oracle=dinf, base_level=level),
            invert(identity_aut(dinf, level)),
        ]
        assert [e.key() for e in made] == [empty] * len(made)
    off = [idx for idx in range(lvl.size) if idx not in (lvl.x_index, lvl.y_index, lvl.z_index)]
    sigma = random_even_perm(lvl.alphabet, rng)
    for a in (directed(dinf, h, 0), rooted(dinf, 0, sigma)):
        for idx in off:
            assert section_at(a, idx).key() == ("pr", 1, ())
    assert embed_shift(v, identity_aut(dinf, 2)).key() == ("pr", 0, ())
    # identity factors fall out of a product
    for _ in range(5):
        a, b = rand_word_aut(dinf, rng), rand_word_aut(dinf, rng)
        assert product([a, identity_aut(dinf), b]).key() == product([a, b]).key()
    e = identity_aut(dinf)
    for depth in range(4):
        count = vertex_count(dinf, 0, depth)
        assert level_cycle_type(e, depth) == {1: count}
        assert level_perm(e, depth).is_identity
        w = vertex_at(dinf, 0, depth, rng.randrange(count))
        assert eval_vertex(e, w) == w
        rows = portrait_text(portrait(e, depth)).splitlines()[1:]
        assert len(rows) == sum(vertex_count(dinf, 0, d) for d in range(depth))
        assert all(row.endswith(" ()") for row in rows)


def test_eval_rooted(zz):
    lvl = build_alphabet(zz, 1)
    sigma = Perm.from_cycles(lvl.alphabet, "(q0@1 q1@1 x@1)")
    a = rooted(zz, 0, sigma)
    v = vx(zz, 0, "q0@1", "z@2")
    out = eval_vertex(a, v)
    assert out.letters[0] == "q1@1"
    assert out.letters[1] == "z@2"


def test_eval_directed_two_level_unfold(dinf):
    # below x then y, the grandchild letter moves by the coset action two
    # levels further down
    from branchgroups.alphabet import coset_action

    h = Seed(dinf, parse_word(dinf, "t"))
    a = directed(dinf, h, 0)
    lvl3 = build_alphabet(dinf, 3)
    v = vx(dinf, 0, "x@1", "y@2", "q0@3")
    out = eval_vertex(a, v)
    expected = coset_action(dinf, 3, h)(lvl3.alphabet.index("q0@3"))
    assert out.letters[:2] == v.letters[:2]
    assert lvl3.alphabet.index(out.letters[2]) == expected


def test_directed_stabilizes_level_one(dinf):
    rng = random.Random(3)
    for _ in range(10):
        h = rng_seed_elem(dinf, rng)
        assert root_perm(directed(dinf, h, 0)).is_identity


def test_section_cases(dinf):
    h = Seed(dinf, parse_word(dinf, "t"), marker_perm("(x y z)"))
    a = directed(dinf, h, 0)
    lvl = build_alphabet(dinf, 1)
    xsec = section_at(a, lvl.x_index)
    assert xsec.key() == directed(dinf, h, 1).key()
    ysec = section_at(a, lvl.y_index)
    from branchgroups.alphabet import coset_action

    assert root_perm(ysec) == coset_action(dinf, 2, h)
    csec = section_at(a, 0)
    assert root_perm(csec).is_identity
    # rooted automorphisms have trivial sections below level 1
    sigma = random_even_perm(lvl.alphabet, random.Random(4))
    assert section(rooted(dinf, 0, sigma), vx(dinf, 0, "x@1")).key() == identity_aut(dinf, 1).key()


def test_section_formula_random(dinf):
    rng = random.Random(5)
    lvl = build_alphabet(dinf, 1)
    for _ in range(20):
        alpha = rand_word_aut(dinf, rng)
        beta = rand_word_aut(dinf, rng)
        ab = product([alpha, beta])
        for idx in range(lvl.size):
            image = root_perm(beta)(idx)
            lhs = section_at(ab, idx)
            rhs = product([section_at(alpha, image), section_at(beta, idx)],
                          oracle=dinf, base_level=1)
            assert equal_to_depth(lhs, rhs, 4)


def test_deep_sections_satisfy_defining_property(dinf):
    # a(v + w) = a(v) + section(a, v)(w) for paths v of length 2, on
    # products of level-0 tokens at random paths and on products with
    # shifted factors at every path along nontrivial sections; per-vertex
    # evaluation checks the product rule of section()
    rng = random.Random(40)
    lvl1 = build_alphabet(dinf, 1)
    lvl2 = build_alphabet(dinf, 2)
    lvl3 = build_alphabet(dinf, 3)
    cases = []
    for _ in range(10):
        a = rand_word_aut(dinf, rng, max_tokens=3)
        v = vx(dinf, 0, lvl1.letter_at(rng.randrange(lvl1.size)), lvl2.letter_at(rng.randrange(lvl2.size)))
        cases.append((a, v))
    shifted = random.Random(43)
    for _ in range(20):
        a = rand_shifted_word_aut(dinf, shifted)
        for i, sec in nontrivial_children(a).items():
            cases += [(a, vx(dinf, 0, lvl1.letter_at(i), lvl2.letter_at(j))) for j in nontrivial_children(sec)]
    assert len(cases) > 20
    for a, v in cases:
        sec = section(a, v)
        head = eval_vertex(a, v)
        for idx in range(lvl3.size):
            tail = Vertex(2, (lvl3.letter_at(idx),))
            whole = Vertex(0, v.letters + tail.letters)
            expected = Vertex(0, head.letters + eval_vertex(sec, tail).letters)
            assert eval_vertex(a, whole) == expected


# The first-level wreath decomposition of an automorphism is its root
# permutation together with its section at every first-level letter.


def test_wreath_decompose_at_higher_base_level(dinf):
    rng = random.Random(41)
    h = rng_seed_elem(dinf, rng)
    a = directed(dinf, h, 2)
    assert root_perm(a).is_identity
    lvl = build_alphabet(dinf, 3)
    assert root_perm(a).alphabet == lvl.alphabet
    for idx in range(lvl.size):
        assert section_at(a, idx).base_level == 3
    assert nontrivial_children(a)[lvl.x_index].base_level == 3


def test_directed_is_homomorphism_small(dinf):
    rng = random.Random(6)
    for _ in range(10):
        u = rng_seed_elem(dinf, rng)
        v = rng_seed_elem(dinf, rng)
        lhs = directed(dinf, u.mul(v), 0)
        rhs = product([directed(dinf, u, 0), directed(dinf, v, 0)], oracle=dinf, base_level=0)
        assert equal_to_depth(lhs, rhs, 5)


def test_prefix_preservation(dinf):
    rng = random.Random(7)
    for _ in range(10):
        a = rand_word_aut(dinf, rng)
        v = vx(dinf, 0, "x@1", "z@2")
        w = Vertex(v.base_level, v.letters + ("q1@3",))
        assert eval_vertex(a, w).letters[:2] == eval_vertex(a, v).letters


def test_inverse_roundtrip(dinf):
    rng = random.Random(8)
    for _ in range(10):
        a = rand_word_aut(dinf, rng)
        assert equal_to_depth(product([a, invert(a)]), identity_aut(dinf), 4)


def test_level_perm_examples(zz):
    assert level_perm(identity_aut(zz), 0).alphabet.size == 1
    lvl = build_alphabet(zz, 1)
    sigma = Perm.from_cycles(lvl.alphabet, "(q0@1 q1@1)(p@1 q@1)")
    # the level-1 permutation of a rooted automorphism is its own
    # permutation, letter by letter (alphabets differ only in naming)
    p = level_perm(rooted(zz, 0, sigma), 1)
    for i in range(lvl.size):
        assert p(i) == sigma(i)


def test_level_perm_is_homomorphism(dinf):
    rng = random.Random(9)
    for _ in range(8):
        a = rand_word_aut(dinf, rng)
        b = rand_word_aut(dinf, rng)
        lhs = level_perm(product([a, b]), 2)
        rhs = compose(level_perm(a, 2), level_perm(b, 2))
        assert lhs == rhs


def test_level_perm_matches_eval_vertex(dinf):
    rng = random.Random(10)
    for _ in range(5):
        a = rand_word_aut(dinf, rng)
        p = level_perm(a, 2)
        n = vertex_count(dinf, 0, 2)
        for idx in rng.sample(range(n), 25):
            v = vertex_at(dinf, 0, 2, idx)
            w = eval_vertex(a, v)
            expected = vertex_at(dinf, 0, 2, p(idx))
            assert w == expected


# sha256 over level_perm(a, d).images (little-endian int64) for d = 1..4
# and 25 seeded raw token words per group, recorded with the earlier
# arange // stride % size construction of the index columns
_LEVEL_PERM_DIGESTS = {
    "dihedral_infinite": "f8ebbfca6c98325fe25b5ab6952717b31faed6185d9fae7212d208eff32cfce1",
    "integers": "c52bf9e11706a6e79fe20d2c7fa88690b7983076d3ea9e2512e5fa05f7585b05",
}


@pytest.mark.parametrize("oracle_cls", [DihedralOracle, IntegerOracle])
def test_level_perm_digest_and_eval_vertex(oracle_cls):
    oracle = oracle_cls()
    rng = random.Random(2024)
    check = random.Random(7)
    h = hashlib.sha256()
    for _ in range(25):
        tseq = [random_token(oracle, rng) for _ in range(rng.randrange(1, 5))]
        a = letters_aut(oracle, 0, tseq)
        for d in range(1, 5):
            p = level_perm(a, d)
            h.update(p.images.astype("<i8").tobytes())
            for idx in check.sample(range(p.alphabet.size), min(4, p.alphabet.size)):
                v = vertex_at(oracle, 0, d, idx)
                assert eval_vertex(a, v) == vertex_at(oracle, 0, d, p(idx))
    assert h.hexdigest() == _LEVEL_PERM_DIGESTS[oracle.name]


def rand_shifted_word_aut(oracle, rng):
    """A product of level-0 tokens and tokens shifted below random
    vertices of depth 1 or 2."""
    factors = []
    for _ in range(rng.randrange(2, 5)):
        k = rng.randrange(3)
        factors.append(embed_shift(_random_vertex(oracle, rng, k), rand_token_aut(oracle, rng, level=k)))
    return product(factors, oracle=oracle, base_level=0)


def _random_vertex(oracle, rng, depth):
    return Vertex(0, tuple(
        build_alphabet(oracle, i + 1).letter_at(rng.randrange(build_alphabet(oracle, i + 1).size))
        for i in range(depth)
    ))


@pytest.mark.parametrize("oracle_cls", [DihedralOracle, IntegerOracle])
def test_level_perm_shifted_matches_eval_vertex(oracle_cls):
    oracle = oracle_cls()
    rng = random.Random(13)
    n = vertex_count(oracle, 0, 3)
    for _ in range(4):
        a = rand_shifted_word_aut(oracle, rng)
        p = level_perm(a, 3)
        for idx in rng.sample(range(n), min(n, 400)):
            v = vertex_at(oracle, 0, 3, idx)
            assert eval_vertex(a, v) == vertex_at(oracle, 0, 3, p(idx))


def test_level_perm_cap():
    # the folds of levels 1 to 3 stay within the cap, while level 3 has
    # 9 * 17 * 29 vertices
    oracle = oracle_from_selector("dihedral_infinite", vertex_cap=1000)
    a = directed(oracle, Seed(oracle, parse_word(oracle, "t")), 0)
    with pytest.raises(CapExceeded, match="level 3 has 4437 vertices, beyond the cap of 1000") as perm_exc:
        level_perm(a, 3)
    with pytest.raises(CapExceeded) as moved_exc:
        first_moved_level(a, 3)
    assert str(moved_exc.value) == str(perm_exc.value)
    assert level_perm(a, 2).alphabet.size == 153


CYCLE_TYPE_GROUPS = ("dihedral_infinite", "integers", "product:integers,integers")


def _cycle_type_words(oracle, rng):
    """Seed letters with and without the identity marker, rooted letters,
    and 2-4-token products whose root permutation has a cycle longer than
    1, so that the recursion takes sections of powers."""
    lvl = build_alphabet(oracle, 1)
    words = []
    for _ in range(2):
        h = rng_seed_elem(oracle, rng)
        words.append(directed(oracle, Seed(oracle, h.g), 0))
        words.append(directed(oracle, h, 0))
        words.append(rooted(oracle, 0, random_even_perm(lvl.alphabet, rng)))
    products = 0
    while products < 4:
        toks = [rand_token_aut(oracle, rng) for _ in range(rng.randrange(2, 5))]
        a = product(toks, oracle=oracle, base_level=0)
        if any(len(c) > 1 for c in root_perm(a).cycles()) and nontrivial_children(a):
            words.append(a)
            products += 1
    return words


def _expand(counts):
    return tuple(sorted(length for length, m in counts.items() for _ in range(m)))


@pytest.mark.parametrize("group", CYCLE_TYPE_GROUPS)
def test_level_cycle_type_matches_level_perm(group):
    oracle = oracle_from_selector(group)
    for a in _cycle_type_words(oracle, random.Random(f"cycle-type/{group}")):
        for d in range(1, 5):
            # the product group's level 4 has 198 206 505 vertices
            if vertex_count(oracle, 0, d) > 600_000:
                continue
            counts = level_cycle_type(a, d)
            assert sum(length * m for length, m in counts.items()) == vertex_count(oracle, 0, d)
            assert _expand(counts) == level_perm(a, d).cycle_type()


@pytest.mark.parametrize("group", CYCLE_TYPE_GROUPS)
def test_level_cycle_type_matches_sympy(group):
    oracle = oracle_from_selector(group)
    for a in _cycle_type_words(oracle, random.Random(f"sympy/{group}")):
        for d in range(1, 4):
            # sympy's cycle_structure takes seconds on the product group's
            # 54 981 level-3 vertices, which the level_perm test covers
            if vertex_count(oracle, 0, d) > 5_000:
                continue
            ref = Permutation(level_perm(a, d).images.tolist())
            assert level_cycle_type(a, d) == ref.cycle_structure


def test_level_cycle_type_shifted(dinf):
    # a rooted 3-cycle shifted below y@1 moves level-2 vertices below y@1 only
    lvl2 = build_alphabet(dinf, 2)
    inner = rooted(dinf, 1, Perm.from_cycles(lvl2.alphabet, "(q0@2 q1@2 q2@2)"))
    a = embed_shift(vx(dinf, 0, "y@1"), inner)
    assert level_cycle_type(a, 2) == {1: 150, 3: 1}
    assert _expand(level_cycle_type(a, 3)) == level_perm(a, 3).cycle_type()


def _wp_oracle_cases(oracle):
    """Automorphisms first moved on levels 1, 2 and 3, with that level."""
    lvl = build_alphabet(oracle, 1)
    h = Seed(oracle, (), marker_perm("(x y z)"))
    return [
        (rooted(oracle, 0, Perm.from_cycles(lvl.alphabet, "(x@1 y@1 z@1)")), 1),
        (directed(oracle, h, 0), 2),
        (embed_shift(vx(oracle, 0, "x@1"), directed(oracle, h, 1)), 3),
    ]


def _first_moved_auts(oracle, rng):
    """Rooted, directed, shifted and product automorphisms, trivial
    products u u^-1, and automorphisms first moved on levels 1, 2 and 3."""
    auts = [identity_aut(oracle)] + [a for a, _ in _wp_oracle_cases(oracle)]
    for _ in range(3):
        u = rand_shifted_word_aut(oracle, rng)
        auts += [
            rand_word_aut(oracle, rng),
            u,
            product([u, invert(u)], oracle=oracle, base_level=0),
            product([invert(u), u], oracle=oracle, base_level=0),
        ]
    return auts


@pytest.mark.parametrize("group", CYCLE_TYPE_GROUPS)
def test_first_moved_level_matches_level_perm(group):
    oracle = oracle_from_selector(group)
    # level 4 of the product group has 198 206 505 vertices
    depth = max(d for d in range(1, 5) if vertex_count(oracle, 0, d) <= 600_000)
    seen = set()
    for a in _first_moved_auts(oracle, random.Random(f"first-moved/{group}")):
        moved = [d for d in range(1, depth + 1) if not level_perm(a, d).is_identity]
        want = min(moved, default=None)
        for d in range(depth + 1):
            assert first_moved_level(a, d) == (want if moved and want <= d else None)
        seen.add(want)
    assert {None, 1, 2, 3} <= seen


def _int64_columns(a, depth):
    """The column pass as it was written with int64 columns tiled afresh
    for every call: the image columns of ``a`` on levels 1..``depth``."""
    cols, count = [], 1
    for i in range(depth):
        letters = build_alphabet(a.oracle, a.base_level + i + 1).identity_images
        cols.append(np.tile(letters, count))
        count *= len(letters)
    return _int64_apply(a, cols)


def _int64_apply(a, cols):
    if not cols:
        return cols
    if isinstance(a, FinitaryAut):
        if len(cols) > 1:
            for letter, inner in a.sections.items():
                mask = cols[0] == letter
                if mask.any():
                    _int64_below(inner, mask, cols[1:])
        cols[0] = a.perm.images[cols[0]]
    elif isinstance(a, ProductAut):
        for f in reversed(a.factors):
            cols = _int64_apply(f, cols)
    elif isinstance(a, DirectedAut) and len(cols) > 1:
        lvl = build_alphabet(a.oracle, a.base_level + 1)
        first = cols[0]
        mask = first == lvl.x_index
        if mask.any():
            _int64_below(DirectedAut(a.oracle, a.base_level + 1, a.seed), mask, cols[1:])
        rows = cols[1].reshape(len(first), -1)
        for letter, action in ((lvl.y_index, coset_action), (lvl.z_index, marker_action)):
            mask = first == letter
            if mask.any():
                rows[mask] = action(a.oracle, a.base_level + 2, a.seed).images[rows[mask]]
    return cols


def _int64_below(inner, mask, cols):
    rows = [c.reshape(len(mask), -1) for c in cols]
    sub = _int64_apply(inner, [r[mask].ravel() for r in rows])
    for r, s in zip(rows, sub):
        r[mask] = s.reshape(-1, r.shape[1])


def _int64_level_perm(a, depth):
    images = np.zeros(1, dtype=np.int64)
    for c in _int64_columns(a, depth):
        s = len(c) // len(images)
        images = np.repeat(images, s) * s + c
    return images


def _int64_first_moved_level(a, depth):
    for d, col in enumerate(_int64_columns(a, depth), 1):
        letters = build_alphabet(a.oracle, a.base_level + d).identity_images
        if (col.reshape(-1, len(letters)) != letters).any():
            return d
    return None


@pytest.mark.parametrize("group, depth, dtype", [("finite:300", 2, np.uint16), ("finite:70000", 1, np.uint32)])
def test_wide_alphabets_match_the_int64_column_pass(group, depth, dtype):
    """Letters past 255 and 65 535 keep their values in two- and four-byte
    columns: rooted, directed and ``u u^-1`` product automorphisms."""
    oracle = oracle_from_selector(group)
    rng = random.Random(f"wide/{group}")
    lvl = build_alphabet(oracle, 1)
    rot = rooted(oracle, 0, random_even_perm(lvl, rng))
    last = rooted(oracle, 0, Perm.from_cycles(lvl, f"(q0@1 q@1 q{lvl.size - 7}@1)"))
    seed = directed(oracle, Seed(oracle, (0, 0, 0), marker_perm("(x z)(y o)")), 0)
    u = product([rot, seed, last, seed], oracle=oracle, base_level=0)
    for a in (rot, last, seed, u, product([u, invert(u)], oracle=oracle, base_level=0)):
        for d in range(depth + 1):
            images = level_perm(a, d).images
            assert np.array_equal(images, _int64_level_perm(a, d))
            assert first_moved_level(a, d) == _int64_first_moved_level(a, d)
    assert {_base_column(oracle, 0, d).dtype for d in range(1, depth + 1)} == {np.dtype(dtype)}


@pytest.mark.parametrize("group", CYCLE_TYPE_GROUPS)
def test_shared_base_columns_stay_identity_columns(group):
    """The identity columns are built once per oracle and level, stay
    read-only, and still equal fresh tiles after moving automorphisms ran
    through both column passes; the image columns keep their type."""
    oracle = oracle_from_selector(group, vertex_cap=600_000)
    depth = max(d for d in range(1, 5) if vertex_count(oracle, 0, d) <= oracle.vertex_cap)
    for a in _first_moved_auts(oracle, random.Random(f"base-columns/{group}")):
        first_moved_level(a, depth)
        level_perm(a, depth)
        bases, cols = _level_columns(a, depth)
        assert [c.dtype for c in cols] == [c.dtype for c in bases]
    cached = {k: v for k, v in oracle.cache.items() if k[0] == "base_column"}
    assert sorted(cached) == [("base_column", 0, d) for d in range(1, depth + 1)]
    for (_, _, d), col in cached.items():
        size = build_alphabet(oracle, d).size
        fresh = np.tile(np.arange(size, dtype=np.min_scalar_type(size - 1)), vertex_count(oracle, 0, d - 1))
        assert not col.flags.writeable
        # equal values of one type are equal bytes
        assert col.dtype == fresh.dtype and np.array_equal(col, fresh)
        assert _base_column(oracle, 0, d) is col


def test_trivial_product_checks_depth_4_in_byte_columns(dinf):
    """Once its levels are built, checking a trivial product on dihedral
    level 4 (554 625 vertices of 125 letters) copies byte columns: its
    peak stays under 1.5 MB, against 4.9 MB with int64 columns tiled
    afresh."""
    u = rand_shifted_word_aut(dinf, random.Random(4))
    a = product([u, invert(u)], oracle=dinf, base_level=0)
    assert first_moved_level(a, 4) is None
    tracemalloc.start()
    try:
        assert first_moved_level(a, 4) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vertex_count(dinf, 0, 4) == 554_625
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize("group", ["dihedral_infinite", "integers"])
def test_semantic_wp_oracle_rejects_a_disagreeing_search(group, monkeypatch):
    oracle = oracle_from_selector(group)
    search = suites.nontrivial_vertex
    for a, level in _wp_oracle_cases(oracle):
        assert search(a, 4).depth == level
        assert suites.semantic_wp_oracle(oracle, a, 4) is False
        # a witness below the levels within the cap is not compared; the
        # cap is lowered once the search's levels are built
        oracle.vertex_cap = vertex_count(oracle, 0, level - 1)
        assert suites.semantic_wp_oracle(oracle, a, 4) is False
        oracle.vertex_cap = DEFAULT_VERTEX_CAP

        # the search misses a moved automorphism
        monkeypatch.setattr(suites, "nontrivial_vertex", lambda aut, depth: None)
        with pytest.raises(AssertionError, match=f"at depth {level} disagrees"):
            suites.semantic_wp_oracle(oracle, a, 4)

        # the search returns a moved vertex one level too deep: every
        # child of a moved vertex is moved
        def deeper(aut, depth):
            v = search(aut, depth)
            return Vertex(v.base_level, v.letters + (build_alphabet(oracle, v.depth + 1).letter_at(0),))

        assert eval_vertex(a, deeper(a, 4)) != deeper(a, 4)
        monkeypatch.setattr(suites, "nontrivial_vertex", deeper)
        with pytest.raises(AssertionError, match=f"at depth {level} disagrees"):
            suites.semantic_wp_oracle(oracle, a, 4)
        monkeypatch.setattr(suites, "nontrivial_vertex", search)


@pytest.mark.parametrize("group", ["dihedral_infinite", "integers"])
def test_semantic_wp_oracle_builds_levels_down_to_the_witness(group, monkeypatch):
    oracle = oracle_from_selector(group)
    bounds = []

    def spy(aut, depth):
        bounds.append(depth)
        return first_moved_level(aut, depth)

    monkeypatch.setattr(suites, "first_moved_level", spy)
    # every level of depth 4 is within the default cap
    assert suites.semantic_wp_oracle(oracle, identity_aut(oracle), 4) is True
    assert bounds.pop() == 4
    for a, level in _wp_oracle_cases(oracle):
        assert suites.semantic_wp_oracle(oracle, a, 4) is False
        assert bounds.pop() == level
        # the witness lies below the levels within the cap
        oracle.vertex_cap = vertex_count(oracle, 0, level - 1)
        assert suites.semantic_wp_oracle(oracle, a, 4) is False
        oracle.vertex_cap = DEFAULT_VERTEX_CAP
        assert bounds.pop() == level - 1
        # the witness lies below the decision depth
        assert suites.semantic_wp_oracle(oracle, a, level - 1) is True
        assert bounds.pop() == level - 1


@pytest.mark.parametrize("group", CYCLE_TYPE_GROUPS)
def test_children_are_memoized_per_node(group):
    """A node's children are computed once, and agree with a fresh equal
    node and with the node's level-3 permutation, which is computed
    without sections: a(x w) = a(x) a|x(w)."""
    oracle = oracle_from_selector(group)
    rng = random.Random(f"children/{group}")
    size = build_alphabet(oracle, 1).size
    below = vertex_count(oracle, 1, 2)
    auts = _first_moved_auts(oracle, rng) + [rand_shifted_word_aut(oracle, rng) for _ in range(3)]
    for a in auts:
        children = nontrivial_children(a)
        assert nontrivial_children(a) is children
        fresh = invert(invert(a))
        assert fresh is a or fresh._children is None
        assert {x: c.key() for x, c in children.items()} == {
            x: c.key() for x, c in nontrivial_children(fresh).items()
        }
        images = level_perm(a, 3).images.reshape(size, below)
        root = root_perm(a)
        for x in range(size):
            sec = section_at(a, x)
            assert sec.key() == section_at(fresh, x).key()
            want = images[x] - root(x) * below
            assert (level_perm(sec, 2).images == want).all()


def test_nontrivial_vertex_witness_is_moved(dinf):
    rng = random.Random(11)
    found = 0
    for _ in range(20):
        a = rand_word_aut(dinf, rng)
        w = nontrivial_vertex(a, 4)
        if w is not None:
            found += 1
            assert eval_vertex(a, w) != w
    assert found > 0


def test_equal_to_depth_detects_difference(dinf):
    h = Seed(dinf, (), marker_perm("(x y z)"))
    a = directed(dinf, h, 0)
    assert not equal_to_depth(a, identity_aut(dinf), 2)
    d = nontrivial_vertex(a, 2)
    assert d is not None and d.depth == 2
    assert d.letters[0] == "z@1"


def _equal_by_product(a, b, depth):
    """Depth-bounded equality as first defined: ``b^-1 a`` moves no
    vertex of depth at most ``depth``."""
    return nontrivial_vertex(product([invert(b), a]), depth) is None


@pytest.fixture(scope="module")
def cycle_type_oracles():
    return {group: oracle_from_selector(group) for group in CYCLE_TYPE_GROUPS}


@given(
    group=st.sampled_from(CYCLE_TYPE_GROUPS),
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(0, 4),
)
@settings(max_examples=40)
def test_pair_walk_matches_the_product_definition(cycle_type_oracles, group, seed, d):
    """``equal_to_depth`` agrees with the product definition in both
    orders: on a pair that agrees down to exactly depth ``d`` (a 3-cycle
    of letters shifted below a random vertex of depth ``d``), and on
    pairs where only one side has a section at some first-level letter,
    once moving and once cancelled."""
    oracle = cycle_type_oracles[group]
    rng = random.Random(seed)
    a = rand_shifted_word_aut(oracle, rng) if rng.random() < 0.5 else rand_word_aut(oracle, rng)
    lvl = build_alphabet(oracle, d + 1)
    cycle = " ".join(lvl.letter_at(i) for i in rng.sample(range(lvl.size), 3))
    moving = rooted(oracle, d, Perm.from_cycles(lvl, f"({cycle})"))
    exact = product([a, embed_shift(_random_vertex(oracle, rng, d), moving)])
    assert equal_to_depth(a, exact, d) and not equal_to_depth(a, exact, d + 1)
    pairs = [exact]
    lvl1 = build_alphabet(oracle, 1)
    free = [x for x in range(lvl1.size) if x not in nontrivial_children(a)]
    if free:
        below = Vertex(0, (lvl1.letter_at(rng.choice(free)),))
        t = rand_token_aut(oracle, rng, level=1)
        pairs += [
            product([a, embed_shift(below, t)]),
            product([a, embed_shift(below, t), embed_shift(below, invert(t))]),
        ]
    for b in pairs:
        for x, y in ((a, b), (b, a)):
            for depth in range(d + 3):
                assert equal_to_depth(x, y, depth) == _equal_by_product(x, y, depth)


def test_equal_to_depth_refuses_mismatched_automorphisms(dinf):
    """Automorphisms at different base levels or of different oracles are
    refused, as the product of the one side with the other's inverse
    refuses them."""
    h = Seed(dinf, parse_word(dinf, "t"), marker_perm("(x y z)"))
    other = DihedralOracle()
    foreign = directed(other, Seed(other, parse_word(other, "t"), marker_perm("(x y z)")), 0)
    for depth in range(1, 4):
        with pytest.raises(ValueError):
            equal_to_depth(directed(dinf, h, 0), directed(dinf, h, 1), depth)
        with pytest.raises(ValueError):
            equal_to_depth(directed(dinf, h, 0), foreign, depth)
        with pytest.raises(ValueError):
            equal_to_depth(foreign, directed(dinf, h, 0), depth)


def test_vertex_evaluation_takes_sections_only_above_the_last_letter(dinf):
    """Evaluating a depth-1 vertex reads roots only: a fresh directed
    factor builds no children until a deeper vertex is evaluated."""
    lvl = build_alphabet(dinf, 1)
    d = directed(dinf, Seed(dinf, parse_word(dinf, "t"), marker_perm("(x y z)")), 0)
    a = product([rooted(dinf, 0, Perm.from_cycles(lvl, "(x@1 y@1 z@1)")), d])
    assert eval_vertex(a, vx(dinf, 0, "x@1")) == vx(dinf, 0, "y@1")
    assert d._children is None
    assert eval_vertex(a, vx(dinf, 0, "q0@1", "x@2")) == vx(dinf, 0, "q0@1", "x@2")
    assert d._children is not None


def test_product_composes_adjacent_rooted_factors(dinf):
    """Adjacent finitary factors without sections compose into one, an
    identity composite is dropped, and directed factors and finitary
    factors with sections stay where they are; the product acts as the
    uncomposed one."""
    lvl = build_alphabet(dinf, 1)
    r1 = rooted(dinf, 0, Perm.from_cycles(lvl, "(x@1 y@1 z@1)"))
    r2 = rooted(dinf, 0, Perm.from_cycles(lvl, "(q0@1 x@1 q1@1)"))
    h = Seed(dinf, parse_word(dinf, "t"), marker_perm("(x y z)"))
    d = directed(dinf, h, 0)
    s = embed_shift(vx(dinf, 0, "x@1"), directed(dinf, h, 1))
    factors = [r1, r2, d, r1, invert(r1), s, r2, invert(r2), r1, r2]
    got = product([r1, r2, d, r1, invert(r1), s, product([r2, invert(r2), r1]), r2])
    r12 = compose(r1.perm, r2.perm)
    assert isinstance(got, ProductAut) and len(got.factors) == 4
    assert got.factors[1] is d and got.factors[2] is s
    for f in (got.factors[0], got.factors[3]):
        assert isinstance(f, FinitaryAut) and not f.sections and f.perm == r12
    assert level_perm(got, 3) == level_perm(ProductAut(dinf, 0, factors), 3)
    assert product([r1, invert(r1)]).key() == identity_aut(dinf).key()
    assert product([r1, r2]).key() == rooted(dinf, 0, r12).key()
    # the sections of d d^-1 at y and z are rooted pairs that cancel
    assert set(nontrivial_children(product([d, invert(d)]))) == {lvl.x_index}


def _walked_rows(a, depth):
    """``(vertex, parent path text, root permutation of the section)`` of
    every vertex above ``depth``, breadth-first in letter-index order,
    with ``None`` as the root's parent; each section is walked from the
    root one letter at a time."""
    oracle, base = a.oracle, a.base_level
    vertices = [vertex_at(oracle, base, d, i) for d in range(depth) for i in range(vertex_count(oracle, base, d))]
    return [
        (v, str(Vertex(base, v.letters[:-1])) if v.depth else None, root_perm(section(a, v)))
        for v in vertices
    ]


def test_portrait_directed_marker(dinf):
    # the seed with marker (x y z): depth-2 portrait has the 3-cycle at z1
    h = Seed(dinf, (), marker_perm("(x y z)"))
    a = directed(dinf, h, 0)
    p = portrait(a, 2)
    assert p.labels[Vertex(0)].is_identity
    z1 = Vertex(0, ("z@1",))
    lvl2 = build_alphabet(dinf, 2)
    assert p.labels[z1] == Perm.from_cycles(lvl2.alphabet, "(x@2 y@2 z@2)")
    x1 = Vertex(0, ("x@1",))
    assert p.labels[x1].is_identity
    # labels run in row order, each the root permutation of the section
    # walked from the root
    rows = _walked_rows(a, 2)
    assert [str(perm) for perm in p.labels.values()] == [str(perm) for _, _, perm in rows]
    assert list(p.labels) == [v for v, _, _ in rows]


def test_portrait_identity_and_text(zz):
    p = portrait(identity_aut(zz), 2)
    assert all(perm.is_identity for perm in p.labels.values())
    text = portrait_text(p)
    lines = text.splitlines()
    assert lines[0] == "portrait depth=2"
    assert lines[1] == "- ()"
    assert len(lines) == 1 + 1 + build_alphabet(zz, 1).size
    dot = portrait_dot(p)
    assert dot.startswith("digraph portrait {") and dot.endswith("}")


@pytest.mark.parametrize("group", ["dihedral_infinite", "integers"])
def test_finitary_node_with_a_moving_root_and_sections(group):
    """No constructor builds a finitary node whose root moves the letters
    it has sections below: one built directly inverts to the identity,
    and its column pass, cycle type, vertex evaluation and portrait
    agree, also after a moving root has sent its sectioned letters to
    other positions of the first column."""
    oracle = oracle_from_selector(group)
    lvl1, lvl2 = build_alphabet(oracle, 1), build_alphabet(oracle, 2)
    below_x = rooted(oracle, 1, Perm.from_cycles(lvl2, "(x@2 z@2 q0@2)"))
    below_y = directed(oracle, Seed(oracle, parse_word(oracle, "t"), marker_perm("(x y z)")), 1)
    root = Perm.from_cycles(lvl1, "(x@1 y@1)")
    a = FinitaryAut(oracle, 0, root, {lvl1.x_index: below_x, lvl1.y_index: below_y})
    # the key tells nodes apart by their sections, as the walk's
    # deduplication needs
    assert a.key() != FinitaryAut(oracle, 0, root, {lvl1.x_index: below_y, lvl1.y_index: below_x}).key()
    assert equal_to_depth(product([invert(a), a]), identity_aut(oracle), 4)
    n = vertex_count(oracle, 0, 3)
    first = rooted(oracle, 0, Perm.from_cycles(lvl1, "(x@1 z@1 q0@1)"))
    # the conjugate fixes the first level: level 2 is the first it moves
    conjugate = product([invert(first), rooted(oracle, 0, root.inverse()), a, first])
    assert root_perm(conjugate).is_identity
    for b in (a, product([a, first]), conjugate):
        p = level_perm(b, 3)
        assert np.array_equal(p.images, _int64_level_perm(b, 3))
        assert _expand(level_cycle_type(b, 3)) == p.cycle_type()
        assert [eval_vertex(b, vertex_at(oracle, 0, 3, i)) for i in range(n)] == [
            vertex_at(oracle, 0, 3, p(i)) for i in range(n)]
        moved = [d for d in range(1, 4) if not level_perm(b, d).is_identity]
        assert first_moved_level(b, 3) == min(moved) == (2 if b is conjugate else 1)
        assert list(portrait(b, 3).labels.items()) == [(v, perm) for v, _, perm in _walked_rows(b, 3)]


PORTRAIT_GROUPS = ("dihedral_infinite", "integers", "product:integers,finite:2")


@pytest.fixture(scope="module")
def portrait_oracles():
    return {group: oracle_from_selector(group) for group in PORTRAIT_GROUPS}


@given(
    group=st.sampled_from(PORTRAIT_GROUPS),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 4),
    depth=st.integers(0, 4),
)
@settings(max_examples=40)
def test_portrait_rows_match_sections_walked_from_the_root(portrait_oracles, tmp_path_factory, group, seed, length, depth):
    oracle = portrait_oracles[group]
    rng = random.Random(seed)
    tokens = [random_token(oracle, rng) for _ in range(length)]
    a = letters_aut(oracle, 0, tokens)
    p = portrait(a, depth)
    walked = _walked_rows(a, depth)
    vertices = [v for v, _, _ in walked]
    rows = [(str(v), parent, str(perm)) for v, parent, perm in walked]
    # breadth-first in letter-index order: shallow levels first, each
    # level in the lexicographic order of its letter indices
    assert [path for texts in p.level_texts() for path in texts] == [str(v) for v in vertices]
    assert list(p.labels) == vertices
    # each label is the root permutation of the section at the row's
    # path, reached from the root one letter at a time
    assert [p.section_labels[s] for ids in p.levels for s in ids] == [label for _, _, label in rows]
    # every view of the portrait agrees with the rows
    assert [(v, str(perm)) for v, perm in p.labels.items()] == [(v, label) for v, (_, _, label) in zip(vertices, rows)]
    assert list(p.labels.items()) == [(v, perm) for v, _, perm in walked]
    assert portrait_text(p) == "\n".join([f"portrait depth={depth}"] + [f"{path} {label}" for path, _, label in rows])
    assert portrait_dot(p) == "\n".join(
        ["digraph portrait {"]
        + [f'  "{path}" [label="{label}"];' for path, _, label in rows]
        + [f'  "{parent}" -> "{path}";' for path, parent, _ in rows if parent is not None]
        + ["}"]
    )
    # the CLI portrays the normal form of the same word, which acts alike
    word_file = tmp_path_factory.mktemp("portrait") / "w.txt"
    word_file.write_text(" ".join(format_token(kind, payload) for kind, payload in tokens))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--group", group, "--format", "json", "portrait", str(word_file), "--depth", str(depth)]) == 0
    vertices_json = [{"path": path, "label": label} for path, _, label in rows]
    payload = {"schema": cli.SCHEMA, "command": "portrait", "depth": depth, "vertices": vertices_json}
    assert out.getvalue() == json.dumps(payload, sort_keys=True) + "\n"


def test_portrait_memory_grows_with_its_text():
    # 20 006 rows, all but a few labeled by the identity, so the peak
    # shows what a vertex costs beyond its own line of text.  A portrait
    # that built a path tuple, a (path, perm) pair and a row per vertex
    # peaked at 21 times the text
    oracle = oracle_from_selector("finite:20000")
    a = normal_form(oracle, parse_tokens(oracle, "H(t|(x y z)) B((q0@1 x@1 y@1))")).to_aut()
    portrait_text(portrait(a, 2))  # the oracle's levels and actions, built once
    tracemalloc.start()
    try:
        text = portrait_text(portrait(a, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (text.count("\n"), len(text)) == (20_006, 397_867)
    assert peak < 15 * len(text)


def test_wreath_decompose_roundtrip(dinf):
    rng = random.Random(12)
    lvl = build_alphabet(dinf, 1)
    for _ in range(6):
        a = rand_word_aut(dinf, rng)
        root = root_perm(a)
        children = nontrivial_children(a)
        shifts = [embed_shift(Vertex(0, (lvl.letter_at(idx),)), sec) for idx, sec in children.items()]
        recomposed = product([rooted(dinf, 0, root)] + shifts if not root.is_identity else shifts,
                             oracle=dinf, base_level=0)
        assert equal_to_depth(a, recomposed, 3)
        for idx in range(lvl.size):
            if idx not in children:
                assert section_at(a, idx).key() == identity_aut(dinf, 1).key()


def test_wreath_decompose_directed(dinf):
    h = Seed(dinf, parse_word(dinf, "t"), marker_perm("(x y z)"))
    a = directed(dinf, h, 0)
    assert root_perm(a).is_identity
    lvl = build_alphabet(dinf, 1)
    assert section_at(a, lvl.x_index).key() == directed(dinf, h, 1).key()
    for idx in range(lvl.size):
        if idx not in (lvl.x_index, lvl.y_index, lvl.z_index):
            assert section_at(a, idx).key() == identity_aut(dinf, 1).key()


def test_embed_shift(dinf):
    h = Seed(dinf, (), marker_perm("(o p q)"))
    inner = directed(dinf, h, 2)
    v = vx(dinf, 0, "x@1", "x@2")
    a = embed_shift(v, inner)
    # inside the subtree: acts as inner
    w = Vertex(v.base_level, v.letters + ("x@3",))
    assert eval_vertex(a, w).letters == w.letters
    deep = Vertex(0, v.letters + ("z@3", "q0@4"))
    out = eval_vertex(a, deep)
    assert out.letters[:3] == deep.letters[:3]
    assert out != deep  # marker action moves the identity coset
    # outside: fixed
    other = vx(dinf, 0, "y@1", "x@2", "x@3")
    assert eval_vertex(a, other) == other
    # identity inner collapses
    assert embed_shift(v, identity_aut(dinf, 2)).key() == identity_aut(dinf, 0).key()


def test_embed_shift_level_mismatch(dinf):
    with pytest.raises(ValueError):
        embed_shift(Vertex(0, ("x@1",)), identity_aut(dinf, 3))


def test_eval_level_mismatch(dinf):
    with pytest.raises(ValueError):
        eval_vertex(identity_aut(dinf, 1), Vertex(0, ("x@1",)))


def test_vertex_breaking_the_level_run_is_rejected(dinf):
    # a Vertex is built unchecked; the functions taking a caller's path
    # look each label up in the alphabet of its position's level, and a
    # label from another level or from no level, or an unhashable one
    # that no alphabet could hold, is a ValueError
    h = Seed(dinf, parse_word(dinf, "t"))
    for bad in (Vertex(0, ("x@2",)), Vertex(0, ("w@1",)), Vertex(0, (["x@1"],))):
        for a in (identity_aut(dinf), directed(dinf, h, 0)):
            with pytest.raises(ValueError):
                eval_vertex(a, bad)
            with pytest.raises(ValueError):
                section(a, bad)
        for inner in (identity_aut(dinf, 1), directed(dinf, h, 1)):
            with pytest.raises(ValueError):
                embed_shift(bad, inner)


@pytest.mark.parametrize("group", CYCLE_TYPE_GROUPS)
def test_vertex_labels_round_trip_letter_indices(group):
    oracle = oracle_from_selector(group)
    rng = random.Random(f"round-trip/{group}")
    sizes = [build_alphabet(oracle, n).size for n in (1, 2, 3)]
    for _ in range(50):
        path = tuple(rng.randrange(s) for s in sizes[: rng.randrange(4)])
        v = _vertex(oracle, 0, path)
        assert all(isinstance(label, str) for label in v.letters)
        assert _indices(oracle, v) == path


@pytest.mark.parametrize("group", CYCLE_TYPE_GROUPS)
def test_level_label_rule_parses_exactly_what_it_writes(group):
    """Every label reads back as its index, and nothing else reads: not a
    coset number with a leading zero, a sign or non-ASCII digits (``int()``
    takes Arabic-Indic digits; ``isdigit()`` takes superscripts, which
    ``int()`` refuses), not a wrong case, level or coset number, not the
    marker symbol o, and no text without a letter.  A label that is not a
    string raises ``KeyError`` or ``TypeError``, as :func:`_indices`
    expects."""
    oracle = oracle_from_selector(group)
    for n in (1, 2, 3):
        lvl = build_alphabet(oracle, n)
        assert [lvl.index(lvl.label(i)) for i in range(lvl.size)] == list(range(lvl.size))
        heads = ["q03", "q00", "q٣", "q١", "q²", "q-1", "q+1", "Q1", f"q{lvl.quotient.order}", "o", ""]
        for bad in [f"{h}@{n}" for h in heads] + [f"q1@0{n}", f"x@{n + 1}", "x", ""]:
            with pytest.raises(KeyError) as err:
                lvl.index(bad)
            assert err.value.args == (f"unknown letter {bad!r}",)
        for bad in (["x@1"], None, 1):
            with pytest.raises((KeyError, TypeError)):
                lvl.index(bad)
