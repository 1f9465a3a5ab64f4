import math
import random
import re
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from branchgroups import perm as perm_module
from branchgroups.perm import (
    IndexedAlphabet,
    Perm,
    PreconditionError,
    check_alternating_generation,
    compose,
    compose_all,
    orbit,
    random_even_perm,
    three_cycles_generate_alternating,
)


@pytest.fixture
def abc():
    return IndexedAlphabet(3, labels=["a", "b", "c"])


def perm_of(alphabet, text):
    return Perm.from_cycles(alphabet, text)


def test_identity_and_compose_identity(abc):
    e = Perm.identity(abc)
    p = perm_of(abc, "(a b)")
    assert compose(e, p) == p
    assert compose(p, e) == p
    assert e.is_identity


def test_compose_convention(abc):
    # compose((0 1), (1 2)) is the 3-cycle (0 1 2) under p(q(i)).
    p = perm_of(abc, "(a b)")
    q = perm_of(abc, "(b c)")
    assert compose(p, q) == perm_of(abc, "(a b c)")


def test_inverse_laws(abc):
    p = perm_of(abc, "(a b c)")
    assert p.inverse() == perm_of(abc, "(a c b)")
    assert compose(p, p.inverse()).is_identity
    t = perm_of(abc, "(a b)")
    assert t.inverse() == t


def test_sign():
    al = IndexedAlphabet(4)
    assert Perm.identity(al).sign == 1
    assert Perm.from_cycles(al, "(0 1)").sign == -1
    assert Perm.from_cycles(al, "(0 1 2)").sign == 1


def _cycle_text(images, with_fixed):
    """Cycle notation for an image list over an anonymous alphabet, written
    independently of ``Perm.cycles``; fixed points optionally as 1-cycles."""
    seen, parts = set(), []
    for i in range(len(images)):
        if i in seen:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(str(j))
            j = images[j]
        if len(cyc) > 1 or with_fixed:
            parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts)


@st.composite
def _construction_chains(draw):
    """Permutations built by a random chain of ``from_cycles``,
    ``identity``, ``inverse`` and ``compose`` on one alphabet of 1 to 9
    letters; odd permutations occur as often as even ones."""
    al = IndexedAlphabet(draw(st.integers(1, 9)))
    pool = []
    for _ in range(draw(st.integers(1, 8))):
        step = draw(st.sampled_from(["cycles", "identity", "inverse", "compose"] if pool else ["cycles", "identity"]))
        if step == "cycles":
            images = draw(st.permutations(range(al.size)))
            pool.append(Perm.from_cycles(al, _cycle_text(images, draw(st.booleans()))))
        elif step == "identity":
            pool.append(Perm.identity(al))
        elif step == "inverse":
            pool.append(draw(st.sampled_from(pool)).inverse())
        else:
            pool.append(compose(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    return pool


@given(pool=_construction_chains())
def test_carried_sign_matches_raw_images_and_sympy(pool):
    for p in pool:
        raw = Perm(p.alphabet, p.images.copy())
        assert p.sign == raw.sign == Permutation(p.images.tolist()).signature(), str(p)


def test_constructions_do_not_decompose_cycles(monkeypatch):
    al = IndexedAlphabet(7)
    odd = Perm.from_cycles(al, "(0 1 2 3)(4 5 6)")
    even = Perm.from_cycles(al, "(0 1 2)")

    def refuse(images):
        raise AssertionError("sign was computed from the cycle decomposition")

    monkeypatch.setattr(perm_module, "_cycle_lengths", refuse)
    assert Perm.identity(al).sign == 1
    assert odd.sign == -1 and even.sign == 1
    assert odd.inverse().sign == -1
    assert compose(odd, even).sign == -1
    assert compose(odd, odd.inverse()).sign == 1
    assert compose_all([even, odd, odd]).sign == 1
    with pytest.raises(AssertionError, match="cycle decomposition"):
        _ = Perm(al, odd.images.copy()).sign


def test_raw_image_sign_is_computed_once(monkeypatch):
    al = IndexedAlphabet(5)
    p = Perm(al, [1, 0, 2, 3, 4])
    assert p.sign == -1
    monkeypatch.setattr(perm_module, "_cycle_lengths", None)
    assert p.sign == -1
    assert compose(p, p.inverse()).sign == 1


def test_validated_images_are_copied():
    a = np.array([1, 0, 2], dtype=np.int64)
    p = Perm(IndexedAlphabet(3), a)
    a[0] = 2
    assert p.images.tolist() == [1, 0, 2]
    assert not np.shares_memory(p.images, a)


def test_cycle_type():
    al4 = IndexedAlphabet(4)
    assert Perm.identity(al4).cycle_type() == (1, 1, 1, 1)
    al3 = IndexedAlphabet(3)
    assert Perm.from_cycles(al3, "(0 1 2)").cycle_type() == (3,)
    al6 = IndexedAlphabet(6)
    p = Perm.from_cycles(al6, "(0 1)(2 3 4)")
    assert p.cycle_type() == (1, 2, 3)


@st.composite
def _images(draw):
    """Image lists on 1 to 300 letters: uniform permutations; a few moved
    letters among many fixed points; involutions made of 2-cycles only;
    or one long cycle of length 2^k - 1, 2^k or 2^k + 1 through shuffled
    letters."""
    n = draw(st.integers(1, 300))
    order = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["uniform", "sparse", "involution", "cycle"]))
    if kind == "uniform":
        return order
    images = list(range(n))
    if kind == "sparse":
        moved = sorted(order[: draw(st.integers(0, min(n, 6)))])
        for a, b in zip(moved, draw(st.permutations(moved))):
            images[a] = b
    elif kind == "involution":
        pairs = draw(st.integers(0, n // 2))
        for a, b in zip(order[0 : 2 * pairs : 2], order[1 : 2 * pairs : 2]):
            images[a], images[b] = b, a
    else:
        k = draw(st.integers(1, 8))
        cycle = order[: min(n, 2**k + draw(st.sampled_from([-1, 0, 1])))]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return images


def _old_is_identity(p):
    return bool((p.images == np.arange(p.alphabet.size)).all())


def _old_eq(p, q):
    return p.alphabet is q.alphabet and np.array_equal(p.images, q.images)


@given(images=_images(), data=st.data())
def test_identity_and_equality_by_bytes_match_array_compare(images, data):
    n = len(images)
    other = data.draw(st.permutations(range(n)))
    al = IndexedAlphabet(n)
    wide = np.stack([images, images[::-1]], axis=1)[:, 0]
    assert n == 1 or not wide.flags.c_contiguous
    p = Perm(al, images)
    built = [
        p,
        Perm(al, np.array(images, dtype=np.int32)),
        Perm(al, wide),
        Perm.identity(al),
        Perm.from_cycles(al, "()"),
        compose(p, p.inverse()),
        p.inverse(),
        Perm(al, other),
    ]
    for a in built:
        assert a.is_identity == _old_is_identity(a)
        for b in built:
            assert (a == b) == _old_eq(a, b)
            if a == b:
                assert hash(a) == hash(b)
    # equal images over another alphabet of the same size stay unequal
    for al2 in (IndexedAlphabet(n), IndexedAlphabet(n, labels=[f"x{i}" for i in range(n)])):
        q = Perm(al2, images)
        assert q != p and not _old_eq(q, p)
        assert q.is_identity == _old_is_identity(q)


def _labels(kind, n):
    """Decimal labels, ``x<i>``, or level-alphabet labels (``q0@1``, ...,
    ``x@1``, ``y@1``, ``z@1``, ``p@1``, ``q@1``)."""
    if kind == "decimal":
        return None
    if kind == "x":
        return [f"x{i}" for i in range(n)]
    return ([f"q{i}@1" for i in range(max(n - 5, 0))] + [f"{s}@1" for s in "xyzpq"])[:n]


def _walk_cycles(images):
    """Reference cycle walk, letter by letter in plain Python."""
    seen = bytearray(len(images))
    out = []
    for i, j in enumerate(images):
        if seen[i] or j == i:
            continue
        cyc = [i]
        while j != i:
            seen[j] = 1
            cyc.append(j)
            j = images[j]
        out.append(tuple(cyc))
    return out


def _check_cycle_notation(images, label_kind):
    n = len(images)
    labels = _labels(label_kind, n)
    p = Perm(IndexedAlphabet(n, labels=labels), images)
    cyclic = _walk_cycles(images)
    if n <= 300:  # sympy takes seconds on 100 001 letters
        assert cyclic == [tuple(c) for c in Permutation(images).cyclic_form]
    assert p.cycles() == cyclic
    names = labels or [str(i) for i in range(n)]
    assert str(p) == ("".join("(" + " ".join(names[i] for i in c) + ")" for c in cyclic) or "()")
    return p


def _digit_boundary_images():
    """Decimal notation changes its digit count at these sizes: one long
    cycle through every letter, transpositions of every neighbouring pair,
    and cycles of 1 to 4 letters through fixed points (a run of two fixed
    points after each cycle)."""
    for n in (10, 11, 100, 101, 1_000, 1_001, 10_001, 100_001):
        order = random.Random(n).sample(range(n), n)
        long_cycle = list(range(n))
        for a, b in zip(order, order[1:] + order[:1]):
            long_cycle[a] = b
        pairs = list(range(n))
        for a in range(0, n - 1, 2):
            pairs[a], pairs[a + 1] = a + 1, a
        mixed = list(range(n))
        start, length = 0, 1
        while start + length <= n:
            cycle = order[start : start + length]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                mixed[a] = b
            start += length + 2
            length = length % 4 + 1
        yield from (long_cycle, pairs, mixed)


def _with_digit_boundary_examples(test):
    for images in _digit_boundary_images():
        test = example(images=images, label_kind="decimal")(test)
    return test


LABEL_KINDS = ["decimal", "x", "level"]


@_with_digit_boundary_examples
@given(images=_images(), label_kind=st.sampled_from(LABEL_KINDS))
def test_cycle_kernels_match_sympy(images, label_kind):
    p = _check_cycle_notation(images, label_kind)
    lengths = [len(c) for c in p.cycles()]
    assert p.cycle_type() == tuple(sorted(lengths + [1] * (len(images) - sum(lengths))))
    if len(images) <= 300:
        ref = Permutation(images)
        assert p.cycle_type() == tuple(sorted(k for k, m in ref.cycle_structure.items() for _ in range(m)))


@given(
    n=st.integers(1, 5_000),
    kind=st.sampled_from(["identity", "uniform", "sparse"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, kind="uniform", seed=0)
@example(n=5_000, kind="identity", seed=0)
def test_cycle_lengths_in_least_letter_order(n, kind, seed):
    rng = np.random.default_rng(seed)
    images = np.arange(n, dtype=np.int64)
    if kind == "uniform":
        images = rng.permutation(n)
    elif kind == "sparse":
        moved = rng.choice(n, size=min(n, 7), replace=False)
        images[moved] = rng.permutation(moved)
    # the least letters counted by sorting, cycles in order of that letter
    _, want = np.unique(perm_module._least_letters(images), return_counts=True)
    assert perm_module._cycle_lengths(images).tolist() == want.tolist()


@pytest.mark.parametrize("label_kind", LABEL_KINDS)
def test_identities_print_empty_cycle(label_kind):
    for n in range(1, 301):
        p = _check_cycle_notation(list(range(n)), label_kind)
        assert str(p) == "()" and p.cycles() == []


@given(
    letters=st.integers(0, 70_000).flatmap(lambda top: st.lists(st.integers(0, top), unique=True, max_size=40)),
    cuts=st.lists(st.integers(1, 39)),
    dtype=st.sampled_from([np.int64, np.int32]),
)
@example(letters=[], cuts=[], dtype=np.int64)
@example(letters=[0], cuts=[], dtype=np.int64)
# the digit count changes between these tops
@example(letters=[9, 3, 0], cuts=[1], dtype=np.int64)
@example(letters=[10, 0, 9], cuts=[1, 2], dtype=np.int64)
@example(letters=[99, 9, 0, 10], cuts=[2], dtype=np.int64)
@example(letters=[100, 10, 99, 0], cuts=[3], dtype=np.int64)
@example(letters=[999, 0, 100, 99], cuts=[1], dtype=np.int64)
@example(letters=[0, 1000, 999, 9], cuts=[2], dtype=np.int64)
@example(letters=[9999, 1000, 0, 999], cuts=[], dtype=np.int64)
@example(letters=[10000, 9999, 0, 10], cuts=[1, 3], dtype=np.int32)
# np.min_scalar_type of the top letter changes between these tops
@example(letters=[255, 0, 9, 10, 99, 100], cuts=[2, 4], dtype=np.int64)
@example(letters=[1, 256, 255, 0], cuts=[2], dtype=np.int64)
@example(letters=[65535, 9999, 0, 10000, 256], cuts=[3], dtype=np.int64)
@example(letters=[1000, 65536, 0, 65535, 256], cuts=[1, 4], dtype=np.int32)
def test_decimal_cycles_of_any_walk(letters, cuts, dtype):
    """The byte kernel behind anonymous cycle notation and quotient reports
    writes any walk: letters in any order, cycles cut anywhere."""
    bounds = sorted({0, len(letters)} | {c for c in cuts if c < len(letters)})
    cycles = [letters[a:b] for a, b in zip(bounds, bounds[1:])]
    want = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()"
    assert perm_module._decimal_cycles(np.array(letters, dtype=dtype), np.array(bounds)) == want


@pytest.mark.parametrize(
    "images",
    [
        [5, 6, 0, 6, 3, 4, 5, 2],  # two letters share an image; the jumping used to loop forever
        [1, 1, 3, 2],  # a moved letter maps onto a fixed one; this used to print (0)(2 3)
    ],
)
def test_cycle_walk_rejects_non_bijections(images):
    p = Perm(IndexedAlphabet(len(images)), images, check=False)
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the cycle walk did not return"))
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="images do not form a bijection"):
            str(p)
        with pytest.raises(ValueError, match="images do not form a bijection"):
            p.cycles()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("images", [
    [0.5, 1, 2],  # the int64 copy used to truncate this to the identity
    [0, 1, -1],  # bincount used to reject this with its own message
    [0, 1, 3],
    [1, 1, 2],
])
def test_checked_images_must_form_a_bijection(images):
    al = IndexedAlphabet(3)
    with pytest.raises(ValueError, match="^images do not form a bijection$"):
        Perm(al, images)
    assert Perm(al, [2.0, 0, 1]) == Perm(al, [2, 0, 1])


def test_cycle_notation_roundtrip(abc):
    for text in ["()", "(a b)", "(a b c)", "(a c)"]:
        p = perm_of(abc, text)
        assert perm_of(abc, str(p)) == p
    assert str(Perm.identity(abc)) == "()"


def test_parse_rejects_garbage(abc):
    with pytest.raises(ValueError):
        perm_of(abc, "(a a)")
    with pytest.raises(ValueError):
        perm_of(abc, "(a b)(b c)")
    with pytest.raises(ValueError):
        perm_of(abc, "ab")
    with pytest.raises(KeyError):
        perm_of(abc, "(a z)")


def _old_from_cycles(alphabet, text):
    """``Perm.from_cycles`` as it was written before it read the cycles
    with ``findall`` and checked the leftover text with one ``fullmatch``:
    returns ``(images, sign)``."""
    cycle_re = re.compile(r"\(([^()]*)\)")
    stripped = text.strip()
    images = list(range(alphabet.size))
    seen = set()
    transpositions = 0
    for m in cycle_re.finditer(stripped):
        body = m.group(1).split()
        if not body:
            continue
        idx = [alphabet.index(s) for s in body]
        if len(set(idx)) != len(idx) or seen.intersection(idx):
            raise ValueError(f"cycles are not disjoint in {text!r}")
        seen.update(idx)
        transpositions += len(idx) - 1
        for a, b in zip(idx, idx[1:] + idx[:1]):
            images[a] = b
    rest = cycle_re.sub("", stripped).strip()
    if rest:
        raise ValueError(f"unexpected text {rest!r} in cycle notation")
    return images, -1 if transpositions % 2 else 1


def _outcome(parse, alphabet, text):
    try:
        return parse(alphabet, text)
    except Exception as exc:  # the exception is what is compared
        return type(exc), str(exc)


# Pieces of cycle notation over the labels a, b, c and the anonymous
# letters 0..4: letters, unknown and non-numeric names, parentheses,
# whitespace of several kinds (\x1c is whitespace to str.isspace) and
# stray text
_CYCLE_PIECES = ["(", ")", "()", " ", "\t", "\n", "\r", "\x0b", "\x1c", "a", "b", "c", "0", "1", "4",
                 "7", "-1", "w", "z", "(a b)", "(b c a)", "(0 1 2)", "(3 4)", "|", "'"]


@pytest.mark.parametrize("alphabet", [IndexedAlphabet(3, labels=["a", "b", "c"]), IndexedAlphabet(5)],
                         ids=["labels", "anonymous"])
@given(text=st.one_of(st.text(), st.lists(st.sampled_from(_CYCLE_PIECES), max_size=12).map("".join)))
@example(text="(x w) z")
@example(text="(a b) z")
@example(text="(a b)(b c) z")
@example(text="\x1c(a b)\x1c")
def test_from_cycles_matches_its_former_parser(alphabet, text):
    got = _outcome(Perm.from_cycles, alphabet, text)
    if isinstance(got, Perm):
        assert not got.images.flags.writeable
        got = (got.images.tolist(), got._sign)
    assert got == _outcome(_old_from_cycles, alphabet, text)


def test_from_cycles_stores_only_the_moved_letters():
    """One 3-cycle on a 200 005-letter alphabet allocates one int64 copy
    of the identity images (1.6 MB), not a list of every letter (about
    7 MB with its int objects)."""
    al = IndexedAlphabet(200_005)
    al.identity_images  # built on first use; not part of the parse
    tracemalloc.start()
    try:
        p = Perm.from_cycles(al, "(7 200004 3)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * al.size
    assert p.cycles() == [(3, 7, 200004)] and p.sign == 1
    assert not p.images.flags.writeable and not np.shares_memory(p.images, al.identity_images)


def test_identity_is_one_shared_read_only_perm():
    for al in (IndexedAlphabet(4), IndexedAlphabet(3, labels=["a", "b", "c"])):
        e = Perm.identity(al)
        assert Perm.identity(al) is e
        assert compose_all([], alphabet=al) is e
        assert e.images is al.identity_images and e.sign == 1
        with pytest.raises(ValueError):
            e.images[0] = 1
    # an equal alphabet object has its own identity
    assert Perm.identity(IndexedAlphabet(4)) is not Perm.identity(IndexedAlphabet(4))


def test_is_identity_compares_once_per_permutation():
    class Counting(IndexedAlphabet):
        __slots__ = ("reads",)

        def __init__(self, size):
            super().__init__(size)
            self.reads = 0

        @property
        def identity_images(self):
            self.reads += 1
            return IndexedAlphabet.identity_images.fget(self)

    al = Counting(5)
    for images, expected in (([1, 0, 2, 3, 4], False), ([0, 1, 2, 3, 4], True)):
        p = Perm(al, images)
        al.reads = 0
        assert [p.is_identity for _ in range(10)] == [expected] * 10
        assert al.reads == 1


@given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
@example(n=2, seed=0)
@example(n=41, seed=7)
def test_random_even_perm_is_a_shuffle_with_its_sign(n, seed):
    # the images are rng.shuffle's on 0..n-1, with the first two swapped
    # when the shuffle is odd, and the carried sign is that of the images
    al = IndexedAlphabet(n)
    rng, ref = random.Random(seed), random.Random(seed)
    p = random_even_perm(al, rng)
    images = list(range(n))
    ref.shuffle(images)
    if Perm(al, images).sign == -1:
        images[0], images[1] = images[1], images[0]
    assert p.images.tolist() == images
    assert p._sign == Perm(al, p.images.copy()).sign == 1
    # both generators made the same draws
    assert rng.random() == ref.random()


def test_associativity_random():
    rng = random.Random(11)
    al = IndexedAlphabet(7)
    for _ in range(50):
        a, b, c = (random_even_perm(al, rng) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_sign_multiplicative():
    rng = random.Random(12)
    al = IndexedAlphabet(6)
    for _ in range(50):
        img1 = list(range(6))
        img2 = list(range(6))
        rng.shuffle(img1)
        rng.shuffle(img2)
        p, q = Perm(al, img1), Perm(al, img2)
        assert compose(p, q).sign == p.sign * q.sign


def test_cycle_type_conjugation_invariant():
    rng = random.Random(13)
    al = IndexedAlphabet(8)
    for _ in range(50):
        img = list(range(8))
        rng.shuffle(img)
        p = Perm(al, img)
        t = random_even_perm(al, rng)
        conj = compose(compose(t.inverse(), p), t)
        assert conj.cycle_type() == p.cycle_type()


def test_compose_alphabet_mismatch(abc):
    other = IndexedAlphabet(3, labels=["x", "y", "z"])
    with pytest.raises(ValueError):
        compose(Perm.identity(abc), Perm.identity(other))


def test_compose_all(abc):
    a = perm_of(abc, "(a b)")
    b = perm_of(abc, "(b c)")
    assert compose_all([a, b]) == compose(a, b)
    assert compose_all([], alphabet=abc).is_identity


def test_big_cycle_type_matches_small_path():
    rng = np.random.default_rng(5)
    n = 5000
    img = rng.permutation(n)
    al = IndexedAlphabet(n)
    p = Perm(al, img)
    # independent oracle: walk cycles in pure python
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            ln += 1
            j = int(img[j])
        lengths.append(ln)
    assert p.cycle_type() == tuple(sorted(lengths))


def alt_check_instance():
    omega = IndexedAlphabet(5, labels=["1", "2", "3", "4", "5"])
    a_sub = [0, 1, 2]
    b_sub = [2, 3, 4]
    gens = [Perm.from_cycles(omega, "(3 4 5)")]
    return omega, a_sub, b_sub, gens


def test_alternating_generation_example():
    omega, a_sub, b_sub, gens = alt_check_instance()
    assert check_alternating_generation(omega, a_sub, b_sub, gens) is True


def test_alternating_generation_degenerate():
    omega = IndexedAlphabet(4)
    assert check_alternating_generation(omega, [0, 1, 2, 3], [3], [Perm.identity(omega)]) is True


def test_alternating_generation_precondition_errors():
    omega = IndexedAlphabet(4)
    with pytest.raises(PreconditionError, match=r"\(3\)"):
        check_alternating_generation(omega, [0, 1], [1, 2, 3], [Perm.identity(omega)])
    with pytest.raises(PreconditionError, match=r"\(2\)"):
        check_alternating_generation(omega, [0, 1, 2], [1, 2, 3], [Perm.identity(omega)])
    omega5 = IndexedAlphabet(5)
    with pytest.raises(PreconditionError, match=r"\(4\)"):
        check_alternating_generation(omega5, [0, 1, 2], [2, 3, 4], [Perm.from_cycles(omega5, "(3 4)")])
    with pytest.raises(PreconditionError, match=r"\(6\)"):
        check_alternating_generation(IndexedAlphabet(5), [0, 1, 2], [2, 3, 4], [])


def test_alternating_generation_refuses_a_generator_of_another_alphabet():
    """A generator on a second alphabet of the same size and labels is
    refused: alphabets are the same only when they are one object."""
    omega = IndexedAlphabet(5)
    gen = Perm.from_cycles(IndexedAlphabet(5), "(2 3 4)")
    with pytest.raises(PreconditionError, match="^generator acts on a different alphabet$"):
        check_alternating_generation(omega, [0, 1, 2], [2, 3, 4], [gen])


@pytest.mark.parametrize("route", ["from_cycles", "compose", "inverse", "raw_images"])
def test_alternating_generation_rejects_odd_generator(route):
    omega = IndexedAlphabet(5)
    odd = Perm.from_cycles(omega, "(3 4)")
    gen = {
        "from_cycles": odd,
        "compose": compose(Perm.from_cycles(omega, "(2 3 4)"), odd),
        "inverse": Perm.from_cycles(omega, "(1 2 3 4)").inverse(),
        "raw_images": Perm(omega, [0, 1, 2, 4, 3]),
    }[route]
    assert gen.sign == -1
    with pytest.raises(PreconditionError, match=r"clause \(4\): generators must be even"):
        check_alternating_generation(omega, [0, 1, 2], [2, 3, 4], [Perm.from_cycles(omega, "(2 3 4)"), gen])


def _sympy_generates_alternating(n, cycles):
    group = PermutationGroup([Permutation([list(c)], size=n) for c in cycles])
    return group.order() == math.factorial(n) // 2


def test_orbit_is_union_over_all_starts():
    swap01 = [1, 0, 2, 3, 4, 5]
    cycle345 = [0, 1, 2, 4, 5, 3]
    rows = [swap01, cycle345]
    assert orbit(rows, [0]) == {0, 1}
    assert orbit(rows, [0, 3]) == {0, 1, 3, 4, 5}
    assert orbit([], [2]) == {2}
    # 2-subsets under the same generators: the orbits of {0, 3} and {2, 4}
    pairs = orbit(rows, [frozenset({0, 3}), frozenset({2, 4})], lambda g, s: frozenset(g[x] for x in s))
    assert pairs == {frozenset({a, b}) for a in (0, 1) for b in (3, 4, 5)} | {frozenset({2, b}) for b in (3, 4, 5)}


def test_three_cycle_connectivity_matches_sympy():
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for n in range(3, 8):
        for _ in range(30):
            # half the cases draw supports inside a random block, so that
            # disconnected and non-covering sets occur as often as connected ones
            pool = list(range(n))
            if rng.random() < 0.5 and n >= 4:
                pool = rng.sample(pool, rng.randrange(3, n))
            cycles = [rng.sample(pool, 3) for _ in range(rng.randrange(1, 2 * n))]
            got = three_cycles_generate_alternating(n, [frozenset(c) for c in cycles])
            assert got == _sympy_generates_alternating(n, cycles), (n, cycles)
            seen[got] += 1
    assert seen[True] >= 20 and seen[False] >= 20


def test_three_cycle_connectivity_edge_cases():
    assert three_cycles_generate_alternating(3, [frozenset({0, 1, 2})])
    assert _sympy_generates_alternating(3, [(0, 1, 2)])
    # point 3 lies in no support
    assert not three_cycles_generate_alternating(4, [frozenset({0, 1, 2})])
    assert not _sympy_generates_alternating(4, [(0, 1, 2)])
    # two components that share no point
    split = [(0, 1, 2), (3, 4, 5)]
    assert not three_cycles_generate_alternating(6, [frozenset(c) for c in split])
    assert not _sympy_generates_alternating(6, split)
    chain = [(0, 1, 2), (2, 3, 4), (4, 5, 0)]
    assert three_cycles_generate_alternating(6, [frozenset(c) for c in chain])
    assert _sympy_generates_alternating(6, chain)


def test_alternating_generation_twelve_letters():
    omega = IndexedAlphabet(12)
    a_sub, b_sub = list(range(6)), list(range(5, 12))
    # an even 7-cycle moving the meet point 5 around all of B
    gens = [Perm(omega, [0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 5])]
    start = time.perf_counter()
    assert check_alternating_generation(omega, a_sub, b_sub, gens) is True
    assert time.perf_counter() - start < 1.0
