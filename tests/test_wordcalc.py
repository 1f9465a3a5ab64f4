import dataclasses
import functools
import hashlib
import itertools
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchgroups import suites, wordcalc
from branchgroups.alphabet import (
    MARKER_ALPHABET,
    Seed,
    build_alphabet,
    coset_action,
    marker_action,
    marker_perm,
    random_marker_perm,
)
from branchgroups.perm import Perm, compose, random_even_perm
from branchgroups.resfin import (
    NOT_CONJUGATE,
    UNSUPPORTED,
    DihedralOracle,
    IntegerOracle,
    oracle_from_selector,
    parse_word,
    word_inverse,
)
from branchgroups.suites import suite_branch_identities
from branchgroups.treeauto import (
    directed,
    equal_to_depth,
    eval_vertex,
    identity_aut,
    product,
    rooted,
    section_at,
)
from branchgroups.wordcalc import (
    Certificate,
    ParseError,
    SearchBounds,
    conjugacy_certificate,
    decide,
    default_b_gens,
    format_token,
    is_fragmented_subword,
    normal_form,
    parse_seed,
    parse_tokens,
    section_letters,
    seed_is_trivial,
    verify_certificate,
)
from conftest import ball_words


@pytest.fixture(scope="module")
def dinf():
    return DihedralOracle()


@pytest.fixture(scope="module")
def zz():
    return IntegerOracle()


# An inverse mark in a token list: it inverts the letter before it, as a
# standalone ``'`` does in a word file.  ``_resolve`` applies the marks.
_INV = ("inv", None)


def _resolve(tokens):
    out = []
    for tok in tokens:
        if tok is _INV:
            kind, payload = out.pop()
            out.append((kind, payload.inverse() if kind == "B" else payload.inv()))
        else:
            out.append(tok)
    return out


def rand_seed(oracle, rng, max_len=2, allow_trivial=True):
    g = tuple(rng.randrange(len(oracle.gen_names)) for _ in range(rng.randrange(max_len + 1)))
    s = Seed(oracle, g, random_marker_perm(rng))
    if not allow_trivial and seed_is_trivial(s):
        return Seed(oracle, g, marker_perm("(x y z)"))
    return s


def rand_normal_word(oracle, rng, n):
    lvl = build_alphabet(oracle, 1)
    toks = []
    for i in range(n):
        if rng.random() < 0.8:
            toks.append(("B", random_even_perm(lvl.alphabet, rng)))
        toks.append(("H", rand_seed(oracle, rng, allow_trivial=False)))
    if rng.random() < 0.8:
        toks.append(("B", random_even_perm(lvl.alphabet, rng)))
    return normal_form(oracle, toks)


def test_normal_form_empty(dinf):
    w = normal_form(dinf, [])
    assert w.h_count == 0
    assert w.is_identity_word
    assert w.sigma_length == 0


def test_normal_form_cancellation(dinf):
    h = Seed(dinf, parse_word(dinf, "t"), marker_perm("(x y z)"))
    w = normal_form(dinf, [("H", h), ("H", h.inv())])
    assert w.h_count == 0 and w.is_identity_word


def test_normal_form_merges_adjacent(dinf):
    lvl = build_alphabet(dinf, 1)
    rng = random.Random(1)
    b = random_even_perm(lvl.alphabet, rng)
    b2 = random_even_perm(lvl.alphabet, rng)
    h1 = Seed(dinf, parse_word(dinf, "t"))
    h2 = Seed(dinf, parse_word(dinf, "a"))
    w = normal_form(dinf, [("B", b), ("H", h1), ("H", h2), ("B", b2)])
    assert w.h_count == 1
    assert w.hs[0].g == parse_word(dinf, "t a")
    # image is preserved under normalization
    raw = product(
        [rooted(dinf, 0, b), directed(dinf, h1, 0), directed(dinf, h2, 0), rooted(dinf, 0, b2)],
        oracle=dinf, base_level=0,
    )
    assert equal_to_depth(raw, w.to_aut(), 4)


@pytest.mark.parametrize("k", [1000, 2000])
@pytest.mark.parametrize("selector, letter", [
    ("dihedral_infinite", "H(t|(x y z))"),
    ("product:integers,dihedral_infinite", "H(1.t 2.t|(o p q))"),
])
def test_normal_form_is_linear_in_a_run_of_seed_letters(selector, letter, k, monkeypatch):
    """A run of k seed letters merges by multiplying keys: the seeds built
    during normal_form are handed O(k) generator letters in all, where
    concatenating the words at every merge would hand over about k^2/2."""
    oracle = oracle_from_selector(selector)
    tokens = parse_tokens(oracle, " ".join([letter] * k))
    handed = []
    real_init = Seed.__init__

    def counting_init(self, oracle, g=(), marker=None):
        handed.append(len(g))
        real_init(self, oracle, g, marker)

    monkeypatch.setattr(Seed, "__init__", counting_init)
    w = normal_form(oracle, tokens)
    length = len(tokens[0][1].g)
    assert w.h_count == 1 and w.hs[0].g == tokens[0][1].g * k
    assert sum(handed) <= 2 * length * k


def test_normal_form_rejects_odd_b(dinf):
    lvl = build_alphabet(dinf, 1)
    odd = Perm.from_cycles(lvl.alphabet, "(x@1 y@1)")
    with pytest.raises(ValueError):
        normal_form(dinf, [("B", odd)])


@pytest.mark.parametrize("kind, message", [
    ("B", "rooted letter acts on the wrong alphabet for level 0"),
    ("H", "seed letter belongs to a different input group"),
])
def test_normal_form_refuses_letters_of_another_oracle(kind, message):
    """The two refusals of ``_reduce`` for a letter built on a second
    oracle of the same group: a rooted letter on that oracle's level-1
    alphabet, which is another object, and a seed of that oracle."""
    o1, o2 = DihedralOracle(), DihedralOracle()
    letter = {
        "B": Perm.from_cycles(build_alphabet(o2, 1), "(x@1 y@1 z@1)"),
        "H": Seed(o2, (0,)),
    }[kind]
    with pytest.raises(ValueError, match=f"^{message}$"):
        normal_form(o1, [(kind, letter)])


def test_normal_form_inverse_marker(dinf):
    for text in ["H(t|())'", "H(t|()) '"]:
        w = normal_form(dinf, parse_tokens(dinf, text))
        assert w.hs[0].g == parse_word(dinf, "t'")


@pytest.mark.parametrize(
    "selector", ["dihedral_infinite", "integers", "finite:5", "product:integers,dihedral_infinite"]
)
def test_normalization_preserves_image_random(selector):
    oracle = oracle_from_selector(selector)
    rng = random.Random(2)
    lvl = build_alphabet(oracle, 1)
    for _ in range(15):
        toks = []
        for _ in range(rng.randrange(1, 5)):
            if rng.random() < 0.5:
                toks.append(("B", random_even_perm(lvl.alphabet, rng)))
            else:
                toks.append(("H", rand_seed(oracle, rng)))
        w = normal_form(oracle, toks)
        parts = [
            rooted(oracle, 0, p) if kind == "B" else directed(oracle, p, 0)
            for kind, p in toks
        ]
        raw = product(parts, oracle=oracle, base_level=0)
        assert equal_to_depth(raw, w.to_aut(), 4)


def test_h_count_pure_rooted_word(dinf):
    lvl = build_alphabet(dinf, 1)
    b = Perm.from_cycles(lvl.alphabet, "(x@1 y@1 z@1)")
    assert normal_form(dinf, [("B", b)]).h_count == 0


def test_h_count_and_shape(dinf):
    rng = random.Random(3)
    w = rand_normal_word(dinf, rng, 2)
    assert w.h_count == 2
    assert len(w.bs) == 3
    for b in w.bs[1:-1]:
        assert not b.is_identity
    for h in w.hs:
        assert not seed_is_trivial(h)


def test_h_count_triangle_inequality(dinf):
    rng = random.Random(4)
    for _ in range(10):
        u = rand_normal_word(dinf, rng, rng.randrange(0, 3))
        v = rand_normal_word(dinf, rng, rng.randrange(0, 3))
        uv = normal_form(dinf, u.tokens() + v.tokens())
        assert uv.h_count <= u.h_count + v.h_count


def test_fragmented_subword(dinf):
    h1 = Seed(dinf, parse_word(dinf, "t"))
    h2 = Seed(dinf, parse_word(dinf, "a"))
    h3 = Seed(dinf, parse_word(dinf, "t t"))
    assert is_fragmented_subword([], [h1, h2])
    assert is_fragmented_subword([h1, h2, h3], [h1, h2, h3])
    assert is_fragmented_subword([h1, h3], [h1, h2, h3])
    assert not is_fragmented_subword([h3, h1], [h1, h2, h3])


def test_section_base_case_x(dinf):
    # w = b1 h1 b2 with b2(d) = x: the section at d is the seed letter alone
    lvl = build_alphabet(dinf, 1)
    rng = random.Random(5)
    h1 = Seed(dinf, parse_word(dinf, "t"), marker_perm("(x y z)"))
    b1 = random_even_perm(lvl.alphabet, rng)
    d = 0
    # build b2 sending d to x (even: use a 3-cycle through d, x and one more)
    other = 1
    img = list(range(lvl.size))
    img[d], img[lvl.x_index], img[other] = lvl.x_index, other, d
    b2 = Perm(lvl.alphabet, img)
    assert b2.sign == 1
    w = normal_form(dinf, [("B", b1), ("H", h1), ("B", b2)])
    sec = section_letters(w)[d]
    assert sec.h_count == 1
    assert sec.hs[0] == h1
    assert sec.bs[0].is_identity and sec.bs[1].is_identity


def test_section_base_case_y(dinf):
    lvl = build_alphabet(dinf, 1)
    h1 = Seed(dinf, parse_word(dinf, "t"))
    img = list(range(lvl.size))
    d, other = 0, 1
    img[d], img[lvl.y_index], img[other] = lvl.y_index, other, d
    b2 = Perm(lvl.alphabet, img)
    w = normal_form(dinf, [("H", h1), ("B", b2)])
    sec = section_letters(w)[d]
    assert sec.h_count == 0
    assert sec.bs[0] == coset_action(dinf, 2, h1)


def test_section_letters_matches_bruteforce(dinf):
    # against the tree layer's own section rule, letter by letter
    rng = random.Random(6)
    lvl = build_alphabet(dinf, 1)
    for _ in range(10):
        w = rand_normal_word(dinf, rng, rng.randrange(1, 4))
        fast = section_letters(w)
        assert list(fast) == sorted(fast)
        aut = w.to_aut()
        for idx in range(lvl.size):
            got = fast[idx].to_aut() if idx in fast else identity_aut(dinf, 1)
            assert equal_to_depth(got, section_at(aut, idx), 3)


def test_section_contraction_and_fragmentation(dinf):
    rng = random.Random(7)
    lvl = build_alphabet(dinf, 1)
    for _ in range(15):
        n = rng.randrange(1, 7)
        w = rand_normal_word(dinf, rng, n)
        for sec in section_letters(w).values():
            assert sec.h_count <= (w.h_count + 1) // 2
            flat = [h for block in sec.blocks for h in block]
            assert is_fragmented_subword(flat, list(w.hs))


def test_section_word_semantic_agreement(dinf):
    rng = random.Random(8)
    lvl = build_alphabet(dinf, 1)
    for _ in range(8):
        w = rand_normal_word(dinf, rng, rng.randrange(1, 4))
        aut = w.to_aut()
        sections = section_letters(w)
        for idx in range(0, lvl.size, 3):
            sym = sections[idx].to_aut() if idx in sections else identity_aut(dinf, 1)
            sem = section_at(aut, idx)
            assert equal_to_depth(sym, sem, 3)


@pytest.mark.parametrize("suite", [suites.suite_sections, suites.suite_contraction])
def test_section_suites_check_absent_letters(dinf, monkeypatch, suite):
    # with every section reported absent, the identity stands in at each
    # letter, and the semantic comparison has to catch it
    monkeypatch.setattr(suites, "section_letters", lambda word: {})
    report = suite(dinf, seed=1)
    assert not report["ok"]
    assert all(f.get("reason", "semantic mismatch") == "semantic mismatch" for f in report["failures"])


def test_decide_trivial_words(dinf):
    assert decide(normal_form(dinf, [])).trivial
    h = Seed(dinf, parse_word(dinf, "t"), marker_perm("(x y z)"))
    w = normal_form(dinf, [("H", h), ("H", h.inv())])
    d = decide(w)
    assert d.trivial and d.ell == 2 and d.depth == 4


def test_decide_single_b(dinf):
    lvl = build_alphabet(dinf, 1)
    b = Perm.from_cycles(lvl.alphabet, "(x@1 y@1 z@1)")
    d = decide(normal_form(dinf, [("B", b)]))
    assert not d.trivial
    assert d.witness is not None and d.witness.depth == 1


def test_decide_marker_seed_witness_below_z(dinf):
    h = Seed(dinf, (), marker_perm("(x y z)"))
    w = normal_form(dinf, [("H", h)])
    d = decide(w)
    assert not d.trivial
    assert d.witness.depth == 2
    assert d.witness.letters[0] == "z@1"


def test_decide_agrees_with_semantics(dinf):
    # small exhaustive-ish check: every decision matches a depth-2ell
    # semantic triviality test
    from branchgroups.treeauto import nontrivial_vertex

    rng = random.Random(9)
    for _ in range(15):
        w = rand_normal_word(dinf, rng, rng.randrange(0, 3))
        d = decide(w)
        sem = nontrivial_vertex(w.to_aut(), d.depth)
        assert d.trivial == (sem is None)
        if not d.trivial:
            assert eval_vertex(w.to_aut(), d.witness) != d.witness


def test_trivial_words_stay_fixed_beyond_decision_depth(dinf):
    # a word declared trivial also fixes vertices past depth 2*ell
    from branchgroups.treeauto import nontrivial_vertex

    rng = random.Random(21)
    spot_checked = 0
    for _ in range(30):
        half = []
        for _ in range(rng.randrange(1, 3)):
            if rng.random() < 0.5:
                lvl = build_alphabet(dinf, 1)
                half.append(("B", random_even_perm(lvl.alphabet, rng)))
            else:
                half.append(("H", rand_seed(dinf, rng)))
        inv = [(k, p.inverse() if k == "B" else p.inv()) for k, p in reversed(half)]
        w = normal_form(dinf, half + inv)
        d = decide(w)
        if d.trivial and d.depth <= 6:
            spot_checked += 1
            assert nontrivial_vertex(w.to_aut(), d.depth + 2) is None
    assert spot_checked > 0


def test_decide_agrees_with_scalar_vertex_enumeration(zz):
    # the most literal oracle: walk every vertex of depth 2*ell one by one
    # with the scalar evaluator; affordable on the integer group only
    from branchgroups.treeauto import vertex_count
    from conftest import vertex_at

    lvl = build_alphabet(zz, 1)
    b = Perm.from_cycles(lvl.alphabet, "(q0@1 x@1 y@1)")
    h = Seed(zz, (0,), marker_perm("(x y z)"))
    cases = [
        [("B", b)],
        [("H", h)],
        [("H", h), ("H", h.inv())],
        [("B", b), ("H", h)],
    ]
    for toks in cases:
        word = normal_form(zz, toks)
        decision = decide(word)
        aut = word.to_aut()
        n = vertex_count(zz, 0, decision.depth)
        moved = None
        for i in range(n):
            v = vertex_at(zz, 0, decision.depth, i)
            if eval_vertex(aut, v) != v:
                moved = v
                break
        assert decision.trivial == (moved is None)


def test_decide_commutator_relation(dinf):
    # a rooted letter fixing x, y, z commutes with every directed letter;
    # the commutator word is trivial but does not collapse freely
    lvl = build_alphabet(dinf, 1)
    b = Perm.from_cycles(lvl.alphabet, "(q0@1 q1@1 q2@1)")
    h = Seed(dinf, parse_word(dinf, "t"), marker_perm("(x y z)"))
    toks = [("B", b), ("H", h), ("B", b.inverse()), ("H", h.inv())]
    w = normal_form(dinf, toks)
    assert w.h_count == 2  # no free cancellation
    d = decide(w)
    assert d.trivial


def test_conjugacy_same_element(dinf):
    g = Seed(dinf, parse_word(dinf, "t"))
    cert = conjugacy_certificate(g, g)
    assert cert.kind == "conjugate"
    assert cert.conjugator.is_identity_word
    assert verify_certificate(cert, g, g)


def test_conjugacy_t_tinv(dinf):
    g = Seed(dinf, parse_word(dinf, "t"))
    k = Seed(dinf, parse_word(dinf, "t'"))
    cert = conjugacy_certificate(g, k)
    assert cert.kind == "conjugate"
    assert verify_certificate(cert, g, k)
    assert cert.conjugator.hs[0].g == parse_word(dinf, "a")


def test_conjugacy_t_t2_refuted(dinf):
    g = Seed(dinf, parse_word(dinf, "t"))
    k = Seed(dinf, parse_word(dinf, "t t"))
    cert = conjugacy_certificate(g, k)
    # the forward route reports not conjugate in the input group; the
    # certificate must be a sound refutation or an honest unknown
    assert cert.kind in ("not_conjugate", "unknown")
    if cert.kind == "not_conjugate":
        assert cert.level <= 4
        assert verify_certificate(cert, g, k)


def test_tampered_refutation_fails_verification(dinf):
    g = Seed(dinf, parse_word(dinf, "t t"))
    k = Seed(dinf, parse_word(dinf, "t t t t"))
    cert = conjugacy_certificate(g, k)
    assert cert.kind == "not_conjugate" and cert.level == 3
    assert verify_certificate(cert, g, k)
    ct_g, ct_k = cert.cycle_types
    # the longest cycle split in two: still a cycle type of the level
    edited = tuple(sorted(ct_g[:-1] + (1, ct_g[-1] - 1)))
    tampered = [
        dataclasses.replace(cert, cycle_types=(ct_k, ct_g)),
        dataclasses.replace(cert, cycle_types=(ct_g, ct_g)),
        dataclasses.replace(cert, cycle_types=(edited, ct_k)),
        dataclasses.replace(cert, level=2),
        dataclasses.replace(cert, level=4),
    ]
    for bad in tampered:
        assert not verify_certificate(bad, g, k)


@functools.cache
def _even_markers():
    """The even marker permutations, in lexicographic order of their image
    tuples: the enumeration the conjugator scan once walked."""
    perms = (Perm(MARKER_ALPHABET, images, check=False) for images in itertools.permutations(range(6)))
    return tuple(p for p in perms if p.sign == 1)


def _reference_marker_conjugator(a, b):
    """The first of :func:`_even_markers` with c^-1 a c = b, by composing
    permutations, or None."""
    for c in _even_markers():
        if compose(compose(c.inverse(), a), c) == b:
            return c
    return None


def test_marker_conjugator_matches_the_even_marker_enumeration():
    # every even a against a seeded conjugate c^-1 a c, c even or odd (an
    # odd c may leave no even conjugator), and against a seeded marker of
    # another cycle type, which no conjugator reaches
    rng = random.Random(40)
    markers = _even_markers()
    everything = [Perm(MARKER_ALPHABET, images) for images in itertools.permutations(range(6))]
    found = 0
    for a in markers:
        c = rng.choice(everything)
        b = compose(compose(c.inverse(), a), c)
        got = wordcalc._marker_conjugator(a, b)
        assert got == _reference_marker_conjugator(a, b), (str(a), str(b))
        if got is not None:
            found += 1
            assert got.sign == 1 and compose(compose(got.inverse(), a), got) == b
        other = rng.choice([m for m in markers if m.cycle_type() != a.cycle_type()])
        assert wordcalc._marker_conjugator(a, other) is None
    assert 0 < found < len(markers)  # some odd c leave no even conjugator


def test_first_conjugacy_certificate_builds_a_handful_of_perms():
    # a fresh process, so no earlier call has warmed anything: route (a)
    # proves the pair after building a few Perms, where a listing of the
    # even markers built 720 before the first one was tried
    script = """if True:
        import collections
        from branchgroups import perm
        from branchgroups.alphabet import MARKER_ALPHABET, Seed, marker_perm
        from branchgroups.resfin import DihedralOracle, parse_word
        from branchgroups.wordcalc import conjugacy_certificate
        oracle = DihedralOracle()
        g = Seed(oracle, parse_word(oracle, "t a"), marker_perm("(x y z)(o p q)"))
        k = Seed(oracle, parse_word(oracle, "t t a t"), marker_perm("(y o z)(x q p)"))
        built = collections.Counter()
        real = perm.Perm.__init__
        def counting(self, alphabet, *args, **kwargs):
            built[alphabet is MARKER_ALPHABET] += 1
            real(self, alphabet, *args, **kwargs)
        perm.Perm.__init__ = counting
        cert = conjugacy_certificate(g, k)
        print(cert.kind, built[True], built[False], cert.conjugator)
    """
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    kind, markers, others, conjugator = done.stdout.rstrip("\n").split(maxsplit=3)
    assert (kind, conjugator) == ("conjugate", "H(|(y o p z q))")
    assert int(markers) + int(others) <= 10


def test_conjugacy_never_false_witness(dinf):
    pairs = [
        ("t", "t t"),
        ("t", "a"),
        ("a", "a t"),
        ("t t", "t t t"),
    ]
    for gt, kt in pairs:
        g = Seed(dinf, parse_word(dinf, gt))
        k = Seed(dinf, parse_word(dinf, kt))
        cert = conjugacy_certificate(g, k)
        assert cert.kind != "conjugate"


def _hidden_conjugacy(oracle_class):
    """An oracle whose conjugacy decider answers UNSUPPORTED, so that
    :func:`conjugacy_certificate` has no witness route and conjugators
    have to come from the bounded search below."""

    class Hidden(oracle_class):
        def conjugate(self, g, k):
            return UNSUPPORTED

    return Hidden()


# the seed letters of the conjugator search pair the group ball of radius
# _SEARCH_RADIUS with these marker parts
_SEARCH_RADIUS = 1
_SEARCH_MARKERS = (
    Perm.identity(MARKER_ALPHABET),
    marker_perm("(x y z)"),
    marker_perm("(o p q)"),
    marker_perm("(x y)(p q)"),
)


def _conjugator_candidates(oracle, b_gens):
    lvl = build_alphabet(oracle, 1)
    ident = Perm.identity(lvl)
    b_pool = (ident,) + tuple(b_gens)
    seeds = [
        Seed(oracle, gword, m)
        for gword in ball_words(oracle, _SEARCH_RADIUS)
        for m in _SEARCH_MARKERS
    ]
    yield normal_form(oracle, [])
    for b in b_gens:
        yield normal_form(oracle, [("B", b)])
    for h in seeds:
        if seed_is_trivial(h):
            continue
        for b1 in b_pool:
            for b2 in b_pool:
                yield normal_form(oracle, [("B", b1), ("H", h), ("B", b2)])


def _searched_conjugator(oracle, g, k):
    """The first candidate with no rooted letters that
    :func:`verify_certificate` accepts as a conjugator of H(g) to H(k) on
    a hidden twin, or None.  An accepted candidate must also pass two
    independent references: the input group's own decider, which the twin
    hides (``super`` reaches it past the twin's class), and the proof word
    spelled with explicit inverse letters."""
    for cand in _conjugator_candidates(oracle, ()):
        if verify_certificate(Certificate("conjugate", 0, conjugator=cand), g, k):
            assert super(type(oracle), oracle).conjugate(g.g, k.g) is not NOT_CONJUGATE
            assert _conjugates_to(oracle, cand, g, k)
            return cand
    return None


def test_conjugacy_search_route():
    # with no witness from the input group and no cycle-type refutation,
    # the certificate is an honest unknown, though the search proves the
    # pair conjugate
    oracle = _hidden_conjugacy(DihedralOracle)
    g = Seed(oracle, parse_word(oracle, "t"))
    k = Seed(oracle, parse_word(oracle, "t'"))
    cert = conjugacy_certificate(g, k, SearchBounds(depth=3))
    assert (cert.kind, cert.note) == ("unknown", "bounds exhausted")
    found = _searched_conjugator(oracle, g, k)
    assert found is not None and not found.is_identity_word


def test_conjugate_needs_a_proof_not_shallow_agreement():
    # t and t t act alike on the first tree level, where the empty
    # conjugator would pass a check to depth 1
    oracle = _hidden_conjugacy(DihedralOracle)
    g = Seed(oracle, parse_word(oracle, "t"))
    k = Seed(oracle, parse_word(oracle, "t t"))
    assert conjugacy_certificate(g, k, SearchBounds(depth=1)).kind != "conjugate"
    assert _searched_conjugator(oracle, g, k) is None
    assert not verify_certificate(Certificate("conjugate", 1, conjugator=normal_form(oracle, [])), g, k)


def test_default_b_gens(dinf):
    gens = default_b_gens(dinf)
    assert len(gens) == 40
    lvl = build_alphabet(dinf, 1)
    for p in gens:
        assert p.sign == 1
        assert p.cycle_type()[-1] == 3


def test_branch_identities(dinf):
    report = suite_branch_identities(dinf, seed=10)
    assert report["failed"] == 0
    assert report["first_level_size"] >= 7


def test_parse_tokens_roundtrip(dinf):
    text = "B((q0@1 q1@1 q2@1)) H(t a|(x y z)) H(|(o p q))' B((x@1 y@1 z@1))'"
    toks = parse_tokens(dinf, text)
    w = normal_form(dinf, toks)
    # reformat and reparse: the normal form is stable
    text2 = str(w)
    toks2 = parse_tokens(dinf, text2)
    w2 = normal_form(dinf, toks2)
    assert w.key() == w2.key()


def test_parse_tokens_applies_inverse_marks(dinf):
    b = Perm.from_cycles(build_alphabet(dinf, 1).alphabet, "(x@1 y@1 z@1)")
    t = Seed(dinf, parse_word(dinf, "t"), marker_perm("(x y z)"))
    cases = {
        "H(t|(x y z)) B((x@1 y@1 z@1))": [("H", t), ("B", b)],
        "H(t|(x y z)) B((x@1 y@1 z@1)) '": [("H", t), ("B", b.inverse())],
        "H(t|(x y z)) B((x@1 y@1 z@1))'": [("H", t), ("B", b.inverse())],
        "H(t|(x y z))' B((x@1 y@1 z@1))": [("H", t.inv()), ("B", b)],
        "H(t|(x y z)) ' B((x@1 y@1 z@1))''": [("H", t.inv()), ("B", b)],
        "H(t|(x y z))'' ' B((x@1 y@1 z@1))''' '": [("H", t.inv()), ("B", b)],
    }
    for text, want in cases.items():
        got = parse_tokens(dinf, text)
        assert [kind for kind, _ in got] == [kind for kind, _ in want]
        assert got[0][1].g == want[0][1].g and got[0][1].marker == want[0][1].marker
        assert got[1][1] == want[1][1]


@pytest.mark.parametrize("text, line, column", [("'", 1, 1), ("' H(t|())", 1, 1), ("\n  '\nH(t|())", 2, 3)])
def test_parse_tokens_rejects_a_leading_inverse_mark(dinf, text, line, column):
    with pytest.raises(ParseError, match="inverse marker with nothing to invert") as err:
        parse_tokens(dinf, text)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("text, message", [
    ("t|(x w)", "bad marker cycles"),  # an unknown marker letter
    ("t|(x y)", "bad marker cycles: marker permutations must be even"),
    ("t|(x y z", "bad marker cycles"),
    ("t", "seed letter needs the form"),
    ("b|()", "unknown generator"),
])
def test_parse_seed_raises_value_error(dinf, text, message):
    with pytest.raises(ValueError, match=message):
        parse_seed(dinf, text)
    with pytest.raises(ParseError, match=message):
        parse_tokens(dinf, f"H({text})")


def test_parse_seed_literals(dinf):
    # an empty marker part is the identity
    cases = [("t a|", "t a", "()"), ("t a|()", "t a", "()"), ("|(x y z)", "", "(x y z)"), (" t |(o p q) ", "t", "(o p q)")]
    for text, g, marker in cases:
        seed = parse_seed(dinf, text)
        assert seed.g == parse_word(dinf, g) and seed.marker == marker_perm(marker)


def test_parse_tokens_errors(dinf):
    with pytest.raises(ParseError) as err:
        parse_tokens(dinf, "B((x@1 y@1))")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_tokens(dinf, "H(t)")
    with pytest.raises(ParseError):
        parse_tokens(dinf, "wat")
    with pytest.raises(ParseError):
        parse_tokens(dinf, "H(b|())")
    err2 = None
    try:
        parse_tokens(dinf, "B(())\n  gibberish")
    except ParseError as e:
        err2 = e
    assert err2 is not None and err2.line == 2 and err2.column == 3


@pytest.mark.parametrize("text", ["B((x@1 y@1))", "B((p@1 q@1 x@1 y@1))'", "B(()) B((x@1 y@1)(p@1 q@1)(z@1 q0@1))"])
def test_parse_tokens_rejects_odd_rooted_letter(dinf, text):
    with pytest.raises(ParseError, match="rooted letters must be even permutations"):
        parse_tokens(dinf, text)


def test_sigma_length_accounting(dinf):
    toks = parse_tokens(dinf, "H(t t|()) B((x@1 y@1 z@1)) H(|(x y z))")
    w = normal_form(dinf, toks)
    # costs: 2 (two group letters) + 1 (rooted) + 2 (marker-only seed)
    assert w.sigma_length == 5


def test_format_token_roundtrip(dinf):
    h = Seed(dinf, parse_word(dinf, "t a"), marker_perm("(x y z)"))
    assert format_token("H", h) == "H(t a|(x y z))"
    lvl = build_alphabet(dinf, 1)
    b = Perm.from_cycles(lvl.alphabet, "(p@1 q@1 x@1)")
    assert format_token("B", b) == "B((x@1 p@1 q@1))"


_PARSE_GROUPS = ("integers", "dihedral_infinite", "finite:6", "product:integers,dihedral_infinite")


@functools.cache
def _parse_oracle(selector):
    return oracle_from_selector(selector)


def _even_perm(alphabet, images):
    images = list(images)
    if Perm(alphabet, images).sign != 1:
        images[0], images[1] = images[1], images[0]
    return Perm(alphabet, images)


@st.composite
def _tokens(draw, oracle, max_group_len=4):
    """A raw token: a rooted even permutation, or a seed letter with a
    group word of at most ``max_group_len`` generators and an even marker."""
    if draw(st.booleans()):
        alphabet = build_alphabet(oracle, 1).alphabet
        return ("B", _even_perm(alphabet, draw(st.permutations(range(alphabet.size)))))
    g = draw(st.lists(st.integers(0, len(oracle.gen_names) - 1), max_size=max_group_len))
    marker = _even_perm(MARKER_ALPHABET, draw(st.permutations(range(MARKER_ALPHABET.size))))
    return ("H", Seed(oracle, tuple(g), marker))


@st.composite
def _token_texts(draw, oracle):
    """A raw token, the text it is written as, and whether a postfix
    inverse mark follows it."""
    tok = draw(_tokens(oracle))
    inverted = draw(st.booleans())
    return tok, format_token(*tok) + ("'" if inverted else ""), inverted


@pytest.mark.parametrize("selector", _PARSE_GROUPS)
@given(data=st.data())
def test_parse_tokens_inverts_format_token(selector, data):
    oracle = _parse_oracle(selector)
    drawn = data.draw(st.lists(_token_texts(oracle), max_size=6))
    seps = data.draw(st.lists(st.sampled_from([" ", "\n", "\t", "  \n "]), min_size=len(drawn), max_size=len(drawn)))
    text = "".join(sep + written for sep, (_, written, _) in zip(seps, drawn))
    expected = []
    for tok, _, inverted in drawn:
        expected.append(tok)
        if inverted:
            expected.append(_INV)
    expected = _resolve(expected)
    got = parse_tokens(oracle, text)
    assert [t[0] for t in got] == [t[0] for t in expected]
    for (kind, payload), (_, want) in zip(got, expected):
        if kind == "B":
            assert payload == want
        elif kind == "H":
            assert payload.g == want.g and payload.marker == want.marker
            assert format_token(kind, payload) == format_token(kind, want)


# Characters of the token grammar, so that generated text reaches the
# inner parsers as well as the lexer.
_GRAMMAR_CHARS = list("BH()|'@ \n\t0123xyzopqat.-")


@pytest.mark.parametrize("selector", _PARSE_GROUPS)
@given(text=st.one_of(st.text(), st.text(alphabet=_GRAMMAR_CHARS)))
def test_parse_tokens_raises_only_parse_error(selector, text):
    try:
        parse_tokens(_parse_oracle(selector), text)
    except ParseError:
        pass


# Tokens that fail to parse on every group of _PARSE_GROUPS, each with the
# message it is reported with
_BAD_TOKENS = {
    "B((x@1 y@1))": "rooted letters must be even permutations",
    "B((x@1 w@1))": "bad rooted letter",
    "H(t)": "seed letter needs the form",
    "H(|(x y))": "bad marker cycles: marker permutations must be even",
    "wat": "unrecognized token 'wat'",
    "wat''": "unrecognized token \"wat''\"",
}


@st.composite
def _repeating_files(draw, oracle):
    """A word file that spells a few distinct letters many times: each
    occurrence carries 0 to 3 attached marks and 0 to 2 bare ones.
    Returns the text and, per occurrence, its letter spelling and its
    total mark count."""
    spellings = draw(st.lists(_tokens(oracle).map(lambda tok: format_token(*tok)), min_size=1, max_size=3))
    occurrences = draw(st.lists(
        st.tuples(st.sampled_from(spellings), st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=12))
    text = " ".join(body + "'" * attached + " '" * bare for body, attached, bare in occurrences)
    return text, [(body, attached + bare) for body, attached, bare in occurrences]


@pytest.mark.parametrize("selector", _PARSE_GROUPS)
@given(data=st.data())
def test_parse_tokens_shares_repeated_spellings(selector, data):
    """Every letter equals its token parsed alone with its marks applied
    by ``Perm.inverse`` or ``Seed.inv``; occurrences of one spelling with
    the same mark parity are one object; a bad token after them is
    reported with its own message and position."""
    oracle = _parse_oracle(selector)
    text, occurrences = data.draw(_repeating_files(oracle))
    got = parse_tokens(oracle, text)
    assert len(got) == len(occurrences)
    shared = {}
    for (kind, payload), (body, marks) in zip(got, occurrences):
        [(want_kind, want)] = parse_tokens(oracle, body)
        if marks % 2:
            want = want.inverse() if want_kind == "B" else want.inv()
        assert kind == want_kind
        if kind == "B":
            assert payload == want
        else:
            assert payload.g == want.g and payload.marker == want.marker
        assert shared.setdefault((body, marks % 2), payload) is payload
    bad = data.draw(st.sampled_from(sorted(_BAD_TOKENS)))
    lines = data.draw(st.integers(1, 3))
    column = data.draw(st.integers(1, 4))
    with pytest.raises(ParseError) as err:
        parse_tokens(oracle, text + "\n" * lines + " " * (column - 1) + bad + " " + text)
    assert (err.value.line, err.value.column) == (1 + lines, column)
    with pytest.raises(ParseError) as alone:
        parse_tokens(oracle, bad)
    assert str(err.value).split(": ", 1)[1] == str(alone.value).split(": ", 1)[1]
    assert _BAD_TOKENS[bad] in str(err.value)


def test_parse_tokens_holds_one_array_per_repeated_letter():
    """60 copies of a rooted letter over a 200 005-letter alphabet are one
    image array in the tokens and in their normal word, not 60 (the
    parser once built each copy, 96 MB here)."""
    oracle = oracle_from_selector("finite:200000")
    lvl = build_alphabet(oracle, 1)
    Perm.identity(lvl)
    array = lvl.identity_images.nbytes
    tracemalloc.start()
    try:
        tokens = parse_tokens(oracle, " ".join(["B((x@1 y@1 z@1)) H(t|())"] * 60))
        word = normal_form(oracle, tokens)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert word.h_count == 60 and word.sigma_length == 120
    assert held < 2 * array
    assert peak < 5 * array


def _old_lex(text):
    """The word-file lexer as it was written before it sliced tokens by
    index: one character at a time, into a list of characters."""
    tokens = []
    line, col = 1, 1
    cur = []
    cur_pos = None
    depth = 0
    for ch in text:
        if ch == "\n":
            if cur and depth == 0:
                tokens.append(("".join(cur), cur_pos))
                cur, cur_pos = [], None
            elif cur:
                cur.append(" ")
            line += 1
            col = 1
            continue
        if ch.isspace() and depth == 0:
            if cur:
                tokens.append(("".join(cur), cur_pos))
                cur, cur_pos = [], None
        else:
            if not cur:
                cur_pos = (line, col)
            cur.append(ch)
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth = max(0, depth - 1)
        col += 1
    if cur:
        tokens.append(("".join(cur), cur_pos))
    return tokens


# Pieces of word files: parentheses (balanced or not), inverse marks,
# whitespace of every kind the lexer treats differently (\x0b and \x1c
# are whitespace to str.isspace; only \n starts a line), labels and
# whole tokens
_LEX_PIECES = ["(", ")", "'", "\n", "\r", "\t", " ", "\x0b", "\x1c", "\r\n", "B(", "H(", "|", "x@1",
               "q0@1", "t", "a", "B((x@1 y@1 z@1))", "H(t|(x y z))", "H(a|())'", "(x\ny)", "))", "(("]


@given(text=st.one_of(st.text(), st.lists(st.sampled_from(_LEX_PIECES), max_size=16).map("".join)))
def test_lex_matches_its_former_character_loop(text):
    assert wordcalc._lex(text) == _old_lex(text)


# The decision properties of ROADMAP item 4.  Seed letters carry at most
# two group generators, so that no decision needs a deep quotient level.
_DECIDE_GROUPS = ("dihedral_infinite", "integers", "product:integers,integers")


def _words(oracle, max_size=4):
    return st.lists(_tokens(oracle, max_group_len=2), max_size=max_size)


def _spelled_inverse(oracle, tokens):
    """The inverse of a token sequence written as explicit letters: raw
    inverse image arrays and inverted group words, never an inverse mark
    or ``Perm.inverse``."""
    out = []
    for kind, payload in reversed(tokens):
        if kind == "B":
            out.append(("B", Perm(payload.alphabet, np.argsort(payload.images))))
        else:
            marker = Perm(MARKER_ALPHABET, np.argsort(payload.marker.images))
            out.append(("H", Seed(oracle, word_inverse(oracle, payload.g), marker)))
    return out


@pytest.mark.parametrize("selector", _DECIDE_GROUPS)
@given(data=st.data())
def test_normal_form_is_idempotent(selector, data):
    oracle = _parse_oracle(selector)
    tokens = []
    for tok, inverted in data.draw(st.lists(st.tuples(_tokens(oracle, max_group_len=2), st.booleans()), max_size=6)):
        tokens += [tok, _INV] if inverted else [tok]
    w = normal_form(oracle, _resolve(tokens))
    again = normal_form(oracle, w.tokens())
    assert again.key() == w.key()
    assert str(again) == str(w)


def _assert_alternating(word):
    assert len(word.bs) == len(word.hs) + 1
    assert not any(b.is_identity for b in word.bs[1:-1])
    assert not any(seed_is_trivial(h) for h in word.hs)


@pytest.mark.parametrize("selector", _DECIDE_GROUPS)
@given(data=st.data())
def test_normal_forms_and_sections_alternate(selector, data):
    oracle = _parse_oracle(selector)
    tokens = []
    for tok, inverted in data.draw(st.lists(st.tuples(_tokens(oracle, max_group_len=2), st.booleans()), max_size=6)):
        tokens += [tok, _INV] if inverted else [tok]
    w = normal_form(oracle, _resolve(tokens))
    _assert_alternating(w)
    for sec in section_letters(w).values():
        _assert_alternating(sec)


@pytest.mark.parametrize("selector", _DECIDE_GROUPS)
@given(data=st.data())
def test_section_blocks_multiply_out_a_fragmented_subword(selector, data):
    oracle = _parse_oracle(selector)
    tokens = []
    for tok, inverted in data.draw(st.lists(st.tuples(_tokens(oracle, max_group_len=2), st.booleans()), max_size=6)):
        tokens += [tok, _INV] if inverted else [tok]
    tokens = _resolve(tokens)
    w = normal_form(oracle, tokens)
    raw_seeds = [payload for kind, payload in tokens if kind == "H"]
    for word, source in [(w, raw_seeds)] + [(sec, list(w.hs)) for sec in section_letters(w).values()]:
        assert len(word.blocks) == word.h_count
        for h, block in zip(word.hs, word.blocks):
            merged = functools.reduce(Seed.mul, block)
            assert merged.g == h.g and merged.marker == h.marker
        flat = [h for block in word.blocks for h in block]
        assert is_fragmented_subword(flat, source)


def _pin_tokens(oracle, rng):
    """Raw tokens drawn from small pools, so that letters cancel, merge
    and meet inverse marks often."""
    lvl = build_alphabet(oracle, 1)
    rooted_pool = [Perm.identity(lvl.alphabet)] + [random_even_perm(lvl.alphabet, rng) for _ in range(2)]
    markers = [marker_perm("()"), marker_perm("(x y z)"), marker_perm("(o p q)")]
    tokens = []
    for _ in range(rng.randrange(7)):
        if rng.random() < 0.4:
            tok = ("B", rng.choice(rooted_pool))
        else:
            g = tuple(rng.randrange(len(oracle.gen_names)) for _ in range(rng.randrange(3)))
            tok = ("H", Seed(oracle, g, rng.choice(markers)))
        tokens.append(tok)
        roll = rng.random()
        if roll < 0.2:
            tokens.append(_INV)
        elif roll < 0.35:
            tokens += [tok, _INV]
    return _resolve(tokens)


# sha256 over 150 seeded words per group: each normal form's text,
# sigma_length and key, its section_letters, and the section at every
# first-level letter (text and block keys; an absent letter hashes as the
# empty word with no blocks).  Keys hold permutations, whose repr is their
# cycle notation, so the pins do not depend on how images are stored.
_WORD_CALCULUS_PINS = {
    "dihedral_infinite": "ade176f32014f00af4968c6916229351264a01e53dfffe5b11e30841e27175ba",
    "integers": "3a554f115be638455835886cd17751f87195c5056bc18cb9d422c4bc85da4c4f",
    "product:integers,integers": "ac858a1c7dceea3186858a252364586babcd725f121a76b868273e4d9215d718",
    "finite:3": "5861333fa061f71b483dd64c82d84255cdcba5b78dba98cea4b7234bb7462fb6",
}


@pytest.mark.parametrize("selector", sorted(_WORD_CALCULUS_PINS))
def test_word_calculus_bytes(selector):
    oracle = oracle_from_selector(selector)
    size = build_alphabet(oracle, 1).size
    rng = random.Random(f"pins/{selector}")
    h = hashlib.sha256()
    for _ in range(150):
        w = normal_form(oracle, _pin_tokens(oracle, rng))
        h.update(repr((str(w), w.sigma_length, w.key())).encode())
        sections = section_letters(w)
        h.update(repr([(i, str(s), s.key()) for i, s in sections.items()]).encode())
        for idx in range(size):
            sec = sections.get(idx)
            text, blocks = (str(sec), sec.blocks) if sec is not None else ("(empty)", [])
            h.update(repr((text, [[s.key() for s in block] for block in blocks])).encode())
    assert h.hexdigest() == _WORD_CALCULUS_PINS[selector]


def _block_pin_tokens(oracle, rng):
    """Four to eight seed letters, each after a random rooted letter, so
    that one first-level letter often receives seed letters from several
    places of the word and its section has two or more blocks."""
    lvl = build_alphabet(oracle, 1)
    tokens = []
    for _ in range(rng.randrange(4, 9)):
        g = tuple(rng.randrange(len(oracle.gen_names)) for _ in range(rng.randrange(1, 3)))
        tokens.append(("B", random_even_perm(lvl.alphabet, rng)))
        tokens.append(("H", Seed(oracle, g, random_marker_perm(rng))))
    return tokens


# sha256 over 100 seeded words per group of _block_pin_tokens: every
# section's letter, text and blocks (seed keys in order); the blocks of
# one section differ, so storing them in another order changes the digest
_BLOCK_ORDER_PINS = {
    "dihedral_infinite": "15cf805cb4601b704d84554f82ac0a8d121f45f65191793647b20bb3a03a3aad",
    "integers": "640698ddbd4583bab68441181475e46ab37818b1231df5c4c1df53cbaf800f60",
    "product:integers,integers": "8b06e29a110486bb6a08b49e55f62824ebe1349123df790b1a5953bb77ee2b57",
}


@pytest.mark.parametrize("selector", sorted(_BLOCK_ORDER_PINS))
def test_section_block_order_bytes(selector):
    oracle = oracle_from_selector(selector)
    rng = random.Random(f"blocks/{selector}")
    h = hashlib.sha256()
    multi = 0
    for _ in range(100):
        w = normal_form(oracle, _block_pin_tokens(oracle, rng))
        for i, s in section_letters(w).items():
            h.update(repr((i, str(s), [[seed.key() for seed in block] for block in s.blocks])).encode())
            multi += len(s.blocks) >= 2
    assert multi >= 30
    assert h.hexdigest() == _BLOCK_ORDER_PINS[selector]


@pytest.mark.parametrize("selector", _DECIDE_GROUPS)
def test_warm_decider_builds_no_identity_arrays(selector, monkeypatch):
    """Once its levels are built, the decider reads each alphabet's one
    identity array and compares image bytes: a warm parse, normal form
    and decision loop calls neither numpy.arange nor numpy.array_equal."""
    oracle = oracle_from_selector(selector)
    rng = random.Random(f"warm/{selector}")
    texts = []
    for _ in range(40):
        letters = [format_token(*tok) for tok in _pin_tokens(oracle, rng) + _block_pin_tokens(oracle, rng)[:4]]
        if rng.random() < 0.5:
            letters += [f"{text}'" for text in reversed(letters)]
        texts.append(" ".join(letters))

    def decide_all():
        return [decide(normal_form(oracle, parse_tokens(oracle, text))).trivial for text in texts]

    warm = decide_all()
    assert True in warm and False in warm
    calls = {"arange": 0, "array_equal": 0}
    for name in calls:

        def counted(*args, _name=name, _real=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    assert decide_all() == warm
    assert calls == {"arange": 0, "array_equal": 0}


@pytest.mark.parametrize("selector", _DECIDE_GROUPS)
def test_identity_images_are_read_only_and_never_aliased(selector):
    oracle = oracle_from_selector(selector)
    lvl = build_alphabet(oracle, 1)
    ident = lvl.alphabet.identity_images
    assert ident.tolist() == list(range(lvl.size)) and lvl.alphabet.identity_images is ident
    with pytest.raises(ValueError):
        ident[0] = 1
    assert Perm.identity(lvl.alphabet).images is ident
    rng = random.Random(selector)
    p = random_even_perm(lvl.alphabet, rng)
    results = [
        Perm.from_cycles(lvl.alphabet, "()"),
        Perm.from_cycles(lvl.alphabet, str(p)),
        p.inverse(),
        Perm.identity(lvl.alphabet).inverse(),
        compose(p, p.inverse()),
        compose(Perm.identity(lvl.alphabet), Perm.identity(lvl.alphabet)),
        *default_b_gens(oracle),
        *(suites._displacing_perm(oracle, rng) for _ in range(5)),
    ]
    for n in (1, 2):
        for g in ((), (0,)):
            for marker in ("()", "(x y z)", "(o p q)"):
                seed = Seed(oracle, g, marker_perm(marker))
                results += [coset_action(oracle, n, seed), marker_action(oracle, n, seed)]
    for r in results:
        assert not np.shares_memory(r.images, r.alphabet.identity_images)


@st.composite
def _trivial_commutators(draw, oracle):
    """``b h b^-1 h^-1`` with explicit inverse letters, for a rooted 3-cycle
    ``b`` fixing x, y and z, which commutes with every seed letter ``h``.
    The word is trivial but its normal form keeps both seed letters, so
    the decider has to search below the root."""
    lvl = build_alphabet(oracle, 1)
    others = [i for i in range(lvl.size) if i not in (lvl.x_index, lvl.y_index, lvl.z_index)]
    a, b, c = draw(st.permutations(others))[:3]
    img = list(range(lvl.size))
    img[a], img[b], img[c] = b, c, a
    rooted_letter = ("B", Perm(lvl.alphabet, img))
    seed_letter = draw(_tokens(oracle, max_group_len=2).filter(lambda tok: tok[0] == "H"))
    return [rooted_letter, seed_letter] + _spelled_inverse(oracle, [rooted_letter]) + _spelled_inverse(oracle, [seed_letter])


@pytest.mark.parametrize("selector", _DECIDE_GROUPS)
@given(data=st.data())
def test_decide_is_conjugation_invariant(selector, data):
    oracle = _parse_oracle(selector)
    word = data.draw(_words(oracle))
    if data.draw(st.booleans()):
        # a conjugate of a trivial commutator, so trivial words with seed
        # letters occur as often as nontrivial ones
        word = word + data.draw(_trivial_commutators(oracle)) + _spelled_inverse(oracle, word)
    t = data.draw(_tokens(oracle, max_group_len=2))
    plain = decide(normal_form(oracle, word))
    conjugated = decide(normal_form(oracle, _resolve([t] + word + [t, _INV])))
    assert conjugated.trivial == plain.trivial


@pytest.mark.parametrize("selector", _DECIDE_GROUPS)
@given(data=st.data())
def test_decide_spelled_out_inverse_is_trivial(selector, data):
    oracle = _parse_oracle(selector)
    u, v = data.draw(_words(oracle, 3)), data.draw(_words(oracle, 3))
    back = _spelled_inverse(oracle, v) + _spelled_inverse(oracle, u)
    assert decide(normal_form(oracle, u + v + back)).trivial
    commutator = data.draw(_trivial_commutators(oracle))
    d = decide(normal_form(oracle, u + v + commutator + back))
    assert d.trivial and d.witness is None


# Conjugacy certificates against the input group's own decider.  The
# hidden twin of each group answers UNSUPPORTED, so its certificates are
# never ``conjugate``; its conjugators come from the test-side search over
# one seed letter and no rooted letters.  It compares cycle types on
# level 1 only, where most pairs look alike.
_CONJ_GROUPS = ("dihedral_infinite", "integers")


@functools.cache
def _hidden_oracle(selector):
    return _hidden_conjugacy(type(_parse_oracle(selector)))


def _conjugates_to(oracle, c, g, k):
    """c^-1 H(g) c H(k)^-1, spelled with explicit inverse letters, decided."""
    proof = _spelled_inverse(oracle, c.tokens()) + [("H", g)] + c.tokens() + _spelled_inverse(oracle, [("H", k)])
    return decide(normal_form(oracle, proof)).trivial


@pytest.mark.parametrize("hidden", [False, True], ids=["decider", "search"])
@pytest.mark.parametrize("selector", _CONJ_GROUPS)
@given(data=st.data())
def test_conjugate_certificates_are_proved(selector, hidden, data):
    oracle = _hidden_oracle(selector) if hidden else _parse_oracle(selector)
    bounds = SearchBounds(depth=1) if hidden else SearchBounds(depth=2)
    seeds = _tokens(oracle, max_group_len=2).filter(lambda tok: tok[0] == "H").map(lambda tok: tok[1])
    g = data.draw(seeds)
    by_conjugation = data.draw(st.booleans())
    if by_conjugation:
        c = data.draw(seeds)
        k = c.inv().mul(g).mul(c)
    else:
        k = data.draw(seeds)
    cert = conjugacy_certificate(g, k, bounds)
    if cert.kind == "not_conjugate":
        assert verify_certificate(cert, g, k)
    if hidden:
        # no refutation may meet a conjugator that the search proves
        assert cert.kind != "conjugate"
        assert _searched_conjugator(oracle, g, k) is None or cert.kind == "unknown"
        return
    if by_conjugation:
        assert cert.kind == "conjugate"
    if cert.kind == "conjugate":
        assert _parse_oracle(selector).conjugate(g.g, k.g) is not NOT_CONJUGATE
        assert _conjugates_to(oracle, cert.conjugator, g, k)
        assert verify_certificate(cert, g, k)
