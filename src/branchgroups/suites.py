"""Seeded verification suites shared by the test suite and the CLI.

Every suite is ``suite(oracle, seed=0)``: its sizes and depths are fixed,
and it returns a JSON-ready dict with an ``ok`` flag, counts, and failure
details.  The suites implement the package's cross-checking strategy:
symbolic machinery (normal forms, section rewriting, the stabilizer
decider) is always validated against an independent semantic route
(per-vertex evaluation, materialized level permutations, or structural
breadth-first search over expression sections).
"""

from __future__ import annotations

import random

from .alphabet import Seed, build_alphabet, coset_action, marker_action, marker_perm, random_marker_perm
from .perm import IndexedAlphabet, Perm, check_alternating_generation, orbit, random_even_perm
from .resfin import NOT_CONJUGATE, UNSUPPORTED, parse_word, word_inverse
from .treeauto import (
    Vertex,
    directed,
    embed_shift,
    equal_to_depth,
    eval_vertex,
    first_moved_level,
    identity_aut,
    invert,
    nontrivial_vertex,
    product,
    rooted,
    section_at,
    vertex_count,
)
from .wordcalc import (
    SearchBounds,
    conjugacy_certificate,
    decide,
    default_b_gens,
    is_fragmented_subword,
    letters_aut,
    normal_form,
    section_letters,
    seed_is_trivial,
    verify_certificate,
)

__all__ = [
    "SUITES",
    "run_suite",
    "suite_perm",
    "suite_alphabet",
    "suite_sections",
    "suite_contraction",
    "suite_branch_identities",
    "suite_wp_oracle",
    "suite_frattini",
    "semantic_wp_oracle",
    "representative_tokens",
    "random_token",
    "random_seed_elem",
]


# ---------------------------------------------------------------------------
# random material


def random_seed_elem(oracle, rng, max_len=2, nontrivial=False):
    g = tuple(rng.randrange(len(oracle.gen_names)) for _ in range(rng.randrange(max_len + 1)))
    s = Seed(oracle, g, random_marker_perm(rng))
    if nontrivial and seed_is_trivial(s):
        s = Seed(oracle, g, marker_perm("(x y z)"))
    return s


def random_token(oracle, rng):
    """One random generator token: a rooted even permutation, or a seed
    letter pairing a single group generator with any even marker.  Both
    kinds spell exactly one generator of the level-0 group."""
    lvl = build_alphabet(oracle, 1)
    if rng.random() < 0.4:
        return ("B", random_even_perm(lvl, rng))
    g = (rng.randrange(len(oracle.gen_names)),)
    return ("H", Seed(oracle, g, random_marker_perm(rng)))


def representative_tokens(oracle):
    """A small deterministic generator-token alphabet used where exhaustive
    enumeration over the full (astronomically large) generating set is
    meant."""
    toks = []
    markers = [marker_perm("(x y z)"), marker_perm("(x p)(y q)")]
    for s in range(len(oracle.gen_names)):
        toks.append(("H", Seed(oracle, (s,))))
        toks.append(("H", Seed(oracle, (s,), markers[s % 2])))
    bg = default_b_gens(oracle)
    toks.append(("B", bg[0]))
    toks.append(("B", bg[len(bg) // 2]))
    lvl = build_alphabet(oracle, 1)
    if lvl.quotient.order >= 3:
        toks.append(("B", Perm.from_cycles(lvl, "(q0@1 q1@1 q2@1)")))
    else:
        toks.append(("B", Perm.from_cycles(lvl, "(q0@1 q1@1)(p@1 q@1)")))
    return toks


def _result(name, failures, extra=None):
    out = {"suite": name, "ok": not failures, "failed": len(failures), "failures": failures[:10]}
    if extra:
        out.update(extra)
    return out


# ---------------------------------------------------------------------------
# suites


def suite_perm(oracle, seed=0):
    """Seeded instances of the alternating-generation checker, all expected
    to generate the full even group when the preconditions hold.  The
    instances are abstract alphabets, so ``oracle`` is not read."""
    rng = random.Random(seed)
    failures = []
    samples = 50
    done = 0
    while done < samples:
        size = rng.randrange(5, 9)
        a_size = rng.randrange(3, size + 1)
        b_size = size + 1 - a_size
        if b_size == 2:  # two-point blocks admit no even transitive action
            continue
        omega = IndexedAlphabet(size)
        meet = a_size - 1
        a_sub = list(range(a_size))
        b_sub = list(range(meet, size))
        gens = []
        if b_size >= 3:
            for _ in range(10):
                img = list(range(size))
                block = b_sub[:]
                rng.shuffle(block)
                for spot, val in zip(b_sub, block):
                    img[spot] = val
                p = Perm(omega, img)
                if p.sign != 1:
                    img[b_sub[0]], img[b_sub[1]] = img[b_sub[1]], img[b_sub[0]]
                    p = Perm(omega, img)
                gens.append(p)
                if set(b_sub) <= orbit([q.images.tolist() for q in gens], [meet]):
                    break
        try:
            got = check_alternating_generation(omega, a_sub, b_sub, gens)
        except ValueError as exc:
            failures.append({"case": done, "error": str(exc)})
            done += 1
            continue
        if got is not True:
            failures.append({"case": done, "size": size, "a": a_size})
        done += 1
    return _result("perm", failures, {"samples": samples})


def suite_alphabet(oracle, seed=0):
    """Both letter actions land in the even permutations on levels 1 to
    4, and the coset action always fixes x, y and z.  The parity is read
    off each action's images, not the sign the action was built with."""
    rng = random.Random(seed)
    failures = []
    samples = 500
    for case in range(samples):
        n = rng.randrange(1, 5)
        h = random_seed_elem(oracle, rng, max_len=3)
        phi = coset_action(oracle, n, h)
        psi = marker_action(oracle, n, h)
        lvl = build_alphabet(oracle, n)
        if Perm(lvl, phi.images).sign != 1 or Perm(lvl, psi.images).sign != 1:
            failures.append({"oracle": oracle.name, "case": case, "reason": "odd action"})
        if any(phi(i) != i for i in (lvl.x_index, lvl.y_index, lvl.z_index)):
            failures.append({"oracle": oracle.name, "case": case, "reason": "moved x, y or z"})
    return _result("alphabet", failures, {"samples": samples})


def suite_sections(oracle, seed=0):
    """Symbolic section words agree with semantic sections to depth 3 for
    every first-level letter, on 100 random pair products of generator
    tokens.

    The semantic side sections the raw product of the two factors (the
    product rule applies across the pair); the symbolic side rewrites the
    normalized concatenation."""
    rng = random.Random(seed)
    lvl = build_alphabet(oracle, 1)
    failures = []
    pairs, depth = 100, 3
    for case in range(pairs):
        alpha = [random_token(oracle, rng) for _ in range(rng.randrange(1, 3))]
        beta = [random_token(oracle, rng) for _ in range(rng.randrange(1, 3))]
        word = normal_form(oracle, alpha + beta)
        semantic = product(
            [letters_aut(oracle, 0, alpha), letters_aut(oracle, 0, beta)],
            oracle=oracle, base_level=0,
        )
        sections = section_letters(word)
        for idx in range(lvl.size):
            sym = sections[idx].to_aut() if idx in sections else identity_aut(oracle, 1)
            sem = section_at(semantic, idx)
            if not equal_to_depth(sym, sem, depth):
                failures.append({"case": case, "letter": idx})
                break
    return _result("sections", failures, {"pairs": pairs, "depth": depth})


def suite_contraction(oracle, seed=0):
    """Sections of 100 random normal-form words contract: the seed-letter
    count at most halves (rounded up), the surviving letters multiply out
    a fragmented subword, and at three random first-level letters per
    word the rewriting agrees with the semantic section to depth 3."""
    rng = random.Random(seed)
    lvl = build_alphabet(oracle, 1)
    failures = []
    checked = 0
    for case in range(100):
        n = rng.randrange(1, 7)
        toks = []
        for _ in range(n):
            toks.append(("B", random_even_perm(lvl, rng)))
            toks.append(("H", random_seed_elem(oracle, rng, nontrivial=True)))
        toks.append(("B", random_even_perm(lvl, rng)))
        word = normal_form(oracle, toks)
        if word.h_count < 1:
            continue
        checked += 1
        bound = (word.h_count + 1) // 2
        semantic = word.to_aut()
        sem_letters = rng.sample(range(lvl.size), min(3, lvl.size))
        sections = section_letters(word)
        for idx in range(lvl.size):
            sec = sections.get(idx)
            h_count, blocks = (sec.h_count, sec.blocks) if sec is not None else (0, ())
            if h_count > bound:
                failures.append({"case": case, "letter": idx, "reason": "contraction bound"})
                break
            flat = [h for block in blocks for h in block]
            if not is_fragmented_subword(flat, list(word.hs)):
                failures.append({"case": case, "letter": idx, "reason": "not a fragmented subword"})
                break
            if idx in sem_letters:
                sym = sec.to_aut() if sec is not None else identity_aut(oracle, 1)
                if not equal_to_depth(sym, section_at(semantic, idx), 3):
                    failures.append({"case": case, "letter": idx, "reason": "semantic mismatch"})
                    break
    return _result("contraction", failures, {"words": checked})


def _displacing_perm(oracle, rng):
    """A random even first-level permutation fixing z and moving both
    x and y outside {x, y}."""
    lvl = build_alphabet(oracle, 1)
    others = [i for i in range(lvl.size) if i not in (lvl.x_index, lvl.y_index, lvl.z_index)]
    a1, a2 = rng.sample(others, 2)
    img = lvl.identity_images.copy()
    img[lvl.x_index], img[a1] = a1, lvl.x_index
    img[lvl.y_index], img[a2] = a2, lvl.y_index
    rest = [i for i in others if i not in (a1, a2)]
    if len(rest) >= 3 and rng.random() < 0.5:
        r1, r2, r3 = rng.sample(rest, 3)
        img[r1], img[r2], img[r3] = img[r2], img[r3], img[r1]
    return Perm(lvl, img, check=False)


def suite_branch_identities(oracle, seed=0):
    """Machine-check the two section identities behind the branch property.

    For a rooted even letter s fixing z and displacing {x, y} off itself:
    (i) the commutator of the s-conjugate of a directed letter with
    another directed letter is supported below z, where it acts as the
    rooted marker action of the seed commutator; (ii) a directed letter
    times correcting shifts below y and z equals its own shift below x.
    Both identities are checked to depth 4 on 20 random seed pairs."""
    rng = random.Random(seed)
    lvl = build_alphabet(oracle, 1)
    if lvl.size < 7:
        raise ValueError("first-level alphabet must have at least 7 letters")
    x1, y1, z1 = Vertex(0, ("x@1",)), Vertex(0, ("y@1",)), Vertex(0, ("z@1",))
    failures = []
    count = 20
    for case in range(count):
        h = random_seed_elem(oracle, rng)
        k = random_seed_elem(oracle, rng)
        s = rooted(oracle, 0, _displacing_perm(oracle, rng))
        hd = directed(oracle, h, 0)
        kd = directed(oracle, k, 0)

        u = product([invert(s), hd, s])
        comm = product([invert(u), invert(kd), u, kd])
        expected = rooted(oracle, 1, marker_action(oracle, 2, h.commutator(k)))
        if not equal_to_depth(comm, embed_shift(z1, expected), 4):
            failures.append({"case": case, "identity": "commutator-support"})

        phi = coset_action(oracle, 2, h)
        psi = marker_action(oracle, 2, h)
        lhs = product([
            hd,
            embed_shift(y1, rooted(oracle, 1, phi.inverse())),
            embed_shift(z1, rooted(oracle, 1, psi.inverse())),
        ], oracle=oracle, base_level=0)
        rhs = embed_shift(x1, directed(oracle, h, 1))
        if not equal_to_depth(lhs, rhs, 4):
            failures.append({"case": case, "identity": "shift-product"})
    return _result("branch-identities", failures, {"samples": count, "first_level_size": lvl.size})


def semantic_wp_oracle(oracle, aut, depth):
    """Ground-truth triviality by semantic evaluation to ``depth``,
    independent of the word calculus.

    A breadth-first search over expression sections scans every vertex
    class down to the decision depth.  The levels within the oracle's
    ``vertex_cap`` are additionally materialized in one column pass
    (:func:`first_moved_level`) and must agree with the search: the
    shallowest moved level is the witness's depth, and there is none when
    the witness is None or lies deeper.  Levels are materialized down to
    the witness's depth when it lies within the cap, since every vertex
    below a moved vertex is moved, and otherwise down to the deepest level
    within the cap.  A disagreement names the shallowest level where the
    two differ.  A returned witness is re-verified by per-vertex
    evaluation."""
    witness = nontrivial_vertex(aut, depth)
    if witness is not None and eval_vertex(aut, witness) == witness:
        raise AssertionError("structural search returned an unmoved witness")
    levels = 0
    while levels < depth and vertex_count(oracle, 0, levels + 1) <= oracle.vertex_cap:
        levels += 1
    expected = witness.depth if witness is not None and witness.depth <= levels else None
    moved = first_moved_level(aut, expected or levels)
    if moved != expected:
        d = min(x for x in (moved, expected) if x is not None)
        raise AssertionError(
            f"level enumeration at depth {d} disagrees with the structural search"
        )
    return witness is None


def suite_wp_oracle(oracle, seed=0):
    """Word-problem decider versus the semantic oracle.

    Exhaustively over all words of length up to two in a representative
    token alphabet, then on 200 seeded random words of length up to 4;
    every tenth random word is replaced by a token sequence
    followed by its formal inverse, guaranteeing trivial inputs that do
    not rely on the calculus under test.  The decider runs on the
    normalized word; the oracle evaluates the raw token product
    semantically."""
    toks = representative_tokens(oracle)
    random_count = 200
    exhaustive = [[t] for t in toks] + [[t, u] for t in toks for u in toks]

    def cases():
        for i, tseq in enumerate(exhaustive):
            yield "exhaustive", i, tseq
        rng = random.Random(seed)
        for case in range(1, random_count + 1):
            length = rng.randrange(1, 5)
            tseq = [random_token(oracle, rng) for _ in range(length)]
            if case % 10 == 0:  # salt in guaranteed trivial words: u followed by u inverted
                half = [random_token(oracle, rng) for _ in range(max(1, length // 2))]
                tseq = half + [(k, p.inverse() if k == "B" else p.inv()) for k, p in reversed(half)]
            yield "random", case, tseq

    failures = []
    trivial_seen = 0
    for phase, case, tseq in cases():
        word = normal_form(oracle, tseq)
        got = decide(word)
        want = semantic_wp_oracle(oracle, letters_aut(oracle, 0, tseq), 2 * word.sigma_length)
        trivial_seen += got.trivial
        if got.trivial != want:
            failures.append({"phase": phase, "case": case})
    return _result(
        "wp-oracle",
        failures,
        {"exhaustive": len(exhaustive), "random": random_count, "trivial_decisions": trivial_seen},
    )


def suite_frattini(oracle, seed=0):
    """Forward direction of conjugacy preservation: 20 conjugate
    input-group pairs yield verified witnesses; 10 non-conjugate pairs
    never yield one.  Cycle types are compared to depth 4."""
    rng = random.Random(seed)
    bounds = SearchBounds(depth=4)
    conj_pairs = 20
    failures = []
    outcomes = {"conjugate": 0, "not_conjugate": 0, "unknown": 0}
    made = 0
    while made < conj_pairs:
        g_word = tuple(rng.randrange(len(oracle.gen_names)) for _ in range(rng.randrange(1, 4)))
        if oracle.is_identity(g_word):
            continue
        c_word = tuple(rng.randrange(len(oracle.gen_names)) for _ in range(rng.randrange(0, 4)))
        k_word = word_inverse(oracle, c_word) + g_word + c_word
        g, k = Seed(oracle, g_word), Seed(oracle, k_word)
        cert = conjugacy_certificate(g, k, bounds)
        made += 1
        if cert.kind != "conjugate":
            failures.append({"phase": "conjugate", "case": made, "kind": cert.kind})
            continue
        if not verify_certificate(cert, g, k):
            failures.append({"phase": "conjugate", "case": made, "reason": "verification failed"})
    pairs = _nonconjugate_pairs(oracle, 10)
    for i, (g_word, k_word) in enumerate(pairs):
        g, k = Seed(oracle, g_word), Seed(oracle, k_word)
        assert oracle.conjugate(g_word, k_word) in (NOT_CONJUGATE, UNSUPPORTED)
        cert = conjugacy_certificate(g, k, bounds)
        outcomes[cert.kind] += 1
        if cert.kind == "conjugate":
            failures.append({"phase": "nonconjugate", "case": i, "reason": "false witness"})
        elif cert.kind == "not_conjugate" and not verify_certificate(cert, g, k):
            failures.append({"phase": "nonconjugate", "case": i, "reason": "refutation failed recheck"})
    return _result("frattini", failures, {"conj_pairs": conj_pairs, "nonconj_outcomes": outcomes})


def _nonconjugate_pairs(oracle, count):
    """Deterministic non-conjugate pairs for the bundled groups."""
    t = parse_word(oracle, "t") if "t" in oracle.gen_names else (0,)
    pairs = []
    if "a" in oracle.gen_names:
        a = parse_word(oracle, "a")
        pairs = [
            (t, t + t),
            (t, a),
            (a, a + t),
            (t + t, t + t + t),
            (a, t),
            (a + t, t),
            (t, t + t + t),
            (a + t, a + t + t),
            (t + t, a),
            (a, a + t + t + t),
        ]
    else:
        for i in range(1, count + 1):
            pairs.append((t * i, t * (i + 1)))
    return pairs[:count]


SUITES = {
    "perm": suite_perm,
    "alphabet": suite_alphabet,
    "sections": suite_sections,
    "contraction": suite_contraction,
    "branch-identities": suite_branch_identities,
    "wp-oracle": suite_wp_oracle,
    "frattini": suite_frattini,
}


def run_suite(name, oracle, seed=0):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](oracle, seed)
