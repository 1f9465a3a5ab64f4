"""Seeded verification suites shared by the test suite and the CLI.

Every suite takes an explicit random seed and returns a JSON-ready dict
with an ``ok`` flag, counts, and failure details.  The suites implement
the package's cross-checking strategy: symbolic machinery (normal forms,
section rewriting, the stabilizer decider) is always validated against an
independent semantic route (per-vertex evaluation, materialized level
permutations, or structural breadth-first search over expression
sections).
"""

from __future__ import annotations

import random

from .alphabet import Seed, build_alphabet, coset_action, marker_action, marker_perm, random_marker_perm
from .perm import IndexedAlphabet, Perm, check_alternating_generation, random_even_perm
from .resfin import NOT_CONJUGATE, UNSUPPORTED, parse_word, word_inverse
from .treeauto import (
    DEFAULT_VERTEX_CAP,
    equal_to_depth,
    eval_vertex,
    level_perm,
    nontrivial_vertex,
    section_at,
    vertex_count,
)
from .wordcalc import (
    SearchBounds,
    conjugacy_certificate,
    decide,
    default_b_gens,
    is_fragmented_subword,
    normal_form,
    section_word,
    section_word_traced,
    seed_is_trivial,
    verify_branch_identities,
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
        return ("B", random_even_perm(lvl.alphabet, rng))
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
        toks.append(("B", Perm.from_cycles(lvl.alphabet, "(q0@1 q1@1 q2@1)")))
    else:
        toks.append(("B", Perm.from_cycles(lvl.alphabet, "(q0@1 q1@1)(p@1 q@1)")))
    return toks


def _result(name, failures, extra=None):
    out = {"suite": name, "ok": not failures, "failed": len(failures), "failures": failures[:10]}
    if extra:
        out.update(extra)
    return out


# ---------------------------------------------------------------------------
# suites


def suite_perm(seed=0, samples=50):
    """Seeded instances of the alternating-generation checker, all expected
    to generate the full even group when the preconditions hold."""
    rng = random.Random(seed)
    failures = []
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
                orbit = {meet}
                frontier = [meet]
                while frontier:
                    x = frontier.pop()
                    for q in gens:
                        y = q(x)
                        if y not in orbit:
                            orbit.add(y)
                            frontier.append(y)
                if set(b_sub) <= orbit:
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


def suite_alphabet(oracles, seed=0, samples=500, max_level=4):
    """Both letter actions land in the even permutations at every level,
    and the coset action always fixes x, y and z."""
    rng = random.Random(seed)
    failures = []
    per = max(1, samples // len(oracles))
    for oracle in oracles:
        for case in range(per):
            n = rng.randrange(1, max_level + 1)
            h = random_seed_elem(oracle, rng, max_len=3)
            phi = coset_action(oracle, n, h)
            psi = marker_action(oracle, n, h)
            lvl = build_alphabet(oracle, n)
            if phi.sign != 1 or psi.sign != 1:
                failures.append({"oracle": oracle.name, "case": case, "reason": "odd action"})
            if any(phi(i) != i for i in (lvl.x_index, lvl.y_index, lvl.z_index)):
                failures.append({"oracle": oracle.name, "case": case, "reason": "moved x, y or z"})
    return _result("alphabet", failures, {"samples": per * len(oracles)})


def suite_sections(oracle, seed=0, pairs=100, depth=3):
    """Symbolic section words agree with semantic sections for every
    first-level letter, on random pair products of generator tokens.

    The semantic side sections the raw product of the two factors (the
    product rule applies across the pair); the symbolic side rewrites the
    normalized concatenation."""
    from .treeauto import product as aut_product

    rng = random.Random(seed)
    lvl = build_alphabet(oracle, 1)
    failures = []
    for case in range(pairs):
        alpha = [random_token(oracle, rng) for _ in range(rng.randrange(1, 3))]
        beta = [random_token(oracle, rng) for _ in range(rng.randrange(1, 3))]
        word = normal_form(oracle, alpha + beta)
        semantic = aut_product(
            [_raw_token_aut(oracle, alpha), _raw_token_aut(oracle, beta)],
            oracle=oracle, base_level=0,
        )
        for idx in range(lvl.size):
            sym = section_word(word, idx)
            sem = section_at(semantic, idx)
            if not equal_to_depth(sym.to_aut(), sem, depth):
                failures.append({"case": case, "letter": idx})
                break
    return _result("sections", failures, {"pairs": pairs, "depth": depth})


def suite_contraction(oracle, seed=0, words=100, depth=3, semantic_sample=3):
    """Sections of normal-form words contract: the seed-letter count at
    most halves (rounded up), the surviving letters multiply out a
    fragmented subword, and the rewriting agrees with the semantic
    section."""
    rng = random.Random(seed)
    lvl = build_alphabet(oracle, 1)
    failures = []
    checked = 0
    for case in range(words):
        n = rng.randrange(1, 7)
        toks = []
        for _ in range(n):
            toks.append(("B", random_even_perm(lvl.alphabet, rng)))
            toks.append(("H", random_seed_elem(oracle, rng, nontrivial=True)))
        toks.append(("B", random_even_perm(lvl.alphabet, rng)))
        word = normal_form(oracle, toks)
        if word.h_count < 1:
            continue
        checked += 1
        bound = (word.h_count + 1) // 2
        semantic = word.to_aut()
        sem_letters = rng.sample(range(lvl.size), min(semantic_sample, lvl.size))
        for idx in range(lvl.size):
            sec, blocks = section_word_traced(word, idx)
            if sec.h_count > bound:
                failures.append({"case": case, "letter": idx, "reason": "contraction bound"})
                break
            flat = [h for block in blocks for h in block]
            if not is_fragmented_subword(flat, list(word.hs)):
                failures.append({"case": case, "letter": idx, "reason": "not a fragmented subword"})
                break
            if idx in sem_letters:
                if not equal_to_depth(sec.to_aut(), section_at(semantic, idx), depth):
                    failures.append({"case": case, "letter": idx, "reason": "semantic mismatch"})
                    break
    return _result("contraction", failures, {"words": checked})


def suite_branch_identities(oracle, seed=0, count=20, depth=4):
    rng = random.Random(seed)
    report = verify_branch_identities(oracle, count, rng, depth=depth)
    return _result("branch-identities", report["failures"],
                   {"samples": count, "first_level_size": report["first_level_size"]})


def semantic_wp_oracle(oracle, aut, depth, cap=DEFAULT_VERTEX_CAP):
    """Ground-truth triviality by semantic evaluation to ``depth``,
    independent of the word calculus.

    A breadth-first search over expression sections scans every vertex
    class down to the decision depth; on the shallow levels within the
    vertex cap the full level permutation is additionally materialized and
    must agree with the search.  A returned witness is re-verified by
    per-vertex evaluation."""
    witness = nontrivial_vertex(aut, depth)
    if witness is not None and eval_vertex(aut, witness) == witness:
        raise AssertionError("structural search returned an unmoved witness")
    for d in range(1, depth + 1):
        if vertex_count(oracle, 0, d) > cap:
            break
        moved = not level_perm(aut, d, cap=cap).is_identity
        expected = witness is not None and witness.depth <= d
        if moved != expected:
            raise AssertionError(
                f"level enumeration at depth {d} disagrees with the structural search"
            )
    return witness is None


def _raw_token_aut(oracle, tseq):
    from .treeauto import directed, product, rooted

    parts = [
        rooted(oracle, 0, p) if kind == "B" else directed(oracle, p, 0)
        for kind, p in tseq
    ]
    return product(parts, oracle=oracle, base_level=0)


def suite_wp_oracle(oracle, seed=0, random_count=200, max_len=4, cap=DEFAULT_VERTEX_CAP):
    """Word-problem decider versus the semantic oracle.

    Exhaustively over all words of length up to two in a representative
    token alphabet, then on seeded random words of length up to
    ``max_len``; every tenth random word is replaced by a token sequence
    followed by its formal inverse, guaranteeing trivial inputs that do
    not rely on the calculus under test.  The decider runs on the
    normalized word; the oracle evaluates the raw token product
    semantically."""
    failures = []
    toks = representative_tokens(oracle)
    exhaustive = [[t] for t in toks] + [[t, u] for t in toks for u in toks]
    trivial_seen = 0
    for i, tseq in enumerate(exhaustive):
        word = normal_form(oracle, tseq)
        got = decide(word)
        want = semantic_wp_oracle(oracle, _raw_token_aut(oracle, tseq), 2 * word.sigma_length, cap=cap)
        if got.trivial != want:
            failures.append({"phase": "exhaustive", "case": i})
        trivial_seen += got.trivial
    rng = random.Random(seed)
    produced = 0
    case = 0
    while produced < random_count:
        case += 1
        length = rng.randrange(1, max_len + 1)
        tseq = [random_token(oracle, rng) for _ in range(length)]
        if case % 10 == 0:  # salt in guaranteed trivial words: u followed by u inverted
            half = [random_token(oracle, rng) for _ in range(max(1, length // 2))]
            inv = []
            for kind, payload in reversed(half):
                inv.append((kind, payload.inverse() if kind == "B" else payload.inv()))
            tseq = half + inv
        word = normal_form(oracle, tseq)
        got = decide(word)
        want = semantic_wp_oracle(oracle, _raw_token_aut(oracle, tseq), 2 * word.sigma_length, cap=cap)
        produced += 1
        trivial_seen += got.trivial
        if got.trivial != want:
            failures.append({"phase": "random", "case": case})
    return _result(
        "wp-oracle",
        failures,
        {"exhaustive": len(exhaustive), "random": produced, "trivial_decisions": trivial_seen},
    )


def suite_frattini(oracle, seed=0, conj_pairs=20, nonconj_pairs=10, depth=4):
    """Forward direction of conjugacy preservation: conjugate input-group
    pairs yield verified witnesses; non-conjugate pairs never yield one."""
    rng = random.Random(seed)
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
        cert = conjugacy_certificate(g, k, SearchBounds(depth=depth))
        made += 1
        if cert.kind != "conjugate":
            failures.append({"phase": "conjugate", "case": made, "kind": cert.kind})
            continue
        if not verify_certificate(cert, g, k):
            failures.append({"phase": "conjugate", "case": made, "reason": "verification failed"})
    pairs = _nonconjugate_pairs(oracle, nonconj_pairs)
    for i, (g_word, k_word) in enumerate(pairs):
        g, k = Seed(oracle, g_word), Seed(oracle, k_word)
        assert oracle.conjugate(g_word, k_word) in (NOT_CONJUGATE, UNSUPPORTED)
        cert = conjugacy_certificate(g, k, SearchBounds(depth=depth))
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
    "perm": lambda oracle, seed: suite_perm(seed=seed),
    "alphabet": lambda oracle, seed: suite_alphabet([oracle], seed=seed),
    "sections": lambda oracle, seed: suite_sections(oracle, seed=seed),
    "contraction": lambda oracle, seed: suite_contraction(oracle, seed=seed),
    "branch-identities": lambda oracle, seed: suite_branch_identities(oracle, seed=seed),
    "wp-oracle": lambda oracle, seed: suite_wp_oracle(oracle, seed=seed),
    "frattini": lambda oracle, seed: suite_frattini(oracle, seed=seed),
}


def run_suite(name, oracle, seed=0):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](oracle, seed)
