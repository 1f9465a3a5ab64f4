"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output).  The whole module is budgeted to run in well under five
minutes; the heaviest criterion is the word-problem oracle equivalence.
"""

import itertools
import random

import pytest

from branchgroups import suites
from branchgroups.alphabet import MARKER_ALPHABET, Seed
from branchgroups.perm import Perm
from branchgroups.resfin import DihedralOracle, IntegerOracle, build_level_map, kernel_min_length_check
from branchgroups.treeauto import directed, equal_to_depth, nontrivial_vertex, product
from branchgroups.wordcalc import seed_is_trivial
from conftest import ball_words

SEED = 20260810


@pytest.fixture(scope="module")
def dinf():
    return DihedralOracle()


@pytest.fixture(scope="module")
def zz():
    return IntegerOracle()


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_wp_oracle_equivalence(dinf, zz):
    """Decider versus brute-force depth-2l evaluation: exhaustive words of
    token length <= 2 and 200 seeded random words of length <= 4 per
    group, exact agreement."""
    ok = True
    details = []
    for oracle in (dinf, zz):
        r = suites.suite_wp_oracle(oracle, seed=SEED)
        ok = ok and r["ok"]
        details.append(f"{oracle.name}: {r['exhaustive']}+{r['random']} words, "
                       f"{r['trivial_decisions']} trivial")
    report(1, "word-problem oracle equivalence", ok, "; ".join(details))


def test_criterion_2_section_formula(dinf):
    r = suites.suite_sections(dinf, seed=SEED)
    report(2, "section formula", r["ok"], f"{r['pairs']} pairs at depth {r['depth']}")


def test_criterion_3_contraction(dinf):
    r = suites.suite_contraction(dinf, seed=SEED)
    report(3, "contraction", r["ok"], f"{r['words']} words, every first-level letter")


def test_criterion_4_homomorphism_and_injectivity(dinf, zz):
    rng = random.Random(SEED)
    failures = 0
    for _ in range(50):
        u = suites.random_seed_elem(dinf, rng, max_len=2)
        v = suites.random_seed_elem(dinf, rng, max_len=2)
        lhs = directed(dinf, u.mul(v), 0)
        rhs = product([directed(dinf, u, 0), directed(dinf, v, 0)], oracle=dinf, base_level=0)
        if not equal_to_depth(lhs, rhs, 5):
            failures += 1
    checked = 0
    perms = (Perm(MARKER_ALPHABET, images) for images in itertools.permutations(range(6)))
    even_markers = [p for p in perms if p.sign == 1]
    for oracle in (dinf, zz):
        for gword in ball_words(oracle, 3):
            for marker in even_markers:
                h = Seed(oracle, gword, marker)
                if seed_is_trivial(h):
                    continue
                ell = len(gword) if gword else 2
                for base in range(4):
                    witness = nontrivial_vertex(directed(oracle, h, base), ell + 2)
                    checked += 1
                    if witness is None:
                        failures += 1
    report(4, "homomorphism and injectivity", failures == 0,
           f"50 product pairs at depth 5; {checked} seed/base-level checks")


def test_criterion_5_branch_identities(dinf):
    r = suites.suite_branch_identities(dinf, seed=SEED)
    size_ok = r["first_level_size"] >= 7
    report(5, "branch identities", r["ok"] and size_ok,
           f"20 instances at depth 4, first level size {r['first_level_size']}")


def test_criterion_6_chain_properties(dinf, zz):
    ok = True
    for oracle in (dinf, zz):
        for n in range(1, 5):
            qm = build_level_map(oracle, n)
            if qm.quotient.order < 2:
                ok = False
            if not kernel_min_length_check(oracle, n)["passed"]:
                ok = False
        ball = ball_words(oracle, 4)
        for n in range(1, 4):
            lo, hi = build_level_map(oracle, n), build_level_map(oracle, n + 1)
            for w in ball:
                if hi.quotient.apply_word(w) == 0 and lo.quotient.apply_word(w) != 0:
                    ok = False
    report(6, "chain properties", ok, "levels 1..4, kernel radius n, descending on radius-4 ball")


def test_criterion_7_frattini_forward(dinf):
    r = suites.suite_frattini(dinf, seed=SEED)
    outcomes = r["nonconj_outcomes"]
    report(7, "conjugacy certificates", r["ok"],
           f"20 conjugate pairs verified; non-conjugate outcomes {outcomes}")


def test_criterion_8_action_parity(dinf, zz):
    runs = [suites.suite_alphabet(oracle, seed=SEED) for oracle in (dinf, zz)]
    report(8, "letter action parity", all(r["ok"] for r in runs),
           f"{sum(r['samples'] for r in runs)} samples at levels 1..4")


def test_criterion_9_alternating_generation(dinf):
    r = suites.suite_perm(dinf, seed=SEED)
    report(9, "alternating generation checker", r["ok"], "50 instances, all true")
