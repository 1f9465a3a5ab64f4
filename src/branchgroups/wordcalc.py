"""Word calculus for the tree automorphism groups generated by rooted even
permutations and directed seed automorphisms.

Elements are handled as alternating normal-form words: rooted letters
(even permutations of the first-level alphabet) alternating with
nontrivial seed letters.  The module implements the normalization, the
seed-letter count and its contraction under taking sections, a
word-problem decider working by bounded stabilizer evaluation (a word
assembled from w generator tokens is trivial exactly when it fixes every
vertex of depth 2w), effective residual-finiteness output for the level-0
group, and a sound conjugacy-certificate testbed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import resfin
from .alphabet import MARKER_ALPHABET, Seed, build_alphabet, coset_action, marker_action
from .perm import Perm, compose, compose_all
from .resfin import TRIVIAL
from .treeauto import (
    DEFAULT_VERTEX_CAP,
    CapExceeded,
    Vertex,
    directed,
    equal_to_depth,
    invert,
    level_perm,
    product,
    rooted,
    vertex_count,
)

__all__ = [
    "NormalWord",
    "Decision",
    "Certificate",
    "SearchBounds",
    "ParseError",
    "normal_form",
    "h_count",
    "is_fragmented_subword",
    "section_word",
    "section_word_traced",
    "section_letters",
    "decide",
    "efrf_output",
    "format_efrf_output",
    "conjugacy_certificate",
    "verify_certificate",
    "verify_branch_identities",
    "default_b_gens",
    "seed_is_trivial",
    "parse_tokens",
    "token_length",
    "format_token",
    "INVERSE",
]

INVERSE = ("inv", None)


def seed_is_trivial(seed):
    """Triviality of a seed letter: the marker part directly, the group
    part through the oracle's own word problem, in O(|g|).  The tests
    check it against the reference decider
    :func:`resfin.decide_word_problem`."""
    return seed.marker.is_identity and seed.oracle.is_identity(seed.g)


def _token_cost(kind, payload):
    """Number of generator tokens needed to spell this letter: rooted
    letters cost one; a seed letter costs its group word length, or two
    when only the marker part is nontrivial (generator tokens carry a
    single group letter each)."""
    if kind == "B":
        return 0 if payload.is_identity else 1
    if payload.g:
        return len(payload.g)
    return 0 if payload.marker.is_identity else 2


class NormalWord:
    """Alternating normal form b1 h1 b2 ... hn b(n+1).

    Interior rooted letters and all seed letters are nontrivial; the two
    end letters may be the identity.  ``sigma_length`` remembers the
    generator-token count of the raw input (never increased by
    normalization), which calibrates the decision depth.
    """

    __slots__ = ("oracle", "base_level", "bs", "hs", "sigma_length", "_key", "_root")

    def __init__(self, oracle, base_level, bs, hs, sigma_length):
        self.oracle = oracle
        self.base_level = base_level
        self.bs = tuple(bs)
        self.hs = tuple(hs)
        self.sigma_length = sigma_length
        self._key = None
        self._root = None

    @property
    def h_count(self):
        return len(self.hs)

    @property
    def is_identity_word(self):
        return not self.hs and self.bs[0].is_identity

    def key(self):
        if self._key is None:
            self._key = (
                self.base_level,
                tuple(b.images.tobytes() for b in self.bs),
                tuple(h.key() for h in self.hs),
            )
        return self._key

    def root_perm(self):
        if self._root is None:
            lvl = build_alphabet(self.oracle, self.base_level + 1)
            self._root = compose_all(self.bs, alphabet=lvl.alphabet)
        return self._root

    def tokens(self):
        out = []
        for i, h in enumerate(self.hs):
            if not self.bs[i].is_identity:
                out.append(("B", self.bs[i]))
            out.append(("H", h))
        if not self.bs[-1].is_identity:
            out.append(("B", self.bs[-1]))
        return out

    def to_aut(self):
        parts = []
        for i, h in enumerate(self.hs):
            parts.append(rooted(self.oracle, self.base_level, self.bs[i]))
            parts.append(directed(self.oracle, h, self.base_level))
        parts.append(rooted(self.oracle, self.base_level, self.bs[-1]))
        return product(parts, oracle=self.oracle, base_level=self.base_level)

    def __str__(self):
        toks = self.tokens()
        return " ".join(format_token(k, p) for k, p in toks) if toks else "(empty)"

    def __repr__(self):
        return f"NormalWord(level={self.base_level}, n={self.h_count})"


def format_token(kind, payload):
    if kind == "B":
        return f"B({payload})"
    gword = resfin.format_word(payload.oracle, payload.g)
    return f"H({gword}|{payload.marker})"


def _reduce(oracle, base_level, tokens):
    """Stack reduction to the alternating shape; returns (items, blocks)
    where blocks lists, for every surviving seed letter, the raw seed
    letters merged into it, in order."""
    lvl = build_alphabet(oracle, base_level + 1)
    items = []  # alternating ("B", perm) / ("H", seed, origin_list)
    for tok in tokens:
        kind, payload = tok[0], tok[1]
        if kind == "B":
            if payload.alphabet != lvl.alphabet:
                raise ValueError(f"rooted letter acts on the wrong alphabet for level {base_level}")
            if payload.sign != 1:
                raise ValueError("rooted letters must be even permutations")
            if payload.is_identity:
                continue
            entry = ["B", payload, None]
        else:
            if payload.oracle is not oracle:
                raise ValueError("seed letter belongs to a different input group")
            if seed_is_trivial(payload):
                continue
            entry = ["H", payload, [payload]]
        while items and items[-1][0] == entry[0]:
            prev = items.pop()
            if entry[0] == "B":
                merged = compose(prev[1], entry[1])
                if merged.is_identity:
                    entry = None
                    break
                entry = ["B", merged, None]
            else:
                merged = prev[1].mul(entry[1])
                if seed_is_trivial(merged):
                    entry = None
                    break
                entry = ["H", merged, prev[2] + entry[2]]
        if entry is not None:
            items.append(entry)
    return items


def normal_form(oracle, tokens, base_level=0, sigma_length=None):
    """Normalize a token sequence into a :class:`NormalWord`.

    Tokens are ``("B", perm)``, ``("H", seed)`` or :data:`INVERSE`, which
    inverts the preceding token.  Adjacent letters of the same kind merge;
    letters that become trivial are elided (group-part triviality decided
    by the oracle's word problem).  The image under the projection to the
    automorphism group is unchanged by normalization.
    """
    resolved = _resolve_inverses(tokens)
    if sigma_length is None:
        sigma_length = token_length(resolved)
    items = _reduce(oracle, base_level, resolved)
    return _assemble(oracle, base_level, items, sigma_length)


def token_length(tokens):
    """The generator-token count of raw tokens, which :func:`normal_form`
    records as ``sigma_length``, found without normalizing them."""
    return sum(_token_cost(k, p) for k, p in _resolve_inverses(tokens))


def _resolve_inverses(tokens):
    resolved = []
    for tok in tokens:
        if tok[0] == "inv":
            if not resolved:
                raise ValueError("inverse marker with nothing to invert")
            kind, payload = resolved.pop()
            resolved.append((kind, payload.inverse() if kind == "B" else payload.inv()))
        else:
            resolved.append((tok[0], tok[1]))
    return resolved


def _assemble(oracle, base_level, items, sigma_length):
    lvl = build_alphabet(oracle, base_level + 1)
    ident = Perm.identity(lvl.alphabet)
    bs, hs = [], []
    expect_b = True
    for entry in items:
        if entry[0] == "B":
            bs.append(entry[1])
            expect_b = False
        else:
            if expect_b:
                bs.append(ident)
            hs.append(entry[1])
            expect_b = True
    if expect_b or not items:
        bs.append(ident)
    assert len(bs) == len(hs) + 1
    return NormalWord(oracle, base_level, bs, hs, sigma_length)


def h_count(word):
    """The seed-letter count of a normal-form word: an upper bound for the
    complexity of the group element it spells."""
    return word.h_count


def is_fragmented_subword(v_seq, w_seq):
    """Whether ``v_seq`` embeds in ``w_seq`` as an ordered, not necessarily
    contiguous subsequence (letters compared as group elements)."""
    it = iter(w_seq)
    for v in v_seq:
        for w in it:
            if v == w:
                break
        else:
            return False
    return True


def _h_contribution(oracle, base_level, seed, e):
    """The section of a directed letter at first-level letter ``e``."""
    lvl = build_alphabet(oracle, base_level + 1)
    if e == lvl.x_index:
        return ("H", seed)
    if e == lvl.y_index:
        phi = coset_action(oracle, base_level + 2, seed)
        return None if phi.is_identity else ("B", phi)
    if e == lvl.z_index:
        psi = marker_action(oracle, base_level + 2, seed)
        return None if psi.is_identity else ("B", psi)
    return None


def _section_tokens(word, letter_index):
    """Per-letter contributions of the section, right to left, using the
    product rule: each letter's section is taken at the image of the
    chosen first-level letter under everything to its right."""
    oracle = word.oracle
    contributions = []
    e = letter_index
    # interleave b(n+1), h(n), b(n), ..., h(1), b(1) from the right
    n = word.h_count
    e = word.bs[n](e)
    for i in range(n - 1, -1, -1):
        c = _h_contribution(oracle, word.base_level, word.hs[i], e)
        if c is not None:
            contributions.append(c)
        e = word.bs[i](e)
    contributions.reverse()
    return contributions


def section_word(word, letter_index):
    """The symbolic section at a first-level letter, one level down, in
    normal form.  The projection of the result equals the semantic section
    of the projection; the seed letters of the result multiply out blocks
    of the original seed letters in order, so the underlying letters form
    a fragmented subword, and the seed-letter count at most halves
    (rounded up)."""
    toks = _section_tokens(word, letter_index)
    items = _reduce(word.oracle, word.base_level + 1, toks)
    return _assemble(word.oracle, word.base_level + 1, items, word.sigma_length)


def section_word_traced(word, letter_index):
    """Like :func:`section_word` but also returns, per surviving seed
    letter, the list of original seed letters merged into it."""
    toks = _section_tokens(word, letter_index)
    items = _reduce(word.oracle, word.base_level + 1, toks)
    blocks = [entry[2] for entry in items if entry[0] == "H"]
    return _assemble(word.oracle, word.base_level + 1, items, word.sigma_length), blocks


def section_letters(word):
    """Map from first-level letter index to its nontrivial normalized
    section; letters absent from the map have identity sections.

    Only letters whose successive images hit one of x, y, z below some
    seed letter can contribute, so at most three letters per seed letter
    appear."""
    oracle = word.oracle
    lvl = build_alphabet(oracle, word.base_level + 1)
    specials = (lvl.x_index, lvl.y_index, lvl.z_index)
    candidates = set()
    m = word.h_count
    # walk right to left; before handling seed letter i, suffix_inv is the
    # inverse image array of the rooted product strictly to its right
    suffix_inv = word.bs[m].inverse().images
    for i in range(m - 1, -1, -1):
        for s in specials:
            candidates.add(int(suffix_inv[s]))
        b_inv = word.bs[i].inverse().images
        suffix_inv = suffix_inv[b_inv]
    out = {}
    for x in sorted(candidates):
        sec = section_word(word, x)
        if not sec.is_identity_word:
            out[x] = sec
    return out


@dataclass
class Decision:
    """Outcome of the word-problem decider."""

    trivial: bool
    ell: int
    depth: int
    witness: Vertex | None = None


def decide(word):
    """Word problem for the level-0 group, by stabilizer evaluation.

    A word assembled from ``ell`` generator tokens is trivial exactly when
    it fixes every vertex of depth ``2 * ell``.  The check runs over
    normalized sections level by level, deduplicating equal normal forms,
    so the full level permutation is never materialized.  Returns the
    decision together with a moved witness vertex when nontrivial.
    """
    if word.base_level != 0:
        raise ValueError("the word-problem decider works at base level 0")
    ell = word.sigma_length
    depth = 2 * ell
    states = {word.key(): (word, ())}
    for d in range(depth):
        nxt = {}
        for w, path in states.values():
            r = w.root_perm()
            diff = np.nonzero(r.images != np.arange(r.alphabet.size))[0]
            if diff.size:
                lvl = build_alphabet(word.oracle, d + 1)
                witness = Vertex(0, path + (lvl.letter_at(int(diff[0])),))
                return Decision(False, ell, depth, witness)
            if d + 1 < depth:
                lvl = build_alphabet(word.oracle, d + 1)
                for idx, sec in section_letters(w).items():
                    k = sec.key()
                    if k not in nxt:
                        nxt[k] = (sec, path + (lvl.letter_at(idx),))
        states = nxt
        if not states:
            break
    return Decision(True, ell, depth, None)


def efrf_output(word, cap=DEFAULT_VERTEX_CAP):
    """Effective residual-finiteness output for the level-0 group.

    Returns :data:`TRIVIAL` for trivial words.  Otherwise emits the
    evaluation homomorphism onto depth-``2*ell`` vertex permutations as a
    generator-image table over the word's letters, plus a moved witness
    vertex.  If the vertex count exceeds the cap the table degrades to the
    first-level action of every letter, documented by ``degraded: true``.
    """
    decision = decide(word)
    if decision.trivial:
        return TRIVIAL
    oracle = word.oracle
    depth = decision.depth
    domain = vertex_count(oracle, 0, depth)
    degraded = domain > cap
    gens = []
    names = []
    for i, h in enumerate(word.hs):
        if not word.bs[i].is_identity:
            names.append((f"b{i + 1}", ("B", word.bs[i])))
        names.append((f"h{i + 1}", ("H", h)))
    if not word.bs[-1].is_identity:
        names.append((f"b{word.h_count + 1}", ("B", word.bs[-1])))
    from .treeauto import root_perm

    for name, (kind, payload) in names:
        if kind == "B":
            aut = rooted(oracle, 0, payload)
        else:
            aut = directed(oracle, payload, 0)
        entry = {
            "name": name,
            "token": format_token(kind, payload),
            "first_level": str(root_perm(aut)),
        }
        if not degraded:
            entry["action"] = str(level_perm(aut, depth, cap=cap))
        gens.append(entry)
    return {
        "status": "nontrivial",
        "ell": decision.ell,
        "depth": depth,
        "order": domain,
        "witness": str(decision.witness),
        "degraded": degraded,
        "generators": gens,
    }


def format_efrf_output(out):
    """Render the residual-finiteness output as text: an ``order`` header
    (the permutation degree, the count of depth-2*ell vertices), one
    generator legend line and one image line per letter, and the witness.
    """
    if out is TRIVIAL:
        return "trivial"
    lines = [f"order {out['order']}"]
    for gen in out["generators"]:
        lines.append(f"gen {gen['name']} {gen['token']}")
    for gen in out["generators"]:
        if "action" in gen:
            lines.append(f"{gen['name']} -> {gen['action']}")
        else:
            lines.append(f"{gen['name']} -> deferred (vertex cap); first level {gen['first_level']}")
    lines.append(f"witness {out['witness']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# conjugacy certificates


@dataclass
class SearchBounds:
    """Bounds for the conjugator search: seed letters come from the group
    ball of ``h_radius`` paired with ``marker_gens``, rooted letters from
    ``b_gens``, with at most ``max_h_count`` seed letters; candidates and
    witnesses are verified to ``depth``."""

    h_radius: int = 1
    max_h_count: int = 1
    depth: int = 4
    b_gens: tuple | None = None
    marker_gens: tuple | None = None
    vertex_cap: int = DEFAULT_VERTEX_CAP


@dataclass
class Certificate:
    """Outcome of a conjugacy query.

    ``conjugate`` carries a verified conjugator word; ``not_conjugate``
    exhibits distinct cycle types of the two level-``level`` permutations,
    which refutes conjugacy in the full automorphism group; ``unknown``
    reports exhausted bounds."""

    kind: str  # "conjugate" | "not_conjugate" | "unknown"
    depth: int
    conjugator: NormalWord | None = None
    level: int | None = None
    cycle_types: tuple | None = None
    note: str = ""


def default_b_gens(oracle):
    """All 3-cycles on the six distinguished first-level letters (the
    identity coset and x, y, z, p, q)."""
    lvl = build_alphabet(oracle, 1)
    spots = [0, lvl.x_index, lvl.y_index, lvl.z_index, lvl.p_index, lvl.q_index]
    out = []
    for a, b, c in itertools.combinations(spots, 3):
        for trip in ((a, b, c), (a, c, b)):
            img = np.arange(lvl.size, dtype=np.int64)
            img[trip[0]], img[trip[1]], img[trip[2]] = trip[1], trip[2], trip[0]
            out.append(Perm(lvl.alphabet, img, check=False))
    return tuple(out)


_EVEN_MARKERS = None


def _even_markers():
    global _EVEN_MARKERS
    if _EVEN_MARKERS is None:
        out = []
        for images in itertools.permutations(range(6)):
            p = Perm(MARKER_ALPHABET, images, check=False)
            if p.sign == 1:
                out.append(p)
        _EVEN_MARKERS = tuple(out)
    return _EVEN_MARKERS


def _marker_conjugator(a, b):
    """Some even marker permutation c with c^-1 a c = b, or None."""
    for c in _even_markers():
        if compose(compose(c.inverse(), a), c) == b:
            return c
    return None


def _conjugated(aut, conj):
    return product([invert(conj), aut, conj])


def conjugacy_certificate(g, k, bounds=None):
    """Sound conjugacy test for two seed elements in the level-0 group.

    Routes, in order: (a) a witness from the input group's own conjugacy
    decider, verified to depth; (b) a cycle-type refutation on materialized
    level permutations; (c) a bounded search over normal-form conjugator
    candidates; (d) an honest unknown."""
    bounds = bounds or SearchBounds()
    oracle = g.oracle
    g_aut = directed(oracle, g, 0)
    k_aut = directed(oracle, k, 0)

    # (a) forward route through the input group
    gw = oracle.conjugate(g.g, k.g)
    if gw not in (resfin.NOT_CONJUGATE, resfin.UNSUPPORTED):
        mc = _marker_conjugator(g.marker, k.marker)
        if mc is not None:
            conj_seed = Seed(oracle, gw, mc)
            conj = directed(oracle, conj_seed, 0)
            if equal_to_depth(_conjugated(g_aut, conj), k_aut, bounds.depth):
                word = normal_form(oracle, [("H", conj_seed)])
                return Certificate("conjugate", bounds.depth, conjugator=word,
                                   note="witness from the input group decider")

    # (b) cycle-type refutation
    for d in range(1, bounds.depth + 1):
        try:
            ct_g = level_perm(g_aut, d, cap=bounds.vertex_cap).cycle_type()
            ct_k = level_perm(k_aut, d, cap=bounds.vertex_cap).cycle_type()
        except CapExceeded:
            break
        if ct_g != ct_k:
            return Certificate("not_conjugate", bounds.depth, level=d,
                               cycle_types=(ct_g, ct_k),
                               note="distinct cycle types on a tree level")

    # (c) bounded conjugator search
    if gw is resfin.UNSUPPORTED:
        for cand in _conjugator_candidates(oracle, bounds):
            conj = cand.to_aut()
            if equal_to_depth(_conjugated(g_aut, conj), k_aut, bounds.depth):
                return Certificate("conjugate", bounds.depth, conjugator=cand,
                                   note="witness from bounded search")

    return Certificate("unknown", bounds.depth, note="bounds exhausted")


def _conjugator_candidates(oracle, bounds):
    b_gens = bounds.b_gens if bounds.b_gens is not None else default_b_gens(oracle)
    marker_gens = bounds.marker_gens
    if marker_gens is None:
        from .alphabet import marker_perm

        marker_gens = (
            Perm.identity(MARKER_ALPHABET),
            marker_perm("(x y z)"),
            marker_perm("(o p q)"),
            marker_perm("(x y)(p q)"),
        )
    lvl = build_alphabet(oracle, 1)
    ident = Perm.identity(lvl.alphabet)
    b_pool = (ident,) + tuple(b_gens)
    seeds = [
        Seed(oracle, gword, m)
        for gword in oracle.ball(bounds.h_radius)
        for m in marker_gens
    ]
    yield normal_form(oracle, [])
    for b in b_gens:
        yield normal_form(oracle, [("B", b)])
    if bounds.max_h_count >= 1:
        for h in seeds:
            if seed_is_trivial(h):
                continue
            for b1 in b_pool:
                for b2 in b_pool:
                    yield normal_form(oracle, [("B", b1), ("H", h), ("B", b2)])


def verify_certificate(cert, g, k):
    """Recompute the evidence of a certificate from scratch."""
    oracle = g.oracle
    g_aut = directed(oracle, g, 0)
    k_aut = directed(oracle, k, 0)
    if cert.kind == "conjugate":
        conj = cert.conjugator.to_aut()
        return equal_to_depth(_conjugated(g_aut, conj), k_aut, cert.depth)
    if cert.kind == "not_conjugate":
        ct_g = level_perm(g_aut, cert.level).cycle_type()
        ct_k = level_perm(k_aut, cert.level).cycle_type()
        return (ct_g, ct_k) == cert.cycle_types and ct_g != ct_k
    return True


# ---------------------------------------------------------------------------
# branch identities


def _displacing_perm(oracle, rng):
    """A random even first-level permutation fixing z and moving both
    x and y outside {x, y}."""
    lvl = build_alphabet(oracle, 1)
    if lvl.size < 7:
        raise ValueError("first-level alphabet too small to displace x and y")
    others = [i for i in range(lvl.size) if i not in (lvl.x_index, lvl.y_index, lvl.z_index)]
    a1, a2 = rng.sample(others, 2)
    img = np.arange(lvl.size, dtype=np.int64)
    img[lvl.x_index], img[a1] = a1, lvl.x_index
    img[lvl.y_index], img[a2] = a2, lvl.y_index
    rest = [i for i in others if i not in (a1, a2)]
    if len(rest) >= 3 and rng.random() < 0.5:
        r1, r2, r3 = rng.sample(rest, 3)
        img[r1], img[r2], img[r3] = img[r2], img[r3], img[r1]
    return Perm(lvl.alphabet, img, check=False)


def verify_branch_identities(oracle, sample_count, rng, depth=4):
    """Machine-check the two section identities behind the branch property.

    For a rooted even letter s fixing z and displacing {x, y} off itself:
    (i) the commutator of the s-conjugate of a directed letter with
    another directed letter is supported below z, where it acts as the
    rooted marker action of the seed commutator; (ii) a directed letter
    times correcting shifts below y and z equals its own shift below x.
    Both identities are checked to ``depth`` on random seeds."""
    from .alphabet import random_marker_perm

    lvl = build_alphabet(oracle, 1)
    if lvl.size < 7:
        raise ValueError("first-level alphabet must have at least 7 letters")
    x1 = Vertex(0, (lvl.letter_at(lvl.x_index),))
    y1 = Vertex(0, (lvl.letter_at(lvl.y_index),))
    z1 = Vertex(0, (lvl.letter_at(lvl.z_index),))
    failures = []
    for case in range(sample_count):
        gl = rng.randrange(0, 3)
        h = Seed(oracle, tuple(rng.randrange(len(oracle.gen_names)) for _ in range(gl)),
                 random_marker_perm(rng))
        kl = rng.randrange(0, 3)
        k = Seed(oracle, tuple(rng.randrange(len(oracle.gen_names)) for _ in range(kl)),
                 random_marker_perm(rng))
        sigma = _displacing_perm(oracle, rng)
        s = rooted(oracle, 0, sigma)
        hd = directed(oracle, h, 0)
        kd = directed(oracle, k, 0)

        u = product([invert(s), hd, s])
        comm = product([invert(u), invert(kd), u, kd])
        expected = rooted(oracle, 1, marker_action(oracle, 2, h.commutator(k)))
        if not equal_to_depth(comm, _shift(z1, expected), depth):
            failures.append({"case": case, "identity": "commutator-support"})

        phi = coset_action(oracle, 2, h)
        psi = marker_action(oracle, 2, h)
        lhs = product([
            hd,
            _shift(y1, rooted(oracle, 1, phi.inverse())),
            _shift(z1, rooted(oracle, 1, psi.inverse())),
        ], oracle=oracle, base_level=0)
        rhs = _shift(x1, directed(oracle, h, 1))
        if not equal_to_depth(lhs, rhs, depth):
            failures.append({"case": case, "identity": "shift-product"})
    return {
        "suite": "branch-identities",
        "samples": sample_count,
        "passed": sample_count - len(failures),
        "failed": len(failures),
        "failures": failures,
        "first_level_size": lvl.size,
    }


def _shift(vertex, inner):
    from .treeauto import embed_shift

    return embed_shift(vertex, inner)


# ---------------------------------------------------------------------------
# token files


class ParseError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _lex(text):
    """Split a word file into top-level tokens, tracking positions.
    Whitespace separates tokens except inside parentheses."""
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


def parse_tokens(oracle, text, base_level=0):
    """Parse word-file text into raw tokens for :func:`normal_form`.

    Token syntax: ``B(<cycles over first-level letters>)``,
    ``H(<group word>|<marker cycles>)``, a postfix ``'`` for inversion
    (attached or standalone).  Raises :class:`ParseError` with the
    offending position."""
    lvl = build_alphabet(oracle, base_level + 1)
    out = []
    for raw, pos in _lex(text):
        line, col = pos
        body = raw
        inverses = 0
        while body.endswith("'"):
            inverses += 1
            body = body[:-1]
        if not body:
            if inverses != 1:
                raise ParseError("bare inverse markers must be single quotes", line, col)
            out.append(INVERSE)
            continue
        if body.startswith("B(") and body.endswith(")"):
            try:
                perm = Perm.from_cycles(lvl.alphabet, body[2:-1])
            except (ValueError, KeyError) as exc:
                raise ParseError(f"bad rooted letter: {exc}", line, col) from None
            if perm.sign != 1:
                raise ParseError("rooted letters must be even permutations", line, col)
            out.append(("B", perm))
        elif body.startswith("H(") and body.endswith(")"):
            inner = body[2:-1]
            if "|" not in inner:
                raise ParseError("seed letter needs the form H(<group word>|<marker cycles>)", line, col)
            gtext, mtext = inner.split("|", 1)
            try:
                gword = resfin.parse_word(oracle, gtext)
            except ValueError as exc:
                raise ParseError(str(exc), line, col) from None
            from .alphabet import marker_perm

            try:
                marker = marker_perm(mtext) if mtext.strip() else marker_perm("()")
            except (ValueError, KeyError) as exc:
                raise ParseError(f"bad marker cycles: {exc}", line, col) from None
            out.append(("H", Seed(oracle, gword, marker)))
        else:
            raise ParseError(f"unrecognized token {raw!r}", line, col)
        out.extend([INVERSE] * inverses)
    return out
