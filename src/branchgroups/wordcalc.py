"""Word calculus for the tree automorphism groups generated by rooted even
permutations and directed seed automorphisms.

Elements are handled as alternating normal-form words: rooted letters
(even permutations of the first-level alphabet) alternating with
nontrivial seed letters.  The module implements the normalization, the
seed-letter count and its contraction under taking sections, a
word-problem decider working by bounded stabilizer evaluation (a word
assembled from w generator tokens is trivial exactly when it fixes every
vertex of depth 2w) whose moved witness at depth d shows the word
surviving in the finite action on level d, and a sound
conjugacy-certificate testbed whose conjugator words are proved by that
same decider.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import resfin
from .alphabet import (
    MARKER_ALPHABET,
    Seed,
    build_alphabet,
    coset_action,
    marker_action,
    marker_perm,
    seed_is_trivial,
)
from .perm import Perm, compose, compose_all
from .treeauto import (
    Vertex,
    directed,
    level_cycle_type,
    level_perm,
    product,
    rooted,
    section_search,
    vertex_count,
)

__all__ = [
    "NormalWord",
    "Decision",
    "Certificate",
    "SearchBounds",
    "ParseError",
    "normal_form",
    "is_fragmented_subword",
    "section_letters",
    "decide",
    "conjugacy_certificate",
    "verify_certificate",
    "default_b_gens",
    "seed_is_trivial",
    "parse_tokens",
    "parse_seed",
    "token_length",
    "format_token",
    "letters_aut",
]


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
    normalization), which calibrates the decision depth.  ``blocks[i]``
    lists the input seed letters multiplied into ``hs[i]``, in order: those
    given to :func:`normal_form`, or for a section those of the word it
    was taken from.  :meth:`key` leaves them out.
    """

    __slots__ = ("oracle", "base_level", "bs", "hs", "blocks", "sigma_length")

    def __init__(self, oracle, base_level, bs, hs, blocks, sigma_length):
        self.oracle = oracle
        self.base_level = base_level
        self.bs = tuple(bs)
        self.hs = tuple(hs)
        self.blocks = tuple(blocks)
        self.sigma_length = sigma_length

    @property
    def h_count(self):
        """The seed-letter count: an upper bound for the complexity of the
        group element the word spells."""
        return len(self.hs)

    @property
    def is_identity_word(self):
        return not self.hs and self.bs[0].is_identity

    def key(self):
        return (self.base_level, self.bs, tuple(h.key() for h in self.hs))

    def root_perm(self):
        lvl = build_alphabet(self.oracle, self.base_level + 1)
        return compose_all(self.bs, alphabet=lvl)

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
        return letters_aut(self.oracle, self.base_level, self.tokens())

    def __str__(self):
        toks = self.tokens()
        return " ".join(format_token(k, p) for k, p in toks) if toks else "(empty)"

    def __repr__(self):
        return f"NormalWord(level={self.base_level}, n={self.h_count})"


def letters_aut(oracle, base_level, letters):
    """The tree automorphism a sequence of ``("B", perm)`` and
    ``("H", seed)`` letters spells, unnormalized: the product of their
    rooted and directed automorphisms, the last letter acting first."""
    return product(
        [rooted(oracle, base_level, p) if kind == "B" else directed(oracle, p, base_level)
         for kind, p in letters],
        oracle=oracle, base_level=base_level,
    )


def format_token(kind, payload):
    if kind == "B":
        return f"B({payload})"
    gword = resfin.format_word(payload.oracle, payload.g)
    return f"H({gword}|{payload.marker})"


def _reduce(oracle, base_level, tokens):
    """Reduce letters straight into the alternating shape.

    Returns ``(bs, hs, blocks)`` with ``len(bs) == len(hs) + 1``: a rooted
    letter composes into ``bs[-1]``, or takes the slot as it is while the
    slot holds the alphabet's identity; a seed letter merges into the last
    open slot when ``bs[-1]`` is the identity, and a trivial merge drops
    that slot with its trailing identity; any other nontrivial seed letter
    opens a new slot.  ``blocks[i]`` lists the seed letters of ``tokens``
    multiplied into ``hs[i]``, in order.  A merged slot holds its running
    (element key, marker), so a merge costs O(1); its seed is built once."""
    lvl = build_alphabet(oracle, base_level + 1)
    ident = Perm.identity(lvl)
    bs, slots, blocks = [ident], [], []
    for kind, payload in tokens:
        if kind == "B":
            if payload.alphabet is not lvl:
                raise ValueError(f"rooted letter acts on the wrong alphabet for level {base_level}")
            if payload.sign != 1:
                raise ValueError("rooted letters must be even permutations")
            bs[-1] = payload if bs[-1] is ident else compose(bs[-1], payload)
            continue
        if payload.oracle is not oracle:
            raise ValueError("seed letter belongs to a different input group")
        if seed_is_trivial(payload):
            continue
        if slots and bs[-1].is_identity:
            key, marker = slots[-1] or blocks[-1][0].key()
            key, marker = oracle.multiply(key, payload.key()[0]), compose(marker, payload.marker)
            if marker.is_identity and key == oracle.identity_key:
                slots.pop()
                blocks.pop()
                bs.pop()
            else:
                slots[-1] = (key, marker)
                blocks[-1].append(payload)
        else:
            slots.append(None)
            blocks.append([payload])
            bs.append(ident)
    hs = [block[0] if running is None
          else Seed(oracle, tuple(itertools.chain.from_iterable(h.g for h in block)), running[1])
          for running, block in zip(slots, blocks)]
    return bs, hs, blocks


def normal_form(oracle, tokens):
    """Normalize letters into a level-0 :class:`NormalWord`.

    Tokens are ``("B", perm)`` and ``("H", seed)``; :func:`parse_tokens`
    has already applied any inverse marks.  Adjacent letters of the same
    kind merge, seed letters by their element keys; letters that become
    trivial are elided.  The image under the projection to the
    automorphism group is unchanged by normalization, and
    ``sigma_length`` is the tokens' :func:`token_length`.
    """
    bs, hs, blocks = _reduce(oracle, 0, tokens)
    return NormalWord(oracle, 0, bs, hs, blocks, token_length(tokens))


def token_length(tokens):
    """The generator-token count of raw tokens, which :func:`normal_form`
    records as ``sigma_length``, found without normalizing them."""
    return sum(_token_cost(k, p) for k, p in tokens)


def _inverse(letter):
    kind, payload = letter
    return (kind, payload.inverse() if kind == "B" else payload.inv())


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


def _section_tokens(word):
    """Map from first-level letter index to the raw letters of the section
    there, right to left, in one walk over the word.

    By the product rule, each seed letter's section is taken at the image
    of the letter under the rooted letters to its right.  ``back``, one
    scatter per rooted letter, is their inverse image array, so the
    letters sent to x, y and z (one gather) receive the seed letter, its
    coset action and its marker action."""
    oracle, level = word.oracle, word.base_level + 2
    lvl = build_alphabet(oracle, word.base_level + 1)
    out, back = {}, lvl.identity_images
    for i in range(word.h_count - 1, -1, -1):
        b, h = word.bs[i + 1], word.hs[i]
        if not b.is_identity:
            scattered = np.empty_like(back)
            scattered[b.images] = back
            back = scattered
        toks = (("H", h), ("B", coset_action(oracle, level, h)), ("B", marker_action(oracle, level, h)))
        for e, tok in zip(back[[lvl.x_index, lvl.y_index, lvl.z_index]].tolist(), toks):
            out.setdefault(e, []).append(tok)
    return out


@dataclass(eq=False, slots=True)
class _Section:
    """A section as its raw letters from :func:`_section_tokens`.  Seed
    letters fix the first level, so the root is the product of the rooted
    letters, with no normal form; :meth:`word` normalizes once, on demand."""

    oracle: object
    base_level: int
    letters: list
    sigma_length: int
    _word: NormalWord | None = None

    def root_perm(self):
        lvl = build_alphabet(self.oracle, self.base_level + 1)
        return compose_all([p for kind, p in reversed(self.letters) if kind == "B"], alphabet=lvl)

    def word(self):
        if self._word is None:
            bs, hs, blocks = _reduce(self.oracle, self.base_level, self.letters[::-1])
            self._word = NormalWord(self.oracle, self.base_level, bs, hs, blocks, self.sigma_length)
        return self._word

    def key(self):
        return self.word().key()


def _raw_sections(word):
    """The raw section at each first-level letter, in increasing order."""
    return {x: _Section(word.oracle, word.base_level + 1, letters, word.sigma_length)
            for x, letters in sorted(_section_tokens(word).items())}


def section_letters(word):
    """Map from first-level letter index, in increasing order, to its
    nontrivial section, in normal form one level down; letters absent from
    the map have identity sections.  These are the raw sections of one
    walk (:func:`_section_tokens`, at most three letters per seed letter)
    normalized; the decider reads their roots and normalizes only those
    it expands.

    The projection of a section equals the semantic section of the
    projection.  Its ``blocks`` are runs of the word's own seed letters,
    in order, so they form a fragmented subword, and the seed-letter count
    at most halves (rounded up)."""
    return {x: w for x, sec in _raw_sections(word).items() if not (w := sec.word()).is_identity_word}


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
    it fixes every vertex of depth ``2 * ell``.  The check is
    :func:`treeauto.section_search` over raw sections: roots are read
    from raw letters, and only expanded sections are normalized, for
    their keys (equal normal forms are deduplicated) and sections.
    Returns the decision and, when nontrivial, a moved witness vertex.
    """
    if word.base_level != 0:
        raise ValueError("the word-problem decider works at base level 0")
    ell = word.sigma_length
    depth = 2 * ell
    start = _Section(word.oracle, 0, word.tokens()[::-1], ell, word)
    witness = section_search(start, depth, _Section.root_perm, lambda s: _raw_sections(s.word()))
    return Decision(witness is None, ell, depth, witness)


# ---------------------------------------------------------------------------
# conjugacy certificates


@dataclass
class SearchBounds:
    """Bounds of a conjugacy query: ``depth`` is the deepest tree level
    whose cycle types are compared.  Witnesses are proved by
    :func:`decide`, independent of these bounds."""

    depth: int = 4


@dataclass
class Certificate:
    """Outcome of a conjugacy query.

    ``conjugate`` carries a conjugator word proved by :func:`decide`;
    ``not_conjugate`` exhibits distinct cycle types of the two
    level-``level`` permutations, which refutes conjugacy in the full
    automorphism group; ``unknown`` reports exhausted bounds."""

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
            img = lvl.identity_images.copy()
            img[trip[0]], img[trip[1]], img[trip[2]] = trip[1], trip[2], trip[0]
            out.append(Perm(lvl, img, check=False))
    return tuple(out)


def _marker_conjugator(a, b):
    """The first even marker permutation c, in lexicographic order of its
    image tuple, with c^-1 a c = b, or None.

    The candidates are the image tuples of the 720 permutations of the six
    marker letters, scanned as plain tuples: c passes when
    ``a[c[i]] == c[b[i]]`` for every letter i, which is c^-1 a c = b under
    :func:`compose`'s convention.  Only a passing tuple becomes a
    :class:`Perm`, whose sign is read."""
    a, b = a.images.tolist(), b.images.tolist()
    for c in itertools.permutations(range(6)):
        # letter 0 alone rules out most tuples, before any generator is built
        if a[c[0]] == c[b[0]] and all(a[c[i]] == c[b[i]] for i in range(1, 6)):
            perm = Perm(MARKER_ALPHABET, c, check=False)
            if perm.sign == 1:
                return perm
    return None


def _conjugates(c, g, k):
    """Whether the conjugator word ``c`` takes H(g) to H(k): the proof word
    c^-1 H(g) c H(k)^-1 is decided trivial by :func:`decide`, which is exact
    at depth 2*ell."""
    toks = c.tokens()
    proof = [_inverse(t) for t in reversed(toks)] + [("H", g)] + toks + [("H", k.inv())]
    return decide(normal_form(g.oracle, proof)).trivial


def _expand(counts):
    """A cycle-length map as the sorted tuple :meth:`Perm.cycle_type` gives."""
    return tuple(itertools.chain.from_iterable(
        itertools.repeat(length, counts[length]) for length in sorted(counts)))


def conjugacy_certificate(g, k, bounds=None):
    """Sound conjugacy test for two seed elements in the level-0 group.

    Routes, in order: (a) a witness from the input group's own conjugacy
    decider, proved by :func:`decide`; (b) a cycle-type refutation on
    levels 1 to ``bounds.depth`` by the section recursion of
    :func:`level_cycle_type`, stopping before the first level with more
    than the oracle's ``vertex_cap`` vertices; (c) an honest unknown.
    Every ``conjugate`` answer is proved exactly, whatever the bounds."""
    bounds = bounds or SearchBounds()
    oracle = g.oracle

    # (a) forward route through the input group
    gw = oracle.conjugate(g.g, k.g)
    if gw not in (resfin.NOT_CONJUGATE, resfin.UNSUPPORTED):
        mc = _marker_conjugator(g.marker, k.marker)
        if mc is not None:
            word = normal_form(oracle, [("H", Seed(oracle, gw, mc))])
            if _conjugates(word, g, k):
                return Certificate("conjugate", bounds.depth, conjugator=word,
                                   note="witness from the input group decider")

    # (b) cycle-type refutation, on the levels within the vertex cap
    g_aut = directed(oracle, g, 0)
    k_aut = directed(oracle, k, 0)
    for d in range(1, bounds.depth + 1):
        if vertex_count(oracle, 0, d) > oracle.vertex_cap:
            break
        ct_g = level_cycle_type(g_aut, d)
        ct_k = level_cycle_type(k_aut, d)
        if ct_g != ct_k:
            return Certificate("not_conjugate", bounds.depth, level=d,
                               cycle_types=(_expand(ct_g), _expand(ct_k)),
                               note="distinct cycle types on a tree level")

    return Certificate("unknown", bounds.depth, note="bounds exhausted")


def verify_certificate(cert, g, k):
    """Recompute the evidence of a certificate from scratch."""
    if cert.kind == "conjugate":
        return _conjugates(cert.conjugator, g, k)
    if cert.kind == "not_conjugate":
        ct_g = level_perm(directed(g.oracle, g, 0), cert.level).cycle_type()
        ct_k = level_perm(directed(k.oracle, k, 0), cert.level).cycle_type()
        return (ct_g, ct_k) == cert.cycle_types and ct_g != ct_k
    return True


# ---------------------------------------------------------------------------
# token files


class ParseError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _lex(text):
    """Split a word file into top-level tokens with their (line, column)
    positions, both counted from 1.  Whitespace separates tokens except
    inside parentheses, where a newline reads as a space; a ``)`` with no
    open parenthesis is an ordinary character.  One pass finds each
    token's span; the tokens are then sliced out of the text."""
    spans = []
    start = -1
    depth = 0
    for i, ch in enumerate(text):
        if depth:
            if ch == ")":
                depth -= 1
            elif ch == "(":
                depth += 1
        elif ch.isspace():
            if start >= 0:
                spans.append((start, i))
                start = -1
        else:
            if start < 0:
                start = i
            if ch == "(":
                depth = 1
    if start >= 0:
        spans.append((start, len(text)))
    tokens = []
    line, line_start, counted = 1, 0, 0
    for start, end in spans:
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", counted, start) + 1
        counted = start
        tokens.append((text[start:end].replace("\n", " "), (line, start - line_start + 1)))
    return tokens


def parse_seed(oracle, text):
    """A seed letter from its literal ``<group word>|<marker cycles>``.
    Raises ``ValueError`` for any bad input."""
    if "|" not in text:
        raise ValueError("seed letter needs the form H(<group word>|<marker cycles>)")
    gtext, mtext = text.split("|", 1)
    gword = resfin.parse_word(oracle, gtext)
    try:
        marker = marker_perm(mtext)
    except (ValueError, KeyError) as exc:
        raise ValueError(f"bad marker cycles: {exc}") from None
    return Seed(oracle, gword, marker)


def _parse_letter(oracle, lvl, body, raw, line, col):
    """One letter from its token ``body`` (``raw`` with its marks
    stripped), before any inverse marks; raises :class:`ParseError` at
    ``(line, col)``."""
    if body.startswith("B(") and body.endswith(")"):
        try:
            perm = Perm.from_cycles(lvl, body[2:-1])
        except (ValueError, KeyError) as exc:
            raise ParseError(f"bad rooted letter: {exc}", line, col) from None
        if perm.sign != 1:
            raise ParseError("rooted letters must be even permutations", line, col)
        return ("B", perm)
    if body.startswith("H(") and body.endswith(")"):
        try:
            return ("H", parse_seed(oracle, body[2:-1]))
        except ValueError as exc:
            raise ParseError(str(exc), line, col) from None
    raise ParseError(f"unrecognized token {raw!r}", line, col)


def parse_tokens(oracle, text):
    """Parse word-file text into level-0 letters for :func:`normal_form`.

    Token syntax: ``B(<cycles over first-level letters>)``,
    ``H(<group word>|<marker cycles>)`` (see :func:`parse_seed`), and a
    postfix ``'`` for inversion.  The parser applies the marks: attached
    marks invert their own letter when their count is odd, and a
    standalone ``'`` inverts the letter before it, so the result holds
    only ``("B", perm)`` and ``("H", seed)``.  Raises :class:`ParseError`
    with the offending position, also for a standalone ``'`` with no
    letter before it.

    Each spelling is parsed once per call: a letter is keyed by its body
    and the parity of its marks, and every repeat of that key is the same
    object.  Letters are immutable, so sharing them is safe, and a long
    file that repeats a few letters holds a few image arrays.  Errors are
    never kept, so every bad token is reported where it stands."""
    lvl = build_alphabet(oracle, 1)
    out = []
    letters = {}  # (body, odd marks) -> letter
    key = None
    for raw, (line, col) in _lex(text):
        body = raw.rstrip("'")
        inverses = len(raw) - len(body)
        if not body:
            if inverses != 1:
                raise ParseError("bare inverse markers must be single quotes", line, col)
            if not out:
                raise ParseError("inverse marker with nothing to invert", line, col)
            key = (key[0], not key[1])
            letter = letters.get(key)
            if letter is None:
                letter = letters[key] = _inverse(out[-1])
            out[-1] = letter
            continue
        key = (body, inverses % 2 == 1)
        letter = letters.get(key)
        if letter is None:
            letter = _parse_letter(oracle, lvl, body, raw, line, col)
            letter = letters[key] = _inverse(letter) if key[1] else letter
        out.append(letter)
    return out
