"""The shared breadth-first section walk behind ``decide``,
``nontrivial_vertex`` and ``portrait``, the names the benchmark's span
recorders wrap, and the names each module exports."""

import ast
import hashlib
import importlib
import importlib.util
import itertools
import pathlib
import pkgutil
import random

import numpy as np
import pytest

import branchgroups
from branchgroups import wordcalc
from branchgroups.alphabet import MARKER_ALPHABET, Seed, build_alphabet, random_marker_perm
from branchgroups.perm import Perm
from branchgroups.resfin import oracle_from_selector
from branchgroups.suites import random_token
from branchgroups.treeauto import (
    Vertex,
    _vertex,
    embed_shift,
    eval_vertex,
    first_moved_level,
    identity_aut,
    nontrivial_children,
    nontrivial_vertex,
    root_perm,
    rooted,
    product,
    section_search,
    vertex_count,
)
from branchgroups.wordcalc import NormalWord, decide, letters_aut, normal_form, section_letters

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _inverted(tseq):
    return [(k, p.inverse() if k == "B" else p.inv()) for k, p in reversed(tseq)]


def _fixing_xyz(oracle, rng):
    """A random even first-level permutation fixing x, y and z: it commutes
    with every directed letter, so commutators with one are trivial words
    that do not cancel freely."""
    lvl = build_alphabet(oracle, 1)
    others = [i for i in range(lvl.size) if i not in (lvl.x_index, lvl.y_index, lvl.z_index)]
    img = list(range(lvl.size))
    a, b, c = rng.sample(others, 3)
    img[a], img[b], img[c] = b, c, a
    return Perm(lvl.alphabet, img)


def _search_words(oracle, rng, count=120):
    """Seeded words of ``suites.random_token`` tokens, in four kinds by
    turn: a commutator of a rooted letter fixing x, y, z with a seed letter
    (trivial, so searched to full depth), a commutator of two random
    words, a random word followed by its formal inverse, a random word."""
    for case in range(count):
        u = [random_token(oracle, rng) for _ in range(rng.randrange(1, 5))]
        if case % 4 == 0:
            b = _fixing_xyz(oracle, rng)
            h = Seed(oracle, (rng.randrange(len(oracle.gen_names)),), random_marker_perm(rng))
            yield [("B", b), ("H", h), ("B", b.inverse()), ("H", h.inv())]
        elif case % 4 == 1:
            u, v = u[:2], [random_token(oracle, rng) for _ in range(rng.randrange(1, 3))]
            yield u + v + _inverted(u) + _inverted(v)
        elif case % 4 == 2:
            yield u + _inverted(u)
        else:
            yield u


# sha256 over decide's (trivial, ell, depth, str(witness)) on the normal
# forms, and over str(nontrivial_vertex(raw product, min(2 ell, 4))), for
# the words of _search_words(oracle, random.Random(404)); recorded while
# decide and nontrivial_vertex still ran separate search loops
_SEARCH_DIGESTS = {
    "dihedral_infinite": (
        "1ef2fb7eca5936f67878c4cd9a9748ac73e0c18f61a98daaa2cecaa4ed6a4778",
        "145f3657042a49441e9c0e180f1cf85286201ccc8e2f014c3b25836792b9f69e",
    ),
    "integers": (
        "671485bf70b341bf3b0a9ff06af5fe3601d8e541ad4f705ca7e8b5a76541cea8",
        "0a9a1e1216735dcd12ebc56062d3a13f8d6e4986af39ad7b12499f36ceb2d889",
    ),
    "product:integers,integers": (
        "09e38b7ff1e0ff86f67ceab4cc584d0d2b7c338cdf59f17d4eb505ae496f80b7",
        "15c5ab1ef87f82ed43065e34e509a98ecf6ba11d66efa5833ba26da58ca80b70",
    ),
}


@pytest.mark.parametrize("selector", sorted(_SEARCH_DIGESTS))
def test_section_search_digest(selector):
    oracle = oracle_from_selector(selector)
    decided, raw = hashlib.sha256(), hashlib.sha256()
    trivial = nontrivial = 0
    for tseq in _search_words(oracle, random.Random(404)):
        d = decide(normal_form(oracle, tseq))
        decided.update(repr((d.trivial, d.ell, d.depth, str(d.witness))).encode())
        moved = nontrivial_vertex(letters_aut(oracle, 0, tseq), min(2 * d.ell, 4))
        raw.update(str(moved).encode())
        trivial += d.trivial
        nontrivial += not d.trivial
    assert trivial >= 10 and nontrivial >= 10
    assert (decided.hexdigest(), raw.hexdigest()) == _SEARCH_DIGESTS[selector]


def _reference_search(start, depth, root_of, children_of):
    """The section search as one loop that carries each node's path as a
    tuple and keeps a set of expanded keys per level: the first root moved
    on the shallowest level, each level's roots tested before it is
    expanded, only the first node per key expanded."""
    level = [(start, ())]
    for d in range(depth):
        for node, path in level:
            r = root_of(node)
            if not r.is_identity:
                moved = np.flatnonzero(r.images != r.alphabet.identity_images)
                return _vertex(start.oracle, start.base_level, path + (int(moved[0]),))
        if d + 1 == depth:
            break
        expanded = set()
        nxt = []
        for node, path in level:
            k = node.key()
            if k not in expanded:
                expanded.add(k)
                nxt.extend((child, path + (idx,)) for idx, child in children_of(node).items())
        if not nxt:
            break
        level = nxt
    return None


def _check_witness(aut, witness):
    """``aut`` moves ``witness`` and, where the levels fit under the vertex
    cap, fixes every level above it."""
    assert eval_vertex(aut, witness) != witness
    if vertex_count(aut.oracle, aut.base_level, witness.depth) <= aut.oracle.vertex_cap:
        assert first_moved_level(aut, witness.depth) == witness.depth


@pytest.mark.parametrize("selector", sorted(_SEARCH_DIGESTS))
def test_section_search_matches_the_reference_loop(selector):
    # the digest's words, under the decider's rule to depth 2 ell and the
    # automorphisms' rule to depth min(2 ell, 4)
    oracle = oracle_from_selector(selector)
    found = 0
    for tseq in _search_words(oracle, random.Random(404)):
        word, aut = normal_form(oracle, tseq), letters_aut(oracle, 0, tseq)
        rules = (
            (word, 2 * word.sigma_length, NormalWord.root_perm, section_letters),
            (aut, min(2 * word.sigma_length, 4), root_perm, nontrivial_children),
        )
        for args in rules:
            witness = section_search(*args)
            assert witness == _reference_search(*args)
            if witness is not None:
                _check_witness(aut, witness)
                found += 1
    assert found >= 20


def _three_cycle(alphabet, rng):
    img = list(range(alphabet.size))
    a, b, c = rng.sample(img, 3)
    img[a], img[b], img[c] = b, c, a
    return Perm(alphabet, img), min(a, b, c)


@pytest.mark.parametrize("moved_depth", [3, 4])
def test_section_search_spells_paths_below_duplicate_keys(moved_depth):
    # level 1 holds the sections at letters f and g; level 2 the sections
    # below them: an idle section A (fixing every vertex above depth 5)
    # and C below f, and C' below g, where C and C' have equal keys (built
    # apart) and move a vertex at depth 3 or 4.  The witness lies below
    # C, which is second on its level, under the first entry of level 1
    oracle = oracle_from_selector("integers")
    alphabets = [build_alphabet(oracle, n) for n in range(1, 6)]
    rng = random.Random(41)
    for _ in range(8):
        f, g = rng.sample(range(alphabets[0].size), 2)
        firsts = (f, f, g)
        seconds = rng.sample(range(alphabets[1].size), 2) + [rng.randrange(alphabets[1].size)]
        below = alphabets[2].label(rng.randrange(alphabets[2].size))
        idle_perm, _ = _three_cycle(alphabets[4], rng)
        idle = embed_shift(Vertex(2, (below, alphabets[3].label(0))), rooted(oracle, 4, idle_perm))
        perm, moved = _three_cycle(alphabets[moved_depth - 1], rng)
        if moved_depth == 3:
            movers = [rooted(oracle, 2, perm) for _ in range(2)]
        else:
            movers = [embed_shift(Vertex(2, (below,)), rooted(oracle, 3, perm)) for _ in range(2)]
        assert movers[0] is not movers[1] and movers[0].key() == movers[1].key()
        a = product([
            embed_shift(Vertex(0, (alphabets[0].label(first), alphabets[1].label(second))), inner)
            for first, second, inner in zip(firsts, seconds, [idle, *movers])
        ])
        expected = [alphabets[0].label(f), alphabets[1].label(seconds[1])]
        expected += [below] if moved_depth == 4 else []
        expected.append(alphabets[moved_depth - 1].label(moved))
        args = (a, 6, root_perm, nontrivial_children)
        witness = section_search(*args)
        assert witness == Vertex(0, tuple(expected)) == _reference_search(*args)
        _check_witness(a, witness)


@pytest.mark.parametrize("power", [12, 2520])
def test_section_search_spells_a_long_path(power):
    # the seed letter of t^power moves nothing above depth 4 (power 12)
    # or depth 10 (power 2520)
    oracle = oracle_from_selector("dihedral_infinite")
    word = normal_form(oracle, wordcalc.parse_tokens(oracle, "H(" + " t" * power + "|())"))
    args = (word, 2 * word.sigma_length, NormalWord.root_perm, section_letters)
    witness = section_search(*args)
    assert witness == _reference_search(*args)
    assert witness.depth == {12: 4, 2520: 10}[power]
    aut = word.to_aut()
    assert nontrivial_vertex(aut, witness.depth) == witness
    _check_witness(aut, witness)


def test_empty_word_is_trivial_at_depth_zero():
    oracle = oracle_from_selector("dihedral_infinite")
    d = decide(normal_form(oracle, []))
    assert (d.trivial, d.ell, d.depth, d.witness) == (True, 0, 0, None)


def test_depth_zero_search_finds_nothing():
    oracle = oracle_from_selector("integers")
    lvl = build_alphabet(oracle, 1)
    a = rooted(oracle, 0, Perm.from_cycles(lvl.alphabet, "(x@1 y@1 z@1)"))
    assert nontrivial_vertex(a, 0) is None
    assert nontrivial_vertex(a, 1).depth == 1
    assert nontrivial_vertex(identity_aut(oracle), 3) is None


def _commutator(u, v):
    return _inverted(u) + _inverted(v) + u + v


def _deep_atom(oracle, rng):
    """A seed letter of one or two generators, with the identity marker or
    an even 3-cycle of markers, or a rooted 3-cycle that fixes at least
    one of x, y and z; built from ``rng`` alone."""
    if rng.random() < 0.5:
        g = tuple(rng.randrange(len(oracle.gen_names)) for _ in range(rng.randrange(1, 3)))
        img = list(range(MARKER_ALPHABET.size))
        if rng.random() < 0.5:
            a, b, c = rng.sample(img, 3)
            img[a], img[b], img[c] = b, c, a
        return [("H", Seed(oracle, g, Perm(MARKER_ALPHABET, img)))]
    lvl = build_alphabet(oracle, 1)
    kept = rng.sample((lvl.x_index, lvl.y_index, lvl.z_index), rng.randrange(1, 4))
    img = list(range(lvl.size))
    a, b, c = rng.sample([i for i in img if i not in kept], 3)
    img[a], img[b], img[c] = b, c, a
    return [("B", Perm(lvl.alphabet, img))]


def _nested_commutators(oracle, rng):
    """Nested commutators of atoms, in three shapes by turn:
    ``[[a, b], c]``, ``[[a, b], [c, d]]`` and ``[a, [b, [c, d]]]``."""
    for case in itertools.count():
        atoms = [_deep_atom(oracle, rng) for _ in range(4)]
        if case % 3 == 0:
            yield _commutator(_commutator(atoms[0], atoms[1]), atoms[2])
        elif case % 3 == 1:
            yield _commutator(_commutator(atoms[0], atoms[1]), _commutator(atoms[2], atoms[3]))
        else:
            yield _commutator(atoms[0], _commutator(atoms[1], _commutator(atoms[2], atoms[3])))


# decide's (trivial, depth, str(witness)) at positions of the stream
# _nested_commutators(oracle, random.Random(505)) whose witness lies at
# depth 3 or deeper; random words almost never reach below depth 2
_DEEP_WITNESSES = {
    "dihedral_infinite": {
        69: (False, 28, "q3@1 y@2 q0@3"),
        127: (False, 32, "q1@1 y@2 q0@3"),
        156: (False, 24, "q0@1 y@2 q0@3"),
        161: (False, 44, "x@1 z@2 x@3"),
        182: (False, 76, "q1@1 y@2 q0@3"),
        229: (False, 40, "x@1 y@2 q0@3"),
        1054: (False, 32, "z@1 x@2 y@3 q0@4"),
    },
    "integers": {
        15: (False, 20, "q0@1 y@2 q0@3"),
        46: (False, 32, "q0@1 y@2 q0@3"),
        104: (False, 44, "x@1 y@2 q0@3"),
        143: (False, 60, "q0@1 z@2 y@3"),
        187: (False, 40, "x@1 z@2 x@3"),
        198: (False, 32, "z@1 q0@2 q0@3"),
        1617: (False, 28, "x@1 x@2 y@3 q0@4"),
    },
    "product:integers,integers": {
        48: (False, 20, "q0@1 y@2 q0@3"),
        82: (False, 32, "q1@1 y@2 q0@3"),
        93: (False, 24, "q1@1 y@2 q0@3"),
        99: (False, 28, "q1@1 y@2 q0@3"),
        285: (False, 20, "q0@1 y@2 q0@3"),
        420: (False, 24, "x@1 z@2 x@3"),
        612: (False, 28, "x@1 x@2 y@3 q0@4"),
    },
}


@pytest.mark.parametrize("selector", sorted(_SEARCH_DIGESTS))
def test_deep_witnesses(selector):
    oracle = oracle_from_selector(selector)
    pinned = _DEEP_WITNESSES[selector]
    stream = itertools.islice(_nested_commutators(oracle, random.Random(505)), max(pinned) + 1)
    depths = []
    for position, tseq in enumerate(stream):
        if position not in pinned:
            continue
        d = decide(normal_form(oracle, tseq))
        assert (d.trivial, d.depth, str(d.witness)) == pinned[position], position
        # the raw product moves the witness and fixes every vertex above it
        raw = letters_aut(oracle, 0, tseq)
        assert eval_vertex(raw, d.witness) != d.witness
        assert nontrivial_vertex(raw, d.witness.depth - 1) is None
        depths.append(d.witness.depth)
    assert len(depths) == len(pinned) >= 5
    assert min(depths) >= 3 and max(depths) >= 4


# single seed letters with a nontrivial marker, spelled with two
# generator tokens, so that the search may go down to depth 4
_SEED_LETTERS = ("H(|(x y z))", "H({g} {g}|(x y z))", "H({g} {g}|(o p q))")


@pytest.mark.parametrize("selector", [*sorted(_SEARCH_DIGESTS), "finite:3"])
def test_seed_letter_is_decided_with_one_section_walk(selector, monkeypatch):
    # the sections of a single seed letter hold its witness one level
    # down, so the search tests their roots before it expands one of them
    oracle = oracle_from_selector(selector)
    walks = []

    def counted(word):
        walks.append(word.base_level)
        return section_letters(word)

    monkeypatch.setattr(wordcalc, "section_letters", counted)
    for spelled in _SEED_LETTERS:
        text = spelled.format(g=oracle.gen_names[0])
        walks.clear()
        d = decide(normal_form(oracle, wordcalc.parse_tokens(oracle, text)))
        assert not d.trivial and d.depth == 4 and d.witness.depth == 2, text
        assert walks == [0], text


def _spied_search(start, depth, root_of, children_of):
    """``section_search`` with spies: its witness, the levels (counted
    from the start) on which a root moves, and the expanded nodes."""
    moved, expanded = set(), []

    def root_spy(node):
        r = root_of(node)
        if not r.is_identity:
            moved.add(node.base_level - start.base_level)
        return r

    def children_spy(node):
        expanded.append(node)
        return children_of(node)

    return section_search(start, depth, root_spy, children_spy), moved, expanded


@pytest.mark.parametrize("selector", sorted(_SEARCH_DIGESTS))
def test_search_expands_no_level_with_a_moved_root(selector, monkeypatch):
    oracle = oracle_from_selector(selector)
    keyed = []
    key = NormalWord.key

    def counted_key(self):
        keyed.append(self)
        return key(self)

    monkeypatch.setattr(NormalWord, "key", counted_key)
    found = 0
    for tseq in _search_words(oracle, random.Random(404), count=60):
        word = normal_form(oracle, tseq)
        decided = decide(word).witness
        keyed.clear()
        witness, moved, expanded = _spied_search(word, 2 * word.sigma_length, NormalWord.root_perm, section_letters)
        assert witness == decided
        # a level with a moved root ends the search before any expansion
        levels = {n.base_level for n in expanded}
        assert not moved & levels
        if witness is not None:
            assert max(moved) == witness.depth - 1
            found += 1
        # keys are computed only on the levels that are expanded, and every
        # expanded node was keyed first
        assert {n.base_level for n in keyed} <= levels
        assert {id(n) for n in expanded} <= {id(n) for n in keyed}
        # the same holds for automorphism nodes
        aut = letters_aut(oracle, 0, tseq)
        _, moved, expanded = _spied_search(aut, 4, root_perm, nontrivial_children)
        assert not moved & {n.base_level - aut.base_level for n in expanded}
    assert found >= 10


def _tracing_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_traced_functions_resolve():
    # the benchmark's span recorders wrap these names; a rename would
    # otherwise only surface when the benchmark is traced
    for mod_name, qual, _, _ in _tracing_targets():
        module = importlib.import_module(f"branchgroups.{mod_name}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            assert attr in vars(getattr(module, cls_name)), f"{mod_name}.{qual}"
        else:
            assert callable(getattr(module, qual, None)), f"{mod_name}.{qual}"


def test_perfbench_package_references_resolve():
    # the benchmark scripts call into the package by attribute and by
    # import; a rename or removal would otherwise only surface when the
    # benchmark runs
    modules = {"wordcalc", "treeauto", "resfin", "cli"}
    seen = 0
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                module = importlib.import_module(f"branchgroups.{node.value.id}")
                assert hasattr(module, node.attr), f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                seen += 1
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("branchgroups."):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}:{node.lineno} {node.module}.{alias.name}"
    assert seen > 0


def test_package_modules_read_every_name_they_import():
    # no linter runs with the tests, and a deletion can leave its imports
    # behind; re-exports in __all__ and the package's own submodule
    # imports in __init__.py count as reads
    unused = []
    for path in sorted((ROOT / "src" / "branchgroups").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if path.name == "__init__.py" and isinstance(node, ast.ImportFrom) and node.level and node.module is None:
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_exports_resolve():
    # a deletion that leaves its name in an __all__ list would otherwise
    # only surface on a star import
    modules = [info.name for info in pkgutil.iter_modules(branchgroups.__path__)]
    assert {"treeauto", "wordcalc", "alphabet"} <= set(modules)
    for mod_name in modules:
        module = importlib.import_module(f"branchgroups.{mod_name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{mod_name}.{name}"


def _reads(tree):
    """Every name a module reads: loaded names, attributes, import aliases
    and string constants (perfbench/tracing.py names its targets by
    string, as ``"Perm.cycle_type"``), without its own ``__all__`` entries
    and without a constant that names the value it is an argument of, as
    ``"X"`` in ``X = _Marker("X")``: a definition, not a read."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            skipped |= {id(c) for c in ast.walk(node.value)}
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            skipped |= {id(a) for a in node.value.args if isinstance(a, ast.Constant) and a.value in names}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skipped:
            if all(part.isidentifier() for part in node.value.split(".")):
                out.update(node.value.split("."))
    return out


def test_a_self_naming_constant_is_not_a_read():
    # a marker's own name, given to its constructor, would otherwise read
    # the marker; a read of another module's marker still counts
    reads = _reads(ast.parse('TRIVIAL = _Marker("TRIVIAL")\nx = resfin.NOT_CONJUGATE\n'))
    assert "TRIVIAL" not in reads
    assert {"_Marker", "resfin", "NOT_CONJUGATE"} <= reads


def test_every_export_has_a_reader_outside_tests():
    # a public name that only tests read is API that nothing uses; a
    # definition (def, class or assignment) is not a read
    paths = sorted((ROOT / "src" / "branchgroups").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    reads = set()
    for path in paths:
        reads |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    modules = ["alphabet", "perm", "resfin", "suites", "treeauto", "wordcalc"]
    exports = {f"{m}.{name}" for m in modules for name in importlib.import_module(f"branchgroups.{m}").__all__}
    unread = sorted(q for q in exports if q.split(".")[1] not in reads)
    assert unread == []
