from hypothesis import settings

from branchgroups.alphabet import build_alphabet
from branchgroups.treeauto import Vertex, _indices, section_at

# One setting for every property test: reproducible examples, no example
# database left behind, and no per-example deadline (a decision may build
# a quotient level on first use).
settings.register_profile("branchgroups", max_examples=100, deadline=None, derandomize=True, database=None)
settings.load_profile("branchgroups")


def section(a, vertex):
    """The section of ``a`` at ``vertex``: single-letter sections folded
    along the path; ``ValueError`` for a label off its level."""
    if vertex.base_level != a.base_level:
        raise ValueError("section vertex must start at the automorphism's base level")
    node = a
    for idx in _indices(a.oracle, vertex):
        node = section_at(node, idx)
    return node


def ball_words(oracle, radius):
    """The shortest words of the radius ball's elements, in ball order,
    each written out from the spanning tree as its parent's word followed
    by its generator."""
    parents, gens = oracle.ball(radius)
    words = [()]
    for i in range(1, len(parents)):
        words.append(words[parents[i]] + (gens[i],))
    return words


def vertex_at(oracle, base_level, depth, index):
    """The vertex with number ``index`` on level ``depth``, in the
    lexicographic letter-index order of ``level_perm``."""
    labels = []
    for i in reversed(range(depth)):
        lvl = build_alphabet(oracle, base_level + i + 1)
        index, rem = divmod(index, lvl.size)
        labels.append(lvl.label(rem))
    return Vertex(base_level, tuple(labels[::-1]))
