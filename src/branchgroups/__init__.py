"""Branch groups acting on spherically homogeneous rooted trees.

The package builds, from a finitely generated residually finite input
group, a family of finitely generated groups of rooted tree automorphisms,
and implements the associated decision procedures: a word-problem decider
driven by bounded stabilizer evaluation, whose moved witness at depth d
shows the word surviving in the finite action on level d, the chain of
finite quotients of the input group, and a sound conjugacy-certificate
testbed.
"""

from . import alphabet, perm, resfin, suites, treeauto, wordcalc  # noqa: F401

__version__ = "0.1.0"
