from hypothesis import settings

# One setting for every property test: reproducible examples, no example
# database left behind, and no per-example deadline (a decision may build
# a quotient level on first use).
settings.register_profile("branchgroups", max_examples=100, deadline=None, derandomize=True, database=None)
settings.load_profile("branchgroups")
