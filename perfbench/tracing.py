"""Span recorders wrapped around the package's layer functions.

``Recorder.install()`` replaces each function in ``TARGETS`` by a wrapper,
both in the module that defines it and in every ``branchgroups`` module
that imported it by name; methods and properties are wrapped on their
class.  A wrapper records nothing unless the recorder is active.  Each
span keeps its name, start, end, parent span and op; spans stay in memory
until ``write()``.  Self time is a span's duration minus the time its
child spans cover.  Counters of work done are kept at the same wrappers.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

SPAN_LIMIT = 200_000  # spans kept for the span file; statistics count all


def _cached(name):
    """Counters for a function whose first argument is an oracle and which
    fills ``oracle.cache`` on a miss: the call missed when the cache grew."""

    def before(args):
        return len(args[0].cache)

    def after(stats, state, args, result, exc):
        if exc is None and len(args[0].cache) > state:
            stats["misses"] += 1
            if name == "build_level_map":
                stats["elements"] += result.quotient.order

    return before, after


def _count(stat, measure):
    def after(stats, state, args, result, exc):
        if exc is None:
            stats[stat] += measure(args, result)

    return None, after


def _level_perm_after(stats, state, args, result, exc):
    from branchgroups.treeauto import CapExceeded

    if isinstance(exc, CapExceeded):
        stats["cap_exceeded"] += 1
    elif exc is None:
        stats["vertices"] += result.alphabet.size


_PLAIN = (None, None)
_TIMES = ("calls", "self_s")

# (module, qualified name, reported statistics, (before, after) hooks);
# ``misses`` is counted for every cached target, ``hit_ratio`` derives
# from it
TARGETS = (
    ("resfin", "build_level_map", _TIMES + ("misses", "elements"), _cached("build_level_map")),
    ("resfin", "decide_word_problem", _TIMES, _PLAIN),
    ("resfin", "FiniteQuotient.left_mult_images", _TIMES, _PLAIN),
    ("resfin", "format_quotient_map", ("self_s",), _PLAIN),
    ("perm", "Perm.cycles", ("self_s",), _PLAIN),
    ("perm", "Perm.sign", _TIMES, _PLAIN),
    ("perm", "compose", _TIMES, _PLAIN),
    ("perm", "Perm.cycle_type", _TIMES + ("letters",), _count("letters", lambda a, r: a[0].alphabet.size)),
    ("perm", "check_alternating_generation", _TIMES, _PLAIN),
    ("treeauto", "level_perm", _TIMES + ("vertices", "cap_exceeded"), (None, _level_perm_after)),
    ("treeauto", "nontrivial_vertex", _TIMES, _PLAIN),
    ("treeauto", "portrait", ("self_s", "vertices"), _count("vertices", lambda a, r: len(r.labels))),
    ("alphabet", "coset_action", _TIMES + ("hit_ratio",), _cached("coset_action")),
    ("alphabet", "marker_action", ("calls", "hit_ratio"), _cached("marker_action")),
    ("wordcalc", "conjugacy_certificate", ("self_s",), _PLAIN),
    ("wordcalc", "verify_certificate", ("self_s",), _PLAIN),
    ("wordcalc", "parse_tokens", _TIMES, _PLAIN),
    ("wordcalc", "normal_form", _TIMES, _PLAIN),
    ("wordcalc", "seed_is_trivial", _TIMES, _PLAIN),
    ("wordcalc", "decide", _TIMES, _PLAIN),
    ("wordcalc", "section_letters", _TIMES + ("sections",), _count("sections", lambda a, r: len(r))),
    ("suites", "semantic_wp_oracle", _TIMES, _PLAIN),
    ("suites", "run_suite", ("self_s",), _PLAIN),
    ("cli", "main", ("self_s",), _PLAIN),
)


def metric_names():
    """Every per-layer metric a traced run reports, in table order."""
    names = [f"{mod}.{qual}.{stat}" for mod, qual, report, _ in TARGETS for stat in report]
    return names + ["trace.overhead_ratio"]


class Recorder:
    """Spans and per-layer counters of one traced worker."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names = []
        self.stats = {}
        self._stack = []  # [span id, start, child time]
        self._next_id = 0
        self.dropped = 0
        self._spans = {k: array("q") for k in ("id", "name", "parent", "op")}
        self._spans.update({k: array("d") for k in ("start", "end")})

    # -- spans --

    def _name_id(self, name):
        self.names.append(name)
        self.stats[name] = defaultdict(int)
        return len(self.names) - 1

    def enter(self):
        span = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(span)
        return span

    def leave(self, span, name_id):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - span[1]
        stats = self.stats[self.names[name_id]]
        stats["calls"] += 1
        stats["self_s"] += duration - span[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(self._spans["id"]) < SPAN_LIMIT:
            row = {"id": span[0], "name": name_id, "parent": parent[0] if parent is not None else -1,
                   "op": self.op, "start": span[1], "end": end}
            for key, value in row.items():
                self._spans[key].append(value)
        else:
            self.dropped += 1
        return stats

    # -- wrapping --

    def _wrap(self, name, fn, report, hooks):
        rec = self
        name_id = self._name_id(name)
        before, after = hooks

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            span = rec.enter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                stats = rec.leave(span, name_id)
                if after is not None:
                    after(stats, state, args, result, exc)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        """Wrap every target where it is defined and wherever it was
        imported by name."""
        modules = [m for n, m in sys.modules.items() if n == "branchgroups" or n.startswith("branchgroups.")]
        for mod_name, qual, report, hooks in TARGETS:
            module = importlib.import_module(f"branchgroups.{mod_name}")
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, property):
                    setattr(cls, attr, property(self._wrap(name, raw.fget, report, hooks), doc=raw.__doc__))
                else:
                    setattr(cls, attr, self._wrap(name, raw, report, hooks))
                continue
            original = getattr(module, qual)
            wrapped = self._wrap(name, original, report, hooks)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    # -- output --

    def layer_stats(self):
        """Per-layer metric values, ``<module>.<function>.<stat>``."""
        out = {}
        for mod_name, qual, report, _ in TARGETS:
            name = f"{mod_name}.{qual}"
            stats = self.stats[name]
            for stat in report:
                if stat == "hit_ratio":
                    calls = stats["calls"]
                    out[f"{name}.{stat}"] = (calls - stats["misses"]) / calls if calls else 0.0
                else:
                    out[f"{name}.{stat}"] = stats[stat]
        return out

    def write(self, path):
        spans = {k: list(v) for k, v in self._spans.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "dropped": self.dropped, "spans": spans}, fh)

