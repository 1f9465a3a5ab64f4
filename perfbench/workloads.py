"""The three benchmark workloads.

Each workload is a class with ``setup()`` (everything before timing:
catalogs, sessions, the warm pass), ``ops(index)`` (the ops of one pass),
``run(op)`` (one op, the only timed code; returns its stdout text and exit
code) and ``check(op, out, code)`` (the independent answer check, never
timed).  ``streaming`` workloads run for a time and may stop mid-pass;
the others run whole passes, as many as fit ``--seconds`` at
``pass_seconds`` each.  ``cold`` workloads emulate one process per op, so
the heap is collected between ops.  The package is reached only through
its public functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import inputs

from branchgroups import cli, resfin, treeauto, wordcalc
from branchgroups.alphabet import Seed, build_alphabet, marker_perm


def _labels(oracle):
    """Labels of the level-1 alphabet: the coset letters, then x y z p q."""
    return build_alphabet(oracle, 1).alphabet.labels


def decision_text(decision):
    """Stdout of ``branchgroups wp`` for a decision (text format)."""
    if decision.trivial:
        return f"trivial (ell={decision.ell})\n"
    return f"nontrivial (ell={decision.ell}, depth={decision.depth})\nwitness {decision.witness}\n"


# ---------------------------------------------------------------------------
# independent routes


def _raw_tokens(tokens):
    """Resolve inverse markers into (kind, payload) pairs, unnormalized."""
    out = []
    for tok in tokens:
        if tok[0] == "inv":
            kind, payload = out.pop()
            out.append((kind, payload.inverse() if kind == "B" else payload.inv()))
        else:
            out.append(tok)
    return out


def _token_ell(kind, payload):
    if kind == "B":
        return 0 if payload.is_identity else 1
    if payload.g:
        return len(payload.g)
    return 0 if payload.marker.is_identity else 2


# The structural search over the raw (unnormalized) token product keeps no
# normal forms, so on trivial words its frontier grows exponentially with
# depth: past depth 5 single words take seconds.  It runs to this depth;
# beyond it a nontrivial answer is still confirmed exactly by evaluating
# the decider's witness on the raw product.
STRUCTURAL_DEPTH = 5


def check_decision(oracle, text, decision, cancelling=False):
    """None when the decision agrees with the independent routes, else the
    reason it does not.  ``cancelling`` words are trivial by construction."""
    raw = _raw_tokens(wordcalc.parse_tokens(oracle, text))
    ell = sum(_token_ell(k, p) for k, p in raw)
    parts = [treeauto.rooted(oracle, 0, p) if k == "B" else treeauto.directed(oracle, p, 0) for k, p in raw]
    aut = treeauto.product(parts, oracle=oracle, base_level=0)
    depth = min(2 * ell, STRUCTURAL_DEPTH)
    moved = treeauto.nontrivial_vertex(aut, depth)
    if moved is not None and treeauto.eval_vertex(aut, moved) == moved:
        return "structural search returned an unmoved vertex"
    if decision.ell != ell:
        return f"ell {decision.ell}, tokens spell {ell}"
    if decision.trivial:
        if moved is not None:
            return f"decided trivial, but {moved} moves"
        return None
    if cancelling:
        return "u u^-1 decided nontrivial"
    witness = decision.witness
    if witness.depth > 2 * ell or treeauto.eval_vertex(aut, witness) == witness:
        return f"witness {witness} is not moved within depth {2 * ell}"
    if moved is None and witness.depth <= depth:
        return f"structural search finds no moved vertex down to depth {witness.depth}"
    if moved is not None and moved.depth != witness.depth:
        return f"shallowest moved depth {moved.depth}, decider says {witness.depth}"
    return None


def _seed_spec(oracle, spec):
    gtext, mtext = spec.split("|", 1)
    return Seed(oracle, resfin.parse_word(oracle, gtext), marker_perm(mtext))


def check_conj(g_spec, k_spec, depth, stdout):
    """None when a printed certificate survives recomputation, else why not."""
    oracle = resfin.oracle_from_selector("dihedral_infinite")
    g, k = _seed_spec(oracle, g_spec), _seed_spec(oracle, k_spec)
    kind = stdout.split()[1] if stdout.startswith("certificate ") else None
    cert = wordcalc.conjugacy_certificate(g, k, wordcalc.SearchBounds(depth=depth))
    if cert.kind != kind:
        return f"printed {kind}, recomputed {cert.kind}"
    if not wordcalc.verify_certificate(cert, g, k):
        return "certificate fails verify_certificate"
    answer = oracle.conjugate(g.g, k.g)
    if answer is resfin.NOT_CONJUGATE and kind == "conjugate":
        return "input group refutes a certified pair"
    if "re-verified: yes" not in stdout:
        return "CLI did not re-verify"
    return None


def check_chain(stdout):
    """None when the kernel check passed and every generator image is a
    bijection of the quotient enumeration, else why not."""
    lines = stdout.splitlines()
    order = int(lines[0].split()[1])
    if not lines[-1].endswith(": pass"):
        return "kernel check did not pass"
    for line in lines[1:-1]:
        name, _, cyc = line.partition(" -> ")
        seen = set()
        count = 0
        for body in cyc.replace(")", "").split("("):
            idx = [int(x) for x in body.split()]
            count += len(idx)
            seen.update(idx)
        if len(seen) != count or (seen and (min(seen) < 0 or max(seen) >= order)):
            return f"generator {name} image is not a bijection"
    return None


# ---------------------------------------------------------------------------
# workloads


class WpStream:
    """Warm library sessions deciding a seeded word stream."""

    name = "wp-stream"
    streaming = True
    cold = False
    pass_seconds = None

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.oracles = {g: resfin.oracle_from_selector(g) for g in inputs.WP_GROUPS}
        self.catalogs = {
            g: inputs.wp_catalog(g, _labels(o), o.gen_names, [str(b) for b in wordcalc.default_b_gens(o)])
            for g, o in self.oracles.items()
        }
        self.stream = [
            (f"wp:{g}:{i}", "wp", (g, self.catalogs[g][i])) for g, i in inputs.wp_stream(self.seed, self.catalogs)
        ]
        self.decisions = {}
        for op in self.stream:  # warm pass
            self.run(op)

    def close(self):
        pass

    def ops(self, index):
        return self.stream

    def catalog_ops(self):
        return [(f"wp:{g}:{i}", "wp", (g, text)) for g in inputs.WP_GROUPS for i, text in enumerate(self.catalogs[g])]

    def run(self, op):
        group, text = op[2]
        oracle = self.oracles[group]
        decision = wordcalc.decide(wordcalc.normal_form(oracle, wordcalc.parse_tokens(oracle, text)))
        self.decisions.setdefault(op[0], decision)
        return decision_text(decision), 0

    def check(self, op, out, code):
        group, text = op[2]
        cancelling = inputs.wp_kind(int(op[0].rsplit(":", 1)[1])) == "cancelling"
        return check_decision(self.oracles[group], text, self.decisions[op[0]], cancelling)


class CliCold:
    """One in-process CLI call per op, each with a fresh oracle."""

    name = "cli-cold"
    streaming = False
    cold = True
    pass_seconds = 7.8  # op time of one pass on a 2-core x86-64 VM, Python 3.11.7

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        oracle = resfin.oracle_from_selector("dihedral_infinite")
        self.catalog = inputs.cli_catalog(_labels(oracle))
        os.makedirs(self.workdir, exist_ok=True)
        self.files = {}
        for length, words in self.catalog["cap_guard"].items():
            for i, text in enumerate(words):
                self.files[("cap_guard", length, i)] = self._write(f"cap-{length}-{i}.txt", text)
        for i, text in enumerate(self.catalog["portrait"]):
            self.files[("portrait", i)] = self._write(f"portrait-{i}.txt", text)
        for i, text in enumerate(self.catalog["malformed"]):
            self.files[("malformed", i)] = self._write(f"malformed-{i}.txt", text)

    def _write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return path

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def ops(self, index):
        return inputs.cli_pass(self.seed, index)

    def catalog_ops(self):
        return [op for slot in inputs.cli_slots() for op in slot]

    def argv(self, op):
        kind, p = op[1], op[2]
        if kind == "chain":
            return ["--group", p[0], "chain", str(p[1])]
        if kind == "cap_guard":
            return ["wp", self.files[("cap_guard",) + p]]
        if kind == "portrait":
            return ["portrait", self.files[("portrait", p[1])], "--depth", str(p[0])]
        if kind == "malformed":
            return ["wp", self.files[("malformed", p[0])]]
        g, k = self.catalog[kind][p[0]]
        return ["conj", g, k, "--depth", str(inputs.CONJ_ROUTES[kind])]

    def run(self, op):
        return call_cli(self.argv(op))

    def check(self, op, out, code):
        kind = op[1]
        expected = {"cap_guard": 3, "malformed": 2}.get(kind, 0)
        if code != expected:
            return f"exit code {code}, expected {expected}"
        if kind == "chain":
            return check_chain(out)
        if kind.startswith("conj"):
            g, k = self.catalog[kind][op[2][0]]
            return check_conj(g, k, inputs.CONJ_ROUTES[kind], out)
        if kind == "portrait":
            oracle = resfin.oracle_from_selector("dihedral_infinite")
            depth = op[2][0]
            labelled = sum(treeauto.vertex_count(oracle, 0, d) for d in range(depth))
            if len(out.splitlines()) != 1 + labelled:
                return "portrait does not label every vertex above its depth"
        elif out:
            return "error exit printed to stdout"
        return None


class VerifySuites:
    """Verification rounds: each op runs every suite of ``VERIFY_ROUND``
    through ``branchgroups verify`` with one suite seed."""

    name = "verify-suites"
    streaming = False
    cold = True
    pass_seconds = 13.0  # op time of one round on a 2-core x86-64 VM, Python 3.11.7

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        pass

    def close(self):
        pass

    def ops(self, index):
        return inputs.verify_pass(self.seed, index)

    def catalog_ops(self):
        return [(f"verify:{s}", "verify", (s,)) for s in inputs.VERIFY_SEEDS]

    def run(self, op):
        outs, codes = [], []
        for suite, group in inputs.VERIFY_ROUND:
            out, code = call_cli(["--group", group, "--seed", str(op[2][0]), "verify", suite])
            outs.append(out)
            codes.append(code)
        return "".join(outs), max(codes)

    def check(self, op, out, code):
        if code != 0:
            return f"exit code {code}"
        reports = [json.loads(line) for line in out.splitlines()]
        got = [(r.get("suite"), r.get("group"), r.get("seed")) for r in reports]
        want = [(suite, group, op[2][0]) for suite, group in inputs.VERIFY_ROUND]
        if got != want:
            return f"reports {got}, expected {want}"
        failed = [r["suite"] for r in reports if r.get("ok") is not True]
        return f"suites not ok: {failed}" if failed else None


def call_cli(argv):
    """``branchgroups <argv>`` in process; returns (stdout, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), code


def make(name, seed, workdir):
    if name == "wp-stream":
        return WpStream(seed)
    if name == "cli-cold":
        return CliCold(seed, workdir)
    if name == "verify-suites":
        return VerifySuites(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("wp-stream", "cli-cold", "verify-suites")
