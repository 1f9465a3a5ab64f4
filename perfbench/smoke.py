"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout, outside the package's test suite::

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py

They check that a run emits exactly the metrics named in BENCHMARK.json,
that quotient chains are built in cli-cold's timed loop but not in
wp-stream's, that planted wrong answers are counted as failed ops, and
that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))

import inputs  # noqa: E402
import workloads  # noqa: E402

from branchgroups import resfin, wordcalc  # noqa: E402
from branchgroups.alphabet import build_alphabet  # noqa: E402
from branchgroups.treeauto import Vertex  # noqa: E402


def _bench(*args, cwd=run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          cwd=str(cwd), timeout=175)


def _result(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_end_to_end_metrics_emitted():
    result = _result("--workload", "wp-stream", "--seed", "5", "--seconds", "0.3", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _spec("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_emitted():
    result = _result("--workload", "wp-stream", "--seed", "5", "--seconds", "0.3", "--trace", "1")
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _spec("per_layer")
    # the warm pass built every level the stream needs
    assert metrics["resfin.build_level_map.misses"]["value"] == 0
    assert metrics["wordcalc.decide.calls"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_cold_calls_build_chains():
    result = _result("--workload", "cli-cold", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert result["correct"]
    metrics = result["metrics"]
    assert metrics["resfin.build_level_map.misses"]["value"] > 0
    assert metrics["cli.main.self_s"]["value"] > 0


def _cli_ops():
    kinds = ("conj_witness", "conj_refuted", "malformed", "portrait")
    return [op for slot in inputs.cli_slots() for op in slot if op[1] in kinds and op[2][0] in (0, 1, 3)]


def test_planted_wrong_answers_fail():
    workload = workloads.make("cli-cold", 0, str(run.OUT / "smoke-work"))
    workload.setup()
    try:
        golden = run.load_golden()
        ops = _cli_ops()
        honest = run.timed_loop(workload, ops, golden)
        assert run.score(workload, honest)[0] == 0

        original = workload.run

        def planted(op):
            out, code = original(op)
            if op[1] == "conj_witness":
                out = out.replace("certificate conjugate", "certificate not_conjugate")
            if op[1] == "malformed":
                code = 0
            return out, code

        workload.run = planted
        wrong = run.timed_loop(workload, ops, golden)
        failed, reasons = run.score(workload, wrong)
        planted_ops = sum(1 for op in ops if op[1] in ("conj_witness", "malformed"))
        assert failed == planted_ops and wrong["changed"] == planted_ops, reasons

        # with golden digests taken from the wrong outputs, the independent
        # checks still catch every planted answer
        forged = dict(golden)
        for key, (op, out, code) in wrong["first"].items():
            forged[key] = [run.digest(out), code]
        again = run.timed_loop(workload, ops, forged)
        assert again["changed"] == 0
        assert run.score(workload, again)[0] == planted_ops
    finally:
        workload.close()


def test_flipped_decision_is_contradicted():
    oracle = resfin.oracle_from_selector("dihedral_infinite")
    labels = workloads._labels(oracle)
    b_gens = [str(b) for b in wordcalc.default_b_gens(oracle)]
    catalog = inputs.wp_catalog("dihedral_infinite", labels, oracle.gen_names, b_gens)
    seen = set()
    for i, text in enumerate(catalog[:40]):
        decision = wordcalc.decide(wordcalc.normal_form(oracle, wordcalc.parse_tokens(oracle, text)))
        cancelling = inputs.wp_kind(i) == "cancelling"
        assert workloads.check_decision(oracle, text, decision, cancelling) is None
        if decision.trivial:
            vertex = Vertex(0, (build_alphabet(oracle, 1).letter_at(0),))
            flipped = wordcalc.Decision(False, decision.ell, decision.depth, vertex)
        else:
            flipped = wordcalc.Decision(True, decision.ell, decision.depth, None)
        assert workloads.check_decision(oracle, text, flipped, cancelling) is not None
        seen.add(decision.trivial)
    assert seen == {True, False}


def test_refuses_without_package_source():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
