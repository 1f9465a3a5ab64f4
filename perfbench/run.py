"""Benchmark of the branchgroups package.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wp-stream --seed 1 --seconds 15 --trace 0

The run starts fresh worker processes one after another.  Each worker sets
up (imports, inputs, sessions, warm pass), reports ready, runs its share
of the timed closed loop (one caller), and checks every answer outside the
timed region.  ``setup_s`` is the median over the workers of the time from
process start to ready.  Op and setup times are scaled to a nominal
machine speed by a reference loop that the worker samples on a timer
(``speed.py``).
With ``--trace 1`` a single worker runs each op untraced and then again
with its span recorder active, and the run prints the per-layer metrics
instead of the end-to-end ones.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# per workload: worker processes that run timed ops, and setup samples
# taken in total (the extra workers only set up)
PLANS = {
    "wp-stream": {"workers": 2, "setup_samples": 2},
    "cli-cold": {"workers": 3, "setup_samples": 5},
    "verify-suites": {"workers": 2, "setup_samples": 5},
}
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0)
RUN_DEADLINE_S = 170.0  # every worker is killed after this
RESULT_TAG = "@@perfbench-result "
READY_TAG = "@@perfbench-ready"


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_golden():
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest ladder percentile with at least ten samples beyond it
    (the median when there are too few samples for any)."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            best = pct
    return best


# ---------------------------------------------------------------------------
# worker


def worker_ops(workload, seconds, worker, workers):
    """The ops of one worker's share of ``seconds``.  A streaming workload
    cycles its stream and the loop stops on time; the others run whole
    passes, as many as fit at ``pass_seconds`` each (the pass time measured
    when the benchmark was written), so the op count and with it the tail
    percentile do not depend on machine speed."""
    if workload.streaming:
        return itertools.cycle(workload.ops(worker))
    passes = max(1, round(seconds / workload.pass_seconds))
    return [op for i in range(passes) for op in workload.ops(worker + i * workers)]


def run_op(workload, op, golden, record, meter):
    """Run one op, timing only ``workload.run``, without the reference
    samples taken inside it; then compare its stdout digest and exit code
    with the golden record and note the result in ``record``.  Returns the
    op's timed pieces."""
    meter.begin()
    try:
        out, code = workload.run(op)
    except Exception as exc:  # a failed op is counted, the loop goes on
        out, code = None, None
        record["errors"].append(f"{op[0]}: {type(exc).__name__}: {exc}")
    pieces = meter.end()
    differs = out is None or golden.get(op[0]) != [digest(out), code]
    record["changed"] += out is not None and differs
    record["ops"].append(op)
    record["bad"].append(differs)
    if out is not None:
        record["first"].setdefault(op[0], (op, out, code))
    if workload.cold:
        # a shell invocation frees its heap at exit; collect the
        # reference cycles of this op's oracle before the next op
        gc.collect()
    return pieces


def timed_loop(workload, ops, golden, stop_after=None, recorder=None, meter=None):
    """Run ``ops`` until they run out or op time reaches ``stop_after``
    seconds of raw untraced op time.  ``lat`` and ``busy`` are scaled to
    the nominal speed by ``meter`` (unscaled without one); ``raw_busy`` is
    not.  With a ``recorder``, each op runs twice in a row, once with the
    recorder active, so drift of the machine's speed hits the untraced and
    the traced time alike; which run goes first alternates, because the
    second run of an op finds the heap already grown."""
    record = {"lat": [], "busy": 0.0, "raw_busy": 0.0, "traced_busy": 0.0, "ops": [], "bad": [], "changed": 0,
              "errors": [], "first": {}}
    meter = meter or speed.Meter()
    timed = []
    for index, op in enumerate(ops):
        runs = (False,) if recorder is None else (False, True) if index % 2 == 0 else (True, False)
        for traced in runs:
            if traced:
                recorder.op = index
                recorder.active = True
            try:
                pieces = run_op(workload, op, golden, record, meter)
            finally:
                if traced:
                    recorder.active = False
            dt = sum(end - start for start, end in pieces)
            if traced:
                record["traced_busy"] += dt
            else:
                timed.append(pieces)
                record["raw_busy"] += dt
        if stop_after is not None and record["raw_busy"] >= stop_after:
            break
    record["lat"] = [meter.scaled(pieces) for pieces in timed]
    record["busy"] = sum(record["lat"])
    return record


def score(workload, record):
    """Check the first answer of every distinct op by its independent
    route.  An op fails when it raised, when its stdout or exit code
    differs from the golden record, or when its answer is contradicted.
    Returns the failed op count and up to ten reasons."""
    contradicted = {}
    for key, (op, out, code) in record["first"].items():
        try:
            reason = workload.check(op, out, code)
        except Exception as exc:  # a check that cannot run fails its op
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            contradicted[key] = reason
    failed = sum(1 for op, bad in zip(record["ops"], record["bad"]) if bad or op[0] in contradicted)
    reasons = record["errors"][:5] + [f"{k}: {v}" for k, v in list(contradicted.items())[:5]]
    return failed, reasons


def worker(args):
    sys.path.insert(0, str(SRC))
    import workloads

    # The parent times setup from process start to the ready line and
    # scales it with what the worker reports.  The setup work after the
    # imports is sampled like an op.  Samples taken during the imports,
    # in a cold process, do not track the machine, so the imports are
    # scaled by reference samples taken right after the ready line.
    setup_meter = speed.Meter()
    meter = speed.Meter()
    workload = None
    try:
        setup_meter.start_sampling()
        start = time.perf_counter()
        workload = workloads.make(args.workload, args.seed, str(OUT / f"work-{os.getpid()}"))
        workload.setup()
        setup_meter.stop_sampling()
        end = time.perf_counter()
        print(READY_TAG, flush=True)
        setup = {"work_s": end - start, "sample_s": setup_meter.sample_s, "factor": setup_meter.factor(start, end),
                 "import_factor": speed.calibration_factor()}
        if args.seconds <= 0:
            print(RESULT_TAG + json.dumps({"ops": 0, "setup": setup}), flush=True)
            return 0
        golden = load_golden()
        recorder = None
        if args.trace:
            import tracing

            recorder = tracing.Recorder()
            recorder.install()
        ops = worker_ops(workload, args.seconds, args.worker, args.workers)
        if recorder is None:
            meter.start_sampling()
        record = timed_loop(workload, ops, golden, args.seconds if workload.streaming else None, recorder, meter)
        meter.stop_sampling()
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {"ops": len(record["lat"]), "busy": record["busy"], "raw_busy": record["raw_busy"],
                  "lat": record["lat"], "maxrss_kb": maxrss_kb, "setup": setup}
        if recorder is not None:
            layers = recorder.layer_stats()
            layers["trace.overhead_ratio"] = record["traced_busy"] / record["busy"]
            result["layers"] = layers
            OUT.mkdir(exist_ok=True)
            recorder.write(OUT / f"spans-{args.workload}-{args.seed}.json")
        failed, errors = score(workload, record)
        result.update({"attempted": len(record["ops"]), "changed": record["changed"], "failed": failed,
                       "errors": errors})
        print(RESULT_TAG + json.dumps(result), flush=True)
        return 0
    finally:
        setup_meter.stop_sampling()
        meter.stop_sampling()
        if workload is not None:
            workload.close()


# ---------------------------------------------------------------------------
# parent


def spawn(args, index, workers, seconds, deadline):
    """Run one worker process; returns (setup seconds, raw setup seconds,
    worker result).  Raw setup seconds are the wall time from start to
    ready.  Setup seconds scale it to the nominal speed: the setup work
    after the imports without the worker's reference samples in it by
    the samples taken during that work, and the rest by the samples taken
    after it.  The worker is killed when ``deadline`` (a perf_counter
    value) passes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace), "--worker", str(index), "--workers", str(workers)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        raw_setup_s = None
        result = None
        for line in proc.stdout:
            if line.startswith(READY_TAG) and raw_setup_s is None:
                raw_setup_s = time.perf_counter() - start
            elif line.startswith(RESULT_TAG):
                result = json.loads(line[len(RESULT_TAG):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or raw_setup_s is None or result is None:
        raise RuntimeError(f"worker {index} failed with exit code {code}")
    setup = result["setup"]
    work_s = setup["work_s"]
    setup_s = (raw_setup_s - work_s) * setup["import_factor"] + (work_s - setup["sample_s"]) * setup["factor"]
    return setup_s, raw_setup_s, result


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def summarize_e2e(setups, raw_setups, results):
    lat = sorted(x for r in results for x in r["lat"])
    n = len(lat)
    busy = sum(r["busy"] for r in results)
    raw_busy = sum(r["raw_busy"] for r in results)
    pct = tail_percentile(n)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": n / busy, "unit": "1/s"},
        "op_p50_ms": {"value": percentile(lat, 50.0) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": percentile(lat, pct) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": max(r["maxrss_kb"] for r in results) / 1024.0, "unit": "MB"},
    }
    return metrics, {"ops": n, "tail_percentile": pct, "setup_samples": [round(s, 4) for s in setups],
                     "raw_setup_samples": [round(s, 4) for s in raw_setups], "raw_ops_per_s": n / raw_busy}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "branchgroups" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    if not (HERE / "golden.json").is_file():
        print("perfbench: golden.json is missing; run perfbench/record_golden.py", file=sys.stderr)
        return 2
    if args.worker is not None:
        return worker(args)

    plan = PLANS[args.workload]
    workers = 1 if args.trace else plan["workers"]
    samples = 1 if args.trace else plan["setup_samples"]
    # a traced worker runs every op twice, untraced and traced
    share = args.seconds / 2 if args.trace else args.seconds / workers
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups, raw_setups, results = [], [], []
    for i in range(samples):
        setup_s, raw_setup_s, result = spawn(args, i, workers, share if i < workers else 0, deadline)
        setups.append(setup_s)
        raw_setups.append(raw_setup_s)
        if i < workers:
            results.append(result)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    changed = sum(r["changed"] for r in results)
    for r in results:
        for err in r["errors"]:
            print(f"FAILED {err}")
    info = {"workload": args.workload, "seed": args.seed, "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted if attempted else 1.0, "outputs_changed": changed}
    if args.trace:
        import tracing

        layers = results[0]["layers"]
        metrics = {name: {"value": layers[name], "unit": layer_unit(name)} for name in tracing.metric_names()}
        info["spans"] = str((OUT / f"spans-{args.workload}-{args.seed}.json").relative_to(ROOT))
        table = "\n".join(f"{name:55s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items())
        OUT.mkdir(exist_ok=True)
        (OUT / f"layers-{args.workload}-{args.seed}.txt").write_text(table + "\n", encoding="utf-8")
        print(table)
    else:
        metrics, extra = summarize_e2e(setups, raw_setups, results)
        info.update(extra)
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
