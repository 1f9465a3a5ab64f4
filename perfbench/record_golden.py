"""Record the golden stdout digest and exit code of every catalog op.

Usage, from the root of a checkout::

    python3 perfbench/record_golden.py [WORKLOAD ...]

Each op runs once, its answer is checked by the same independent routes
as in a benchmark run, and its digest is stored in
``perfbench/golden.json``; named workloads replace only their own
entries.  Recording refuses to write when any check fails or when a
cli-cold conjugacy pair does not take the route it was built for.  Record
only at a commit whose outputs are the reference: a benchmark run counts
every op whose stdout differs from this file as failed.
"""

from __future__ import annotations

import json
import sys
import time

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

ROUTE_KIND = {"conj_witness": "conjugate", "conj_refuted": "not_conjugate", "conj_unknown": "unknown"}


def record(name):
    workload = workloads.make(name, 0, str(run.OUT / "golden-work"))
    workload.setup()
    entries, problems = {}, []
    try:
        for op in workload.catalog_ops():
            out, code = workload.run(op)
            reason = workload.check(op, out, code)
            route = ROUTE_KIND.get(op[1])
            if route is not None and not out.startswith(f"certificate {route} "):
                reason = f"expected a {route} certificate"
            if reason is not None:
                problems.append(f"{op[0]}: {reason}")
            entries[op[0]] = [run.digest(out), code]
    finally:
        workload.close()
    return entries, problems


def main(argv):
    names = argv or list(workloads.WORKLOADS)
    path = run.HERE / "golden.json"
    golden = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {"ops": {}}
    for name in names:
        start = time.perf_counter()
        entries, problems = record(name)
        for line in problems:
            print(f"{name}: {line}", file=sys.stderr)
        if problems:
            return 1
        golden["ops"] = {k: v for k, v in golden["ops"].items() if not k.startswith(_prefixes(name))}
        golden["ops"].update(entries)
        print(f"{name}: {len(entries)} ops in {time.perf_counter() - start:.1f} s")
    golden["ops"] = dict(sorted(golden["ops"].items()))
    path.write_text(json.dumps(golden, indent=0) + "\n", encoding="utf-8")
    return 0


def _prefixes(name):
    return {
        "wp-stream": ("wp:",),
        "cli-cold": ("chain:", "cap:", "conj_", "portrait:", "malformed:"),
        "verify-suites": ("verify:",),
    }[name]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
