"""One run of one workload in a fresh interpreter; started by run.py.

Every run starts from cold caches, as a user's run does, and its peak RSS
is its own.  Modes:

  setup   import the package and make the inputs, then stop
  sample  run the workload once, untraced: wall time (and each part's, for
          a pair), peak RSS, work items, an output digest and, with
          --check, the output checks
  trace   run the workload once under the tracer: per-layer metrics, and
          the spans written to perfbench/out/<workload>.spans.npz

The result is one JSON object on the last line of standard output.
`first_call` is time.monotonic() just before the first call into the
package, for run.py to measure set-up time against.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from pathlib import Path

import workloads


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "sample", "trace"])
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    params = wl.params(args.seed)
    if args.mode == "trace":
        from layers import LayerProbe

        probe = LayerProbe()
        probe.tracer.install()
    first_call = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"first_call": first_call}))
        return
    t0 = time.perf_counter()
    out = wl.run(params)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"first_call": first_call, "wall_s": wall, "peak_rss_mb": peak_rss_mb}
    if "part_s" in out:  # a pair of workloads: each part's own time
        result["part_s"] = out["part_s"]
    if args.mode == "trace":
        probe.tracer.uninstall()
        result["layers"] = probe.metrics()
        spans = Path(__file__).resolve().parent / "out" / f"{args.workload}.spans.npz"
        spans.parent.mkdir(exist_ok=True)
        probe.tracer.write(spans, run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        print(json.dumps(result))
        return
    result["items"] = wl.items(params, out)
    result["digest"] = wl.digest(out)
    if args.check:
        checks = workloads.Checks()
        wl.check(params, out, args.seed, checks)
        result["attempted"] = checks.attempted
        result["failures"] = checks.failures
    print(json.dumps(result))


if __name__ == "__main__":
    main()
