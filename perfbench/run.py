"""Benchmark of the shiftconv package.

    python3 perfbench/run.py --workload gl_tables --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ./src.  Load is
a closed loop: one caller runs one experiment at a time, each in a fresh
interpreter (perfbench/child.py), so every run starts from cold caches and
has its own peak RSS.  The first run also checks the outputs; each later
run must reproduce its output digest.  Runs repeat while the next one
still ends inside the --seconds window, then a few set-up-only
interpreters add set-up samples.  With
--trace 1 one more run goes under the tracer and the per-layer metrics are
printed instead of the end-to-end ones.

Standard output ends with a line of run details (provenance, sample
counts, tail percentiles, failed checks) and then the result line:
{"correct", "attempted", "failed", "metrics"}.  Metric names and units come
from BENCHMARK.json.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_ONLY_RUNS = 5
DEADLINE_S = 170.0  # the whole run, children included


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# One BLAS thread: the matrices are at most a few hundred wide, and a
# single thread keeps repeated runs steady on a shared machine.
BLAS_THREADS = 1


def git_sha(root: Path) -> str | None:
    """HEAD commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "shiftconv").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int, params: dict) -> dict:
    import numpy
    import shiftconv
    from shiftconv.util import canonical_hash

    try:
        import gmpy2  # noqa: F401

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "shiftconv": shiftconv.__version__,
        "git_sha": git_sha(ROOT),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": has_gmpy2,
        "nproc": nproc(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "params_hash": canonical_hash(params),
    }


def tail(values):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return {"pct": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def describe(values) -> dict:
    """Median, tail percentile, sample count and the samples in run order."""
    return {"median": statistics.median(values), "tail": tail(values), "samples": len(values), "values": values}


class Runner:
    def __init__(self, workload: str, seed: int):
        self.args = ["--workload", workload, "--seed", str(seed)]
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def spawn(self, mode: str, check: bool = False) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), *self.args, "--mode", mode]
        if check:
            cmd.append("--check")
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise SystemExit("run.py: out of time before a child could start")
        spawned = time.monotonic()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=left)
        if proc.returncode != 0:
            raise SystemExit(f"run.py: {' '.join(cmd[1:])} failed:\n{proc.stderr[-3000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["first_call"] - spawned
        return result


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "shiftconv" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no package source at {SRC / 'shiftconv'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    params = workloads.WORKLOADS[args.workload].params(args.seed)

    runner = Runner(args.workload, args.seed)
    window = time.monotonic()
    samples = [runner.spawn("sample", check=True)]
    attempted, failures = samples[0]["attempted"], list(samples[0]["failures"])
    # more runs while the next one, at the median length so far, still
    # ends inside the --seconds window
    while time.monotonic() - window + statistics.median(s["setup_s"] + s["wall_s"] for s in samples) <= args.seconds:
        samples.append(runner.spawn("sample"))
    for s in samples[1:]:
        # a fresh run must give exactly the outputs the checks passed on
        attempted += 1
        if (s["digest"], s["items"]) != (samples[0]["digest"], samples[0]["items"]):
            failures.append(f"run output {s['digest']}/{s['items']} != first run {samples[0]['digest']}/{samples[0]['items']}")
    setups = [s["setup_s"] for s in samples]
    setups += [runner.spawn("setup")["setup_s"] for _ in range(SETUP_ONLY_RUNS)]

    walls = [s["wall_s"] for s in samples]
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "items_per_s": samples[0]["items"] / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "pass_ratio": (attempted - len(failures)) / attempted,
    }
    details = {
        "workload": args.workload,
        "provenance": provenance(args.seed, params),
        "items": samples[0]["items"],
        "wall_s": describe(walls),
        "setup_s": describe(setups),
        "peak_rss_mb": describe([s["peak_rss_mb"] for s in samples]),
        "fail_ratio": len(failures) / attempted,
        "part_wall_s": {k: statistics.median(s["part_s"][k] for s in samples) for k in samples[0].get("part_s", {})},
        "failures": failures[:20],
    }
    wanted = spec["end_to_end"]
    if args.trace:
        traced = runner.spawn("trace")
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - wall
        details["traced_wall_s"] = traced["wall_s"]
        wanted = spec["per_layer"]
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"run.py: metrics {sorted(values)} do not match BENCHMARK.json")
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
