"""The exhopf benchmark: cold-process runs of one workload, outputs checked.

    python3 bench/run.py --workload tables|models|crosscheck \
        --seed N --seconds S --trace 0|1

Starts fresh worker processes one at a time, each running every pair of
the workload in an order drawn from the seed, until S seconds have passed
(at least MIN_SAMPLES processes).  Every operation's output digest must
match `digests.json`.  Prints each metric with its unit, then one JSON line
`{"correct", "attempted", "failed", "metrics"}`; exits 1 when an output is
wrong and 2 when the benchmark cannot run at all.

With `--trace 0` the metrics are the end-to-end ones, medians over the
processes: `norm_wall_s` (wall time of the timed phase rescaled to
reference machine speed, see `probe.py`), `setup_s`, `peak_rss_mb`.  With
`--trace 1` untraced and traced processes alternate on the same pair
orders; the metrics are the per-layer medians of the traced processes plus
the tracing overhead, and the spans of the first traced process go to
`.bench_out/`.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import DIGESTS_FILE, HERE, SRC, TABLES_FILE, WORKLOADS, label, pair_orders

MIN_SAMPLES = 3
# set-up takes ~60 ms, so each work process is followed by a few set-up-only
# processes to give `setup_s` as many samples as the machine's noise needs
SETUP_ONLY_PER_SAMPLE = 2
PROCESS_TIMEOUT_S = 120
SPANS_DIR = HERE.parent / ".bench_out"


class BenchError(Exception):
    pass


def spawn(workload, order, trace=False, spans_out=None, setup_only=False):
    """Run one cold worker process and return its parsed result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--order", ",".join(order)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--t0", str(t0)], capture_output=True, text=True,
                              env=env, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran longer than {PROCESS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_ops(workload, samples, recorded):
    """Count operations and the ones that raised or changed their output."""
    attempted = failed = 0
    problems = []
    for sample in samples:
        for o in sample["ops"]:
            attempted += 1
            want = recorded[workload][o["pair"]][o["stage"]]
            if o["error"] or o["digest"] != want:
                failed += 1
                problems.append(f"{o['pair']} {o['stage']}: {o['error'] or 'digest differs'}")
    return attempted, failed, problems


def median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (SRC / "exhopf" / "__init__.py", TABLES_FILE, DIGESTS_FILE):
        if not needed.is_file():
            raise BenchError(f"missing {needed}")
    recorded = json.loads(DIGESTS_FILE.read_text())
    if not compileall.compile_dir(SRC, quiet=1):
        raise BenchError(f"{SRC} does not compile")

    orders = pair_orders(args.workload, args.seed)
    plain, traced, setups = [], [], []
    deadline = time.monotonic() + args.seconds
    while len(plain) < MIN_SAMPLES or time.monotonic() < deadline:
        order = [label(pair) for pair in next(orders)]
        plain.append(spawn(args.workload, order))
        setups.append(plain[-1]["setup_s"])
        if not args.trace:
            setups += [spawn(args.workload, order, setup_only=True)["setup_s"]
                       for _ in range(SETUP_ONLY_PER_SAMPLE)]
        else:
            spans_out = None
            if not traced:
                spans_out = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
            traced.append(spawn(args.workload, order, trace=True, spans_out=spans_out))

    attempted, failed, problems = check_ops(args.workload, plain + traced, recorded)
    if args.trace:
        metrics = {name: median_metric([s["layers"][name]["value"] for s in traced], m["unit"])
                   for name, m in traced[0]["layers"].items()}
        base = median_metric([s["wall_s"] for s in plain], "s")
        with_trace = median_metric([s["wall_s"] for s in traced], "s")
        metrics["trace.untraced_wall_s"] = base
        metrics["trace.traced_wall_s"] = with_trace
        metrics["trace.overhead_s"] = {"value": with_trace["value"] - base["value"], "unit": "s"}
    else:
        metrics = {
            "norm_wall_s": median_metric([s["norm_wall_s"] for s in plain], "s"),
            "setup_s": median_metric(setups, "s"),
            "peak_rss_mb": median_metric([s["peak_rss_mb"] for s in plain], "MB"),
        }

    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced"
          + (f" and {len(traced)} traced" if args.trace else "")
          + f" cold processes ({len(setups)} set-ups), medians:")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    print("  raw wall_s of each untraced process:", " ".join(f"{s['wall_s']:.4f}" for s in plain))
    print("  norm_wall_s of each untraced process:",
          " ".join(f"{s['norm_wall_s']:.4f}" for s in plain))
    for o in plain[0]["ops"]:
        if o["summary"] and (not o["summary"]["pass"] or o["summary"].get("extra")):
            print(f"  recorded output: {o['pair']} {o['stage']} {o['summary']}")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
