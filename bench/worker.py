"""One cold benchmark process: load inputs, run one workload's pairs in order.

    python3 bench/worker.py --workload tables --order G2_2,F4_2,... \
        --t0 <CLOCK_MONOTONIC ns at spawn> [--trace] [--spans-out FILE] [--setup-only]

Prints one JSON line: `setup_s` (from interpreter start to inputs ready),
`wall_s` (the timed operations, cold caches), `norm_wall_s` (the same
rescaled to reference machine speed by `probe.SpeedProbe`), `peak_rss_mb`,
and for each operation its stage, pair, digest or error.  With `--trace`
it adds the per-layer metrics of `spans.Tracer`; with `--setup-only` it
stops after set-up and prints only `setup_s`.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from probe import SpeedProbe
from workloads import SRC, WORKLOADS, digest, label, load_tables, run_pair


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--order", required=True)
    ap.add_argument("--t0", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    by_label = {label(pair): pair for pair in WORKLOADS[args.workload]}
    order = [by_label[name] for name in args.order.split(",")]

    sys.path.insert(0, str(SRC))
    # every module is imported here, so that set-up and not the first
    # operation pays for it
    from exhopf import bst, ffpoly, groebner, hopf, liedata, steenrod, symfun  # noqa: F401

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.phase = "setup"
        frame = tracer.open("setup")
    for group, p in order:
        liedata.theta_set(group, p)
    tables = load_tables() if args.workload == "models" else None
    if tracer:
        tracer.close(frame)
        tracer.phase = None
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.t0) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    ops = []
    wall_ns = 0

    def op(stage, call, canon):
        nonlocal wall_ns
        name = f"op.{stage}.{label(pair)}"
        frame = None
        if tracer:
            tracer.phase = "timed"
            frame = tracer.open(name)
        start = time.perf_counter_ns()
        result = error = None
        try:
            result = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall_ns += time.perf_counter_ns() - start
        if tracer:
            tracer.close(frame)
            if isinstance(result, bst.BstTable):
                tracer.record_entries(result)
            tracer.phase = None
        ops.append({
            "pair": label(pair),
            "stage": stage,
            "digest": None if error else digest(canon(result)),
            "error": error,
            "summary": _summary(stage, result),
        })
        return result

    probe = SpeedProbe()
    probe.start()
    for pair in order:
        run_pair(args.workload, pair, tables, op)
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"setup_s": setup_s, "wall_s": wall_ns / 1e9, "norm_wall_s": probe.norm_s(wall_ns / 1e9),
           "peak_rss_mb": peak_rss_mb, "ops": ops}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(out))


def _summary(stage, result):
    """The recorded facts worth printing: failing checks and Lemma 2.2 extras."""
    if stage == "check_suite" and result is not None:
        failing = sorted(k for k, v in result.items() if not v and k != "pass")
        return {"pass": result["pass"], "failing": failing}
    if stage == "verify_lemma22" and result is not None:
        return {"pass": result["pass"], "extra": result["extra"]}
    return None


if __name__ == "__main__":
    main()
