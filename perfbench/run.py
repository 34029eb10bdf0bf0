"""iotid benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload upload_stream --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the checkout this file sits in; without it the run fails with exit code 2
and prints no result.  Set-up is repeated ``SETUPS`` times in fresh
directories and its median reported as ``setup_s``; the last set-up is
the one timed.  The timed phase makes a fixed number of ops,
``ops_per_second * seconds`` (workloads.py), so every commit does the
same work and a faster program finishes sooner.  Every time reported is
in reference seconds: wall time scaled by the host's speed, which a gauge
(speed.py) samples between ops.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (see layers.py) from a run that alternates
tracing on and off every few ops, so the same run also measures the
tracer's overhead.  Every op's outcome is predicted by a model and checked
after the timed phase; a mismatch counts as a failed op.

Scratch data lives in ``.perfbench_work/`` under the checkout root and is
removed at the end, except the traced run's spans
(``.perfbench_work/trace-<workload>.jsonl.gz``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS = 3


def _import_package():
    """Import iotid from this checkout's src/ and nowhere else (exit 2 if absent)."""
    if (SRC / "iotid" / "__init__.py").is_file():
        sys.path.insert(0, str(SRC))
        import iotid
        if Path(iotid.__file__).resolve().parent == SRC / "iotid":
            return
    print(f"perfbench: no iotid package under {SRC}; run from a full checkout",
          file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup(cls, seed, count, work, tracer, traced, gauge):
    """Set up SETUPS times in fresh directories; keep the last.  Returns
    it and the (start, end) perf_counter times of each set-up."""
    intervals = []
    wl = None
    for k in range(SETUPS):
        if wl is not None:
            wl.close()
            shutil.rmtree(work / f"setup{k - 1}")
        wl = cls(seed, gauge)
        if traced:
            tracer.install()
        gauge.burst()
        start = perf_counter()
        wl.setup(work / f"setup{k}", count, tracer)
        intervals.append((start, perf_counter()))
        gauge.burst()
        tracer.uninstall()
    return wl, intervals


def _timed(wl, count, tracer, traced, log, gauge):
    """The closed loop over ``count`` ops, with a gauge tick between ops.
    Returns the perf_counter (start, end) of each op and of the final cut,
    and the ops that raised."""
    spans: list[tuple[float, float]] = []
    raised: set[int] = set()
    wl.begin_timed()
    gauge.burst()
    for op in range(count):
        on = traced and (op // wl.chunk) % 2 == 0
        if on != tracer.installed:
            tracer.install() if on else tracer.uninstall()
        tracer.op = op
        began = perf_counter()
        try:
            wl.op(op)
        except Exception:  # an op that raised unexpectedly is a failed op
            if not raised:
                log(traceback.format_exc())
            raised.add(op)
            if len(wl.kinds) == op:
                wl.kinds.append("raised")
        spans.append((began, perf_counter()))
        if op not in raised:
            wl.after_op(op)
        gauge.tick()
    tracer.op = count
    began = perf_counter()
    wl.finish()
    finish = (began, perf_counter())
    gauge.burst()
    tracer.uninstall()
    tracer.op = -1
    wl.end_timed()
    return spans, finish, raised


def _ms(values, q):
    """The q-th percentile (linear interpolation, 'inclusive') in ms."""
    if len(values) < 2:
        return values[0] * 1e3 if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    sys.path.insert(0, str(HERE))
    from harness import check_uploads
    from layers import layer_metrics
    from speed import Gauge
    from tracing import Tracer
    from workloads import READ_KINDS, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        sys.exit("perfbench: --seconds must be >= 1")

    def log(text):
        print(text, file=sys.stderr, flush=True)

    traced = args.trace == 1
    tracer = Tracer()
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cls = WORKLOADS[args.workload]
    count = cls.ops_count(args.seconds)
    gauge = Gauge()
    wl = None
    try:
        wl, setup_spans = _setup(cls, args.seed, count, work, tracer, traced, gauge)
        op_spans, finish, raised = _timed(wl, count, tracer, traced, log, gauge)
        if traced:
            tracer.install()
        problems = wl.check()
        tracer.uninstall()
        gauge.burst()
    finally:
        tracer.uninstall()
        if wl is not None:
            wl.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(wl.kinds)
    failed_ops = (set(check_uploads(wl.model, wl.observed, wl.flags))
                  | wl.mismatched_ops | raised)
    failed = len(failed_ops)
    for text in (problems + wl.mismatches)[:20]:
        log(f"check: {text}")
    for op in sorted(failed_ops)[:5]:
        log(f"failed op {op}: {wl.kinds[op]} -> {wl.observed.get(op)!r} "
            f"(model: {wl.model.expected.get(op)})")
    ok_ops = attempted - failed
    setup_times = [gauge.span(*span) for span in setup_spans]
    latencies = [gauge.span(*span) for span in op_spans]
    elapsed = sum(latencies) + gauge.span(*finish)
    wall_s = sum(end - start for start, end in op_spans) + finish[1] - finish[0]

    if traced:
        split = {True: [0, 0.0], False: [0, 0.0]}  # traced? -> [ops, seconds]
        for op, lat in enumerate(latencies):
            on = (op // wl.chunk) % 2 == 0
            split[on][0] += 1
            split[on][1] += lat
        (t_ops, t_s), (u_ops, u_s) = split[True], split[False]
        tracer.to_reference(gauge.ref)
        values = layer_metrics(tracer.spans, wl, t_ops, t_s, u_ops, u_s)
        tracer.write(WORK / f"trace-{args.workload}.jsonl.gz")
    else:
        commit = wl.tracker.latencies(gauge)
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": ok_ops / elapsed,
            "valid_tx_per_s": wl.valid_committed(wl.flags) / elapsed,
            "op_latency_p95_ms": _ms(latencies, 95),
            "commit_latency_p50_ms": _ms(commit, 50),
            "commit_latency_p90_ms": _ms(commit, 90),
            "ok_ratio": ok_ops / attempted if attempted else 0.0,
            "stored_bytes_per_payload_byte": (
                wl.stored_growth / wl.valid_payload_bytes()
                if wl.valid_payload_bytes() else 0.0),
            "peak_rss_mb": wl.peak_rss_mb,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if traced else "end_to_end"]}
    if set(units) != set(values):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    values = {name: (values[name], unit) for name, unit in units.items()}

    # human-readable detail first; the last line is the result
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  "
          f"ops: {attempted}  timed_s: {elapsed:.3f} (wall {wall_s:.3f})  "
          f"setup_s: {' '.join(f'{t:.3f}' for t in setup_times)}  "
          f"host wall/ref: {gauge.wall_per_ref():.3f} over {len(gauge.starts)} bursts")
    kinds = sorted(set(wl.kinds))
    print("ops by kind: " + ", ".join(f"{k}={wl.kinds.count(k)}" for k in kinds))
    if not traced:
        by_kind = {k: [] for k in kinds}
        for kind, lat in zip(wl.kinds, latencies):
            by_kind[kind].append(lat)
        reads = [lat for kind, lat in zip(wl.kinds, latencies) if kind in READ_KINDS]
        extra = {"op_latency_p50_ms": _ms(latencies, 50),
                 "commit_latency_p99_ms": _ms(commit, 99),
                 "commit_samples": len(commit)}
        if reads:
            extra.update(read_latency_p50_ms=_ms(reads, 50),
                         read_latency_p99_ms=_ms(reads, 99), read_samples=len(reads))
        for kind, lats in by_kind.items():
            extra[f"{kind}_latency_p50_ms"] = _ms(lats, 50)
            extra[f"{kind}_latency_p90_ms"] = _ms(lats, 90)
        print("detail: " + json.dumps({k: round(v, 4) if isinstance(v, float) else v
                                       for k, v in extra.items()}, sort_keys=True))
    if wl.digest is not None:
        print(f"journal_digest: {wl.digest}  ({attempted} timed ops)")
    for name, (value, unit) in values.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
