"""Layered benchmark of kkbec: end-to-end request metrics and per-layer traces.

    python3 bench/run.py --workload corr-near|corr-wideN|oracle-cli \
        --seed N --seconds T --trace 0|1

Run from the root of a checkout; kkbec is imported from its ``src``. The
first run of a workload in a checkout builds that workload's references
into ``.bench_cache`` (scipy QUADPACK and dense eigensolves, see refgen.py);
later runs reuse them. Building is never timed.

``--trace 0`` spawns SETUP_SPAWNS fresh workload processes, each just
after a control process that starts the interpreter and imports numpy.
All but one stop once ready. The one in the middle serves requests in a
closed loop for T seconds and gives request rate, latency percentiles and
peak RSS; a run that completes fewer than MIN_COMPLETED requests is an
error. Rate and latencies are scaled to a reference machine speed with a
probe that runs between requests (see ``at_reference_speed``); the
unscaled values are in the header line. ``setup_s`` is the median over the
processes of spawn-to-ready time less that of the control, with the
warm-up request scaled like the others (see ``kkbec_setup_s``). ``--trace 1`` spawns one process that serves a fixed, seeded
request list untraced and then traced, and reports the per-layer metrics
of tracing.PER_LAYER. Spans are written to ``.bench_out``.

Every output is checked against the references. Standard output ends with
a header line (versions, CPU and BLAS threads, seed, attempts and failures)
and then the result line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import PROBE_REF_MS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 10
SETUP_TIMEOUT_S = 60.0
# a run may overshoot --seconds by one request, at most its deadline
RUN_GRACE_S = 60.0
PROBE_WINDOW = 4
# at least this many completed requests, so that ten lie beyond the p90
MIN_COMPLETED = 100
TRACE_TIMEOUT_S = 150.0
CONTROL = "import time, numpy; print(time.clock_gettime(time.CLOCK_MONOTONIC))"


class RunError(RuntimeError):
    pass


def spawn(args, mode: str, refs: Path) -> dict:
    """Start one workload process, wait for it and return its result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--refs", str(refs)]
    timeout = {"setup": SETUP_TIMEOUT_S, "run": args.seconds + RUN_GRACE_S,
               "trace": TRACE_TIMEOUT_S}[mode]
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{mode} process did not finish within {timeout} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} process exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - spawned_at
    return result


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def control_s() -> float:
    """Spawn-to-ready time of a bare interpreter that only imports numpy.

    That import is half of a set-up and the part that the state of a shared
    host moves most: on the 2-vCPU host the benchmark was defined on it went
    from 0.21 s to 0.13 s and back within minutes while the rest of the
    set-up held within 5%. Each set-up is measured against one of these
    spawned just before it.
    """
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        out = subprocess.run([sys.executable, "-c", CONTROL], cwd=ROOT, capture_output=True,
                             text=True, timeout=SETUP_TIMEOUT_S, check=True)
        return float(out.stdout) - spawned_at
    except (subprocess.SubprocessError, ValueError) as exc:
        raise RunError(f"control process failed: {exc}") from None


def kkbec_setup_s(child: dict, control: float) -> float:
    """A process's set-up time beyond its control, warm-up at reference speed.

    The warm-up request is scaled like every latency. The rest (importing
    kkbec and the benchmark, building inputs, loading references) is
    interpreter and file work that the probe does not track, and is kept as
    measured.
    """
    warm = child["warmup_ms"]
    scaled_warm = at_reference_speed([warm], child["warmup_probes_ms"])[0]
    return child["setup_s"] - control + (scaled_warm - warm) / 1e3


def at_reference_speed(latencies: list[float], probes: list[float]) -> list[float]:
    """Latencies scaled from the machine speed of the moment to the reference.

    Probe k runs just before latency k and just after latency k - 1. Each
    latency is multiplied by PROBE_REF_MS over the median of the
    PROBE_WINDOW probes centred on it, so that one probe stretched by a
    brief slowdown does not rescale its request; wider windows smooth over
    changes of speed that last a few requests and left p90 spreads twice as
    wide. Neighbours on a shared host slow the core about 1.7x for
    stretches of seconds to minutes; unscaled, that set the run-to-run
    spread of every time metric at 0.15-0.5 of its median.
    """
    half = PROBE_WINDOW // 2
    return [lat * PROBE_REF_MS / statistics.median(probes[max(0, k + 1 - half):k + 1 + half])
            for k, lat in enumerate(latencies)]


def latency_metrics(latencies: list[float], completed: int) -> dict[str, float]:
    return {
        "req_per_s": completed / (sum(latencies) / 1e3),
        "req_ms_p50": statistics.median(latencies),
        "req_ms_p90": percentile(latencies, 90) if len(latencies) > 1 else latencies[0],
    }


def end_to_end(args, refs: Path) -> tuple[dict, dict, dict]:
    """Result of the measured process, its metrics and extra header fields."""
    controls, spawns = [], []
    for index in range(SETUP_SPAWNS):
        controls.append(control_s())
        # the timed run goes in the middle, so that the set-ups around it
        # span its stretch of machine speed
        spawns.append(spawn(args, "run" if index == SETUP_SPAWNS // 2 else "setup", refs))
    result = spawns[SETUP_SPAWNS // 2]
    setups = [kkbec_setup_s(child, control) for child, control in zip(spawns, controls)]
    latencies = result["latencies_ms"]
    if not latencies:
        raise RunError("no request was attempted")
    completed = result["attempted"] - result["failed"]
    if completed < MIN_COMPLETED:
        raise RunError(f"only {completed} requests completed in {result['elapsed_s']:.1f} s; "
                       f"a p90 needs at least {MIN_COMPLETED}")
    scaled = at_reference_speed(latencies, result["probes_ms"])
    units = {"req_per_s": "1/s", "req_ms_p50": "ms", "req_ms_p90": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}
    values = latency_metrics(scaled, completed) | {
        "peak_rss_mb": result["peak_rss_mb"], "setup_s": statistics.median(setups)}
    unscaled = latency_metrics(latencies, completed)
    extra = {"spawn_to_ready_s": [child["setup_s"] for child in spawns],
             "control_s": controls,
             "elapsed_s": result["elapsed_s"],
             "beyond_p90": len(latencies) - int(0.9 * len(latencies)),
             "unscaled": {k: {"value": v, "unit": units[k]} for k, v in unscaled.items()},
             "slowdown_median": statistics.median(
                 raw / new for raw, new in zip(latencies, scaled) if new > 0)}
    return result, {k: {"value": values[k], "unit": units[k]} for k in units}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "kkbec" / "__init__.py").is_file():
        print(f"no kkbec source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        refs = workloads.ensure_refs(ROOT, args.workload)
        if args.trace:
            result = spawn(args, "trace", refs)
            extra = {"absent": result["absent"], "spans": result["spans"],
                     "span_count": result["span_count"],
                     "untraced_s": result["untraced_s"], "traced_s": result["traced_s"]}
            metrics = result["per_layer"]
        else:
            result, metrics, extra = end_to_end(args, refs)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    if attempted < 1:
        print("benchmark failed: no request was attempted", file=sys.stderr)
        return 1
    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": result["python"], "numpy": result["numpy"],
        "nproc": len(os.sched_getaffinity(0)), "openblas_threads": result["openblas_threads"],
        "attempted": attempted, "completed": attempted - failed, "failed": failed,
        "fail_frac": failed / attempted, "failures": result["failures"], **extra,
    }
    print(json.dumps({"run": header}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
