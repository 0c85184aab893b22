"""One workload process of the kkbec benchmark, started by run.py.

    python3 bench/worker.py --workload NAME --seed N --seconds T \
        --mode setup|run|trace --refs PATH

Set-up imports kkbec from the checkout's ``src``, builds the seeded request
stream, loads the references and makes one checked warm-up request; the
monotonic time at which that ends is reported as ``ready_at``, with the
warm-up's latency and the probes on either side of it. ``setup`` stops
there. ``run`` then serves requests in a closed loop for T seconds.
``trace`` serves a fixed list of requests twice, untraced and then traced.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in kkbec swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def import_kkbec():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kkbec
    import kkbec.cli  # noqa: F401  (the package does not import its CLI)

    if Path(kkbec.__file__).resolve().parent != (src / "kkbec").resolve():
        raise SystemExit(f"kkbec imported from {kkbec.__file__}, not from {src}")
    return kkbec


def peak_rss_mb() -> float:
    """High-water resident set of this process since its exec, VmHWM.

    Not ru_maxrss: Linux carries that over from the forked copy of the
    parent, so a parent that built the references would show through.
    """
    with open("/proc/self/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


_PROBE_X = np.linspace(0.1, 1.0, 12)
# Probe time on an undisturbed core of the 2-vCPU Xeon host the benchmark was
# defined on; time metrics are reported at this machine speed.
PROBE_REF_MS = 0.6


def probe_ms() -> float:
    """Time of a fixed loop that does not touch kkbec: small numpy operations
    and plain float arithmetic, in the proportion that makes it slow down as
    much as kkbec requests do (1.6-1.75x) when neighbours load the core.
    """
    start = time.perf_counter()
    for _ in range(100):
        float(np.dot(_PROBE_X, np.sqrt(_PROBE_X * _PROBE_X + 1.0)))
    total = 0.0
    for i in range(4500):
        total += (i * 0.5) ** 0.5
    return (time.perf_counter() - start) * 1e3


class Server:
    """Closed loop with one caller: the next request starts when one ends.

    A probe runs before the first request and after every request, outside
    the timed region, so each latency has a probe on either side.
    """

    def __init__(self, kkbec, refs, deadline_s: float):
        self.kkbec = kkbec
        self.refs = refs
        self.deadline_s = deadline_s
        self.attempted = 0
        self.failed = 0
        self.out_bytes = 0
        self.latencies_ms: list[float] = []
        self.failures: list[str] = []
        self.probes_ms = [probe_ms()]

    def serve(self, req: workloads.Request) -> None:
        self.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        start = time.perf_counter()
        try:
            outcome = workloads.execute(req, self.kkbec)
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self.out_bytes += len(outcome.text.encode("utf-8"))
            reason = workloads.check(req, outcome, self.refs)
        except DeadlineExceeded:
            elapsed = time.perf_counter() - start
            reason = f"passed its {self.deadline_s} s deadline"
        except Exception as exc:  # a request that raises is a failed request
            elapsed = time.perf_counter() - start
            reason = f"raised {exc!r}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.latencies_ms.append(elapsed * 1e3)
        self.probes_ms.append(probe_ms())
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{' '.join(req.argv) or req}: {reason}")

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "latencies_ms": self.latencies_ms, "probes_ms": self.probes_ms,
                "failures": self.failures}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--refs", type=Path, required=True)
    args = parser.parse_args()

    kkbec = import_kkbec()
    stream = workloads.requests(args.workload, args.seed)
    refs = workloads.load_refs(args.refs)
    signal.signal(signal.SIGALRM, _on_alarm)
    server = Server(kkbec, refs, workloads.DEADLINE_S[args.workload])
    server.serve(workloads.warmup_request(args.workload))
    if server.failed:
        print(f"warm-up request failed: {server.failures}", file=sys.stderr)
        return 1
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready_at": ready_at, "warmup_ms": server.latencies_ms[0],
              "warmup_probes_ms": server.probes_ms,
              "python": sys.version.split()[0],
              "numpy": np.__version__, "openblas_threads": openblas_threads()}

    if args.mode == "run":
        server = Server(kkbec, refs, workloads.DEADLINE_S[args.workload])
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            server.serve(next(stream))
        result["elapsed_s"] = time.perf_counter() - start
        result.update(server.summary())
    elif args.mode == "trace":
        result.update(trace(kkbec, refs, args, stream))
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


def trace(kkbec, refs, args, stream) -> dict:
    """Serve a fixed request list untraced, then traced; per-layer metrics."""
    fixed = list(itertools.islice(stream, workloads.TRACE_REQUESTS[args.workload]))
    deadline = workloads.DEADLINE_S[args.workload]
    untraced = Server(kkbec, refs, deadline)
    start = time.perf_counter()
    for req in fixed:
        untraced.serve(req)
    untraced_s = time.perf_counter() - start

    tracer = tracing.Tracer(kkbec)
    traced = Server(kkbec, refs, deadline)
    tracer.install()
    try:
        start = time.perf_counter()
        for index, req in enumerate(fixed):
            tracer.request = index
            traced.serve(req)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics, absent = tracer.metrics(traced.out_bytes, traced_s / untraced_s - 1.0)
    spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write_spans(spans)
    return {
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "failures": untraced.failures + traced.failures,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "per_layer": metrics,
        "absent": absent,
        "spans": str(spans.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }


if __name__ == "__main__":
    sys.exit(main())
