"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD SEED OUT_DIR LAUNCHED [--trace]

LAUNCHED is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start and the package import.
Before each command and after the last, outside the timed commands, it
times ``probe_s``, which gauges how fast the host runs this process at that
moment.  Writes ``OUT_DIR/rep.json``; with ``--trace`` also
``OUT_DIR/spans.json``.  Run from the repository root.
"""

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import phonon_timebin.cli as cli  # noqa: E402

SETUP_S = time.monotonic() - float(sys.argv[4])

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def probe_s() -> float:
    """Fastest of two runs of a fixed kernel that does not use the program:
    a dict-heavy interpreter loop and small dense Cholesky factorisations,
    like the Gaussian engine's per-node work."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        acc: dict[int, int] = {}
        for i in range(150_000):
            acc[i % 997] = acc.get(i % 997, 0) + i
        m = np.random.default_rng(0).random((16, 16))
        s = m @ m.T + 16.0 * np.eye(16)
        for _ in range(1500):
            c = np.linalg.cholesky(s)
            s = 0.5 * (s + s.T) + 1e-9 * (c @ c.T)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    trace = "--trace" in sys.argv[5:]
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    steps, probes = [], []
    for step, kind, argv in workloads.commands(workload, seed, out_dir):
        probes.append(probe_s())
        (out_dir / step).mkdir(parents=True, exist_ok=True)
        cpu, start = time.process_time(), time.perf_counter()
        with open(out_dir / step / "stdout.txt", "w") as fh, contextlib.redirect_stdout(fh):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 2
        steps.append({"step": step, "kind": kind, "exit": code,
                      "seconds": time.perf_counter() - start,
                      "cpu_s": time.process_time() - cpu})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes.append(probe_s())
    result = {
        "setup_s": SETUP_S,
        "wall_s": sum(s["seconds"] for s in steps),
        "cpu_s": sum(s["cpu_s"] for s in steps),
        "peak_rss_mb": peak_rss_mb,
        "steps": steps,
        "probes": probes,
        "traced": trace,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.gauges)
        (out_dir / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "failed"],
             "spans": tracer.spans}))
    (out_dir / "rep.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
