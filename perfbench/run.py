"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Repeats the workload, each repetition in a
fresh interpreter (``rep.py``), until about S seconds have passed, then
checks every repetition's outputs (``check.py``) outside the timed region.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced repetitions and
reports the per-layer metrics.  Each metric is the median over the
repetitions, with times at the reference host speed (``at_reference_speed``).
The last line of standard output is the JSON result; host times, details,
provenance and the traced spans stay under ``perfbench/.runs/WORKLOAD/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import check
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3          # per kind of repetition (untraced, traced)
REP_TIMEOUT_S = 120
# rep.probe_s() on the 2-vCPU Xeon host where the benchmark was defined, quiet
PROBE_REF_S = 0.040
# one client on one core: BLAS threads would compete with other tenants for
# the host's second core (a second thread gave the Fock engine no speed-up)
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_rep(workload: str, seed: int, rep_dir: Path, trace: bool) -> dict | None:
    """One repetition in a child process; None if it did not finish."""
    rep_dir.mkdir(parents=True)
    launched = time.monotonic()
    cmd = [sys.executable, str(HERE / "rep.py"), workload, str(seed), str(rep_dir),
           repr(launched)] + (["--trace"] if trace else [])
    with open(rep_dir / "stderr.txt", "w") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=err, stderr=err,
                                  timeout=REP_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return None
    out = rep_dir / "rep.json"
    if proc.returncode != 0 or not out.exists():
        return None
    return json.loads(out.read_text())


def repeat(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> list:
    """(rep_dir, result or None) per repetition.  Stops before a repetition
    that would end after ``seconds``, once each kind has MIN_REPS."""
    reps = []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep_dir = run_dir / f"rep{len(reps):02d}{'-traced' if traced else ''}"
        t0 = time.monotonic()
        reps.append((rep_dir, run_rep(workload, seed, rep_dir, traced), time.monotonic() - t0))
        if reps[-1][1] is None and len(reps) == 1:
            break  # the program does not run at all
        per_kind = len(reps) // 2 if trace else len(reps)
        typical = median(r[2] for r in reps)
        if per_kind >= MIN_REPS and time.monotonic() - start + typical > seconds:
            break
    return [(d, r) for d, r, _ in reps]


def blas_threads() -> int | None:
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10, check=False)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "seed": seed,
    }


def run_checks(workload: str, reps: list, run_dir: Path, ref: dict):
    """Every command's exit code, every repetition's outputs and the
    workload's fingerprint, as (name, passed, detail); plus the distinct
    counts.csv digests per step."""
    checks, hashes = [], {}
    for rep_dir, r in reps:
        if r is None:
            checks += [(f"{rep_dir.name}.process", False, "repetition did not finish")
                       ] * len(WORKLOADS[workload])
            continue
        checks += [(f"{rep_dir.name}.{s['step']}.exit", s["exit"] == 0, f"exit {s['exit']}")
                   for s in r["steps"]]
        if all(s["exit"] == 0 for s in r["steps"]):
            try:
                checks += [(f"{rep_dir.name}.{n}", ok, d)
                           for n, ok, d in check.check_outputs(workload, rep_dir, ref)]
            except (OSError, KeyError, TypeError, ValueError) as exc:
                checks.append((f"{rep_dir.name}.outputs", False, repr(exc)))
            for step, digest in check.counts_hashes(rep_dir).items():
                hashes.setdefault(step, set()).add(digest)
    checks += check.fingerprint(workload, run_dir / "fingerprint", ref)
    return checks, hashes


def step_s(rep: dict, kind: str) -> float:
    return sum(s["seconds"] for s in rep["steps"] if s["kind"] == kind)


def at_reference_speed(rep: dict) -> dict:
    """The repetition with its times in seconds at the reference speed.

    The host's speed drifts by tens of percent within minutes (other
    tenants), so each command's time is scaled by PROBE_REF_S over the mean
    of the probe times measured in the same process just before and after
    it; set-up by the probe right after it.  Per-layer and CPU times take
    their repetition's overall factor."""
    p = rep["probes"]
    steps = [dict(s, seconds=s["seconds"] * PROBE_REF_S / (0.5 * (p[i] + p[i + 1])))
             for i, s in enumerate(rep["steps"])]
    wall = sum(s["seconds"] for s in steps)
    factor = wall / rep["wall_s"]
    out = dict(rep, steps=steps, wall_s=wall, cpu_s=rep["cpu_s"] * factor,
               setup_s=rep["setup_s"] * PROBE_REF_S / p[0])
    if "layers" in rep:
        out["layers"] = {k: v * factor if k.endswith(("_s", ".s")) else v
                         for k, v in rep["layers"].items()}
    return out


def end_to_end(reps: list[dict]) -> dict[str, float]:
    return {
        "wall_s": median(r["wall_s"] for r in reps),
        "simulate_s": median(step_s(r, "simulate") for r in reps),
        "setup_s": median(r["setup_s"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    # counts repeat exactly; an error in any repetition shows
    out = {name: (max if name.endswith(".errors") else median)(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    wall, traced_wall = median(r["wall_s"] for r in plain), median(r["wall_s"] for r in traced)
    out.update({
        "cli.calibrate_s": median(step_s(r, "calibrate") for r in plain),
        "cli.oracle_check_s": median(step_s(r, "oracle_check") for r in plain),
        "process.cpu_s": median(r["cpu_s"] for r in plain),
        "trace.wall_s": traced_wall,
        "trace.overhead": traced_wall / wall - 1.0,
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.environ.update(ONE_THREAD)  # for the repetitions and this process's numpy

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "phonon_timebin" / "cli.py").is_file():
        print(f"no phonon_timebin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run_dir = HERE / ".runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    reps = repeat(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    done = [r for _, r in reps if r is not None]
    if not done:
        print(f"no repetition finished; see {run_dir}", file=sys.stderr)
        return 3

    # everything below is outside the timed region
    sys.path.insert(0, str(ROOT / "src"))
    checks, hashes = run_checks(args.workload, reps, run_dir, check.load_reference())
    failed = [c for c in checks if not c[1]]

    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if args.trace and not (traced and plain):
        print("need both untraced and traced repetitions", file=sys.stderr)
        return 3

    def metrics(plain, traced):
        return per_layer(plain, traced) if args.trace else end_to_end(plain)

    values = metrics([at_reference_speed(r) for r in plain],
                     [at_reference_speed(r) for r in traced])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 3

    walls = [r["wall_s"] for r in plain]
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "repetitions": {"untraced": len(plain), "traced": len(traced),
                        "unfinished": len(reps) - len(done)},
        "wall_s_min_median_max": [min(walls), median(walls), max(walls)],
        "reps": [{k: r[k] for k in ("traced", "setup_s", "wall_s", "cpu_s", "steps", "probes")}
                 for r in done],
        "cpu_over_wall": median(r["cpu_s"] / r["wall_s"] for r in plain),
        "counts_sha256": {k: sorted(v) for k, v in hashes.items()},
        "failed_checks": failed,
        "checks": len(checks),
        "metrics": values,
        "host_metrics": metrics(plain, traced),
    }
    (run_dir / "result.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({k: detail[k] for k in ("provenance", "repetitions",
                                                  "wall_s_min_median_max", "cpu_over_wall",
                                                  "counts_sha256", "failed_checks")}))
    if not args.trace:
        print(json.dumps({"host_metrics": detail["host_metrics"]}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
