"""Benchmark of the trkalian toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload radon_grid --seed 1 --seconds 15 --trace 0

It imports ``trkalian`` from ``src/`` of that checkout, makes the workload's
inputs from the seed, runs ops for ``--seconds`` (always at least one),
checks every op's outputs, prints a report and, as the last line of standard
output, one JSON object with the metrics.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs half the time untraced and half
traced and reports per-layer metrics and the tracing overhead.  End-to-end
times are scaled to a reference machine speed (see ``calibrate``).  Full
results, raw wall times, file digests and spans go to ``.bench_out/`` in the
checkout.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"  # the metric names and units reported
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
WARMUP_INDEX = 1_000_000  # inputs of untimed warm-up ops, apart from the timed ones
# Times are reported at a reference machine speed: a wall time is scaled by
# REF_CALIBRATION_S / (the calibration measured around it), see calibrate().
REF_CALIBRATION_S = 0.010
_CAL_POINTS = np.linspace(-1.0, 1.0, 3 * 2048).reshape(-1, 3)
_CAL_DIR = np.array([0.3, -0.2, 0.9])


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import trkalian from this checkout's src/, never from elsewhere."""
    if not (SRC / "trkalian" / "__init__.py").is_file():
        fail(f"no trkalian sources under {SRC}; run from the root of a checkout")
    os.environ.pop("TRK_THREADS", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import trkalian
    import trkalian.cli  # noqa: F401  (makes trkalian.cli an attribute)
    if Path(trkalian.__file__).resolve().parent != (SRC / "trkalian").resolve():
        fail(f"imported trkalian from {trkalian.__file__}, not from {SRC}")
    return trkalian


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label.

    With ten samples or fewer no percentile qualifies; the median is
    reported then, because the maximum of a few samples follows the
    machine's momentary load more than the program.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), f"p50 of n={n} (fewer than 11 samples)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f} of n={n}"


def calibrate() -> float:
    """Machine speed probe: the median of seven timings of a fixed mix of
    interpreter loops and small numpy operations, like the program's own.

    The machine this was sized on changed speed by up to +-25% over minutes,
    for both kinds of work alike; scaling by this probe removes most of that
    drift from the reported times.
    """
    samples = []
    for _ in range(7):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(40000):
            acc += (i * 0.5) % 3.0
        for _ in range(40):
            acc += float(np.exp(1j * (_CAL_POINTS @ _CAL_DIR)).real.sum())
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def scaled(walls: list[float], cals: list[float]) -> list[float]:
    """Wall times at the reference speed; ``cals`` has one more entry than
    ``walls``: the calibrations before and after each timing."""
    return [w * REF_CALIBRATION_S / (0.5 * (a + b))
            for w, a, b in zip(walls, cals, cals[1:])]


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import trkalian and build the
    workload's first inputs, up to the point where an op would start, and
    the calibrations around them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    env = {k: v for k, v in os.environ.items() if k != "TRK_THREADS"}
    times, cals = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            fail("set-up probe did not start")
        times.append(t1 - t0)
        cals.append(calibrate())
    return times, cals


def code_hash() -> str:
    """Digest of the program and benchmark sources: stored output digests
    are compared only between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "trkalian").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(tk) -> dict:
    import numpy
    import scipy
    blas = {k: os.environ.get(k, "unset") for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        blas["library"] = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas["library"] = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "TRK_THREADS": os.environ.get("TRK_THREADS", "unset"),
        "src.loc": sum(len(p.read_text().splitlines())
                       for p in sorted((SRC / "trkalian").glob("*.py"))),
        "trkalian": tk.__version__,
    }


def run_phase(wl, checks, first: int, seconds: float, tracer=None, min_ops: int = 1):
    """Run ops from index ``first`` until ``seconds`` have passed and at
    least ``min_ops`` ran.  Returns {op index: wall time}, the calibrations
    around the ops (one more than ops) and the items processed."""
    walls, cals, items = {}, [], 0
    deadline = time.perf_counter() + seconds
    i = first
    while True:
        gc.collect()
        cal = calibrate()
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = wl.run(i)
        except Exception:
            traceback.print_exc()
            out = None
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        if out is None:
            checks.expect("op_raised", False)
        else:
            walls[i] = t1 - t0
            cals.append(cal)
            items += out["items"]
            try:
                wl.check(i, out, checks)
            except Exception:
                traceback.print_exc()
                checks.expect("check_raised", False)
        i += 1
        if i - first >= min_ops and time.perf_counter() >= deadline:
            cals.append(calibrate())
            return walls, cals, items


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    tk = import_program()
    spec = json.loads(SPEC.read_text())
    from workloads import KNOWN_DEFECTS, WORKLOADS, Checks
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](tk, args.seed, workdir)
        if args.setup_probe:
            wl.setup()
            print("ready", flush=True)
            return 0
        setup_times, setup_cals = measure_setup(args)
        checks = Checks(args.workload, OUT / "digests" /
                        f"{args.workload}-seed{args.seed}-{code_hash()}.json")
        if wl.warmup_ops:
            run_phase(wl, checks, WARMUP_INDEX, 0.0, min_ops=wl.warmup_ops)
        if args.trace:
            from tracing import Tracer, install
            walls, cals, items = run_phase(wl, checks, 0, args.seconds / 2)
            tracer = Tracer()
            install(tracer)
            try:
                traced, _, _ = run_phase(wl, checks, len(walls), args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            walls, cals, items = run_phase(wl, checks, 0, args.seconds, min_ops=wl.min_ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks.save_digests()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(tk)
    if not walls or (args.trace and not traced):
        fail("no op completed")
    times = scaled(list(walls.values()), cals)
    # a process start is too short to bracket; use the whole run's speed
    setup = [t * REF_CALIBRATION_S / statistics.median(setup_cals + cals) for t in setup_times]
    op_tail, tail_label = tail(times)
    unexpected = sorted(set(checks.failures) - set(KNOWN_DEFECTS))
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "item": wl.item,
        "ops": len(times), "op_times_s": times, "op_s_tail": tail_label,
        "op_wall_times_s": list(walls.values()), "op_calibrations_s": cals,
        "setup_times_s": setup, "setup_wall_times_s": setup_times,
        "setup_calibrations_s": setup_cals, "ref_calibration_s": REF_CALIBRATION_S,
        "checks_attempted": checks.attempted, "checks_failed": dict(checks.failures),
        "failed_ratio": checks.failed / max(checks.attempted, 1),
        "worst_residuals": checks.worst, "digests": checks.digests,
    }
    if args.trace:
        results["traced_ops"] = len(traced)
        layer = tracer.summary(traced)
        traced_op = statistics.median(traced.values())
        layer["trace.op_s"] = traced_op
        layer["trace.overhead_s"] = traced_op - statistics.median(walls.values())
        layer["src.loc"] = env["src.loc"]
        metrics = {m["name"]: {"value": float(layer.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        results["layers"] = layer
        results["verify_records_s"] = {k[len("verify.record."):-2]: v for k, v in layer.items()
                                       if k.startswith("verify.record.") and k.count(".") > 2}
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "op_s": statistics.median(times),
            "op_s_tail": op_tail,
            "items_per_s": items / sum(times),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    results["metrics"] = metrics
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n")

    report(results, KNOWN_DEFECTS, unexpected)
    print(json.dumps({"correct": not unexpected, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def report(results: dict, known: dict, unexpected: list[str]) -> None:
    env = results["environment"]
    print(f"# {results['workload']} seed={results['seed']} trace={results['trace']} "
          f"ops={results['ops']} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"TRK_THREADS={env['TRK_THREADS']} src.loc={env['src.loc']}")
    for name, m in results["metrics"].items():
        note = {"op_s_tail": f"  ({results['op_s_tail']})",
                "items_per_s": f"  (items are {results['item']})"}.get(name, "")
        print(f"{name:34s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'wall op_s (unscaled)':34s} {statistics.median(results['op_wall_times_s']):.6g} s"
          f"  (calibration {statistics.median(results['op_calibrations_s']):.4g} s,"
          f" reference {results['ref_calibration_s']} s)")
    print(f"{'failed_ratio':34s} {results['failed_ratio']:.6g} "
          f"({sum(results['checks_failed'].values())}/{results['checks_attempted']} checks)")
    for name in ("forward_err", "recon_grid_start"):
        if name in results["worst_residuals"]:
            label = "recon_err" if name == "recon_grid_start" else name
            print(f"{label:34s} {results['worst_residuals'][name]:.6g} ratio")
    for name, count in sorted(results["checks_failed"].items()):
        status = "known seed-state defect" if name in known else "UNEXPECTED"
        print(f"FAILED {name} x{count} ({status})")
    if unexpected:
        print(f"unexpected failures: {', '.join(unexpected)}")


if __name__ == "__main__":
    sys.exit(main())
