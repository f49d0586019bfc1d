"""Paired benchmark of two checkouts of trkalian.

Runs ``perfbench/run.py --trace 0`` of each tree in fresh subprocesses, the
two trees alternating over the same seeds (the tree that goes first swaps
from seed to seed), and writes one ``BENCH_<n>.json`` into each tree with,
per workload, the median and interquartile range of every end-to-end
metric, the seeds, the runs' correctness, and the environment the harness
reports (core count, Python, numpy, scipy, BLAS, src.loc).  It then runs
``--trace 1`` on the first three seeds of each workload, alternating the
same way, and writes the median of every per-layer metric under
``per_layer`` and its minimum and maximum over those seeds under
``per_layer_spread``, workload by workload, and the median and [min, max]
of each verify record's traced time under ``verify_records``; it prints the
records whose median moved most.  It also times
the tier-1 suite of each tree, three alternating runs per tree, and writes
their median and IQR with the counts of the suite's summary line.  It
times four user-facing commands as fresh processes, 11 rounds with the two
trees alternating which goes first and bytecode cleared before every
process: ``python -c "import trkalian.cli"``, ``trk verify``, the default
``trk radon --field gaussian`` and ``trk field-eval --field lundquist`` on
21^3 points, each as ``python -m trkalian.cli`` with the tree's ``src``
first on PYTHONPATH; it writes each command's wall-time median and IQR and
its peak RSS (``ru_maxrss`` of that child, from ``os.wait4``) under
``commands``.  For
information it prints the trees' ``src.loc`` and its change (when it
changed, also per ``src/trkalian/*.py`` module), and, after one
``python -m trkalian.cli verify --out`` per tree, the count of bit-identical
record residuals and each record whose residual moved, with both values.
It reads the harness's printed JSON line and its ``.bench_out/results``
file; it imports nothing from ``perfbench/``.  Before every run it deletes
the ``__pycache__`` directories inside the tree, so neither tree sets up faster
for compiled bytecode that earlier runs left in it.  Last it prints, per
workload and end-to-end metric, the two medians, the head's change in per
cent and the pairs in which the head is better, the same per command for
wall time and peak RSS over the rounds, then the shift of the head's median
from the parent's in units of the larger of the two IQRs, per workload and
per command; run on two checkouts of one commit, this is the spread of the harness itself.
It prints one verdict per workload and end-to-end metric: "gain" when the
head is better in at least 9/10 of the pairs and its median moved past the
parent's by more than the parent's IQR, "regression" when the head's median
is worse than the parent's by more than the metric's ``BENCHMARK.json``
bound (a fraction of the parent's median), and "neutral" otherwise.  The
per-layer lines give each tree's median and range, marked "overlap" where
the two ranges overlap, so that a shift inside the runs' own spread is not
read as a change.  Each workload's entry records the checks the runs
attempted and failed; the script exits 1, naming them, when any run of
either tree is not correct, when the head fails a larger share of its
checks on a workload than the parent, or when the head's tier-1 summary
line counts more failed or errored tests than the parent's.

    python3 bench_pairs.py PARENT_TREE HEAD_TREE --number 17 --seeds 1-10

Each tree is a full checkout (``git archive`` of a commit will do).  The
workloads are those of the head tree's ``BENCHMARK.json``; ``--seconds`` is
passed on only when given, so the harness sets the run length otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

TIER1_RUNS = 3
TRACE_SEEDS = 3
RECORDS_SHOWN = 8  # verify records printed, those whose median moved most
COMMAND_ROUNDS = 11  # two A/A runs at 11: every command median within 0.31 IQR
# fresh-process commands: python arguments, with {out} an output directory in the tree
COMMANDS = {
    "import": ["-c", "import trkalian.cli"],
    "verify": ["-m", "trkalian.cli", "verify"],
    "radon": ["-m", "trkalian.cli", "radon", "--field", "gaussian", "--out", "{out}"],
    "field-eval": ["-m", "trkalian.cli", "field-eval", "--field", "lundquist",
                   "--grid", "-1:1:21,-1:1:21,-1:1:21", "--out", "{out}"],
}
COMMAND_METRICS = ("wall_s", "peak_rss_mb")  # the two values command() returns
GAIN_SHARE = 0.9  # a gain needs the head better in at least this share of the pairs


def clear_bytecode(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)


def run(tree: Path, workload: str, seed: int, seconds: float | None, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    clear_bytecode(tree)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    results = tree / ".bench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    full = json.loads(results.read_text())
    report["environment"], report["seconds"] = full["environment"], full["seconds"]
    report["verify_records_s"] = full.get("verify_records_s", {})  # traced runs only
    return report


def src_env(tree: Path) -> dict:
    """The environment with the tree's ``src`` first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def tier1(tree: Path) -> tuple[float, str]:
    """Wall time of one tier-1 run (``python -m pytest -q
    --continue-on-collection-errors`` with the tree's ``src`` first on
    PYTHONPATH) and the counts of the suite's summary line ("434 passed")."""
    clear_bytecode(tree)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=tree, capture_output=True, text=True, env=src_env(tree))
    elapsed = time.perf_counter() - start
    last = (proc.stdout.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
    return elapsed, last.rsplit(" in ", 1)[0]


def command(tree: Path, name: str) -> tuple[float, float]:
    """Wall time (s) and peak RSS (MB, ``ru_maxrss`` from ``os.wait4``) of one
    fresh process of the command ``name`` of COMMANDS, run in the tree with
    its ``src`` first on PYTHONPATH after its bytecode is cleared."""
    work = tree / ".bench_out" / "commands"
    work.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable] + [a.replace("{out}", str(work / name)) for a in COMMANDS[name]]
    clear_bytecode(tree)
    with (work / "stderr.txt").open("w+") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=tree, env=src_env(tree),
                                stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            stderr.seek(0)
            sys.exit(f"{tree}: {' '.join(argv[1:])} exited {proc.returncode}\n{stderr.read()}")
    return elapsed, usage.ru_maxrss / 1024.0


def verify_residuals(tree: Path) -> dict:
    """Each record's residual, by name, from one ``python -m trkalian.cli
    verify --out`` run of the tree; a failing record does not stop it."""
    report = tree / ".bench_out" / "verify_report.json"
    report.parent.mkdir(exist_ok=True)
    subprocess.run([sys.executable, "-m", "trkalian.cli", "verify", "--out", str(report)],
                   cwd=tree, capture_output=True, env=src_env(tree))
    return {r["name"]: r["residual"] for r in json.loads(report.read_text())["records"]}


def module_lines(tree: Path) -> dict:
    """Lines of each ``src/trkalian/*.py`` module by file name, counted as the
    harness counts ``src.loc``."""
    return {p.name: len(p.read_text().splitlines())
            for p in sorted((tree / "src" / "trkalian").glob("*.py"))}


def layer_values(reports: list[dict], metric: str) -> list[float]:
    """One per-layer metric of the traced runs, seed by seed."""
    return [r["metrics"][metric]["value"] for r in reports]


def record_times(reports: list[dict]) -> dict:
    """Median and [min, max] of each verify record's time (s) over the runs
    that timed it, the traced runs of the verify workload."""
    times: dict[str, list[float]] = {}
    for r in reports:
        for name, value in r["verify_records_s"].items():
            times.setdefault(name, []).append(value)
    return {name: {"median": statistics.median(v), "range": [min(v), max(v)]}
            for name, v in sorted(times.items())}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "values": values}


def median_shift(a: list[float], b: list[float]) -> float:
    """Median of b minus median of a, in units of the larger of their IQRs:
    the agreement gate, which two checkouts of one commit should keep small."""
    shift = statistics.median(b) - statistics.median(a)
    spread = max(summary(a)["iqr"], summary(b)["iqr"])
    return shift / spread if spread else math.copysign(math.inf, shift) if shift else 0.0


def verdict(parent: list[float], head: list[float], better: str, bound: float) -> str:
    """"regression" when the head's median is worse than the parent's by more
    than ``bound`` times the parent's median, "gain" when the head is better in
    at least GAIN_SHARE of the pairs and its median is better by more than the
    parent's IQR, else "neutral"; ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (statistics.median(parent) - statistics.median(head))
    wins = sum(sign * (x - y) > 0 for x, y in zip(parent, head))
    if -gain > bound * abs(statistics.median(parent)):
        return "regression"
    if wins >= GAIN_SHARE * len(parent) and gain > summary(parent)["iqr"]:
        return "gain"
    return "neutral"


def broken_tests(line: str) -> int:
    """Failed plus errored tests on a pytest summary line ("2 failed, 618 passed")."""
    return sum(int(n) for n, word in re.findall(r"(\d+) (\w+)", line)
               if word in ("failed", "error", "errors"))


def failures(trees: list[Path], runs: dict, traced: dict, workloads: list[str],
             suite: dict) -> list[str]:
    """The runs, untraced or traced, with unexpected failed checks, the
    workloads on which the head's untraced runs (trees[1]) fail a larger share
    of their attempted checks than the parent's, and the head's tier-1 suite
    when its worst summary line counts more failed or errored tests than the
    parent's worst; empty when there are none."""
    found = []
    (pb, pline), (hb, hline) = (max((broken_tests(line), line) for _, line in suite[t])
                                for t in trees)
    if hb > pb:
        found.append(f"tier-1: the head's suite reads {hline!r}, the parent's {pline!r}")
    for t in trees:
        for w in workloads:
            bad = [r["seed"] for r in runs[t][w] + traced[t][w] if not r["correct"]]
            if bad:
                found.append(f"{t.name} {w}: {len(bad)} runs not correct"
                             f" (seeds {sorted(set(bad))})")
    for w in workloads:
        (pf, pa), (hf, ha) = ((sum(r["failed"] for r in runs[t][w]),
                               sum(r["attempted"] for r in runs[t][w])) for t in trees)
        if hf * max(pa, 1) > pf * max(ha, 1):
            found.append(f"{w}: the head failed {hf} of {ha} checks, the parent {pf} of {pa}")
    return found


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range FIRST-LAST: {text!r}")
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 seeds for an IQR, got {text!r}")
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, type=Path, help="parent tree, then head tree")
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--seeds", type=seed_range, default="1-10", help="FIRST-LAST")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length per run; default the harness's")
    args = parser.parse_args()
    trees = [t.resolve() for t in args.trees]
    spec = json.loads((trees[1] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    layer_metrics = [m["name"] for m in spec["per_layer"]]

    runs = {t: {w: [] for w in workloads} for t in trees}
    for w in workloads:
        for s in args.seeds:
            for t in (trees if s % 2 else trees[::-1]):
                runs[t][w].append({"seed": s, **run(t, w, s, args.seconds)})
                m = runs[t][w][-1]["metrics"]
                print(f"{w} seed {s} {t.name}: op_s {m['op_s']['value']:.4f}", flush=True)

    layers = {t: {w: [] for w in workloads} for t in trees}
    for w in workloads:
        for s in args.seeds[:TRACE_SEEDS]:
            for t in (trees if s % 2 else trees[::-1]):
                layers[t][w].append({"seed": s, **run(t, w, s, args.seconds, trace=1)})
                print(f"{w} seed {s} {t.name}: traced", flush=True)

    suite = {t: [] for t in trees}
    for i in range(TIER1_RUNS):
        for t in (trees if i % 2 else trees[::-1]):
            suite[t].append(tier1(t))
            print(f"tier-1 run {i + 1} {t.name}: {suite[t][-1][0]:.2f} s, {suite[t][-1][1]}",
                  flush=True)

    commands = {t: {c: [] for c in COMMANDS} for t in trees}
    for i in range(COMMAND_ROUNDS):
        for c in COMMANDS:
            for t in (trees if i % 2 else trees[::-1]):
                commands[t][c].append(command(t, c))
        print(f"command round {i + 1}: " + "  ".join(
            f"{c} " + " / ".join(f"{commands[t][c][-1][0]:.3f}" for t in trees) + " s"
            for c in COMMANDS), flush=True)

    records = {t: record_times([r for w in workloads for r in layers[t][w]]) for t in trees}
    for t in trees:
        env = runs[t][workloads[0]][0]["environment"]
        out = {"tree": t.name, "seeds": args.seeds, "seconds": runs[t][workloads[0]][0]["seconds"],
               "nproc": env["nproc"], "python": env["python"], "numpy": env["numpy"],
               "scipy": env["scipy"], "blas": env["blas"], "src.loc": env["src.loc"],
               "tier1_s": summary([wall for wall, _ in suite[t]]),
               "tier1_result": sorted({line for _, line in suite[t]}), "workloads": {},
               "trace_seeds": args.seeds[:TRACE_SEEDS],
               "per_layer": {w: {m: statistics.median(layer_values(layers[t][w], m))
                                 for m in layer_metrics} for w in workloads},
               "per_layer_spread": {w: {m: [min(layer_values(layers[t][w], m)),
                                            max(layer_values(layers[t][w], m))]
                                        for m in layer_metrics} for w in workloads},
               "verify_records": records[t],
               "command_rounds": COMMAND_ROUNDS, "command_bytecode": "cleared before every process",
               "commands": {c: {"argv": ["python", *COMMANDS[c]],
                                **{m: summary([run[k] for run in commands[t][c]])
                                   for k, m in enumerate(COMMAND_METRICS)}}
                            for c in COMMANDS}}
        for w in workloads:
            reports = runs[t][w]
            out["workloads"][w] = {
                "correct": all(r["correct"] for r in reports),
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                **{m: summary([r["metrics"][m]["value"] for r in reports]) for m in metrics}}
        (t / f"BENCH_{args.number}.json").write_text(json.dumps(out, indent=2) + "\n")

    for w in workloads:
        for m in metrics:
            pa, pb = ([r["metrics"][m]["value"] for r in runs[t][w]] for t in trees)
            better, bound = next((x["better"], x["bound"]) for x in spec["end_to_end"]
                                 if x["name"] == m)
            wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(pa, pb))
            ma, mb = statistics.median(pa), statistics.median(pb)
            change = f"{100.0 * (mb - ma) / ma:+7.1f} %" if ma else "      n/a"
            print(f"{w:10s} {m:12s} {ma:10.4g} -> {mb:10.4g} {change}"
                  f"  head better in {wins}/{len(pa)} pairs")
            print(f"{w:10s} {m:12s} verdict {verdict(pa, pb, better, bound)} (parent IQR"
                  f" {summary(pa)['iqr']:.4g}, bound {100.0 * bound:.0f} %)")
    for c in COMMANDS:
        for k, m in enumerate(COMMAND_METRICS):
            pa, pb = ([run[k] for run in commands[t][c]] for t in trees)
            wins = sum(y < x for x, y in zip(pa, pb))
            ma, mb = statistics.median(pa), statistics.median(pb)
            print(f"{'cmd ' + c:14s} {m:12s} {ma:10.4g} -> {mb:10.4g}"
                  f" {100.0 * (mb - ma) / ma:+7.1f} %  head better in {wins}/{len(pa)} rounds")
    shifts = {}
    for w in workloads:
        for m in metrics:
            shifts[w, m] = median_shift(*([r["metrics"][m]["value"] for r in runs[t][w]]
                                          for t in trees))
        print(f"{w:10s} median shift / larger IQR: "
              + "  ".join(f"{m} {shifts[w, m]:+.2f}" for m in metrics))
    for c in COMMANDS:
        for k, m in enumerate(COMMAND_METRICS):
            shifts["cmd " + c, m] = median_shift(*([run[k] for run in commands[t][c]]
                                                   for t in trees))
        print(f"{'cmd ' + c:14s} median shift / larger IQR: "
              + "  ".join(f"{m} {shifts['cmd ' + c, m]:+.2f}" for m in COMMAND_METRICS))
    (w, m), worst = max(shifts.items(), key=lambda item: abs(item[1]))
    print(f"largest median shift: {worst:+.2f} IQR ({w} {m})")
    for w in workloads:
        for m in layer_metrics:
            va, vb = (layer_values(layers[t][w], m) for t in trees)
            if any(va) or any(vb):
                overlap = max(min(va), min(vb)) <= min(max(va), max(vb))
                print(f"{w:10s} {m:34s} {statistics.median(va):10.4g} -> "
                      f"{statistics.median(vb):10.4g}  (median of traced runs; range "
                      f"{min(va):.4g}..{max(va):.4g} -> {min(vb):.4g}..{max(vb):.4g})"
                      + ("  overlap" if overlap else ""))
    before, after = (records[t] for t in trees)
    common = sorted(set(before) & set(after),
                    key=lambda n: -abs(after[n]["median"] - before[n]["median"]))
    for name in common[:RECORDS_SHOWN]:
        (a, (lo_a, hi_a)), (b, (lo_b, hi_b)) = ((m[name]["median"], m[name]["range"])
                                                for m in (before, after))
        print(f"verify record {name:24s} {1e3 * a:8.3f} -> {1e3 * b:8.3f} ms  (median of traced"
              f" runs; range {1e3 * lo_a:.3f}..{1e3 * hi_a:.3f} -> {1e3 * lo_b:.3f}..{1e3 * hi_b:.3f})"
              + ("  overlap" if max(lo_a, lo_b) <= min(hi_a, hi_b) else ""))
    loc_a, loc_b = (runs[t][workloads[0]][0]["environment"]["src.loc"] for t in trees)
    print(f"src.loc {loc_a} -> {loc_b} ({loc_b - loc_a:+d})")
    if loc_a != loc_b:
        before, after = (module_lines(t) for t in trees)
        for name in sorted(set(before) | set(after)):
            a, b = before.get(name, 0), after.get(name, 0)
            if a != b:
                print(f"src.loc {name:16s} {a:5d} -> {b:5d} ({b - a:+d})")
    before, after = (verify_residuals(t) for t in trees)
    moved = [n for n in sorted(set(before) & set(after)) if repr(before[n]) != repr(after[n])]
    print(f"verify residuals: {len(set(before) & set(after)) - len(moved)} bit-identical,"
          f" {len(moved)} moved")
    for name in moved:
        print(f"verify residual {name:24s} {before[name]!r} -> {after[name]!r}")
    print("tier-1 wall s " + " -> ".join(f"{statistics.median(w for w, _ in suite[t]):.2f}"
                                         for t in trees))
    found = failures(trees, runs, layers, workloads, suite)
    if found:
        sys.exit("FAILED RUNS:\n" + "\n".join(found))


if __name__ == "__main__":
    main()
