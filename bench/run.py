"""Benchmark of the glekit command line: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Load is one client in a closed loop: each pass of a workload is a fresh
Python process (``bench/child.py``) that imports ``glekit.cli`` and calls
``glekit.cli.main`` once per invocation; the next pass starts when the last
one has ended, until ``--seconds`` have passed.  Every pass uses the same
seed, so the outputs of every pass must have the same sha256 digests.

``--trace 0`` reports the end-to-end metrics (medians over the passes).  Each
pass also times a fixed host-speed probe that runs no glekit code; wall and
set-up times are scaled to a host on which the probe takes ``PROBE_REF_S``,
and the raw times are printed and recorded next to them.
``--trace 1`` reports the per-layer metrics: per cycle it runs every workload
untraced and traced, plus ``bifurcation`` and ``whitenoise`` with
``--threads 2``, and repeats cycles until ``--seconds`` have passed.  The
per-layer metrics cover all layers, so a traced run covers all workloads
whatever ``--workload`` names.

Child processes get one BLAS thread, so no run uses more threads than the
2 cores the benchmark was sized on.  A result file with the machine facts
goes to ``bench/results/``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
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

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"
REQUIRED = ("src/glekit/cli.py", "configs/doublewell_gmv.conf", "configs/quadratic_gmv.conf",
            "configs/quadratic_umv.conf")
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150.0
DEADLINE_S = 150.0  # no pass or cycle expected to end later starts; a run must end by 180 s
THREAD_SCALING = ("bifurcation", "whitenoise")
# bytes are left out: manifest timestamps and whitenoise wall-clock text vary in length
EXACT_UNITS = ("count",)
# Times are scaled to a host whose probe (child.probe_s) takes PROBE_REF_S: the
# shared host's speed drifts by up to 2x over minutes, and the probe drifts with it.
PROBE_REF_S = 0.1
# the end-to-end metrics of BENCHMARK.json, then raw figures printed and recorded with them
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RAW = {"wall_raw_s": "s", "setup_raw_s": "s", "probe_s": "s"}


class Bench:
    """Runs child passes one at a time and tallies operations and failures."""

    def __init__(self, seed: int):
        self.seed = seed
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # (workload, label) -> (digests, problems) of the checked first pass
        self.reference: dict[tuple, tuple[dict, list]] = {}
        self.checked: set[str] = set()
        self.facts: dict = {}
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def _spawn(self, result: Path, extra: list[str]) -> tuple[int, str]:
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "--root", str(ROOT),
               "--result", str(result), "--spawned-at", repr(time.monotonic()), *extra]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -1, f"timed out after {CHILD_TIMEOUT_S} s"
        return proc.returncode, proc.stderr

    def run_pass(self, workload: str, threads: int = 1, trace: bool = False):
        """One fresh process running the workload; returns its result, or None if it died.

        Only the first pass of a workload runs the output checks.  Every later
        pass must write the same bytes, so it is held to the first pass's digests
        and inherits that pass's verdict.
        """
        result = WORK / f"result-{workload}.json"
        check = workload not in self.checked
        extra = ["--workload", workload, "--seed", str(self.seed), "--threads", str(threads)]
        extra += ["--trace"] * trace + ["--check"] * check
        code, err = self._spawn(result, extra)
        n_ops = len(workloads.WORKLOADS[workload])
        self.attempted += n_ops
        if code != 0 or not result.exists():
            self.failed += n_ops
            self.problems.append(f"{workload}: process exit {code}: {err.strip()[-2000:]}")
            return None
        res = json.loads(result.read_text())
        scale = PROBE_REF_S / res["probe_s"]
        res["wall_s"] = res["wall_raw_s"] * scale
        res["setup_s"] = res["setup_raw_s"] * scale
        self.facts = self.facts or res["facts"]
        for op in res["ops"]:
            key = (workload, op["label"])
            if check:
                self.reference[key] = (op["digests"], list(op["problems"]))
            ref_digests, ref_problems = self.reference[key]
            if op["digests"] != ref_digests:
                op["problems"].append("output digests differ from the first pass of this seed")
            elif not check:
                op["problems"] += ref_problems
            if op["problems"]:
                self.failed += 1
                self.problems += [f"{workload}/{op['label']}: {p}" for p in op["problems"]]
        self.checked.add(workload)
        return res


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(bench: Bench, workload: str, seconds: float) -> dict:
    units = {**END_TO_END, **RAW}
    samples = {name: [] for name in units}
    stop = min(bench.elapsed() + seconds, DEADLINE_S)
    last = 0.0
    # start a pass only when the previous one says it will end before the stop
    while last == 0.0 or bench.elapsed() + last <= stop:
        t0 = bench.elapsed()
        res = bench.run_pass(workload)
        last = bench.elapsed() - t0
        if res is not None:
            for name in units:
                samples[name].append(res[name])
    if not samples["wall_s"]:
        return {}
    return {name: dict(_stats(vals), unit=units[name], samples=vals)
            for name, vals in samples.items()}


def _sum(dicts: list[dict]) -> dict:
    total: dict = {}
    for d in dicts:
        for k, v in d.items():
            total[k] = total.get(k, 0) + v
    return total


def traced_cycle(bench: Bench) -> tuple[dict, dict]:
    """Every workload untraced and traced, plus the 2-thread passes; metrics and sums."""
    walls, per_workload, overhead = {}, {}, {}
    for w in workloads.WORKLOADS:
        plain = bench.run_pass(w)
        traced = bench.run_pass(w, trace=True)
        if plain is None or traced is None:
            continue
        walls[w] = plain["wall_s"]
        per_workload[w] = traced["layer_sums"]
        overhead[f"trace_overhead_frac.{w}"] = (traced["wall_s"] / plain["wall_s"] - 1.0, "ratio")
    metrics = spans.per_layer(_sum(list(per_workload.values())))
    metrics.update(overhead)
    for w in THREAD_SCALING:
        two = bench.run_pass(w, threads=2)
        if two is not None and w in walls:
            metrics[f"cli.threads2_speedup.{w}"] = (walls[w] / two["wall_s"], "ratio")
    return metrics, per_workload


def per_layer_metrics(bench: Bench, seconds: float) -> tuple[dict, dict]:
    cycles, breakdown = [], {}
    stop = min(bench.elapsed() + seconds, DEADLINE_S)
    last = 0.0
    while last == 0.0 or bench.elapsed() + last <= stop:
        t0 = bench.elapsed()
        metrics, breakdown = traced_cycle(bench)
        cycles.append(metrics)
        last = bench.elapsed() - t0
    out = {}
    for name, (value, unit) in cycles[0].items():
        values = [c[name][0] for c in cycles if name in c]
        if unit in EXACT_UNITS and any(v != value for v in values):
            bench.failed += 1
            bench.problems.append(f"count {name} differs between traced cycles: {values}")
        out[name] = dict(_stats(values), unit=unit, samples=values)
    return out, breakdown


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a glekit checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    load_at_start = os.getloadavg()
    bench = Bench(args.seed)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace}
    metrics: dict = {}
    if args.trace:
        layer, report["per_workload_sums"] = per_layer_metrics(bench, args.seconds)
        report["per_layer"] = layer
        for name, st in layer.items():
            metrics[name] = {"value": st["median"], "unit": st["unit"]}
            print(f"{name} = {st['median']:.6g} {st['unit']} (median of {st['n']})")
    else:
        report["end_to_end"] = {}
        for w in names:
            attempted, failed = bench.attempted, bench.failed
            e2e = end_to_end(bench, w, args.seconds)
            report["end_to_end"][w] = e2e
            rate = (bench.failed - failed) / max(bench.attempted - attempted, 1)
            for name, st in e2e.items():
                key = name if len(names) == 1 else f"{w}.{name}"
                if name in END_TO_END:
                    metrics[key] = {"value": st["median"], "unit": st["unit"]}
                print(f"{w} {name} = {st['median']:.6g} {st['unit']} "
                      f"(median of {st['n']}; quartiles {st['q1']:.6g}, {st['q3']:.6g})")
            print(f"{w} error_rate = {rate:.6g} ratio "
                  f"({bench.failed - failed} of {bench.attempted - attempted} operations)")
    report["machine"] = dict(bench.facts, load_average_at_start=load_at_start,
                             blas_threads=int(BLAS_THREADS), cli_threads=1)
    report.update(attempted=bench.attempted, failed=bench.failed, problems=bench.problems)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    for p in bench.problems:
        print(f"FAILED {p}", file=sys.stderr)
    correct = bench.failed == 0 and bench.attempted > 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(bench.attempted, 1),
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
