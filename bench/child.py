"""One measured process of the glekit benchmark (started by ``bench/run.py``).

The process imports ``glekit.cli`` from the checkout's ``src`` and loads the
workload's configs: that is the set-up every command-line user pays, timed
from the moment the parent started this process.  It then calls
``glekit.cli.main`` once per invocation of the workload, timing from the first
call to the last return, reads its own peak resident memory, times the
host-speed probe, and only then digests the outputs and, with ``--check``,
checks them.  With ``--trace`` the layer functions are
wrapped after set-up and the spans are written next to the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

PROBE_REPEATS = 3  # one probe lasts about 0.15 s; the median of three is steadier


def _facts() -> dict:
    import numpy as np
    import scipy

    def blas(cfg):
        dep = cfg["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def probe_s() -> float:
    """Time of fixed work that runs no glekit code: a host-speed probe.

    It mixes, in about equal time, what the workloads do: small-matrix numpy
    calls in a Python loop, and normal draws and updates on 2e4-element
    arrays.  The speed of
    the shared host drifts by up to 2x over minutes, and this probe drifts
    with it, so the benchmark scales each pass's times by it.
    """
    import numpy as np

    rng = np.random.Generator(np.random.Philox(0))
    a = np.eye(3) + 0.1
    x = np.zeros(20_000)
    t0 = time.perf_counter()
    for _ in range(100):
        for _ in range(20):
            w, v = np.linalg.eigh(a @ a.T)
            a = (v * (w / w[-1])) @ v.T + np.eye(3)
        x += 0.01 * (x.mean() - x) + 0.1 * rng.standard_normal(x.size)
    return time.perf_counter() - t0


def _digests(out: Path) -> tuple[dict[str, str], list[str]]:
    """Output digests from the run manifest, checked against the files themselves.

    ``whitenoise.csv`` carries a wall-clock column, so its digest is the
    manifest's ``canonical_sha256`` (that column zeroed).
    """
    manifest = json.loads((out / "manifest.json").read_text())
    digests, problems = {}, []
    for entry in manifest["outputs"]:
        actual = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        if actual != entry["sha256"]:
            problems.append(f"{entry['path']}: manifest sha256 does not match the file")
        digests[entry["path"]] = entry.get("canonical_sha256", entry["sha256"])
    return digests, problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true", help="run the output checks")
    args = ap.parse_args()
    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))

    import glekit.cli as cli
    from glekit.config import load_config

    if src.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"glekit imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result_path = Path(args.result)

    import spans
    import workloads

    invocations = workloads.WORKLOADS[args.workload]
    for inv in invocations:
        load_config(root / inv.config)
    setup_raw_s = time.monotonic() - args.spawned_at

    work = result_path.parent
    outs = [work / f"{args.workload}-{inv.label}" for inv in invocations]
    for out in outs:
        shutil.rmtree(out, ignore_errors=True)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    codes = []
    t0 = time.perf_counter()
    for inv, out in zip(invocations, outs):
        try:
            codes.append(cli.main(inv.argv(root, out, args.seed, args.threads)))
        except Exception:  # a crash is a failed operation; keep measuring the rest
            codes.append(traceback.format_exc())
    wall_raw_s = time.perf_counter() - t0
    # the output checks below call glekit too; their spans are not the workload's
    timed_spans = list(tracer.spans) if tracer is not None else []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe = statistics.median(probe_s() for _ in range(PROBE_REPEATS))

    ops = []
    for inv, out, code in zip(invocations, outs, codes):
        op = {"label": inv.label, "code": code, "digests": {}, "problems": []}
        if code != 0:
            op["problems"].append(f"exit {code}")
        else:
            try:
                op["digests"], op["problems"] = _digests(out)
                if args.check and inv.check is not None:
                    op["problems"] += inv.check(out, root / inv.config)
            except Exception:  # an unreadable output is a failed check
                op["problems"].append(traceback.format_exc())
        ops.append(op)

    result = {"setup_raw_s": setup_raw_s, "wall_raw_s": wall_raw_s, "probe_s": probe,
              "peak_rss_mb": peak_rss_mb, "ops": ops, "facts": _facts()}
    if tracer is not None:
        spans.dump(timed_spans, work / f"spans-{args.workload}.json")
        result["layer_sums"] = spans.aggregate(timed_spans)
    result_path.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
