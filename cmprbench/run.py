"""Run the cmpr benchmark.

    python3 cmprbench/run.py --workload train_b64 --seed 1 --seconds 30 --trace 0
    python3 cmprbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root.  Prints a human-readable table, then, as the
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  ``--workload all`` runs each workload in a
fresh process of its own.  Run outputs (manifest, result, spans) go under
``.cmprbench/`` in the repository root.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".cmprbench"
BLAS_THREADS = 1


def _pin_blas_threads() -> int:
    """Fix the BLAS thread count; must run before numpy is imported."""
    n = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _manifest(args, threads: int, size) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        "train_participants": size.train_participants,
        "eval_participants": size.eval_participants,
        "chunk": size.chunk,
        "cohort_config": size.cohort.to_dict(),
        "encoder_config": size.encoder.to_dict(),
    }


def _run_one(args, threads: int) -> int:
    import workloads

    size = workloads.TINY if args.tiny else workloads.FULL
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(args, threads, size)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print("manifest:", json.dumps(manifest, sort_keys=True))

    res = workloads.run(args.workload, size, args.seed, args.seconds, bool(args.trace), out / "work")

    if args.trace:
        metrics, units = res.per_layer, workloads.PER_LAYER_UNITS
        res.tracer.write(out / "trace.json")
        print("self time per span name (ms), traced steps and passes only:")
        rows = sorted(res.tracer.self_times().items(), key=lambda kv: -kv[1]["self_ms"])
        for name, row in rows:
            print(f"  {name:34s} {row['self_ms']:12.3f} self {row['total_ms']:12.3f} total "
                  f"{row['count']:8d} calls")
    else:
        metrics, units = res.end_to_end, workloads.END_TO_END_UNITS
    print(f"{args.workload}: {res.attempted} checked operations, {res.failed} failed")
    for problem in res.problems[:20]:
        print("  FAILED:", problem)
    for note in res.notes:
        print(" ", note)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:16.6f} {units[name]}")
    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (out / "result.json").write_text(
        json.dumps({**result, "notes": res.notes, "problems": res.problems,
                    "samples": res.samples}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


def _run_all(args, names) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    threads = _pin_blas_threads()
    if not (ROOT / "src" / "cmpr").is_dir():
        print(f"error: no cmpr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy cohort and encoder, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    return _run_one(args, threads)


if __name__ == "__main__":
    sys.exit(main())
