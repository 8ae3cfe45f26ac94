"""Run one pqfl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sig-small --seed 1 --seconds 10 --trace 0

Run from the root of a pqfl checkout; the library is imported from its
`src/`. With `--trace 0` the run is untraced and the last line of stdout
reports the end-to-end metrics; with `--trace 1` the same workload also runs
with span wrappers installed and the last line reports the per-layer
metrics. The line before it holds details and provenance, which are also
written, with the spans of a traced run, under `perfbench/out/`. The exit
code is 1 when the correctness gate fails and 2 when the checkout is unusable.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import sys
from pathlib import Path

# Pinned before numpy loads OpenBLAS: with its default of one thread per core,
# one train-large round's local training took 0.31 to 1.11 s on a 2-vCPU VM
# (0.25 to 0.35 s with one thread), and BLAS threads compete with TCP clients.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path.cwd()
OUT_DIR = Path(__file__).resolve().parent / "out"


def import_library():
    """Import pqfl from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "pqfl" / "__init__.py").is_file():
        print(f"error: no src/pqfl under {ROOT}; run from the root of a pqfl checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import pqfl

    if Path(pqfl.__file__).resolve().parent != (src / "pqfl").resolve():
        print(f"error: pqfl was imported from {pqfl.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # an exported checkout is not a git repository
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else ref[5:]


def provenance(seed: int) -> dict:
    import cryptography
    import numpy as np

    from pqfl import sig
    from pqfl.errors import UnsupportedScheme

    schemes = {}
    for scheme in sig.ALL_SCHEMES:
        try:
            schemes[scheme.label] = sig.metadata(scheme).parameter_set
        except UnsupportedScheme as exc:
            schemes[scheme.label] = f"unavailable: {exc}"
    try:
        from pqfl import _pqclean  # noqa: F401

        pqclean = True
    except ImportError:
        pqclean = False
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_kib = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kib = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": None if mem_kib is None else mem_kib / 1024.0,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cryptography": cryptography.__version__,
        "schemes": schemes,
        "pqclean_imports": pqclean,
        "git_commit": git_commit(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_library()
    import measure
    from workload import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    if args.trace:
        out = measure.traced(w, args.seed, w.rounds(args.seconds))
    else:
        out = measure.untraced(w, args.seed, w.rounds(args.seconds))

    details = {
        "workload": w.name,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        **out.details,
        "problems": out.problems,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}-trace{args.trace}"  # the latest run; its seed is in the details
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if out.spans is not None:
        with gzip.open(OUT_DIR / f"{stem}-spans.jsonl.gz", "wt") as fh:
            for record in out.spans:
                fh.write(json.dumps(record) + "\n")

    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in out.metrics.items()},
    }
    print(json.dumps(details))
    print(json.dumps(result))
    if out.problems:
        print("correctness gate failed: " + "; ".join(out.problems[:5]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
