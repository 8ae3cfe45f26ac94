"""Timing/size instrumentation: per-round metrics and scheme microbenchmarks.

Latency summaries use medians (sign times, Falcon's especially, are
skewed); round timings are recorded at microsecond resolution so the CSV
round trip is lossless. Absolute numbers are hardware-bound; the reports
focus on cross-scheme orderings and relative overheads.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from pqfl import sig
from pqfl.protocol import RoundOutcome
from pqfl.sig import SchemeId

# A round time column is written at microsecond resolution; every other float
# is written with repr, so it reads back to the same value.
_MICROSECONDS = {"format": "{:.6f}".format}


@dataclass(frozen=True)
class RoundMetrics:
    scheme: str
    round: int
    wall_time_s: float = field(metadata=_MICROSECONDS)
    train_time_s: float = field(metadata=_MICROSECONDS)
    sign_time_s: float = field(metadata=_MICROSECONDS)
    verify_time_s: float = field(metadata=_MICROSECONDS)
    serialize_time_s: float = field(metadata=_MICROSECONDS)
    payload_bytes: int
    signature_bytes: int
    verified_count: int
    rejected_count: int
    global_loss: float


@dataclass(frozen=True)
class MicrobenchRecord:
    scheme: str
    payload_bytes: int
    op: str  # keygen | sign | verify
    iterations: int
    median_s: float
    p10_s: float
    p90_s: float


ROUND_CSV_COLUMNS = [f.name for f in fields(RoundMetrics)]


def round_metrics(scheme: SchemeId, outcome: RoundOutcome) -> RoundMetrics:
    """Flatten a protocol round outcome into one metrics record."""
    t = outcome.timings
    return RoundMetrics(
        scheme=scheme.label,
        round=outcome.round,
        wall_time_s=round(t.wall_s, 6),
        train_time_s=round(t.train_s, 6),
        sign_time_s=round(t.sign_s, 6),
        verify_time_s=round(t.verify_s, 6),
        serialize_time_s=round(t.serialize_s, 6),
        payload_bytes=outcome.payload_bytes,
        signature_bytes=outcome.signature_bytes,
        verified_count=outcome.verified_count,
        rejected_count=len(outcome.rejections),
        global_loss=outcome.global_loss,
    )


def microbench(
    schemes: list[SchemeId],
    payload_sizes: list[int],
    iterations: int = 30,
    seed: int = 0,
) -> list[MicrobenchRecord]:
    """Measure keygen/sign/verify medians per scheme and payload size.

    Three untimed warm-up calls precede each series; the monotonic clock
    times each call individually. `seed` fixes the payloads and the key
    pair each scheme signs them under.
    """
    if iterations < 30:
        raise ValueError("microbench medians need at least 30 iterations")
    rng = np.random.default_rng(seed)
    records: list[MicrobenchRecord] = []
    for scheme in schemes:
        keypair = sig.keygen(scheme, seed)
        for size in payload_sizes:
            payload = rng.bytes(size)
            signature = sig.sign(keypair, payload)

            def run_keygen():
                sig.keygen(scheme)

            def run_sign():
                sig.sign(keypair, payload)

            def run_verify():
                sig.verify(keypair.public_key, scheme, payload, signature)

            for op, fn in (("keygen", run_keygen), ("sign", run_sign), ("verify", run_verify)):
                times = _time_op(fn, iterations)
                records.append(
                    MicrobenchRecord(
                        scheme=scheme.label,
                        payload_bytes=size,
                        op=op,
                        iterations=iterations,
                        median_s=statistics.median(times),
                        p10_s=float(np.percentile(times, 10)),
                        p90_s=float(np.percentile(times, 90)),
                    )
                )
    return records


def _time_op(fn, iterations: int) -> list[float]:
    for _ in range(3):  # warm-up, untimed
        fn()
    times = []
    for _ in range(iterations):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


# --- CSV emission -------------------------------------------------------------

def _emit_csv(records: list, record_type: type, path: str | Path) -> None:
    """One row per record, columns in field order, header included."""
    columns = fields(record_type)
    types = get_type_hints(record_type)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in columns])
        for r in records:
            writer.writerow([
                f.metadata.get("format", repr if types[f.name] is float else str)(getattr(r, f.name))
                for f in columns
            ])


def _read_csv(record_type: type, path: str | Path) -> list:
    columns = fields(record_type)
    types = get_type_hints(record_type)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != [f.name for f in columns]:
            raise ValueError(f"unexpected {record_type.__name__} CSV header {header}")
        return [
            record_type(*(types[f.name](value) for f, value in zip(columns, row, strict=True)))
            for row in reader
        ]


def emit_round_csv(records: list[RoundMetrics], path: str | Path) -> None:
    """Write round metrics in the fixed column order, header included."""
    _emit_csv(records, RoundMetrics, path)


def read_round_csv(path: str | Path) -> list[RoundMetrics]:
    return _read_csv(RoundMetrics, path)


def emit_microbench_csv(records: list[MicrobenchRecord], path: str | Path) -> None:
    _emit_csv(records, MicrobenchRecord, path)


def read_microbench_csv(path: str | Path) -> list[MicrobenchRecord]:
    return _read_csv(MicrobenchRecord, path)


# --- text reports -------------------------------------------------------------

def summarize(records: list[RoundMetrics]) -> str:
    """Per-scheme comparison of a training-run metrics table."""
    if not records:
        return "no records"
    schemes = sorted({r.scheme for r in records})
    lines = []
    overhead: dict[str, float] = {}
    for scheme in schemes:
        rows = [r for r in records if r.scheme == scheme]
        total_sig = sum(r.sign_time_s + r.verify_time_s for r in rows)
        overhead[scheme] = total_sig
        total_wall = sum(r.wall_time_s for r in rows)
        verified = sum(r.verified_count for r in rows)
        rejected = sum(r.rejected_count for r in rows)
        lines.append(
            f"{scheme}: rounds={len(rows)} wall={total_wall:.6f}s "
            f"signature_overhead={total_sig:.6f}s "
            f"verified={verified} rejected={rejected} "
            f"final_loss={rows[-1].global_loss:.6f}"
        )
    lines += _ranking(overhead, "signature overhead ordering", "scheme on this run")
    return "\n".join(lines)


def summarize_microbench(records: list[MicrobenchRecord]) -> str:
    """Median latency table plus size/speed orderings."""
    if not records:
        return "no records"
    lines = ["scheme         payload_B    op      median_s     p10_s        p90_s"]
    for r in records:
        lines.append(
            f"{r.scheme:<14} {r.payload_bytes:<12} {r.op:<7} "
            f"{r.median_s:<12.6f} {r.p10_s:<12.6f} {r.p90_s:<12.6f}"
        )
    combined = {
        scheme: sum(r.median_s for r in records if r.scheme == scheme and r.op in ("sign", "verify"))
        for scheme in sorted({r.scheme for r in records})
    }
    lines += _ranking(combined, "sign+verify ordering", "scheme")
    return "\n".join(lines)


def _ranking(cost: dict[str, float], ordering: str, verdict: str) -> list[str]:
    """Rank the schemes in `cost` fastest first, leaving out the HMAC test
    scheme, which is no candidate, and give each one's cost over it."""
    test = SchemeId.TEST_SCHEME.label
    ranked = sorted((s for s in cost if s != test), key=cost.__getitem__)
    lines = []
    if len(ranked) > 1:
        lines.append(f"{ordering} (fastest first): " + " < ".join(ranked))
        lines.append(f"verdict: {ranked[0]} is the fastest {verdict}")
    if test in cost and ranked:
        over = ", ".join(f"{s} {cost[s] - cost[test]:+.6f}s" for s in ranked)
        lines.append(f"overhead over {test}: {over}")
    return lines
