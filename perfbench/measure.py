"""One benchmark measurement of a workload, untraced or traced.

End-to-end metrics come only from `untraced`, which installs no wrappers.
`traced` runs the workload once under the tracer for the per-layer metrics
and once more untraced, on the same inputs, to report the tracing overhead.
Both run the unsigned oracle and gate every signed run on it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import tracing
import workload as wl
from speed import SpeedProbe


@dataclass
class Measurement:
    metrics: dict[str, tuple[float, str]]
    details: dict
    problems: list[str]
    attempted: int
    failed: int
    spans: list[dict] | None = None


def untraced(w: wl.Workload, seed: int, rounds: int) -> Measurement:
    speed = SpeedProbe()
    setups, (server, clients) = wl.timed_set_up(w, seed, rounds, speed)
    run = wl.run_signed(w, seed, server, clients, speed)
    rss_mb = wl.peak_rss_mb()
    oracle_model, _ = wl.run_oracle(w, run, clients, server.eval_data, speed)
    metrics, details = wl.end_to_end(w, run, setups, speed, rss_mb)
    return Measurement(
        metrics, details, wl.gate(w, run, oracle_model), details["attempted"], details["failed"]
    )


def traced(w: wl.Workload, seed: int, rounds: int) -> Measurement:
    speed = SpeedProbe()
    tracer = tracing.Tracer()
    with tracer:
        server, clients = wl.set_up(w, seed, rounds)
        run = wl.run_signed(w, seed, server, clients, speed)
    metrics = tracing.layer_metrics(
        tracer, run.result.outcomes, run.wall_s, run.stats, run.history_bytes
    )

    server, clients = wl.set_up(w, seed, rounds)
    reference = wl.run_signed(w, seed, server, clients, speed)
    oracle_model, oracle_rounds = wl.run_oracle(w, reference, clients, server.eval_data, speed)

    # Spans give raw seconds; these three compare runs made at different
    # times, so they use times scaled to the reference machine speed.
    traced_p50 = statistics.median(wl.round_walls(run, speed))
    reference_p50 = statistics.median(wl.round_walls(reference, speed))
    oracle_p50 = statistics.median(speed.scaled(*i) for i in oracle_rounds[wl.WARMUP_ROUNDS:])
    metrics["oracle.round_p50_s"] = (oracle_p50, "s")
    metrics["overhead_vs_oracle"] = (reference_p50 / oracle_p50, "ratio")
    metrics["trace.overhead_s"] = (traced_p50 - reference_p50, "s")

    problems = [f"traced run: {p}" for p in wl.gate(w, run, oracle_model)]
    problems += [f"untraced run: {p}" for p in wl.gate(w, reference, oracle_model)]
    attempted = 2 * len(run.result.outcomes) * w.clients
    failed = wl.failures(w, run) + wl.failures(w, reference)
    details = {
        "rounds": rounds,
        "spans": len(tracer.spans),
        "traced_round_wall_s": sum(o.timings.wall_s for o in run.result.outcomes),
        "traced_round_p50_s": traced_p50,
        "untraced_round_p50_s": reference_p50,
    }
    return Measurement(metrics, details, problems, attempted, failed, tracing.span_records(tracer))
