"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import measure
import tracing
import workload as wl
from pqfl import channel, protocol
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
ROUNDS = 4 * wl.TAIL_BEYOND + wl.WARMUP_ROUNDS + 1


def tiny(name: str) -> wl.Workload:
    w = wl.WORKLOADS[name]
    return replace(w, features=8, hidden=(4,), samples=max(40, 4 * w.clients))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_runs_end_to_end(name):
    out = measure.untraced(tiny(name), seed=3, rounds=ROUNDS)
    assert out.problems == []
    assert out.failed == 0
    assert out.attempted == ROUNDS * wl.WORKLOADS[name].clients
    assert set(out.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        value, unit = out.metrics[m["name"]]
        assert unit == m["unit"]
        assert value > 0


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    out = measure.traced(tiny(name), seed=3, rounds=ROUNDS)
    assert out.problems == []
    assert set(out.metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert out.metrics[m["name"]][1] == m["unit"]


def _traced_spans(name: str, seed: int = 5) -> list[tracing.Span]:
    w = tiny(name)
    tracer = tracing.Tracer()
    with tracer:
        server, clients = wl.set_up(w, seed, 4)
        wl.run_signed(w, seed, server, clients, SpeedProbe())
    tracer.resolve_parties()
    return tracer.spans


@pytest.mark.parametrize("name", ["sig-small", "wire-tcp-attack"])
def test_span_tree_is_well_formed(name):
    spans = _traced_spans(name)
    by_id = {s.id: s for s in spans}
    assert len(by_id) == len(spans)
    eps = 1e-9
    for s in spans:
        assert s.self_s >= -eps
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.thread == s.thread
            assert parent.start <= s.start and s.end <= parent.end
    threads = {s.thread for s in spans}
    if name == "wire-tcp-attack":
        assert len(threads) == 3  # the server and one thread per client
    for t in threads:
        mine = [s for s in spans if s.thread == t]
        wall = max(s.end for s in mine) - min(s.start for s in mine)
        assert sum(s.self_s for s in mine) <= wall + eps


def _exact(metrics: dict) -> dict:
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "B")}


@pytest.mark.parametrize("name", ["sig-small", "wire-tcp-attack"])
def test_exact_counts_repeat_across_same_seed_runs(name):
    w = tiny(name)
    rounds = 6
    first = measure.traced(w, seed=9, rounds=rounds)
    second = measure.traced(w, seed=9, rounds=rounds)
    assert _exact(first.metrics) == _exact(second.metrics)
    # every TCP run_training call re-announces each client with a signature
    announces = w.clients * -(-rounds // w.chunk_rounds) if w.tcp else 0
    assert first.metrics["sig.sign.calls"][0] == rounds * (w.clients + 1) + announces
    assert first.metrics["sig.keygen.calls"][0] == w.clients + 1
    wire = []
    for _ in range(2):
        server, clients = wl.set_up(w, 9, rounds)
        stats = wl.run_signed(w, 9, server, clients, SpeedProbe()).stats
        wire.append((stats.bytes_client_to_server, stats.bytes_server_to_client))
    assert wire[0] == wire[1]
    if w.attack is not None:
        assert first.metrics["channel.tampered"][0] == rounds
        assert first.metrics["sig.verify.false"][0] + sum(
            first.metrics[f"protocol.rejected.{r.value}"][0]
            for r in protocol.RejectReason
            if r != protocol.RejectReason.SIGNATURE_INVALID
        ) == rounds


@pytest.mark.parametrize("verify", [True, False])
def test_gate_trips_on_poisoned_run(verify):
    w = replace(
        tiny("sig-small"),
        attack=channel.AttackConfig(channel.AttackKind.SUBSTITUTE, target_client=1, poison="negate"),
    )
    options = protocol.ProtocolOptions(verify_updates=verify)
    server, clients = wl.set_up(w, 4, 3, options)
    run = wl.run_signed(w, 4, server, clients, SpeedProbe())
    oracle_model, _ = wl.run_oracle(w, run, clients, server.eval_data, SpeedProbe())
    problems = wl.gate(w, run, oracle_model)
    if verify:
        assert problems == [] and wl.failures(w, run) == 0
    else:
        assert any("differ from the unsigned oracle" in p for p in problems)
        assert wl.failures(w, run) == 3  # one poisoned update aggregated per round


def test_command_fails_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sig-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
