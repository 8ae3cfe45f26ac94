"""Metrics records, CSV round trips, microbenchmarks, and reports."""

import time

import pytest

from pqfl import bench, fedcore, protocol
from pqfl.bench import (
    MicrobenchRecord,
    RoundMetrics,
    emit_microbench_csv,
    emit_round_csv,
    microbench,
    read_microbench_csv,
    read_round_csv,
    round_metrics,
    summarize,
    summarize_microbench,
)
from pqfl.fedcore import TrainConfig, derive_seed
from pqfl.sig import SchemeId

MASTER = 7


def run_sim(scheme=SchemeId.TEST_SCHEME, num_rounds=4, num_clients=3, samples=150,
            features=8, hidden=(16,)):
    cfg = TrainConfig(num_clients=num_clients, num_rounds=num_rounds, seed=MASTER)
    data = fedcore.generate_synthetic(samples, features, 3, derive_seed(MASTER, "data"))
    shards = fedcore.split_iid(data, num_clients, derive_seed(MASTER, "split"))
    model = fedcore.init_model(
        fedcore.ModelArchitecture(features, hidden, 3), derive_seed(MASTER, "init")
    )
    server, clients, _ = protocol.setup_keys(cfg, scheme, MASTER, model, shards, eval_data=data)
    return protocol.run_training(server, clients)


@pytest.fixture(scope="module")
def sim_metrics():
    result = run_sim()
    return [round_metrics(SchemeId.TEST_SCHEME, o) for o in result.outcomes], result


def test_one_record_per_round(sim_metrics):
    records, result = sim_metrics
    assert len(records) == 4
    assert [r.round for r in records] == [0, 1, 2, 3]
    assert records[-1].global_loss == result.outcomes[-1].global_loss


def test_record_counts_and_invariants(sim_metrics):
    records, result = sim_metrics
    for record, outcome in zip(records, result.outcomes):
        assert record.verified_count + record.rejected_count == outcome.updates_received
        assert record.wall_time_s >= 0
        assert record.payload_bytes > 0 and record.signature_bytes > 0
        assert record.scheme == "testscheme"


def test_round_csv_round_trip(tmp_path, sim_metrics):
    records, _ = sim_metrics
    path = tmp_path / "rounds.csv"
    emit_round_csv(records, path)
    assert read_round_csv(path) == records


def test_round_csv_header_and_order(tmp_path, sim_metrics):
    records, _ = sim_metrics
    path = tmp_path / "rounds.csv"
    emit_round_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(bench.ROUND_CSV_COLUMNS)
    assert len(lines) == 1 + len(records)


def test_round_csv_keeps_its_microsecond_format(tmp_path):
    # rows as `pqfl run --out` has always written them: times at %.6f
    text = (
        "scheme,round,wall_time_s,train_time_s,sign_time_s,verify_time_s,serialize_time_s,"
        "payload_bytes,signature_bytes,verified_count,rejected_count,global_loss\r\n"
        "dilithium,0,0.031426,0.005431,0.017726,0.005105,0.001929,36960,26620,10,0,"
        "1.6757985353469849\r\n"
        "testscheme,1,0.012000,0.003100,0.000040,0.000001,0.001100,36960,352,9,1,"
        "0.581781804561615\r\n"
    )
    path = tmp_path / "parent.csv"
    path.write_bytes(text.encode())
    records = read_round_csv(path)
    assert records == [
        RoundMetrics("dilithium", 0, 0.031426, 0.005431, 0.017726, 0.005105, 0.001929,
                     36960, 26620, 10, 0, 1.6757985353469849),
        RoundMetrics("testscheme", 1, 0.012, 0.0031, 0.00004, 0.000001, 0.0011,
                     36960, 352, 9, 1, 0.581781804561615),
    ]
    emit_round_csv(records, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == text.encode()


def test_empty_csv_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_round_csv([], path)
    assert path.read_text().splitlines() == [",".join(bench.ROUND_CSV_COLUMNS)]
    assert read_round_csv(path) == []


def test_microbench_record_counts():
    records = microbench([SchemeId.TEST_SCHEME], [256, 4096], iterations=30)
    assert len(records) == 2 * 3  # sizes x ops
    assert {r.op for r in records} == {"keygen", "sign", "verify"}
    for r in records:
        assert r.iterations == 30
        assert r.p10_s <= r.median_s <= r.p90_s


def test_microbench_requires_30_iterations():
    with pytest.raises(ValueError):
        microbench([SchemeId.TEST_SCHEME], [64], iterations=10)


def test_microbench_csv_round_trip(tmp_path):
    records = microbench([SchemeId.TEST_SCHEME], [128], iterations=30)
    path = tmp_path / "micro.csv"
    emit_microbench_csv(records, path)
    assert read_microbench_csv(path) == records


def test_sign_time_grows_sublinearly_with_payload():
    # fixed lattice work dominates hashing at these sizes, so doubling the
    # payload must far undershoot doubling the sign time
    records = microbench([SchemeId.DILITHIUM], [1024, 2048], iterations=30)
    sign = {r.payload_bytes: r.median_s for r in records if r.op == "sign"}
    assert sign[2048] < 2 * sign[1024]


def test_summarize_single_scheme(sim_metrics):
    records, _ = sim_metrics
    text = summarize(records)
    assert "testscheme" in text
    assert "signature_overhead" in text
    total = sum(r.sign_time_s + r.verify_time_s for r in records)
    assert f"{total:.6f}" in text


def test_summarize_multi_scheme_verdict():
    fast = RoundMetrics("a-fast", 0, 1.0, 0.5, 0.001, 0.001, 0.01, 10, 10, 3, 0, 0.5)
    slow = RoundMetrics("b-slow", 0, 2.0, 0.5, 0.100, 0.100, 0.01, 10, 10, 3, 0, 0.5)
    text = summarize([fast, slow])
    assert "a-fast < b-slow" in text
    assert "verdict: a-fast is the fastest" in text


def test_summarize_microbench_verdict():
    recs = [
        MicrobenchRecord("x", 64, "sign", 30, 0.001, 0.001, 0.002),
        MicrobenchRecord("x", 64, "verify", 30, 0.001, 0.001, 0.002),
        MicrobenchRecord("y", 64, "sign", 30, 0.01, 0.01, 0.02),
        MicrobenchRecord("y", 64, "verify", 30, 0.01, 0.01, 0.02),
    ]
    text = summarize_microbench(recs)
    assert "x < y" in text and "verdict: x is the fastest" in text


def test_per_round_overhead_ordering_across_runs():
    """Median per-round sign+verify totals over 5 repeated runs must obey
    the scheme speed ordering even though single rounds may interleave.

    Measured on a desk-scale model large enough (~260 KB payloads, the
    ballpark of a small image-classifier MLP) that scheme costs stand
    above sub-millisecond CPU noise.
    """
    import statistics

    from pqfl.sig import PQC_SCHEMES

    medians = {}
    for scheme in PQC_SCHEMES:
        per_round = []
        for _repeat in range(5):
            result = run_sim(
                scheme=scheme, num_rounds=2, num_clients=3, samples=120,
                features=256, hidden=(256,),
            )
            per_round.extend(
                o.timings.sign_s + o.timings.verify_s for o in result.outcomes
            )
        medians[scheme] = statistics.median(per_round)
    assert medians[SchemeId.DILITHIUM] < medians[SchemeId.FALCON] < medians[SchemeId.SPHINCS_PLUS]


def test_metrics_collection_overhead_under_one_percent():
    # the spread between an outer wall clock and the per-round wall times
    # bounds everything the instrumentation adds outside the timed phases
    cfg = TrainConfig(num_clients=6, num_rounds=3, seed=MASTER)
    data = fedcore.generate_synthetic(600, 10, 3, derive_seed(MASTER, "data"))
    shards = fedcore.split_iid(data, 6, derive_seed(MASTER, "split"))
    model = fedcore.init_model(fedcore.ModelArchitecture(10, (16,), 3), derive_seed(MASTER, "init"))
    server, clients, _ = protocol.setup_keys(
        cfg, SchemeId.DILITHIUM, MASTER, model, shards, eval_data=data
    )
    t0 = time.perf_counter()
    result = protocol.run_training(server, clients)
    outer = time.perf_counter() - t0
    inner = sum(o.timings.wall_s for o in result.outcomes)
    assert (outer - inner) / outer < 0.01
