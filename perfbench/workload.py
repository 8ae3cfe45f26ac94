"""The benchmark's seeded FedAvg workloads, driven through pqfl's public API.

One measurement is: set up (synthetic data, IID split, model init, all
M+1 key generations), run the signed protocol for a fixed number of rounds,
replay the same inputs through the unsigned `fedcore.run_plain_fedavg`
oracle, and gate the run on the two final models being bit-identical.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, replace

from pqfl import channel, fedcore, protocol, sig
from speed import SpeedProbe

SCHEME = sig.SchemeId.DILITHIUM  # the only PQ scheme that runs without pqfl._pqclean
NUM_CLASSES = 5
LEARNING_RATE = 1e-2
SETUP_REPEATS = 15
WARMUP_ROUNDS = 1  # the first round pays lazy initialisation; it is not timed
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
# Percentiles the tail is chosen from. The 11th-largest round itself spread
# several times wider between runs than these do.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass(frozen=True)
class Workload:
    name: str
    features: int
    hidden: tuple[int, ...]
    samples: int
    clients: int
    local_epochs: int
    batch_size: int
    tcp: bool
    attack: channel.AttackConfig | None
    # Round count per measured second, calibrated once on a 2-vCPU VM and then
    # fixed, so that two commits always do identical work (and grow
    # Channel.history equally) for the same --seconds.
    rounds_per_second: float

    def rounds(self, seconds: float) -> int:
        # at least enough timed rounds for a tail above the median (p75)
        return max(WARMUP_ROUNDS + 4 * TAIL_BEYOND + 1, round(seconds * self.rounds_per_second))

    @property
    def chunk_rounds(self) -> int:
        """Rounds per run_training* call: one in-process; four over TCP, where
        every call reconnects its clients."""
        return 4 if self.tcp else 1

    def honest_ids(self) -> list[int]:
        attacked = None if self.attack is None else self.attack.target_client
        return [cid for cid in range(1, self.clients + 1) if cid != attacked]


WORKLOADS = {
    w.name: w
    for w in (
        # 837-param MLP, 3.4 KB messages: the fixed per-signature cost dominates.
        Workload("sig-small", 20, (32,), 1000, 10, 1, 32, False, None, 40.0),
        # 202,245-param MLP, 809 KB messages: local training dominates, and
        # Channel.history grows by 40 messages a round.
        Workload("train-large", 784, (256,), 4000, 20, 3, 32, False, None, 2.1),
        # Same model over loopback TCP; two mini-batches per client, and
        # every upload of client 1 is bit-flipped on the wire.
        Workload(
            "wire-tcp-attack", 784, (256,), 128, 2, 1, 32, True,
            channel.AttackConfig(channel.AttackKind.BITFLIP, target_client=1, probability=1.0),
            12.0,
        ),
    )
}


def set_up(
    w: Workload,
    seed: int,
    rounds: int,
    options: protocol.ProtocolOptions | None = None,
) -> tuple[protocol.ServerState, list[protocol.ClientState]]:
    """Build every input of one run from `seed`, as the `pqfl run` CLI does."""
    data = fedcore.generate_synthetic(
        w.samples, w.features, NUM_CLASSES, fedcore.derive_seed(seed, "data")
    )
    shards = fedcore.split_iid(data, w.clients, fedcore.derive_seed(seed, "split"))
    arch = fedcore.ModelArchitecture(w.features, w.hidden, NUM_CLASSES)
    model = fedcore.init_model(arch, fedcore.derive_seed(seed, "init"))
    cfg = fedcore.TrainConfig(
        num_clients=w.clients,
        num_rounds=rounds,
        local_epochs=w.local_epochs,
        batch_size=w.batch_size,
        learning_rate=LEARNING_RATE,
        seed=seed,
    )
    server, clients, _registry = protocol.setup_keys(
        cfg, SCHEME, seed, model, shards, options, eval_data=data
    )
    return server, clients


def timed_set_up(
    w: Workload, seed: int, rounds: int, speed: SpeedProbe
) -> tuple[list[tuple[float, float]], tuple]:
    """Set up SETUP_REPEATS times, probing the machine's speed after each;
    return each (start, end) and the last set-up, which uses `seed` itself.
    The earlier repeats use derived seeds, so that no repeat finds its keys in
    the ML-DSA adapter's key cache."""
    intervals = []
    for i in range(SETUP_REPEATS):
        rep_seed = seed if i == SETUP_REPEATS - 1 else fedcore.derive_seed(seed, "setup-repeat", i)
        t0 = time.perf_counter()
        built = set_up(w, rep_seed, rounds)
        intervals.append((t0, time.perf_counter()))
        speed.probe(intervals[-1][1] - t0)
    return intervals, built


@dataclass
class SignedRun:
    result: protocol.TrainingResult
    initial_model: fedcore.GlobalModel
    # (start, end, rounds) of each run_training* call, timed from outside
    chunks: list[tuple[float, float, int]]
    stats: channel.ChannelStats
    history_bytes: int

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end, _ in self.chunks)


def run_signed(
    w: Workload,
    seed: int,
    server: protocol.ServerState,
    clients: list[protocol.ClientState],
    speed: SpeedProbe,
) -> SignedRun:
    """Run server.cfg.num_rounds rounds as consecutive run_training* calls of
    w.chunk_rounds rounds each over one channel, probing the machine's speed
    between calls. Model, round numbers, key state and channel history carry
    over, so the rounds are the ones a single call would run; a TCP chunk
    also reconnects and re-announces its clients."""
    attack = None if w.attack is None else replace(w.attack, seed=fedcore.derive_seed(seed, "attack"))
    chan = channel.Channel(attack)
    initial_model = server.model
    cfg = server.cfg
    run_chunk = protocol.run_training_tcp if w.tcp else protocol.run_training
    outcomes, chunks = [], []
    try:
        for start in range(0, cfg.num_rounds, w.chunk_rounds):
            server.cfg = replace(cfg, num_rounds=min(w.chunk_rounds, cfg.num_rounds - start))
            t0 = time.perf_counter()
            result = run_chunk(server, clients, chan)
            chunks.append((t0, time.perf_counter(), len(result.outcomes)))
            speed.probe(chunks[-1][1] - t0)
            outcomes.extend(result.outcomes)
    finally:
        server.cfg = cfg
    history_bytes = sum(len(m) for m in chan.history)
    final = protocol.TrainingResult(model=server.model, outcomes=outcomes)
    return SignedRun(final, initial_model, chunks, chan.stats, history_bytes)


def run_oracle(
    w: Workload,
    run: SignedRun,
    clients: list[protocol.ClientState],
    eval_data: fedcore.ClientDataset,
    speed: SpeedProbe,
) -> tuple[fedcore.GlobalModel, list[tuple[float, float]]]:
    """Unsigned FedAvg over the honest clients, one round per call so that each
    round is timed (and probed). Seeds come from the model's round, so this
    is the same computation as one call over all rounds."""
    honest = set(w.honest_ids())
    participants = [(c.client_id, c.dataset) for c in clients if c.client_id in honest]
    one_round = replace(clients[0].cfg, num_rounds=1)
    model = run.initial_model
    intervals = []
    for _ in run.result.outcomes:
        t0 = time.perf_counter()
        model = fedcore.run_plain_fedavg(model, participants, one_round, eval_data).model
        intervals.append((t0, time.perf_counter()))
        speed.probe(intervals[-1][1] - t0)
    return model, intervals


def failures(w: Workload, run: SignedRun) -> int:
    """Honest updates not aggregated, plus tampered updates aggregated, plus
    clients that sat out a broadcast (no workload tampers with broadcasts)."""
    honest = len(w.honest_ids())
    tampered = w.clients - honest
    failed = 0
    for o in run.result.outcomes:
        failed += max(0, honest - o.verified_count)
        failed += max(0, tampered - len(o.rejections))
        failed += len(o.skipped_clients)
    return failed


def gate(w: Workload, run: SignedRun, oracle_model: fedcore.GlobalModel) -> list[str]:
    """Every reason the run is incorrect; empty when it is correct."""
    problems = []
    final = run.result.model
    if final.round != oracle_model.round:
        problems.append(f"final round {final.round} != oracle round {oracle_model.round}")
    if final.params.values.tobytes() != oracle_model.params.values.tobytes():
        problems.append("final parameters differ from the unsigned oracle over the honest clients")
    honest = len(w.honest_ids())
    for o in run.result.outcomes:
        if o.verified_count != honest or len(o.rejections) != w.clients - honest:
            problems.append(
                f"round {o.round}: {o.verified_count} verified and {len(o.rejections)} "
                f"rejected, expected {honest} and {w.clients - honest}"
            )
        if o.skipped_clients:
            problems.append(f"round {o.round}: clients {o.skipped_clients} sat out")
    expected_tampered = len(run.result.outcomes) if w.attack is not None else 0
    if run.stats.tampered != expected_tampered:
        problems.append(f"{run.stats.tampered} messages tampered, expected {expected_tampered}")
    return problems


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile in TAIL_LADDER that leaves
    at least TAIL_BEYOND samples above it, by the nearest-rank method."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct
    raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")


def round_walls(run: SignedRun, speed: SpeedProbe | None = None) -> list[float]:
    """Wall time of each timed round: raw, or scaled to the reference machine
    speed by the factor of the run_training* call it ran in."""
    walls = []
    outcomes = iter(run.result.outcomes)
    for start, end, rounds in run.chunks:
        factor = 1.0 if speed is None else speed.factor(start, end)
        walls += [next(outcomes).timings.wall_s * factor for _ in range(rounds)]
    return walls[WARMUP_ROUNDS:]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(
    w: Workload,
    run: SignedRun,
    setups: list[tuple[float, float]],
    speed: SpeedProbe,
    rss_mb: float,
) -> tuple[dict, dict]:
    """The end-to-end metrics as {name: (value, unit)}, plus details. Times
    are scaled to the reference machine speed; the raw values go into the
    details."""
    walls = round_walls(run, speed)
    raw_walls = round_walls(run)
    tail_s, tail_pct = tail(walls)
    rounds = len(run.result.outcomes)
    attempted = rounds * w.clients
    failed = failures(w, run)
    verified = sum(o.verified_count for o in run.result.outcomes)
    scaled_wall = sum(speed.scaled(start, end) for start, end, _ in run.chunks)
    wire = run.stats.bytes_client_to_server + run.stats.bytes_server_to_client
    metrics = {
        "round_p50_s": (statistics.median(walls), "s"),
        "round_tail_s": (tail_s, "s"),
        "updates_per_s": (verified / scaled_wall, "1/s"),
        "setup_s": (statistics.median(speed.scaled(*i) for i in setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "wire_bytes_per_round": (wire / rounds, "B"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
    }
    details = {
        "rounds": rounds,
        "timed_rounds": len(walls),
        "round_tail_percentile": tail_pct,
        "setup_repeats": len(setups),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "raw": {
            "round_p50_s": statistics.median(raw_walls),
            "round_tail_s": tail(raw_walls)[0],
            "updates_per_s": verified / run.wall_s,
            "setup_s": statistics.median(end - start for start, end in setups),
        },
        "speed_factor_p50": statistics.median(speed.factor(s, e) for s, e, _ in run.chunks),
    }
    return metrics, details
