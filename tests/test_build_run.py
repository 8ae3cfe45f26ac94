"""`protocol.build_run` builds the inputs the benchmark builds by hand.

perfbench's `workload.set_up` writes the seeded recipe out itself. Each of
its workloads, described as a `RunSpec`, must give the same initial model,
shards, evaluation data, keys and config, so that the benchmark can build
its runs through the builder instead.
"""

import sys
from pathlib import Path

import pytest

from pqfl.fedcore import TrainConfig
from pqfl.protocol import RunSpec, build_run

pytest.importorskip("cryptography")  # perfbench's speed probe signs with it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workload as wl  # noqa: E402

SEED = 11
ROUNDS = 3


def rows(dataset):
    return dataset.features.tobytes(), dataset.labels.tobytes()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_build_run_matches_perfbench_set_up(name):
    w = wl.WORKLOADS[name]
    expected, expected_clients = wl.set_up(w, SEED, ROUNDS)
    cfg = TrainConfig(num_clients=w.clients, num_rounds=ROUNDS, local_epochs=w.local_epochs,
                      batch_size=w.batch_size, learning_rate=wl.LEARNING_RATE, seed=SEED)
    server, clients = build_run(
        RunSpec(cfg, wl.SCHEME, w.hidden, w.samples, w.features, wl.NUM_CLASSES)
    )

    assert server.cfg == expected.cfg == cfg
    assert server.options == expected.options
    assert server.model.architecture == expected.model.architecture
    assert server.model.params.values.tobytes() == expected.model.params.values.tobytes()
    assert rows(server.eval_data) == rows(expected.eval_data)
    assert server.keypair.public_key == expected.keypair.public_key
    assert server.registry == expected.registry
    assert len(clients) == len(expected_clients) == w.clients
    for client, other in zip(clients, expected_clients):
        assert client.client_id == other.client_id
        assert client.cfg == other.cfg
        assert rows(client.dataset) == rows(other.dataset)
        assert client.keypair.public_key == other.keypair.public_key
