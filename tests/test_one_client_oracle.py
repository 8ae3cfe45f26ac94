"""The unsigned oracle trains one client per call.

`fedcore.run_plain_fedavg` is the reference that the signed protocol, and
perfbench's gate, must match bit for bit. The protocol trains a small
model's clients in stacks (`fedcore.train_stack`); the oracle must keep
handing the kernel one client at a time, so that the comparison keeps
checking stacked training against training each client alone.
"""

from pqfl import fedcore
from pqfl.fedcore import ModelArchitecture, TrainConfig


def test_the_oracle_hands_the_kernel_one_client_per_call(monkeypatch):
    clients, rounds = 4, 2
    stack_sizes = []
    train_stack = fedcore.train_stack

    def recording(arch, starts, shards, *args, **kwargs):
        stack_sizes.append(len(shards))
        return train_stack(arch, starts, shards, *args, **kwargs)

    monkeypatch.setattr(fedcore, "train_stack", recording)
    data = fedcore.generate_synthetic(80, 6, 3, seed=1)
    shards = fedcore.split_iid(data, clients, seed=2)
    model = fedcore.init_model(ModelArchitecture(6, (8,), 3), seed=3)
    cfg = TrainConfig(num_clients=clients, num_rounds=rounds, seed=4)
    fedcore.run_plain_fedavg(model, list(enumerate(shards, start=1)), cfg)
    assert stack_sizes == [1] * clients * rounds
