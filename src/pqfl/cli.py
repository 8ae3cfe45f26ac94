"""Command-line entry point: keygen, run, bench, report.

Every command is deterministic given its flags; `run` refuses to start
without an explicit --seed so results stay reproducible from shell
history. Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
Set PQFL_LOG={error,info,debug} for log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from pqfl import bench, channel, fedcore, protocol, sig
from pqfl.errors import PqflError
from pqfl.fedcore import TrainConfig
from pqfl.sig import SchemeId

_RUN_DEFAULTS = {
    "scheme": "dilithium",
    "clients": 10,
    "rounds": 10,
    "local_epochs": 1,
    "batch_size": 32,
    "lr": None,  # resolved per optimizer below
    "optimizer": "sgd",
    "dataset": "synthetic",
    "samples": 1000,
    "features": 20,
    "classes": 5,
    "separation": 3.0,
    "hidden": "32",
    "idx_images": None,
    "idx_labels": None,
    "idx_limit": None,
    "attack": None,
    "transport": "inprocess",
    "strict": False,
    "no_verify": False,
    "out": None,
    "seed": None,
}

# SGD wants a larger constant step than AdamW on the small desk-scale model.
_DEFAULT_LR = {"sgd": 1e-2, "adamw": 1e-5}


@dataclass(frozen=True)
class RunSpec:
    schemes: list[SchemeId]
    cfg: TrainConfig
    dataset: str
    samples: int
    features: int
    classes: int
    separation: float
    hidden_dims: tuple[int, ...]
    idx_images: str | None
    idx_labels: str | None
    idx_limit: int | None
    attack: channel.AttackConfig | None
    transport: str
    tcp_host: str
    tcp_port: int
    strict: bool
    verify: bool
    out: str | None
    seed: int


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("PQFL_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def parse_attack(text: str) -> channel.AttackConfig:
    """Parse `kind:key=value:...`, e.g. `bitflip:target=1:p=1.0`."""
    parts = text.split(":")
    try:
        kind = channel.AttackKind(parts[0].lower())
    except ValueError:
        raise ValueError(f"unknown attack kind {parts[0]!r}") from None
    kwargs: dict = {"kind": kind}
    for part in parts[1:]:
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip().lower()
        if key == "target":
            kwargs["target_client"] = None if value.lower() == "all" else int(value)
        elif key in ("p", "probability"):
            kwargs["probability"] = float(value)
        elif key in ("direction", "dir"):
            kwargs["direction"] = channel.Direction(value.lower())
        elif key == "seed":
            kwargs["seed"] = int(value)
        elif key == "poison":
            kwargs["poison"] = value.lower()
        else:
            raise ValueError(f"unknown attack option {key!r}")
    if kind == channel.AttackKind.SUBSTITUTE and "poison" not in kwargs:
        kwargs["poison"] = "negate"
    return channel.AttackConfig(**kwargs)


def _read_config_file(path: str) -> dict[str, str]:
    """`key = value` lines; blank lines and #-comments ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        values[key.strip().lower().replace("-", "_")] = value.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqfl",
        description="Federated averaging with post-quantum signatures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_key = sub.add_parser("keygen", help="generate key files for all participants")
    p_key.add_argument("--scheme", default="dilithium")
    p_key.add_argument("--clients", type=int, default=10)
    p_key.add_argument("--out-dir", required=True)
    p_key.add_argument("--seed", type=int, default=None)

    p_run = sub.add_parser("run", help="run a federated training experiment")
    p_run.add_argument("--config", help="key = value config file; flags override it")
    p_run.add_argument("--scheme", help="scheme name, comma list, or `all`")
    p_run.add_argument("--clients", type=int)
    p_run.add_argument("--rounds", type=int)
    p_run.add_argument("--local-epochs", type=int, dest="local_epochs")
    p_run.add_argument("--batch-size", type=int, dest="batch_size")
    p_run.add_argument("--lr", type=float)
    p_run.add_argument("--optimizer", choices=["sgd", "adamw"])
    p_run.add_argument("--dataset", choices=["synthetic", "idx"])
    p_run.add_argument("--samples", type=int)
    p_run.add_argument("--features", type=int)
    p_run.add_argument("--classes", type=int)
    p_run.add_argument("--separation", type=float)
    p_run.add_argument("--hidden", help="comma list of hidden dims; empty for logistic")
    p_run.add_argument("--idx-images", dest="idx_images")
    p_run.add_argument("--idx-labels", dest="idx_labels")
    p_run.add_argument("--idx-limit", type=int, dest="idx_limit")
    p_run.add_argument("--attack", help="kind:key=value:... e.g. bitflip:target=1:p=1.0")
    p_run.add_argument("--transport", help="inprocess or tcp[:host[:port]]")
    p_run.add_argument("--strict", action="store_true", default=None,
                       help="refuse the non-PQC test scheme")
    p_run.add_argument("--no-verify", action="store_true", default=None, dest="no_verify",
                       help="baseline mode: skip all signature verification")
    p_run.add_argument("--out", help="metrics CSV path")
    p_run.add_argument("--seed", type=int, help="master seed (required)")

    p_bench = sub.add_parser("bench", help="microbenchmark sign/verify/keygen")
    p_bench.add_argument("--schemes", default="all", help="`all` (the 3 PQC schemes) or comma list")
    p_bench.add_argument("--sizes", default="1024,1048576", help="payload sizes in bytes")
    p_bench.add_argument("--iters", type=int, default=30)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="microbench CSV path")

    p_report = sub.add_parser("report", help="summarize a run metrics CSV")
    p_report.add_argument("csv_path")

    return parser


def _resolve_run_spec(args: argparse.Namespace) -> RunSpec:
    merged = dict(_RUN_DEFAULTS)
    int_keys = {"clients", "rounds", "local_epochs", "batch_size", "samples",
                "features", "classes", "idx_limit", "seed"}
    float_keys = {"lr", "separation"}
    bool_keys = {"strict", "no_verify"}
    if args.config:
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(_RUN_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, raw in file_values.items():
            if key in bool_keys:
                merged[key] = raw.lower() in ("1", "true", "yes", "on")
            elif key in int_keys:
                merged[key] = int(raw)
            elif key in float_keys:
                merged[key] = float(raw)
            else:
                merged[key] = raw
    for key in _RUN_DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value

    if merged["seed"] is None:
        raise ValueError("--seed is required (no wall-clock seeding)")

    scheme_text = str(merged["scheme"]).lower()
    if scheme_text == "all":
        schemes = list(sig.ALL_SCHEMES)
    else:
        schemes = [SchemeId.from_label(s) for s in scheme_text.split(",") if s]

    lr = merged["lr"]
    if lr is None:
        lr = _DEFAULT_LR[merged["optimizer"]]

    cfg = TrainConfig(
        num_clients=int(merged["clients"]),
        num_rounds=int(merged["rounds"]),
        local_epochs=int(merged["local_epochs"]),
        batch_size=int(merged["batch_size"]),
        learning_rate=float(lr),
        optimizer=str(merged["optimizer"]),
        seed=int(merged["seed"]),
    )

    hidden_text = str(merged["hidden"]).strip()
    hidden_dims = tuple(int(d) for d in hidden_text.split(",") if d.strip()) if hidden_text else ()

    attack = parse_attack(merged["attack"]) if merged["attack"] else None

    transport_text = str(merged["transport"]).lower()
    tcp_host, tcp_port = "127.0.0.1", 0
    if transport_text.startswith("tcp"):
        transport = "tcp"
        bits = transport_text.split(":")
        if len(bits) >= 2 and bits[1]:
            tcp_host = bits[1]
        if len(bits) >= 3 and bits[2]:
            tcp_port = int(bits[2])
    elif transport_text == "inprocess":
        transport = "inprocess"
    else:
        raise ValueError(f"unknown transport {transport_text!r}")

    if merged["dataset"] == "idx":
        for key in ("idx_images", "idx_labels"):
            path = merged[key]
            if not path or not Path(path).exists():
                raise ValueError(f"--{key.replace('_', '-')} must name an existing file")

    return RunSpec(
        schemes=schemes,
        cfg=cfg,
        dataset=str(merged["dataset"]),
        samples=int(merged["samples"]),
        features=int(merged["features"]),
        classes=int(merged["classes"]),
        separation=float(merged["separation"]),
        hidden_dims=hidden_dims,
        idx_images=merged["idx_images"],
        idx_labels=merged["idx_labels"],
        idx_limit=merged["idx_limit"],
        attack=attack,
        transport=transport,
        tcp_host=tcp_host,
        tcp_port=tcp_port,
        strict=bool(merged["strict"]),
        verify=not bool(merged["no_verify"]),
        out=merged["out"],
        seed=int(merged["seed"]),
    )


def cmd_keygen(args: argparse.Namespace) -> int:
    scheme = SchemeId.from_label(args.scheme)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = sig.metadata(scheme)
    manifest_lines = []
    for pid in range(args.clients + 1):
        seed = None if args.seed is None else fedcore.derive_seed(args.seed, "key", pid)
        kp = sig.keygen(scheme, seed)
        stem = "server" if pid == protocol.SERVER_ID else f"client_{pid:03d}"
        pk_path = out_dir / f"{stem}.pk"
        sk_path = out_dir / f"{stem}.sk"
        pk_path.write_bytes(kp.public_key)
        sk_path.write_bytes(kp.secret_key)
        try:
            os.chmod(sk_path, 0o600)
        except OSError:
            pass
        manifest_lines.append(
            f"scheme={scheme.label} parameter_set={meta.parameter_set} id={pid} "
            f"pk_len={len(kp.public_key)} sk_len={len(kp.secret_key)} "
            f"pk_file={pk_path.name} sk_file={sk_path.name}"
        )
    (out_dir / "manifest.txt").write_text("\n".join(manifest_lines) + "\n")
    print(f"wrote {2 * (args.clients + 1)} key files and manifest.txt to {out_dir}")
    return 0


def _load_dataset(spec: RunSpec) -> fedcore.ClientDataset:
    if spec.dataset == "idx":
        return fedcore.load_idx_dataset(spec.idx_images, spec.idx_labels, spec.idx_limit)
    return fedcore.generate_synthetic(
        spec.samples,
        spec.features,
        spec.classes,
        fedcore.derive_seed(spec.seed, "data"),
        spec.separation,
    )


def run_one_scheme(spec: RunSpec, scheme: SchemeId) -> list[bench.RoundMetrics]:
    """Execute one full training run and return its per-round metrics."""
    data = _load_dataset(spec)
    shards = fedcore.split_iid(data, spec.cfg.num_clients, fedcore.derive_seed(spec.seed, "split"))
    arch = fedcore.ModelArchitecture(
        input_dim=data.num_features,
        hidden_dims=spec.hidden_dims,
        num_classes=int(data.labels.max()) + 1,
    )
    model = fedcore.init_model(arch, fedcore.derive_seed(spec.seed, "init"))
    options = protocol.ProtocolOptions(
        strict=spec.strict,
        verify_updates=spec.verify,
        verify_models=spec.verify,
    )
    server, clients, _registry = protocol.setup_keys(
        spec.cfg, scheme, spec.seed, model, shards, options, eval_data=data
    )
    chan = channel.Channel(spec.attack)
    if spec.transport == "tcp":
        result = protocol.run_training_tcp(
            server, clients, chan, host=spec.tcp_host, port=spec.tcp_port
        )
    else:
        result = protocol.run_training(server, clients, chan)

    metrics = []
    for outcome in result.outcomes:
        record = bench.round_metrics(scheme, outcome)
        metrics.append(record)
        print(
            f"{scheme.label} round {record.round}: verified={record.verified_count} "
            f"rejected={record.rejected_count} loss={record.global_loss:.6f} "
            f"wall={record.wall_time_s:.3f}s"
        )
    print(f"{scheme.label} final loss: {metrics[-1].global_loss:.6f}")
    return metrics


def cmd_run(args: argparse.Namespace) -> int:
    spec = _resolve_run_spec(args)
    records = [record for scheme in spec.schemes for record in run_one_scheme(spec, scheme)]
    if spec.out:
        bench.emit_round_csv(records, spec.out)
        print(f"metrics written to {spec.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    text = args.schemes.lower()
    if text == "all":
        schemes = list(sig.PQC_SCHEMES)
    else:
        schemes = [SchemeId.from_label(s) for s in text.split(",") if s]
    sizes = [int(s) for s in args.sizes.split(",") if s]
    records = bench.microbench(schemes, sizes, args.iters, seed=args.seed)
    print(bench.summarize_microbench(records))
    if args.out:
        bench.emit_microbench_csv(records, args.out)
        print(f"microbench records written to {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    records = bench.read_round_csv(args.csv_path)
    print(bench.summarize(records))
    return 0


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "keygen":
            return cmd_keygen(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "report":
            return cmd_report(args)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PqflError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
