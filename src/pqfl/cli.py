"""Command-line entry point: keygen, run, bench, report.

Every command is deterministic given its flags, except for signatures:
Falcon and ML-DSA signing is randomized, and Falcon's signature length
varies (so `signature_bytes` differs between identical `run --scheme
falcon` runs). `run` requires --seed so results stay reproducible from
shell history. `run --config FILE` reads `key = value` lines whose keys are
the `run` flag names, written with `-` or `_`; a boolean key is true for
1/true/yes/on and false for anything else, and flags on the command line
win over the file. Each flag's value is converted by its argparse `type`,
so a bad value, on the command line or in the file, is reported naming the
flag (and for the file, `FILE:LINE:`) before anything runs. Exit codes:
0 success, 1 runtime failure, 2 usage/config error.
Set PQFL_LOG={error,info,debug} for log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from pqfl import bench, channel, fedcore, protocol, sig
from pqfl.errors import PqflError, UnsupportedScheme
from pqfl.fedcore import TrainConfig
from pqfl.sig import SchemeId

# SGD wants a larger constant step than AdamW on the small desk-scale model.
_DEFAULT_LR = {"sgd": 1e-2, "adamw": 1e-5}


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


# The flag converters raise ArgumentTypeError, which argparse reports after the flag's name.
def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(item) for item in text.split(",") if item.strip())
    except ValueError as exc:  # it names the item: "invalid literal for int() ...: 'abc'"
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The `pqfl` parser and its `run` sub-parser, which `--config` parses again."""
    # A bad value raises ArgumentError, which `main` reports; an unknown flag still exits.
    parser = argparse.ArgumentParser(
        prog="pqfl",
        description="Federated averaging with post-quantum signatures.",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_key = sub.add_parser("keygen", help="generate key files for all participants",
                           exit_on_error=False)
    p_key.add_argument("--scheme", type=_scheme, default="dilithium")
    p_key.add_argument("--clients", type=int, default=10)
    p_key.add_argument("--out-dir", required=True)
    p_key.add_argument("--seed", type=int, default=None)

    p_run = sub.add_parser("run", help="run a federated training experiment",
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter,
                           exit_on_error=False)
    p_run.add_argument("--config", help="key = value config file; flags override it")
    p_run.add_argument("--scheme", type=lambda text: _schemes(text, sig.ALL_SCHEMES),
                       default="dilithium",
                       help="scheme name, comma list, or `all`")
    p_run.add_argument("--clients", type=int, default=10, help="number of clients")
    p_run.add_argument("--rounds", type=int, default=10, help="number of rounds")
    p_run.add_argument("--local-epochs", type=int, default=1, help="local epochs per round")
    p_run.add_argument("--batch-size", type=int, default=32, help="local mini-batch size")
    p_run.add_argument("--lr", type=float,
                       help="learning rate; unset means 1e-2 for sgd, 1e-5 for adamw")
    p_run.add_argument("--optimizer", choices=["sgd", "adamw"], default="sgd",
                       help="local optimizer")
    p_run.add_argument("--dataset", choices=["synthetic", "idx"], default="synthetic",
                       help="seeded Gaussian mixture or IDX files")
    p_run.add_argument("--samples", type=int, default=1000, help="synthetic samples")
    p_run.add_argument("--features", type=int, default=20, help="synthetic features")
    p_run.add_argument("--classes", type=int, default=5, help="synthetic classes")
    p_run.add_argument("--separation", type=float, default=3.0,
                       help="synthetic class-centre spread")
    p_run.add_argument("--hidden", type=_ints, default="32",
                       help="comma list of hidden dims; empty for logistic")
    p_run.add_argument("--idx-images", help="IDX image file")
    p_run.add_argument("--idx-labels", help="IDX label file")
    p_run.add_argument("--idx-limit", type=int, help="use only the first N IDX samples")
    p_run.add_argument("--attack", type=_attack,
                       help="kind:key=value:... e.g. bitflip:target=1:p=1.0")
    p_run.add_argument("--transport", type=_tcp_address, default="inprocess",
                       help="inprocess or tcp[:host[:port]]")
    p_run.add_argument("--strict", action="store_true", help="refuse the non-PQC test scheme")
    p_run.add_argument("--no-verify", action="store_true",
                       help="baseline mode: skip all signature verification")
    p_run.add_argument("--out", help="metrics CSV path")
    p_run.add_argument("--seed", type=int, help="master seed; required")

    p_bench = sub.add_parser("bench", help="microbenchmark sign/verify/keygen",
                             exit_on_error=False)
    p_bench.add_argument("--schemes", type=lambda text: _schemes(text, sig.PQC_SCHEMES),
                         default="all", help="`all` (the 3 PQC schemes) or comma list")
    p_bench.add_argument("--sizes", type=_ints, default="1024,1048576",
                         help="payload sizes in bytes")
    p_bench.add_argument("--iters", type=int, default=30)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="microbench CSV path")

    p_report = sub.add_parser("report", help="summarize a run metrics CSV")
    p_report.add_argument("csv_path")

    return parser, p_run


def _parse_run_with_config(
    run_parser: argparse.ArgumentParser, path: str, run_argv: list[str]
) -> argparse.Namespace:
    """Parse `run` again, the file's `key = value` lines becoming flags ahead of
    the command line's. Blank lines and #-comments are ignored."""
    settings = vars(run_parser.parse_args([]))
    del settings["config"]
    file_argv = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        key = key.lower().replace("-", "_")
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        if key not in settings:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(settings[key], bool):  # only the store_true flags default to bools
            file_argv.append(f"{flag}={value}")
            try:  # alone, so that a bad value names its line
                run_parser.parse_args(file_argv[-1:])
            except argparse.ArgumentError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        elif value.lower() in ("1", "true", "yes", "on"):
            file_argv.append(flag)
    return run_parser.parse_args(file_argv + run_argv, argparse.Namespace(command="run"))


def _scheme(label: str) -> SchemeId:
    try:
        return SchemeId.from_label(label)
    except UnsupportedScheme as exc:  # a usage error, unlike strict mode's refusal
        raise argparse.ArgumentTypeError(str(exc)) from None


def _schemes(text: str, every: tuple[SchemeId, ...]) -> list[SchemeId]:
    schemes = list(every) if text.lower() == "all" else [_scheme(s) for s in text.split(",") if s]
    if not schemes:
        raise argparse.ArgumentTypeError(f"no scheme named in {text!r}")
    return schemes


def _attack(text: str) -> channel.AttackConfig | None:
    try:
        return parse_attack(text) if text else None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tcp_address(transport: str) -> tuple[str, int] | None:
    """None for `inprocess`; (host, port) for `tcp[:host[:port]]`, port 0 picking a free one."""
    if transport.lower() == "inprocess":
        return None
    parts = transport.lower().split(":")
    kind, host, port = (parts + ["", ""])[:3]
    if kind != "tcp" or len(parts) > 3:
        raise argparse.ArgumentTypeError(f"unknown transport {transport!r}")
    if port and not (port.isdigit() and int(port) <= 65535):
        raise argparse.ArgumentTypeError(f"port {port!r} is not a number from 0 to 65535")
    return host or "127.0.0.1", int(port or 0)


def cmd_keygen(args: argparse.Namespace) -> int:
    if args.clients < 1:
        raise ValueError(f"--clients must be at least 1, got {args.clients}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = sig.metadata(args.scheme)
    manifest_lines = []
    for pid in range(args.clients + 1):
        kp = protocol.derive_keypair(args.scheme, args.seed, pid)
        stem = "server" if pid == protocol.SERVER_ID else f"client_{pid:03d}"
        pk_path = out_dir / f"{stem}.pk"
        sk_path = out_dir / f"{stem}.sk"
        pk_path.write_bytes(kp.public_key)
        # created 0600; an existing file is narrowed to 0600 before the key goes in
        with open(os.open(sk_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600), "wb") as f:
            os.fchmod(f.fileno(), 0o600)
            f.write(kp.secret_key)
        manifest_lines.append(
            f"scheme={args.scheme.label} parameter_set={meta.parameter_set} id={pid} "
            f"pk_len={len(kp.public_key)} sk_len={len(kp.secret_key)} "
            f"pk_file={pk_path.name} sk_file={sk_path.name}"
        )
    (out_dir / "manifest.txt").write_text("\n".join(manifest_lines) + "\n")
    print(f"wrote {2 * (args.clients + 1)} key files and manifest.txt to {out_dir}")
    return 0


def run_one_scheme(
    args: argparse.Namespace, scheme: SchemeId, cfg: TrainConfig
) -> list[bench.RoundMetrics]:
    """Execute one full training run and return its per-round metrics."""
    if args.dataset == "idx":
        data = fedcore.load_idx_dataset(args.idx_images, args.idx_labels, args.idx_limit)
    else:
        data = fedcore.generate_synthetic(
            args.samples, args.features, args.classes,
            fedcore.derive_seed(cfg.seed, "data"), args.separation,
        )
    shards = fedcore.split_iid(data, cfg.num_clients, fedcore.derive_seed(cfg.seed, "split"))
    arch = fedcore.ModelArchitecture(
        input_dim=data.num_features,
        hidden_dims=args.hidden,
        num_classes=int(data.labels.max()) + 1,
    )
    model = fedcore.init_model(arch, fedcore.derive_seed(cfg.seed, "init"))
    options = protocol.ProtocolOptions(
        strict=args.strict,
        verify_updates=not args.no_verify,
        verify_models=not args.no_verify,
    )
    server, clients, _registry = protocol.setup_keys(
        cfg, scheme, cfg.seed, model, shards, options, eval_data=data
    )
    chan = channel.Channel(args.attack)
    if args.transport is None:
        result = protocol.run_training(server, clients, chan)
    else:
        result = protocol.run_training_tcp(server, clients, chan, *args.transport)

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
    # Every input is checked here, before the first scheme's run starts.
    if args.seed is None:
        raise ValueError("--seed is required (no wall-clock seeding)")
    cfg = TrainConfig(
        num_clients=args.clients,
        num_rounds=args.rounds,
        local_epochs=args.local_epochs,
        batch_size=args.batch_size,
        learning_rate=_DEFAULT_LR[args.optimizer] if args.lr is None else args.lr,
        optimizer=args.optimizer,
        seed=args.seed,
    )
    target = args.attack and args.attack.target_client
    if target is not None and not 1 <= target <= args.clients:
        raise ValueError(f"--attack: target {target} is not a client id from 1 to {args.clients}")
    if args.dataset == "idx":
        for flag, path in (("--idx-images", args.idx_images), ("--idx-labels", args.idx_labels)):
            if not path or not Path(path).exists():
                raise ValueError(f"{flag} must name an existing file")
    if args.strict and SchemeId.TEST_SCHEME in args.scheme:
        raise UnsupportedScheme("TestScheme is not allowed in strict mode")

    records = [
        record for scheme in args.scheme for record in run_one_scheme(args, scheme, cfg)
    ]
    if args.out:
        bench.emit_round_csv(records, args.out)
        print(f"metrics written to {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if not args.sizes or min(args.sizes) < 1:
        raise ValueError(f"--sizes must list payload sizes of at least 1 byte, got {args.sizes}")
    records = bench.microbench(args.schemes, args.sizes, args.iters, seed=args.seed)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, run_parser = _build_parser()
    commands = {"keygen": cmd_keygen, "run": cmd_run, "bench": cmd_bench, "report": cmd_report}
    try:
        args = parser.parse_args(argv)
        if args.command == "run" and args.config:
            # argv[0] is the command: `pqfl` itself takes no option but --help.
            args = _parse_run_with_config(run_parser, args.config, argv[1:])
        return commands[args.command](args)
    except (argparse.ArgumentError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PqflError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
