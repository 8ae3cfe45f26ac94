"""CLI commands: exit codes, file outputs, determinism, flag parsing."""

import dataclasses
import os
import stat
import subprocess
import sys

import pytest

from pqfl import bench, channel, fedcore, protocol, sig
from pqfl.cli import main, parse_attack
from pqfl.sig import SchemeId


def run_cli(*argv) -> int:
    return main(list(argv))


# --- keygen ---------------------------------------------------------------------

def test_keygen_writes_expected_files(tmp_path):
    out = tmp_path / "keys"
    code = run_cli("keygen", "--scheme", "dilithium", "--clients", "10",
                   "--out-dir", str(out), "--seed", "1")
    assert code == 0
    key_files = sorted(p.name for p in out.iterdir())
    assert len(key_files) == 23  # 11 participants x 2 + manifest
    assert "manifest.txt" in key_files
    meta = sig.metadata(SchemeId.DILITHIUM)
    assert (out / "server.pk").stat().st_size == meta.public_key_len
    assert (out / "server.sk").stat().st_size == meta.secret_key_len
    assert (out / "client_003.pk").stat().st_size == meta.public_key_len
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 11
    assert "scheme=dilithium" in manifest[0]


def test_keygen_secret_files_restrictive_permissions(tmp_path):
    out = tmp_path / "keys"
    assert run_cli("keygen", "--scheme", "testscheme", "--clients", "1",
                   "--out-dir", str(out), "--seed", "2") == 0
    mode = stat.S_IMODE(os.stat(out / "server.sk").st_mode)
    assert mode == 0o600


def test_keygen_never_leaves_a_secret_key_readable_by_others(tmp_path, monkeypatch):
    out = tmp_path / "keys"
    out.mkdir()
    (out / "server.sk").write_bytes(b"old key")
    os.chmod(out / "server.sk", 0o644)
    argv = ("keygen", "--scheme", "testscheme", "--clients", "2", "--out-dir", str(out))
    old_umask = os.umask(0o022)
    try:
        assert run_cli(*argv) == 0
        assert stat.S_IMODE(os.stat(out / "server.sk").st_mode) == 0o600

        def refuse(*args, **kwargs):
            raise PermissionError("chmod refused")

        for path in out.glob("*.sk"):
            path.unlink()
        monkeypatch.setattr(os, "chmod", refuse)
        code = run_cli(*argv)
    finally:
        os.umask(old_umask)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.glob("*.sk")}
    assert code == 1 or set(modes.values()) == {0o600}, (code, modes)


def test_keygen_deterministic_with_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        run_cli("keygen", "--scheme", "dilithium", "--clients", "2",
                "--out-dir", str(d), "--seed", "5")
    assert (a / "client_001.pk").read_bytes() == (b / "client_001.pk").read_bytes()


def test_keygen_sphincsplus_deterministic_with_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run_cli("keygen", "--scheme", "sphincsplus", "--clients", "1",
                       "--out-dir", str(d), "--seed", "5") == 0
    for name in ("server.pk", "server.sk", "client_001.pk", "client_001.sk", "manifest.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert (a / "server.pk").read_bytes() != (a / "client_001.pk").read_bytes()


def test_keygen_writes_the_keys_a_seeded_run_registers(tmp_path):
    assert run_cli("keygen", "--scheme", "testscheme", "--clients", "3",
                   "--out-dir", str(tmp_path), "--seed", "5") == 0
    data = fedcore.generate_synthetic(30, 4, 2, seed=1)
    model = fedcore.init_model(fedcore.ModelArchitecture(4, (), 2), seed=1)
    cfg = fedcore.TrainConfig(num_clients=3, seed=5)
    _, _, registry = protocol.setup_keys(
        cfg, SchemeId.TEST_SCHEME, 5, model, fedcore.split_iid(data, 3, seed=1)
    )
    written = {pid: (tmp_path / name).read_bytes() for pid, name in
               enumerate(["server.pk", "client_001.pk", "client_002.pk", "client_003.pk"])}
    assert written == {pid: pk for pid, (_, pk) in registry.items()}


# --- run -------------------------------------------------------------------------

def run_args(tmp_path, *extra, csv_name="m.csv"):
    return (
        "run", "--scheme", "testscheme", "--clients", "4", "--rounds", "3",
        "--samples", "200", "--features", "8", "--classes", "3",
        "--seed", "42", "--out", str(tmp_path / csv_name), *extra,
    )


def test_run_writes_csv_and_exits_zero(tmp_path, capsys):
    assert run_cli(*run_args(tmp_path)) == 0
    records = bench.read_round_csv(tmp_path / "m.csv")
    assert len(records) == 3
    assert [r.round for r in records] == [0, 1, 2]
    assert all(r.verified_count == 4 for r in records)
    out = capsys.readouterr().out
    assert "final loss" in out


def test_run_deterministic(tmp_path):
    run_cli(*run_args(tmp_path, csv_name="a.csv"))
    run_cli(*run_args(tmp_path, csv_name="b.csv"))
    a = bench.read_round_csv(tmp_path / "a.csv")
    b = bench.read_round_csv(tmp_path / "b.csv")
    for ra, rb in zip(a, b):
        assert ra.global_loss == rb.global_loss
        assert ra.payload_bytes == rb.payload_bytes
        assert ra.signature_bytes == rb.signature_bytes
        assert ra.verified_count == rb.verified_count


def test_falcon_run_differs_only_in_times_and_signature_bytes(tmp_path):
    # Falcon signing is randomized and its signatures are compressed to a
    # varying length; everything else in the run follows from the seed.
    records = []
    for name in ("a.csv", "b.csv"):
        args = (
            "run", "--scheme", "falcon", "--clients", "2", "--rounds", "2",
            "--seed", "42", "--out", str(tmp_path / name),
        )
        assert run_cli(*args) == 0
        records.append(bench.read_round_csv(tmp_path / name))
    kept = [
        f.name for f in dataclasses.fields(bench.RoundMetrics)
        if not f.name.endswith("_time_s") and f.name != "signature_bytes"
    ]
    assert len(kept) == 6
    for a, b in zip(*records, strict=True):
        assert [getattr(a, n) for n in kept] == [getattr(b, n) for n in kept]


def test_run_requires_seed(tmp_path, capsys):
    code = run_cli("run", "--scheme", "testscheme", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_flag_fails_fast():
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--scheme", "testscheme", "--seed", "1", "--frobnicate")
    assert exc.value.code == 2


def test_run_with_attack_rejects_target_every_round(tmp_path):
    assert run_cli(*run_args(tmp_path, "--attack", "bitflip:target=1:p=1.0")) == 0
    records = bench.read_round_csv(tmp_path / "m.csv")
    assert all(r.rejected_count == 1 for r in records)
    assert all(r.verified_count == 3 for r in records)


def test_run_bad_attack_spec(tmp_path, capsys):
    assert run_cli(*run_args(tmp_path, "--attack", "meteor:p=1.0")) == 2
    assert "attack" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ("--transport", "udp"),
    ("--transport", "tcp:127.0.0.1:notaport"),
    ("--dataset", "idx", "--idx-images", "nope.idx", "--idx-labels", "nope2.idx"),
    ("--attack", "meteor:p=1.0"),
    ("--attack", "bitflip:target=3"),
    ("--attack", "bitflip:target=0"),
], ids=["udp", "bad-port", "missing-idx", "bad-attack", "target-past-clients", "target-server"])
def test_bad_run_input_exits_before_any_run(tmp_path, capsys, extra):
    args = ("run", "--scheme", "all", "--clients", "2", "--rounds", "1", "--seed", "3",
            "--out", str(tmp_path / "x.csv"), *extra)
    assert run_cli(*args) == 2
    assert "round" not in capsys.readouterr().out
    assert not (tmp_path / "x.csv").exists()


def test_run_over_tcp(tmp_path):
    assert run_cli(*run_args(tmp_path, "--transport", "tcp")) == 0
    records = bench.read_round_csv(tmp_path / "m.csv")
    assert len(records) == 3 and all(r.verified_count == 4 for r in records)


@pytest.mark.parametrize("schemes", ["testscheme", "dilithium,testscheme"])
def test_run_strict_rejects_test_scheme(tmp_path, capsys, schemes):
    assert run_cli(*run_args(tmp_path, "--strict", "--scheme", schemes)) == 1
    out, err = capsys.readouterr()
    assert "strict" in err
    assert "round" not in out and not (tmp_path / "m.csv").exists()


def test_run_scheme_all_covers_every_scheme(tmp_path):
    args = (
        "run", "--scheme", "all", "--clients", "2", "--rounds", "1",
        "--samples", "60", "--features", "6", "--classes", "2",
        "--seed", "3", "--out", str(tmp_path / "all.csv"),
    )
    assert run_cli(*args) == 0
    records = bench.read_round_csv(tmp_path / "all.csv")
    assert {r.scheme for r in records} == {"dilithium", "falcon", "sphincsplus", "testscheme"}


def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "scheme = testscheme\n"
        "clients = 4\n"
        "rounds = 5\n"
        "samples = 200\n"
        "features = 8\n"
        "classes = 3\n"
        "seed = 42\n"
        f"out = {tmp_path / 'cfg.csv'}\n"
    )
    assert run_cli("run", "--config", str(cfg_file)) == 0
    assert len(bench.read_round_csv(tmp_path / "cfg.csv")) == 5

    # explicit flag beats the file
    assert run_cli("run", "--config", str(cfg_file), "--rounds", "2",
                   "--out", str(tmp_path / "cfg2.csv")) == 0
    assert len(bench.read_round_csv(tmp_path / "cfg2.csv")) == 2


def test_config_file_unknown_key(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("seed = 1\nwarp_factor = 9\n")
    assert run_cli("run", "--config", str(cfg_file)) == 2
    assert "warp_factor" in capsys.readouterr().err


def test_run_idx_requires_existing_paths(tmp_path, capsys):
    code = run_cli("run", "--dataset", "idx", "--idx-images", str(tmp_path / "nope.idx"),
                   "--idx-labels", str(tmp_path / "nope2.idx"), "--seed", "1")
    assert code == 2


# --- bench / report -----------------------------------------------------------------

def test_bench_counts_and_csv(tmp_path, capsys):
    out = tmp_path / "micro.csv"
    code = run_cli("bench", "--schemes", "testscheme", "--sizes", "256,1024",
                   "--iters", "30", "--out", str(out))
    assert code == 0
    records = bench.read_microbench_csv(out)
    assert len(records) == 6
    assert "testscheme" in capsys.readouterr().out


def test_report_on_no_attack_run(tmp_path, capsys):
    run_cli(*run_args(tmp_path))
    capsys.readouterr()
    assert run_cli("report", str(tmp_path / "m.csv")) == 0
    out = capsys.readouterr().out
    assert "verified=12" in out  # 4 clients x 3 rounds, all verified
    assert "rejected=0" in out


def test_report_missing_file(tmp_path, capsys):
    assert run_cli("report", str(tmp_path / "missing.csv")) == 2


# --- attack spec parser ---------------------------------------------------------------

def test_parse_attack_specs():
    cfg = parse_attack("bitflip:target=1:p=0.5")
    assert cfg.kind == channel.AttackKind.BITFLIP
    assert cfg.target_client == 1 and cfg.probability == 0.5

    cfg = parse_attack("substitute:target=all:p=1.0:poison=zero:direction=c2s:seed=4")
    assert cfg.kind == channel.AttackKind.SUBSTITUTE
    assert cfg.target_client is None and cfg.poison == "zero"
    assert cfg.direction == channel.Direction.CLIENT_TO_SERVER and cfg.seed == 4

    assert parse_attack("substitute:target=2").poison == "negate"  # default poison

    with pytest.raises(ValueError):
        parse_attack("bitflip:warp=9")
    with pytest.raises(ValueError):
        parse_attack("nothing:p=1")


# --- config files and flags agree -----------------------------------------------------

def _untimed(path):
    names = [f.name for f in dataclasses.fields(bench.RoundMetrics)
             if not f.name.endswith("_time_s")]
    return [[getattr(r, n) for n in names] for r in bench.read_round_csv(path)]


def test_config_file_matches_the_same_flags(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# every kind of value a config file can hold\n"
        "scheme = testscheme\n"
        "clients = 3\n"
        "rounds = 2\n"
        "local-epochs = 2\n"
        "samples = 120\n"
        "features = 6\n"
        "classes = 3\n"
        "separation = 2.5\n"
        "hidden =\n"
        "optimizer = adamw\n"
        "no_verify = yes\n"
        "strict = false\n"
        "attack = bitflip:target=1:p=1.0\n"
        "transport = tcp\n"
        "seed = 42\n"
        f"out = {tmp_path / 'file.csv'}\n"
    )
    assert run_cli("run", "--config", str(cfg_file)) == 0
    assert run_cli(
        "run", "--scheme", "testscheme", "--clients", "3", "--rounds", "2",
        "--local-epochs", "2", "--samples", "120", "--features", "6", "--classes", "3",
        "--separation", "2.5", "--hidden", "", "--optimizer", "adamw", "--no-verify",
        "--attack", "bitflip:target=1:p=1.0", "--transport", "tcp", "--seed", "42",
        "--out", str(tmp_path / "flags.csv"),
    ) == 0
    from_file = _untimed(tmp_path / "file.csv")
    assert len(from_file) == 2
    assert from_file == _untimed(tmp_path / "flags.csv")


def test_config_file_bad_value_names_its_key(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("seed = 1\nclients = many\n")
    assert run_cli("run", "--config", str(cfg_file)) == 2
    assert "clients" in capsys.readouterr().err


@pytest.mark.parametrize("line, flag", [
    ("attack = meteor:p=1", "--attack"),
    ("scheme = dilithium,foo", "--scheme"),
    ("transport = udp", "--transport"),
    ("clients = many", "--clients"),
    ("separation = wide", "--separation"),
    ("optimizer = rmsprop", "--optimizer"),
], ids=["attack", "scheme", "transport", "int", "float", "choice"])
def test_config_file_bad_converted_value_names_file_line_and_flag(tmp_path, capsys, line, flag):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"seed = 1\n# a comment\n{line}\n")
    assert run_cli("run", "--config", str(cfg_file)) == 2
    out, err = capsys.readouterr()
    assert f"{cfg_file}:3:" in err and flag in err, err
    assert "round" not in out


def test_run_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--help")
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--clients CLIENTS number of clients (default: 10)" in help_text


@pytest.mark.parametrize("clients", ["0", "-5"])
def test_keygen_rejects_fewer_than_one_client(tmp_path, capsys, clients):
    out = tmp_path / "keys"
    assert run_cli("keygen", "--clients", clients, "--out-dir", str(out), "--seed", "1") == 2
    assert "--clients" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["run", "--scheme", "foo", "--seed", "1"], ["--scheme", "'foo'"]),
    (["keygen", "--scheme", "foo", "--out-dir", "keys"], ["--scheme", "'foo'"]),
    (["bench", "--schemes", "dilithium,foo"], ["--schemes", "'foo'"]),
    (["bench", "--sizes", "1,abc"], ["--sizes", "abc"]),
    (["run", "--transport", "tcp:127.0.0.1:notaport", "--seed", "1"], ["--transport", "'notaport'"]),
    (["run", "--transport", "tcp::70000", "--seed", "1"], ["--transport", "'70000'"]),
    (["run", "--transport", "tcp:127.0.0.1:0:9", "--seed", "1"], ["--transport", "'tcp:127.0.0.1:0:9'"]),
    (["run", "--config", "tcp.cfg"], ["tcp.cfg:2:", "--transport", "'notaport'"]),
    (["run", "--scheme", ",", "--seed", "1"], ["--scheme", "','"]),
    (["bench", "--schemes", ","], ["--schemes", "','"]),
    (["bench", "--sizes", ","], ["--sizes", "()"]),
    (["bench", "--sizes", "0,-1"], ["--sizes", "(0, -1)"]),
], ids=["run-scheme", "keygen-scheme", "bench-schemes", "bench-sizes", "port", "port-range",
        "extra-field", "config-port", "run-no-scheme", "bench-no-scheme", "bench-no-size",
        "bench-size-below-1"])
def test_bad_scheme_or_transport_names_its_flag(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tcp.cfg").write_text("seed = 1\ntransport = tcp:127.0.0.1:notaport\n")
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert all(word in err for word in named), err
    assert "round" not in out and not (tmp_path / "keys").exists()


# --- exit status seen by a shell --------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("argv, code", [
    (["run", "--help"], 0),
    (["run", "--seed", "1", "--frobnicate"], 2),
    (["run", "--config", "unknown_key.cfg"], 2),
    (["keygen", "--clients", "0", "--out-dir", "keys"], 2),
    (["run", "--strict", "--scheme", "testscheme", "--seed", "1"], 1),
    (["run", "--scheme", "foo", "--seed", "1"], 2),
    (["keygen", "--scheme", "foo", "--out-dir", "keys"], 2),
], ids=["help", "unknown-flag", "unknown-config-key", "keygen-no-clients", "strict-testscheme",
        "run-unknown-scheme", "keygen-unknown-scheme"])
def test_process_exit_codes(tmp_path, argv, code):
    (tmp_path / "unknown_key.cfg").write_text("seed = 1\nwarp_factor = 9\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "pqfl.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == code, done.stderr.decode()
