"""Span tracing of pqfl's layers, installed from outside the library.

`Tracer.install` replaces module and class attributes with timing wrappers.
`protocol` reaches every wrapped function through a module attribute or its
own globals at call time, so the wrappers see every call site. Each thread
keeps its own stack of open spans, so spans on the TCP client threads nest
under their own parents. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from dataclasses import dataclass

from pqfl import channel, codec, fedcore, protocol, sig
from workload import tail

SERVER_PARTY = protocol.SERVER_ID


def _message_len(index):
    return lambda args, out: len(args[index])


def _returned_len(args, out):
    return len(out)


def _frame_len(args, out):
    return len(args[1]) if out is None else len(out)


def _decoded_params_len(args, out):
    return out.values.nbytes


def _decoded_envelope_len(args, out):
    return len(out.payload) + len(out.signature.data)


def _client_arg(args, kwargs):
    return args[0].client_id


def _train_client(args, kwargs):
    return kwargs["client_id"] if "client_id" in kwargs else args[4]


def _link_client(args, kwargs):
    return args[3]


# (owner, attribute, span name, bytes of the call, explicit party of the call)
TRACED = [
    (sig, "keygen", "sig.keygen", None, None),
    (sig, "sign", "sig.sign", _message_len(1), None),
    (sig, "verify", "sig.verify", _message_len(2), None),
    (codec, "encode_params", "codec.encode_params", _returned_len, None),
    (codec, "decode_params", "codec.decode_params", _decoded_params_len, None),
    (codec, "signed_bytes", "codec.signed_bytes", _returned_len, None),
    (codec, "encode_envelope", "codec.encode_envelope", _returned_len, None),
    (codec, "decode_envelope", "codec.decode_envelope", _decoded_envelope_len, None),
    (fedcore, "local_train", "fedcore.local_train", None, _train_client),
    (fedcore, "aggregate", "fedcore.aggregate", None, None),
    (fedcore, "forward_loss", "fedcore.forward_loss", None, None),
    (channel.Channel, "deliver", "channel.deliver", _returned_len, _link_client),
    (channel.FrameSocket, "send_frame", "channel.send_frame", _frame_len, None),
    (channel.FrameSocket, "recv_frame", "channel.recv_frame", _frame_len, None),
    (protocol, "distribute_model", "protocol.distribute_model", None, None),
    (protocol, "client_process_round", "protocol.client_process_round", None, _client_arg),
    (protocol, "client_receive_model", "protocol.client_receive_model", None, _client_arg),
    (protocol, "client_submit_update", "protocol.client_submit_update", None, _client_arg),
    (protocol, "server_collect_and_verify", "protocol.server_collect_and_verify", None, None),
    (protocol, "finish_round", "protocol.finish_round", None, None),
]

# The server-thread spans that block every round; none of them nests in another.
CRITICAL = {
    "protocol.distribute_model",
    "protocol.server_collect_and_verify",
    "fedcore.aggregate",
    "fedcore.forward_loss",
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    round: int
    party: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by children; same-thread children never overlap
    bytes: int = 0
    false: bool = False  # a verify that returned False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.round = -1  # the server's current round, -1 between rounds
        self.server_thread = threading.get_ident()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, size, party in TRACED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, size, party))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, original, name, size, party_of):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            if name == "protocol.distribute_model":
                tracer.round = args[0].model.round
            if party_of is not None:
                party = party_of(args, kwargs)
            elif parent is not None:
                party = parent.party
            else:
                party = None  # resolved from the thread when the run ends
            span = Span(
                next(tracer._ids),
                None if parent is None else parent.id,
                name,
                threading.get_ident(),
                tracer.round,
                party,
                time.perf_counter(),
            )
            stack.append(span)
            try:
                out = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                if name == "protocol.finish_round":
                    tracer.round = -1
            if size is not None:
                span.bytes = size(args, out)
            if name == "sig.verify" and out is False:
                span.false = True
            with tracer._lock:
                tracer.spans.append(span)
            return out

        traced.__wrapped__ = original
        return traced

    def resolve_parties(self) -> None:
        """Give each span without an explicit party the one of its thread: the
        server for the thread that ran the server, else the client that the
        thread's client_process_round spans name."""
        thread_party = {self.server_thread: SERVER_PARTY}
        for s in self.spans:
            if s.name == "protocol.client_process_round":
                thread_party.setdefault(s.thread, s.party)
        for s in self.spans:
            if s.party is None:
                s.party = thread_party.get(s.thread)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# Aggregates over a group of spans: (function, unit).
FIELDS = {
    "calls": (len, "count"),
    "self_s": (lambda group: sum(s.self_s for s in group), "s"),
    "p50_s": (lambda group: _median([s.duration for s in group]), "s"),
    "bytes": (lambda group: sum(s.bytes for s in group), "B"),
}


def layer_metrics(tracer: Tracer, outcomes: list, run_wall_s: float, stats, history_bytes: int) -> dict:
    """Per-layer metrics of one traced run as {name: (value, unit)}.

    Calls, self times and bytes are totals over the run; p50/tail are over
    the individual spans.
    """
    tracer.resolve_parties()
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    m: dict[str, tuple[float, str]] = {}

    def add(key: str, group: list[Span], *fields: str) -> None:
        for f in fields:
            aggregate, unit = FIELDS[f]
            m[f"{key}.{f}"] = (aggregate(group), unit)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    add("sig.keygen", named("sig.keygen"), "calls", "self_s")
    for n in ("sig.sign", "sig.verify"):
        add(n, named(n), "calls", "self_s", "p50_s", "bytes")
    m["sig.verify.false"] = (sum(s.false for s in named("sig.verify")), "count")

    for n in ("encode_params", "decode_params", "signed_bytes", "encode_envelope", "decode_envelope"):
        add(f"codec.{n}", named(f"codec.{n}"), "calls", "self_s")
    codec_spans = [s for s in spans if s.name.startswith("codec.")]
    m["codec.self_s"] = (FIELDS["self_s"][0](codec_spans), "s")
    m["codec.bytes_returned"] = (FIELDS["bytes"][0](codec_spans), "B")

    add("fedcore.local_train", named("fedcore.local_train"), "calls", "self_s", "p50_s")
    add("fedcore.aggregate", named("fedcore.aggregate"), "self_s")
    add("fedcore.forward_loss", named("fedcore.forward_loss"), "self_s")

    add("channel.deliver", named("channel.deliver"), "calls", "self_s")
    m["channel.tampered"] = (stats.tampered, "count")
    m["channel.replayed"] = (stats.replayed, "count")
    m["channel.history_bytes"] = (history_bytes, "B")
    for n in ("channel.send_frame", "channel.recv_frame"):
        server_side = [s for s in named(n) if s.party == SERVER_PARTY]
        client_side = [s for s in named(n) if s.party != SERVER_PARTY]
        add(f"{n}.server", server_side, "calls", "self_s", "bytes")
        add(f"{n}.client", client_side, "calls", "self_s", "bytes")

    critical: dict[int, float] = {}
    for s in spans:
        is_dist_encode = (
            s.name == "codec.encode_envelope" and s.parent is None and s.party == SERVER_PARTY
        )
        if s.name in CRITICAL or is_dist_encode:
            critical[s.round] = critical.get(s.round, 0.0) + s.duration
    m["protocol.server.critical_p50_s"] = (_median(list(critical.values())), "s")

    cpr = named("protocol.client_process_round")
    add("protocol.client_process_round", cpr, "calls", "p50_s")
    busy = [s.duration for s in cpr]
    try:
        busy_tail = tail(busy)[0]
    except ValueError:  # too few calls for a percentile with enough beyond it
        busy_tail = max(busy, default=0.0)
    m["protocol.client_process_round.tail_s"] = (busy_tail, "s")
    # replies only: the announce frames of each TCP handshake arrive between rounds
    server_recv = [
        s for s in named("channel.recv_frame") if s.party == SERVER_PARTY and s.round >= 0
    ]
    m["protocol.server.recv_wait_s"] = (sum(s.duration for s in server_recv), "s")
    round_wall = sum(o.timings.wall_s for o in outcomes)
    m["protocol.client.overlap"] = (sum(busy) / round_wall, "ratio")
    for reason in protocol.RejectReason:
        count = sum(1 for o in outcomes for r in o.rejections if r.reason == reason)
        m[f"protocol.rejected.{reason.value}"] = (count, "count")
    m["protocol.skipped"] = (sum(len(o.skipped_clients) for o in outcomes), "count")
    m["protocol.outside_rounds_s"] = (run_wall_s - round_wall, "s")
    return m


def span_records(tracer: Tracer) -> list[dict]:
    return [
        {
            "id": s.id,
            "parent": s.parent,
            "name": s.name,
            "thread": s.thread,
            "round": s.round,
            "party": s.party,
            "start": s.start,
            "end": s.end,
            "self_s": s.self_s,
            "bytes": s.bytes,
        }
        for s in tracer.spans
    ]
