"""Hostile bytes on a node link.

Every input below is something a broken or hostile node can put on
the wire.  Each one must end its link with exactly one ``ERROR`` frame
and one ``ingest_sessions_errored``, nothing may raise out of the
gateway's connection task, and the event loop must stay responsive
throughout: a 1 ms ticker sharing the loop is never late by more than
:data:`MAX_TICK_LATENESS_S`.  The stalls this stack has had (a
codeword-length bomb, an alphabet bomb) were stalls, not crashes, so
the ticker is what catches their kind.

The byte fuzzers below drive :func:`read_frame`,
:meth:`Handshake.from_body` and :meth:`Codebook.from_payload` with
derandomized Hypothesis input: each returns, or raises its own
protocol-level error, and never anything else.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import Codebook
from repro.config import SystemConfig
from repro.errors import CodebookError, ProtocolError
from repro.ingest import (
    MAX_FRAME_BYTES,
    FrameKind,
    Handshake,
    IngestGateway,
    encode_frame,
    encode_json_frame,
    read_frame,
)
from repro.ingest.protocol import MAX_HELLO_BYTES

#: the worst lateness of a 1 ms ticker while a hostile link is served
MAX_TICK_LATENESS_S = 0.1

#: a config whose window period is 20 ms: a link silent after its
#: HELLO meets the idle deadline within 0.1 s
FAST = SystemConfig(n=256, m=128, d=8, levels=4, sample_rate_hz=12_800)


def _hello_payload(config=FAST):
    return Handshake(record="100", channel=0, config=config).to_payload()


def _hello(config=FAST):
    return encode_json_frame(FrameKind.HELLO, _hello_payload(config))


def _json_hello(**fields):
    payload = _hello_payload()
    payload.update(fields)
    return encode_json_frame(FrameKind.HELLO, payload)


def _config_hello(**fields):
    """A HELLO whose config has ``fields`` overridden."""
    return _json_hello(config=dict(_hello_payload()["config"], **fields))


def _raw_hello(text: str):
    return encode_frame(FrameKind.HELLO, text.encode())


#: name -> (bytes the node sends, whether it then hangs up)
HOSTILE = {
    "oversized-length-prefix": (
        (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"\x01", False
    ),
    "zero-length-prefix": (b"\x00\x00\x00\x00", False),
    "megabyte-hello-garbage": (
        encode_frame(FrameKind.HELLO, b"\xa5" * (MAX_FRAME_BYTES - 1)), False
    ),
    "megabyte-hello-valid-json": (
        _json_hello(record="x" * (MAX_FRAME_BYTES - 2048)), False
    ),
    "hello-just-over-the-cap": (
        _json_hello(record="x" * MAX_HELLO_BYTES), False
    ),
    "kraft-sum-above-one": (
        _json_hello(codebook={"offset": 0, "lengths": [1, 1, 1]}), False
    ),
    "deeply-nested-hello": (_raw_hello("[" * 50_000), False),
    "huge-integer-literal-hello": (
        _raw_hello('{"protocol": 2, "channel": ' + "9" * 5000 + "}"), False
    ),
    "infinite-channel": (_json_hello(channel=float("inf")), False),
    "infinite-resume": (_json_hello(resume=float("inf")), False),
    "infinite-codebook-offset": (
        _json_hello(codebook={"offset": float("inf"), "lengths": [1, 1]}),
        False,
    ),
    "nan-sample-rate": (_config_hello(sample_rate_hz=float("nan")), False),
    "fractional-seed": (_config_hello(seed=1.5), False),
    "infinite-seed": (_config_hello(seed=float("inf")), False),
    "fractional-d": (_config_hello(d=12.5), False),
    "boolean-keyframe-interval": (
        _config_hello(keyframe_interval=True), False
    ),
    "packet-flood-before-hello": (
        encode_frame(FrameKind.PACKET, b"\x00" * 64) * 200, False
    ),
    "parity-flood-before-hello": (
        encode_frame(FrameKind.PARITY, b"\x00" * 64) * 200, False
    ),
    "unknown-kind-before-hello": (b"\x00\x00\x00\x01\x63", False),
    "unknown-kind-after-hello": (_hello() + b"\x00\x00\x00\x01\x63", False),
    "node-sends-a-gateway-kind": (
        _hello() + encode_frame(FrameKind.DECODED, b"{}"), False
    ),
    "truncated-hello-prefix": (b"\x00\x00", True),
    "truncated-hello-body": (_hello()[:-5], True),
    "truncated-packet-body": (
        _hello() + (500).to_bytes(4, "big") + b"\x02" + b"x" * 10, True
    ),
    "bye-with-infinite-window-count": (
        _hello()
        + encode_json_frame(FrameKind.BYE, {"windows": float("inf")}),
        False,
    ),
    "half-open-after-hello": (_hello(), False),
}


async def _ticker(stop: asyncio.Event) -> float:
    """Tick every 1 ms until ``stop``; returns the worst lateness."""
    loop = asyncio.get_running_loop()
    worst = 0.0
    while not stop.is_set():
        due = loop.time() + 0.001
        await asyncio.sleep(0.001)
        worst = max(worst, loop.time() - due)
    return worst


async def _serve_hostile(data: bytes, hang_up: bool):
    """Send ``data`` on one link; returns the frames the gateway sent
    back, the gateway, the connection task and the ticker's worst
    lateness."""
    gateway = IngestGateway()
    stop = asyncio.Event()
    ticker = asyncio.create_task(_ticker(stop))
    await asyncio.sleep(0.01)
    before = asyncio.all_tasks()
    reader, writer = gateway.connect_local()
    (connection,) = asyncio.all_tasks() - before
    writer.write(data)
    if hang_up:
        writer.close()
    frames = []
    while True:
        frame = await asyncio.wait_for(read_frame(reader), 10.0)
        if frame is None:
            break
        frames.append(frame)
    await asyncio.wait_for(asyncio.shield(connection), 10.0)
    stop.set()
    worst = await ticker
    await gateway.close()
    return frames, gateway, connection, worst


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_input_ends_in_one_error(name):
    data, hang_up = HOSTILE[name]
    frames, gateway, connection, worst = asyncio.run(
        _serve_hostile(data, hang_up)
    )
    kinds = [kind for kind, _ in frames]
    assert kinds.count(FrameKind.ERROR) == 1
    assert kinds[-1] is FrameKind.ERROR
    assert set(kinds) <= {FrameKind.WELCOME, FrameKind.ERROR}
    assert "error" in json.loads(frames[-1][1])
    assert gateway.telemetry.counter_total("ingest_sessions_errored") == 1
    assert connection.exception() is None
    assert worst < MAX_TICK_LATENESS_S


def test_megabyte_hello_is_refused_before_it_is_parsed():
    frames, gateway, _, _ = asyncio.run(
        _serve_hostile(*HOSTILE["megabyte-hello-valid-json"])
    )
    ((kind, body),) = frames
    error = json.loads(body)["error"]
    assert f"exceeds the {MAX_HELLO_BYTES}-byte cap" in error
    assert gateway.telemetry.counter_total("ingest_sessions_opened") == 0


@pytest.mark.parametrize(
    "name",
    ["infinite-channel", "infinite-resume", "infinite-codebook-offset",
     "deeply-nested-hello", "huge-integer-literal-hello",
     "bye-with-infinite-window-count"],
)
def test_unparsable_number_is_a_protocol_error(name):
    """``Infinity`` where an integer belongs, an integer literal past
    Python's digit limit and nesting past its recursion limit used to
    raise ``OverflowError``/``ValueError``/``RecursionError`` out of the
    connection task: no ERROR frame, no ``ingest_sessions_errored``."""
    frames, gateway, _, _ = asyncio.run(_serve_hostile(*HOSTILE[name]))
    error = json.loads(frames[-1][1])["error"]
    assert "invalid" in error or "malformed" in error


@pytest.mark.parametrize(
    "name, field",
    [("nan-sample-rate", "sample_rate_hz"), ("fractional-seed", "seed"),
     ("infinite-seed", "seed"), ("fractional-d", "d"),
     ("boolean-keyframe-interval", "keyframe_interval")],
)
def test_non_integral_config_is_refused_at_the_handshake(name, field):
    """A value where ``SystemConfig`` declares an int is refused before a
    session or an operator group exists.  A NaN sample rate would put a
    NaN idle deadline on the event loop's timer heap; a fractional or
    infinite seed used to open a session and a group, and only the
    group's first solve failed."""
    frames, gateway, _, _ = asyncio.run(_serve_hostile(*HOSTILE[name]))
    ((kind, body),) = frames
    assert f"{field} must be an integer" in json.loads(body)["error"]
    assert gateway.telemetry.counter_total("ingest_sessions_opened") == 0


# ----------------------------------------------------------------------
# byte fuzzers
# ----------------------------------------------------------------------

_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
#: values at the edges of what a numeric field's parser accepts
_edge_values = st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), -1, 0, 1.5, 2**64, 1e308,
     -(2**64), "", "1", [], {}, None, True]
)
_json_values = _edge_values | st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _frames_from(data: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = []
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return frames
            frames.append(frame)

    return asyncio.run(run())


@settings(max_examples=300, derandomize=True)
@given(
    prefix=st.lists(
        st.tuples(st.sampled_from(list(FrameKind)), st.binary(max_size=16)),
        max_size=3,
    ),
    tail=st.binary(max_size=64),
)
def test_read_frame_fuzz(prefix, tail):
    data = b"".join(encode_frame(kind, body) for kind, body in prefix) + tail
    try:
        frames = _frames_from(data)
    except ProtocolError:
        return
    assert frames[: len(prefix)] == [(k, b) for k, b in prefix]


_HELLO_FIELDS = sorted(_hello_payload()) + ["codebook", "resume", "resumed"]
_CONFIG_FIELDS = sorted(_hello_payload()["config"])


@settings(max_examples=300, derandomize=True)
@given(
    field=st.sampled_from(_HELLO_FIELDS),
    config_field=st.sampled_from(_CONFIG_FIELDS),
    value=_json_values,
    in_config=st.booleans(),
)
def test_handshake_from_body_fuzz(field, config_field, value, in_config):
    """One field of a valid HELLO replaced by arbitrary JSON."""
    payload = _hello_payload()
    if in_config:
        payload["config"] = dict(payload["config"], **{config_field: value})
    else:
        payload[field] = value
    try:
        handshake = Handshake.from_body(json.dumps(payload).encode())
    except ProtocolError:
        return
    assert 0 < handshake.config.packet_seconds < float("inf")


@settings(max_examples=200, derandomize=True)
@given(body=st.binary(max_size=128))
def test_handshake_from_raw_bytes_fuzz(body):
    try:
        Handshake.from_body(body)
    except ProtocolError:
        pass


@settings(max_examples=300, derandomize=True)
@given(
    payload=st.one_of(
        _json_values,
        st.fixed_dictionaries(
            {"offset": _json_values, "lengths": st.lists(_json_values,
                                                         max_size=8)}
        ),
        st.fixed_dictionaries(
            {
                "offset": st.integers(-(10**6), 10**6),
                "lengths": st.lists(st.integers(-3, 40), max_size=12),
            }
        ),
    )
)
def test_codebook_from_payload_fuzz(payload):
    """The HELLO's decoded ``codebook`` value, whatever JSON it is."""
    try:
        Codebook.from_payload(payload)
    except CodebookError:
        pass
