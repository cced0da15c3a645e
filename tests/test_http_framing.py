"""The HTTP front end's request framing and its one request handler.

Drives :class:`repro.service.server._HttpProtocol` through a fake
transport and loop: seeded, no sockets, no threads.  The fuzz cases
assert the parser's contract:

* any split of a valid pipelined stream into chunks gives the same
  responses as one write (trace ids normalised);
* on requests with random extra headers, framing (body length and
  ``Connection: close``) matches :func:`http.client.parse_headers`;
* malformed, truncated or oversized request lines and heads, and bad
  ``Content-Length`` values, each get exactly one typed 400/413 JSON
  error and a close, never a 500;
* no complete request is left unanswered.
"""

from __future__ import annotations

import http.client
import io
import json
import logging
import random
import re
import string

import pytest

from repro import obs
from repro.clusters import MINICLUSTER
from repro.service import ArtifactRegistry, SelectionService, build_artifact
from repro.service.server import MAX_BODY, MAX_HEADER, HttpServer, _HttpProtocol
from repro.tuning import QuerySampler
from repro.units import KiB, MiB, log_spaced_sizes

QUERY = {"cluster": "minicluster", "procs": 6, "nbytes": 100_000}


@pytest.fixture(scope="module")
def service(mini_platform):
    artifact = build_artifact(
        MINICLUSTER,
        proc_points=tuple(range(2, 17, 2)),
        size_points=tuple(log_spaced_sizes(8 * KiB, 1 * MiB, 6)),
        platforms={"bcast": mini_platform},
    )
    registry = ArtifactRegistry()
    registry.add(artifact)
    return SelectionService(registry, cache_size=64)


class FakeLoop:
    """What ``_HttpProtocol`` asks of its event loop: a clock and timers
    that never fire (the idle watchdog is not under test here)."""

    def time(self) -> float:
        return 0.0

    def call_later(self, delay, callback):
        return self

    def cancel(self) -> None:
        pass


class FakeTransport:
    def __init__(self):
        self.written = bytearray()
        self.closed = False

    def write(self, data: bytes) -> None:
        assert not self.closed, "write after close"
        self.written += data

    def close(self) -> None:
        self.closed = True


def converse(service, chunks, **options):
    """Feed ``chunks`` to one fresh connection, as asyncio would: nothing
    more is delivered once the server closed it.  Returns the parsed
    responses and whether the server closed the connection."""
    server = HttpServer(service, **options)
    server._loop = FakeLoop()
    protocol = _HttpProtocol(server)
    transport = FakeTransport()
    protocol.connection_made(transport)
    for chunk in chunks:
        if transport.closed:
            break
        protocol.data_received(chunk)
    protocol.connection_lost(None)
    return parse_responses(bytes(transport.written)), transport.closed


def parse_responses(stream: bytes) -> list:
    """``[(status, headers, body)]`` out of a response byte stream."""
    responses = []
    while stream:
        head, separator, rest = stream.partition(b"\r\n\r\n")
        assert separator, f"truncated response head {stream[:80]!r}"
        status_line, *lines = head.decode("latin1").split("\r\n")
        version, status, _reason = status_line.split(" ", 2)
        assert version == "HTTP/1.1"
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers["Content-Length"])
        assert len(rest) >= length, "truncated response body"
        responses.append((int(status), headers, rest[:length]))
        stream = rest[length:]
    return responses


def request(method: str, path: str, body: bytes = b"", headers=()) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "Host: test", *headers]
    if body or method == "POST":
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin1") + body


def select(payload) -> bytes:
    return request("POST", "/select", json.dumps(payload).encode())


#: A trace id: 22 hex digits (salt, pid, counter), nothing hex around it.
TRACE_ID = re.compile(rb"(?<![0-9a-f])[0-9a-f]{22}(?![0-9a-f])")


def normalised(responses) -> list:
    return [
        (status, TRACE_ID.sub(b"T", headers["X-Trace-Id"].encode()),
         TRACE_ID.sub(b"T", body))
        for status, headers, body in responses
    ]


def random_stream(rng: random.Random) -> list[bytes]:
    """Valid requests of every kind whose answers are state-free."""
    requests = []
    for _ in range(rng.randint(1, 12)):
        roll = rng.random()
        query = dict(
            QUERY, procs=rng.randint(1, 20), nbytes=rng.randint(0, 2 * MiB)
        )
        if roll < 0.4:
            requests.append(select(query))
        elif roll < 0.55:
            requests.append(select({"queries": [query] * rng.randint(0, 4)}))
        elif roll < 0.65:
            requests.append(select(dict(query, procs=0)))  # typed 400
        elif roll < 0.75:
            requests.append(request("GET", "/select"))  # typed 405
        elif roll < 0.85:
            requests.append(request("GET", "/healthz"))
        elif roll < 0.95:
            requests.append(request("GET", "/artifacts?verbose=1"))
        else:
            requests.append(request("GET", "/nowhere"))
    return requests


def split(stream: bytes, rng: random.Random) -> list[bytes]:
    cuts = sorted(rng.sample(range(1, len(stream)), min(len(stream) - 1,
                                                        rng.randint(1, 40))))
    return [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]


class TestPipelinedChunks:
    @pytest.mark.parametrize("seed", range(20))
    def test_any_split_answers_like_one_write(self, service, seed):
        rng = random.Random(seed)
        requests = random_stream(rng)
        stream = b"".join(requests)
        whole, closed = converse(service, [stream])
        assert len(whole) == len(requests) and not closed
        for chunks in (split(stream, rng), [bytes([b]) for b in stream]):
            parts, closed = converse(service, chunks)
            assert normalised(parts) == normalised(whole)
            assert not closed
        assert all(status != 500 for status, _, _ in whole)

    def test_truncated_tail_waits_and_the_rest_is_answered(self, service):
        rng = random.Random(5)
        requests = random_stream(rng) + [select(QUERY)]
        stream = b"".join(requests)
        for cut in range(1, len(requests[-1])):
            responses, closed = converse(service, [stream[:-cut]])
            assert len(responses) == len(requests) - 1
            assert not closed


HEADER_NAME = string.ascii_letters + string.digits + "-"
HEADER_VALUE = string.ascii_letters + string.digits + " -_.,;:/=*\"'()"

#: Extra fields that name the framing fields without being them.
DECOYS = (
    "X-Content-Length: 999",
    "X-Note: content-length: 3",
    "X-Connection: close",
    "X-Note: Connection: close",
    "Content-Lengthy: 7",
    "Connections: close",
    "Accept: */*",
    "User-Agent: fuzz/1.0",
)


def random_field(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(DECOYS)
    name = "X-" + "".join(rng.choices(HEADER_NAME, k=rng.randint(1, 12)))
    value = "".join(rng.choices(HEADER_VALUE, k=rng.randint(1, 30))).strip()
    return f"{name}: {value or 'v'}"


def recase(rng: random.Random, text: str) -> str:
    return "".join(c.upper() if rng.random() < 0.5 else c.lower() for c in text)


class TestFramingMatchesHttpClient:
    @pytest.mark.parametrize("seed", range(60))
    def test_generated_heads(self, service, seed):
        rng = random.Random(seed)
        body = json.dumps(dict(QUERY, nbytes=rng.randint(0, 1 << 20))).encode()
        fields = [random_field(rng) for _ in range(rng.randint(0, 8))]
        length = recase(rng, "Content-Length") + ":" + " " * rng.randint(0, 3)
        fields.insert(rng.randint(0, len(fields)), f"{length}{len(body)}")
        if rng.random() < 0.2:  # an agreeing repeat is allowed
            fields.insert(rng.randint(0, len(fields)), f"{length}{len(body)}")
        connection = rng.choice((None, "close", "keep-alive"))
        if connection is not None:
            fields.insert(
                rng.randint(0, len(fields)),
                f"{recase(rng, 'Connection')}: {recase(rng, connection)}",
            )
        head = "\r\n".join(["POST /select HTTP/1.1", *fields]) + "\r\n\r\n"
        message = http.client.parse_headers(
            io.BytesIO(head.split("\r\n", 1)[1].encode("latin1"))
        )
        assert int(message["Content-Length"]) == len(body)
        closes = message.get("Connection", "").lower() == "close"

        stream = head.encode("latin1") + body + request("GET", "/healthz")
        responses, closed = converse(service, split(stream, rng))
        assert closed is closes
        assert len(responses) == (1 if closes else 2)
        status, headers, answer = responses[0]
        assert status == 200, answer
        assert json.loads(answer)["nbytes"] == json.loads(body)["nbytes"]
        assert headers["Connection"] == ("close" if closes else "keep-alive")


def assert_one_typed_error(responses, closed, statuses=(400, 413)):
    assert closed, "a framing error must close the connection"
    assert len(responses) == 1, responses
    status, headers, body = responses[0]
    assert status in statuses
    assert headers["Content-Type"] == "application/json"
    assert headers["Connection"] == "close"
    error = json.loads(body)["error"]
    assert error["code"] == (
        "body_too_large" if status == 413 else "bad_request"
    )
    return error["message"]


class TestMalformedInput:
    @pytest.mark.parametrize("line", [
        b"GET\r\n\r\n",
        b"GET /select\r\n\r\n",
        b"POST /select HTTP/1.1 extra\r\n\r\n",
        b"\r\n\r\n",
        b" \r\nHost: x\r\n\r\n",
        b"\x00\xff\r\n\r\n",
    ])
    def test_malformed_request_line(self, service, line):
        responses, closed = converse(service, [line + select(QUERY)])
        assert "malformed request line" in assert_one_typed_error(
            responses, closed
        )

    def test_oversized_head(self, service):
        head = b"POST /select HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEADER
        responses, closed = converse(service, [head])
        assert "exceeds" in assert_one_typed_error(responses, closed)

    @pytest.mark.parametrize("values,fragment", [
        (["abc"], "malformed Content-Length"),
        (["12x"], "malformed Content-Length"),
        (["+5"], "malformed Content-Length"),
        (["1_0"], "malformed Content-Length"),
        (["0x10"], "malformed Content-Length"),
        ([""], "malformed Content-Length"),
        (["9" * 5000], "malformed Content-Length"),
        (["-1"], "negative Content-Length"),
        (["-5"], "negative Content-Length"),
        ([str(MAX_BODY + 1)], "exceeds the limit"),
        (["9" * 30], "exceeds the limit"),
        (["5", "7"], "conflicting Content-Length"),
        (["5", "5", "6"], "conflicting Content-Length"),
    ], ids=[
        "letters", "trailing-junk", "plus-sign", "underscore", "hex",
        "empty", "past-int-digit-limit", "minus-one", "minus-five",
        "over-max-body", "thirty-digits", "two-values", "third-differs",
    ])
    def test_bad_content_length(self, service, values, fragment):
        fields = [f"Content-Length: {value}" for value in values]
        head = "\r\n".join(["POST /select HTTP/1.1", *fields]) + "\r\n\r\n"
        body = json.dumps(QUERY).encode()
        before = service.metrics.requests.total()
        responses, closed = converse(
            service, [head.encode() + body + select(QUERY)]
        )
        assert fragment in assert_one_typed_error(responses, closed)
        assert service.metrics.requests.total() == before + 1

    @pytest.mark.parametrize("seed", range(40))
    def test_random_heads_never_500(self, service, seed):
        rng = random.Random(seed)
        alphabet = string.printable.replace("\r", "").replace("\n", "")
        lines = [
            "".join(rng.choices(alphabet, k=rng.randint(0, 40)))
            for _ in range(rng.randint(1, 6))
        ]
        if rng.random() < 0.5:
            lines[0] = rng.choice(("POST", "GET", "PUT")) + " " + rng.choice(
                ("/select", "/healthz", "/x")
            ) + " HTTP/1.1"
        stream = ("\r\n".join(lines) + "\r\n\r\n").encode("latin1")
        responses, closed = converse(service, [stream + select(QUERY)])
        assert responses
        for status, headers, body in responses:
            assert status in (200, 400, 404, 405, 413)
            assert "error" in json.loads(body) or status == 200
        if responses[0][0] in (400, 413) and closed:
            assert len(responses) == 1


class TestHeaderNamesMatchAtLineStart:
    """Regression: ``Content-Length`` and ``Connection`` used to be found
    anywhere in the lowercased head, inside other fields' names and
    values too."""

    def test_x_content_length_before_the_real_one(self, service):
        body = json.dumps(QUERY).encode()
        first = (
            b"POST /select HTTP/1.1\r\nX-Content-Length: 999\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ) + body
        responses, closed = converse(
            service, [first + request("GET", "/healthz")]
        )
        assert [status for status, _, _ in responses] == [200, 200]
        assert json.loads(responses[0][2])["procs"] == QUERY["procs"]
        assert not closed

    def test_header_value_naming_content_length(self, service):
        body = json.dumps(QUERY).encode()
        first = (
            b"POST /select HTTP/1.1\r\nX-Note: content-length: 3\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ) + body
        responses, closed = converse(service, [first + select(QUERY)])
        assert [status for status, _, _ in responses] == [200, 200]
        assert not closed

    def test_x_connection_close_keeps_the_connection(self, service):
        first = request(
            "POST", "/select", json.dumps(QUERY).encode(),
            headers=("X-Connection: close",),
        )
        responses, closed = converse(
            service, [first + request("GET", "/healthz")]
        )
        assert [status for status, _, _ in responses] == [200, 200]
        assert responses[0][1]["Connection"] == "keep-alive"
        assert not closed

    def test_conflicting_content_lengths_are_refused(self, service):
        body = json.dumps(QUERY).encode()
        first = (
            b"POST /select HTTP/1.1\r\nContent-Length: %d\r\n"
            b"Content-Length: 3\r\n\r\n" % len(body)
        ) + body
        responses, closed = converse(service, [first + select(QUERY)])
        assert "conflicting Content-Length" in assert_one_typed_error(
            responses, closed, statuses=(400,)
        )


# -- the one handler and its two timers ---------------------------------------

@pytest.fixture(params=["no_observer", "recorder", "finish_hook", "sampler"])
def observer(request, service):
    """Each state that makes the handler time with a forced span, and
    the one that makes it time by hand."""
    recorder = obs.get_recorder()
    seen: list = []
    hook = seen.append
    if request.param == "recorder":
        recorder.enable()
    elif request.param == "finish_hook":
        recorder.add_finish_hook(hook)
    elif request.param == "sampler":
        service.sampler = QuerySampler(every=1)
    try:
        yield request.param, seen
    finally:
        service.sampler = None
        recorder.remove_finish_hook(hook)
        recorder.disable()
        recorder.clear()


class TestOneHandler:
    def test_timers_agree(self, service, observer, caplog):
        case, seen = observer
        reference = SelectionService(service.registry)
        metrics = service.metrics
        payloads = [QUERY, {"queries": [QUERY, dict(QUERY, procs=1)]}, None]
        for payload in payloads:
            path = "/select"
            endpoint = dict(endpoint=path,
                            status="200" if payload is not None else "405")
            before = (metrics.requests.value(**endpoint),
                      metrics.request_seconds.count)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro.service"):
                raw = (select(payload) if payload is not None
                       else request("GET", path))
                [(status, headers, body)], closed = converse(
                    service, [raw], slow_request_seconds=0
                )
            trace_id = headers["X-Trace-Id"]
            assert json.loads(body)["trace_id"] == trace_id
            if payload is None:
                assert status == 405
                assert body == json.dumps({
                    "error": {"code": "method_not_allowed",
                              "message": "GET not allowed on /select"},
                    "trace_id": trace_id,
                }).encode()
            else:
                assert status == 200
                assert body == reference.select_body(payload, trace_id)
            assert (metrics.requests.value(**endpoint),
                    metrics.request_seconds.count) == (
                before[0] + 1, before[1] + 1)
            [warning] = [r.getMessage() for r in caplog.records]
            assert "slow request" in warning and trace_id in warning
            retained = [
                span for span in obs.get_recorder().finished()
                if span.name == "http.request" and span.trace_id == trace_id
            ]
            assert len(retained) == (1 if case == "recorder" else 0)
            if case == "finish_hook":
                assert [span.name for span in seen
                        if span.trace_id == trace_id] == ["http.request"]
            assert not closed
