"""Remote backend retry behavior against a real local HTTP server."""

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from cotforge import cli, fixture_path, remote
from cotforge.errors import BackendError, MalformedResponseError, ValidationError
from cotforge.remote import RemoteQaGenerator

GOOD_BODY = {
    "question": "Which organ contains the mass?",
    "answer": "liver",
    "cot": "The image shows a mass. It overlaps the liver.",
}
# reply bodies by the name of their action
BODIES = {
    "ok": json.dumps(GOOD_BODY).encode(),
    "missing-answer": json.dumps({"question": "q?", "cot": "c."}).encode(),
    "not-json": b"<html>oops</html>",
    "extra-keys": json.dumps({**GOOD_BODY, "model": "qa-7", "usage": {"tokens": 9}}).encode(),
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "array": json.dumps(list(GOOD_BODY.values())).encode(),
    "empty-cot": json.dumps({**GOOD_BODY, "cot": ""}).encode(),
    "lone-surrogate": json.dumps({**GOOD_BODY, "answer": "liver\ud800"}).encode(),
    "surrogate-key": json.dumps({**GOOD_BODY, "\udc00": 1}).encode(),
    "not-utf8": json.dumps(GOOD_BODY).encode().replace(b"liver", b"f\xf3ie"),
}


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append(body)
        script = self.server.script
        action = script[min(len(self.server.requests) - 1, len(script) - 1)]
        if action in BODIES:
            payload = BODIES[action]
        elif action == "slow":
            time.sleep(0.5)
            payload = BODIES["ok"]
        elif isinstance(action, int):
            self.send_response(action)
            self.end_headers()
            return
        else:
            raise AssertionError(f"unknown action {action}")
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the timeout test hangs up mid-response on purpose

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    srv.daemon_threads = True  # don't wait out the "slow" handler on close
    srv.script = ["ok"]
    srv.requests = []
    thread = threading.Thread(
        target=lambda: srv.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()


def client(server, **kwargs):
    sleeps = []
    gen = RemoteQaGenerator(
        f"http://127.0.0.1:{server.server_address[1]}/qa",
        timeout=kwargs.pop("timeout", 5.0),
        backoff_base=kwargs.pop("backoff_base", 0.01),
        sleeper=sleeps.append,
        **kwargs,
    )
    return gen, sleeps


class TestHappyPath:
    def test_round_trip_and_payload(self, server):
        gen, _ = client(server)
        result = gen.generate("There is a mass in the liver.", "img_1", "CT")
        assert result == (GOOD_BODY["question"], GOOD_BODY["answer"],
                          GOOD_BODY["cot"])
        assert server.requests == [{
            "seed": "There is a mass in the liver.",
            "image_id": "img_1",
            "modality": "CT",
        }]
        # the fields the seed was rendered from are accepted, never sent
        assert gen.generate("There is a mass in the liver.", "img_1", "CT",
                            "mass", "liver") == result
        assert server.requests[1:] == server.requests[:1]

    def test_generator_id_names_endpoint(self, server):
        gen, _ = client(server)
        assert gen.generator_id.startswith("remote:http://127.0.0.1:")


class TestRetries:
    def test_5xx_then_success_with_exponential_backoff(self, server):
        server.script = [500, 503, "ok"]
        gen, sleeps = client(server)
        result = gen.generate("seed text", "img", "CT")
        assert result[1] == "liver"
        assert len(server.requests) == 3
        assert sleeps == [0.01, 0.02]

    def test_persistent_5xx_exhausts_attempts(self, server):
        server.script = [500]
        gen, sleeps = client(server)
        with pytest.raises(BackendError, match="attempt 3/3.*status 500"):
            gen.generate("seed text", "img", "CT")
        assert len(server.requests) == 3
        assert sleeps == [0.01, 0.02]

    def test_4xx_fails_without_retry(self, server):
        server.script = [404]
        gen, sleeps = client(server)
        with pytest.raises(BackendError, match="404"):
            gen.generate("seed text", "img", "CT")
        assert len(server.requests) == 1
        assert sleeps == []

    def test_timeout_retries_then_fails(self, server):
        server.script = ["slow"]
        gen, sleeps = client(server, timeout=0.05, attempts=2)
        with pytest.raises(BackendError, match="attempt 2/2"):
            gen.generate("seed text", "img", "CT")
        assert sleeps == [0.01]


    @pytest.mark.parametrize("endpoint", ["http://h:abc/qa", "http://h:99999/qa"])
    def test_unusable_url_fails_without_retry(self, endpoint):
        # http URLs with a host, but with a port requests rejects before
        # anything is sent
        sleeps = []
        gen = RemoteQaGenerator(endpoint, attempts=3, sleeper=sleeps.append)
        with pytest.raises(BackendError, match="request failed"):
            gen.generate("seed text", "img", "CT")
        assert sleeps == []


class TestMalformedResponses:
    def test_missing_field_no_retry(self, server):
        server.script = ["missing-answer"]
        gen, _ = client(server)
        with pytest.raises(MalformedResponseError, match="'answer'"):
            gen.generate("seed text", "img", "CT")
        assert len(server.requests) == 1

    def test_non_json_body(self, server):
        server.script = ["not-json"]
        gen, _ = client(server)
        with pytest.raises(MalformedResponseError, match="bad JSON"):
            gen.generate("seed text", "img", "CT")

    @pytest.mark.parametrize("action,message", [
        # deeper than the recursion limit: a RecursionError inside json
        ("deep", "bad JSON: maximum recursion depth"),
        ("array", "reply must be a JSON object"),
        ("empty-cot", "field 'cot' must be non-empty, got ''"),
        ("lone-surrogate", "bad JSON: a string holds a lone UTF-16 surrogate"),
        ("surrogate-key", "bad JSON: a string holds a lone UTF-16 surrogate"),
        ("not-utf8", "bad JSON: 'utf-8' codec can't decode"),
    ])
    def test_malformed_reply_no_retry(self, server, action, message):
        server.script = [action]
        gen, sleeps = client(server)
        with pytest.raises(MalformedResponseError, match=f"^{gen.endpoint}: {message}"):
            gen.generate("seed text", "img", "CT")
        assert len(server.requests) == 1
        assert sleeps == []

    def test_extra_keys_are_ignored(self, server):
        server.script = ["extra-keys"]
        gen, _ = client(server)
        assert gen.generate("seed text", "img", "CT") == (
            GOOD_BODY["question"], GOOD_BODY["answer"], GOOD_BODY["cot"])

    def test_too_deep_reply_exits_3_with_one_error_line(self, server, tmp_path, capsys):
        server.script = ["deep"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"forge": {
            "backend": "remote",
            "remote_endpoint": f"http://127.0.0.1:{server.server_address[1]}/qa",
            "remote_backoff_base": 0.0,
        }}))
        code = cli.main(["forge", "--config", str(config),
                         "--dataset", str(fixture_path("forge_dataset.jsonl")),
                         "--masks", str(fixture_path("forge_masks.jsonl")),
                         "--out", str(tmp_path / "corpus.jsonl")])
        stderr = capsys.readouterr().err
        assert code == 3
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        assert "bad JSON: maximum recursion depth" in stderr
        assert len(server.requests) == 1
        assert not (tmp_path / "corpus.jsonl").exists()

    def test_malformed_is_a_backend_error(self):
        assert issubclass(MalformedResponseError, BackendError)


class TestThreads:
    def test_one_session_per_thread(self, monkeypatch):
        created = []

        class FakeResponse:
            status_code = 200
            content = json.dumps(GOOD_BODY).encode()

        class FakeSession:
            def __init__(self):
                created.append(self)

            def post(self, url, json, timeout):
                return FakeResponse()

        monkeypatch.setattr(remote.requests, "Session", FakeSession)
        gen = RemoteQaGenerator("http://qa.invalid/qa")
        results = []
        threads = [
            threading.Thread(target=lambda: results.extend(
                gen.generate("seed text", "img", "CT") for _ in range(3)))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(results) == 6
        assert len(created) == 2


class TestConstruction:
    def test_bad_arguments_rejected(self):
        with pytest.raises(ValidationError):
            RemoteQaGenerator("")
        with pytest.raises(ValidationError):
            RemoteQaGenerator("http://x", attempts=0)
        with pytest.raises(ValidationError):
            RemoteQaGenerator("http://x", timeout=0.0)

    def test_negative_backoff_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"^field 'backoff_base' must lie in \[0, 86400\], got -0\.5$"):
            RemoteQaGenerator("http://x", backoff_base=-0.5)

    @pytest.mark.parametrize("field,value,message", [
        ("attempts", math.nan, "^field 'attempts' must be an integer, got a number$"),
        ("timeout", math.nan, "^field 'timeout' must be a finite number, got nan$"),
        ("backoff_base", math.nan, "^field 'backoff_base' must be a finite number, got nan$"),
        # socket.settimeout and time.sleep raise OverflowError far above a day
        ("timeout", math.inf, "^field 'timeout' must be a finite number, got inf$"),
        ("timeout", 1e300, r"^field 'timeout' must lie in \(0, 86400\], got 1e\+300$"),
        ("backoff_base", 1e300, r"^field 'backoff_base' must lie in \[0, 86400\], got 1e\+300$"),
    ])
    def test_nan_and_huge_numbers_rejected(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            RemoteQaGenerator("http://x", **{field: value})

    @pytest.mark.parametrize("field,value,message", [
        # range() would raise TypeError at the first request
        ("attempts", 1.5, "^field 'attempts' must be an integer, got a number$"),
        # requests would refuse it only at the first request
        ("endpoint", "ftp://h",
         "^field 'endpoint' must be an http:// or https:// URL with a host, got 'ftp://h'$"),
        ("endpoint", "http://:80/qa",
         "^field 'endpoint' must be an http:// or https:// URL with a host, "
         "got 'http://:80/qa'$"),
    ])
    def test_unusable_argument_rejected_at_construction(self, field, value, message):
        # the rules of the config's forge.remote_* fields
        with pytest.raises(ValidationError, match=message):
            RemoteQaGenerator(**{"endpoint": "http://x", field: value})

    def test_a_day_is_accepted(self):
        generator = RemoteQaGenerator("http://x", timeout=86400, backoff_base=86400)
        assert (generator.timeout, generator.backoff_base) == (86400, 86400)
