"""Mock and remote completion backends, batching, and latency accounting."""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from ragner.config import GeneratorSpec, load_config
from ragner.corpus import EntitySchema, EntityType, NerOutput
from ragner.errors import ConfigError, GenerationTimeout, HttpError
from ragner.generation import (
    GenerationResult,
    GenerationTask,
    generate,
    generate_batch,
    latency_summary,
    prompt_hash,
)
from ragner.promptkit import PromptExample, build_prompt, parse_output, render_output

from helpers import product_schema


def make_prompt(examples=(), query="find the lamp"):
    """A prompt of (text, gold output) examples."""
    return build_prompt(product_schema(), [PromptExample(*ex) for ex in examples], query)


def gold(product=(), time_=()):
    return NerOutput({"product": list(product), "time": list(time_)})


# --- spec validation --------------------------------------------------------------


def test_spec_rejects_unknown_backend():
    with pytest.raises(ConfigError, match="backend must be one of"):
        load_config(None, ["generator.backend=local-llm"])


def test_spec_rejects_remote_without_endpoint():
    with pytest.raises(ValueError):
        GeneratorSpec(backend="remote-completion")


def test_spec_rejects_bad_wire_format():
    with pytest.raises(ConfigError, match="wire_format must be one of"):
        load_config(None, ["generator={backend: remote-completion, endpoint: 'http://x', "
                           "wire_format: grpc}"])


def test_spec_rejects_zero_parallelism():
    with pytest.raises(ValueError):
        GeneratorSpec(parallelism=0)


def test_prompt_hash_is_sha256_of_rendered_text():
    prompt = make_prompt()
    assert prompt_hash(prompt) == hashlib.sha256(prompt.rendered.encode("utf-8")).hexdigest()
    assert len(prompt_hash(prompt)) == 64
    assert prompt_hash(make_prompt(query="a")) != prompt_hash(make_prompt(query="b"))


# --- mock backends ----------------------------------------------------------------


def test_mock_gold_renders_the_gold_output():
    task = GenerationTask(1, make_prompt(), gold(product=["lamp"]))
    result = generate(task, GeneratorSpec(backend="mock-gold"))
    assert result.error is None
    assert result.completion_text == "{product:[lamp], time:[]}"


def test_mock_gold_round_trips_through_the_parser():
    g = gold(product=["15-inch macbook"], time_=["tomorrow"])
    task = GenerationTask(1, make_prompt(), g)
    result = generate(task, GeneratorSpec(backend="mock-gold"))
    parsed = parse_output(result.completion_text, product_schema())
    assert parsed.entries == g.entries


def test_mock_gold_restricts_to_prompt_schema():
    wide = NerOutput({"product": ["lamp"], "time": [], "person": ["Ada"]})
    task = GenerationTask(1, make_prompt(), wide)
    result = generate(task, GeneratorSpec(backend="mock-gold"))
    assert result.completion_text == "{product:[lamp], time:[]}"


def test_mock_echo_nearest_repeats_the_adjacent_example():
    examples = [
        ("far example", gold(product=["chair"])),
        ("near example", gold(time_=["today"])),
    ]
    task = GenerationTask(1, make_prompt(examples), None)
    result = generate(task, GeneratorSpec(backend="mock-echo-nearest"))
    assert result.completion_text == "{product:[], time:[today]}"


def test_mock_echo_nearest_with_no_examples_is_empty():
    task = GenerationTask(1, make_prompt(), None)
    result = generate(task, GeneratorSpec(backend="mock-echo-nearest"))
    assert result.completion_text == "{product:[], time:[]}"


def test_mock_backends_are_deterministic():
    tasks = [
        GenerationTask(i, make_prompt(query=f"query {i}"), gold(product=[f"item{i}"]))
        for i in range(6)
    ]
    spec = GeneratorSpec(backend="mock-gold", parallelism=3)
    first = [r.completion_text for r in generate_batch(tasks, spec)]
    second = [r.completion_text for r in generate_batch(tasks, spec)]
    assert first == second == [f"{{product:[item{i}], time:[]}}" for i in range(6)]


# --- batching ----------------------------------------------------------------------


def test_batch_results_keep_task_order_under_random_delays():
    tasks = [
        GenerationTask(i, make_prompt(query=f"q{i}"), gold(product=[f"p{i}"]))
        for i in range(10)
    ]
    spec = GeneratorSpec(
        backend="mock-gold", parallelism=4, mock_delay=0.001, mock_jitter=0.004
    )
    results = generate_batch(tasks, spec)
    assert [r.completion_text for r in results] == [
        f"{{product:[p{i}], time:[]}}" for i in range(10)]
    assert all(r.latency > 0 for r in results)


def test_batch_isolates_per_task_failures(completion_server):
    _CompletionHandler.reject_text = "reject me"
    tasks = [
        GenerationTask(0, make_prompt(query="a lamp"), None),
        GenerationTask(1, make_prompt(query="reject me"), None),  # will fail: HTTP 400
        GenerationTask(2, make_prompt(query="c"), None),
    ]
    results = generate_batch(tasks, remote_spec(completion_server))
    assert [r.error is None for r in results] == [True, False, True]
    assert "HttpError" in results[1].error
    assert results[1].completion_text == ""
    assert results[0].completion_text == "{product:[lamp], time:[]}"
    assert results[2].completion_text == "{}"


def test_fixed_mock_delay_shows_up_in_latency():
    tasks = [
        GenerationTask(i, make_prompt(query=f"q{i}"), gold()) for i in range(5)
    ]
    spec = GeneratorSpec(backend="mock-gold", mock_delay=0.02, parallelism=1)
    results = generate_batch(tasks, spec)
    summary = latency_summary(results)
    assert summary["count"] == 5
    assert 0.02 <= summary["median"] < 0.1


def test_latency_summary_statistics():
    def fake(latency):
        return GenerationResult("", latency)

    summary = latency_summary([fake(x) for x in (0.5, 0.1, 0.3, 0.2, 0.4)])
    assert summary == {"count": 5, "median": 0.3, "mean": 0.3, "p95": 0.5}


def test_latency_summary_empty():
    assert latency_summary([]) == {"count": 0, "median": None, "mean": None, "p95": None}


# --- remote backend -------------------------------------------------------------------


class _CompletionHandler(BaseHTTPRequestHandler):
    fail_first = 0
    fail_status = 502
    mode = "text"
    reject_text: str | None = None  # a prompt holding it is refused, in any mode
    sleep = 0.0
    bodies: list[dict] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).bodies.append(body)
        if type(self).sleep:
            time.sleep(type(self).sleep)
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(type(self).fail_status)
            self.end_headers()
            return
        prompt_text = body.get("prompt") or body["messages"][0]["content"]
        rejected = type(self).reject_text
        if type(self).mode == "reject" or (rejected and rejected in prompt_text):
            self.send_response(400)
            self.end_headers()
            return
        completion = "{product:[lamp], time:[]}" if "lamp" in prompt_text else "{}"
        if type(self).mode == "text":
            doc = {"text": completion}
        elif type(self).mode == "chat":
            doc = {"choices": [{"message": {"content": completion}}]}
        elif type(self).mode == "choices-text":
            doc = {"choices": [{"text": completion}]}
        elif type(self).mode == "list":
            doc = [completion]
        elif type(self).mode == "not-json":
            doc = None
        else:
            doc = {"unexpected": True}
        payload = b"<html>busy</html>" if doc is None else json.dumps(doc).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def completion_server():
    _CompletionHandler.fail_first = 0
    _CompletionHandler.fail_status = 502
    _CompletionHandler.mode = "text"
    _CompletionHandler.reject_text = None
    _CompletionHandler.sleep = 0.0
    _CompletionHandler.bodies = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CompletionHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/completions"
    server.shutdown()
    thread.join()


def remote_spec(endpoint, **kwargs):
    defaults = dict(
        backend="remote-completion",
        endpoint=endpoint,
        model_name="test-model",
        timeout=5.0,
        max_retries=2,
    )
    defaults.update(kwargs)
    return GeneratorSpec(**defaults)


def test_remote_prompt_wire_format(completion_server):
    task = GenerationTask(1, make_prompt(), None)
    result = generate(task, remote_spec(completion_server))
    assert result.completion_text == "{product:[lamp], time:[]}"
    assert len(_CompletionHandler.bodies) == 1
    body = _CompletionHandler.bodies[0]
    assert body["prompt"] == task.prompt.rendered
    assert body["model"] == "test-model"
    assert body["max_tokens"] == 256
    assert body["temperature"] == 0.0


def test_remote_chat_wire_format(completion_server):
    _CompletionHandler.mode = "chat"
    task = GenerationTask(1, make_prompt(), None)
    result = generate(task, remote_spec(completion_server, wire_format="chat"))
    assert result.completion_text == "{product:[lamp], time:[]}"
    body = _CompletionHandler.bodies[0]
    assert body["messages"] == [{"role": "user", "content": task.prompt.rendered}]


def test_remote_choices_text_variant(completion_server):
    _CompletionHandler.mode = "choices-text"
    task = GenerationTask(1, make_prompt(), None)
    result = generate(task, remote_spec(completion_server))
    assert result.completion_text == "{product:[lamp], time:[]}"


def test_remote_retries_5xx_then_succeeds(completion_server):
    _CompletionHandler.fail_first = 2
    task = GenerationTask(1, make_prompt(), None)
    result = generate(task, remote_spec(completion_server))
    assert result.error is None
    assert len(_CompletionHandler.bodies) == 3


def test_remote_gives_up_after_max_retries(completion_server):
    _CompletionHandler.fail_first = 99
    task = GenerationTask(1, make_prompt(), None)
    with pytest.raises(HttpError):
        generate(task, remote_spec(completion_server, max_retries=1))
    assert len(_CompletionHandler.bodies) == 2


def test_remote_4xx_fails_without_retry(completion_server):
    _CompletionHandler.mode = "reject"
    task = GenerationTask(1, make_prompt(), None)
    with pytest.raises(HttpError):
        generate(task, remote_spec(completion_server, max_retries=3))
    assert len(_CompletionHandler.bodies) == 1


def test_remote_timeout_raises(completion_server):
    _CompletionHandler.sleep = 1.0
    task = GenerationTask(1, make_prompt(), None)
    with pytest.raises(GenerationTimeout):
        generate(task, remote_spec(completion_server, timeout=0.2, max_retries=0))


def test_remote_missing_text_field(completion_server):
    _CompletionHandler.mode = "broken"
    task = GenerationTask(1, make_prompt(), None)
    with pytest.raises(HttpError, match="no text field"):
        generate(task, remote_spec(completion_server))


def test_remote_unreachable_is_captured_in_batch():
    spec = remote_spec("http://127.0.0.1:1/v1/completions", timeout=0.2, max_retries=0)
    tasks = [GenerationTask(i, make_prompt(query=f"q{i}"), None) for i in range(3)]
    results = generate_batch(tasks, spec)
    assert len(results) == 3
    assert all(r.error is not None for r in results)
    assert all("HttpError" in r.error for r in results)


def test_remote_render_parse_agreement(completion_server):
    # the wire carries exactly what render_output produced server side
    task = GenerationTask(1, make_prompt(), None)
    result = generate(task, remote_spec(completion_server))
    parsed = parse_output(result.completion_text, product_schema())
    assert render_output(parsed) == result.completion_text


def test_remote_retries_429_then_succeeds(completion_server):
    _CompletionHandler.fail_first = 1
    _CompletionHandler.fail_status = 429
    result = generate(GenerationTask(1, make_prompt(), None), remote_spec(completion_server))
    assert result.completion_text == "{product:[lamp], time:[]}"
    assert len(_CompletionHandler.bodies) == 2


@pytest.mark.parametrize("mode, match", [
    ("not-json", "non-JSON response"),
    ("list", "no text field: list"),
])
def test_remote_malformed_body_is_a_generation_error(completion_server, mode, match):
    _CompletionHandler.mode = mode
    with pytest.raises(HttpError, match=match):
        generate(GenerationTask(1, make_prompt(), None), remote_spec(completion_server))
    assert len(_CompletionHandler.bodies) == 1  # a malformed answer is not retried
    [result] = generate_batch([GenerationTask(2, make_prompt(), None)],
                              remote_spec(completion_server))
    assert result.error.startswith("HttpError")
