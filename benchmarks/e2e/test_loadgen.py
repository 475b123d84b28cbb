"""Self-test of the load generator against a fake line server.

Not part of tier-1 (``testpaths`` is ``tests/``); run with
``pytest benchmarks/e2e``.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

import run
from loadgen import (
    PipeConnection,
    closed_loop,
    open_loop,
    poisson_schedule,
    predict_line,
    zipf_keys,
)
from workloads import Inputs, Tally, check_responses


class FakeLineServer:
    """Answers each request line in order; can stall once and corrupt one answer."""

    def __init__(self, stall_at=None, stall_s=0.2, corrupt_at=None):
        self.stall_at, self.stall_s, self.corrupt_at = stall_at, stall_s, corrupt_at
        request_read, self.request_write = os.pipe()
        self.response_read, response_write = os.pipe()
        self.conn = PipeConnection(self.request_write, self.response_read)
        #: Most complete request lines ever waiting at the server at once.
        self.max_pending = 0
        self._thread = threading.Thread(
            target=self._serve, args=(request_read, response_write), daemon=True)
        self._thread.start()

    def _serve(self, request_read, response_write):
        buffer = b""
        while True:
            chunk = os.read(request_read, 1 << 16)
            if not chunk:
                break
            lines = (buffer + chunk).split(b"\n")
            buffer = lines.pop()
            self.max_pending = max(self.max_pending, len(lines))
            for line in lines:
                request = json.loads(line)
                if request["id"] == self.stall_at:
                    time.sleep(self.stall_s)
                response = {"id": request["id"], "status": "ok",
                            "predictions": [0.5] * len(request["entity_keys"])}
                if request["id"] == self.corrupt_at:
                    response["predictions"][0] = float("nan")
                os.write(response_write, (json.dumps(response) + "\n").encode())
        os.close(request_read)
        os.close(response_write)

    def close(self):
        os.close(self.request_write)
        self._thread.join(5.0)
        assert not self._thread.is_alive()
        os.close(self.response_read)


def test_open_loop_charges_a_stall_to_every_request_due_during_it():
    rate, count, stall_at, stall_s = 200, 200, 60, 0.2
    due = poisson_schedule(np.random.default_rng(0), rate, count)
    lines = [predict_line(i, [i], 0) for i in range(count)]
    server = FakeLineServer(stall_at=stall_at, stall_s=stall_s)
    try:
        server.conn.expect(count)
        start, sent_at = open_loop(lambda i: server.conn.send(lines[i]), due)
        received = server.conn.collect(timeout=10.0)
    finally:
        server.close()
    assert len(received) == count
    latency = np.array([arrival for _, arrival in received]) - (start + due)
    # The generator kept its schedule through the stall ...
    assert np.percentile(sent_at - (start + due), 99) < 0.05
    # ... and every request due while the server slept waited out the
    # rest of the stall, measured from the instant it was due.
    stalled = [i for i in range(stall_at, count) if due[i] < due[stall_at] + stall_s]
    assert len(stalled) >= 0.5 * rate * stall_s
    for i in stalled:
        assert latency[i] >= due[stall_at] + stall_s - due[i] - 0.005
    assert np.median(latency[:stall_at]) < 0.02


@pytest.mark.parametrize("cap", [1, 4, 32])
def test_closed_loop_never_exceeds_its_in_flight_cap(cap):
    lines = [predict_line(i, [i], 0) for i in range(400)]
    server = FakeLineServer()
    try:
        result = closed_loop(server.conn, lines, cap)
    finally:
        server.close()
    assert len(result.received) == len(lines)
    assert result.max_outstanding == cap
    assert server.max_pending <= cap
    assert [json.loads(line)["id"] for line, _ in result.received] == list(range(len(lines)))


def test_same_seed_same_request_sequence():
    inputs = Inputs(0.2)

    def sequence(seed):
        rng = np.random.default_rng(seed)
        requests = inputs.point_requests(rng, 50) + inputs.bulk_requests(rng, 100)
        return inputs.lines(requests), poisson_schedule(rng, 100, 50)

    lines_a, due_a = sequence(7)
    lines_b, due_b = sequence(7)
    lines_c, _ = sequence(8)
    assert lines_a == lines_b and np.array_equal(due_a, due_b)
    assert lines_a != lines_c
    keys = zipf_keys(np.random.default_rng(0), inputs.keys, 2000)
    _, counts = np.unique(keys, return_counts=True)
    assert counts.max() > 10 * np.median(counts)  # a few hot keys, a long tail


def test_a_corrupted_response_fails_the_check_and_the_exit_code(monkeypatch, capsys):
    requests = [np.array([i]) for i in range(20)]
    lines = [predict_line(i, keys, 0) for i, keys in enumerate(requests)]
    server = FakeLineServer(corrupt_at=11)
    try:
        result = closed_loop(server.conn, lines, 2)
    finally:
        server.close()
    tally = Tally()
    scores = check_responses(tally, "fake", requests, result.received)
    assert [i for i, s in enumerate(scores) if s is None] == [11]
    assert len(tally.problems) == 1 and "request 11" in tally.problems[0]

    def corrupted_run(workload, seed, seconds, trace, smoke, spec):
        return {"workload": workload, "seed": seed, "seconds": seconds, "trace": 0,
                "smoke": smoke, "correct": not tally.problems, "attempted": 20, "failed": 1,
                "problems": tally.problems, "metrics": {}, "extra": {}, "phases": {}}

    monkeypatch.setattr(run, "run_one", corrupted_run)
    assert run.main(["--workload", "fit_churn", "--smoke"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False
