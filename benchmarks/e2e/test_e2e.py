"""Smoke tests of the end-to-end benchmark on tiny shapes.

Run explicitly (the tier-1 suite does not collect this directory)::

    python -m pytest benchmarks/e2e -q

Every workload runs against a real ``repro serve`` at T=4096 for 1 s.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import time

import pytest

import loadgen
import run
import workloads as wl

BENCHMARK = run.load_benchmark()


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    return {
        name: run.measure(
            workload, 7, 1.0, True, warmup=0.2, setups=1, out_dir=out
        )
        for name, workload in wl.workloads(tiny=True).items()
    }


def test_benchmark_json_names_the_workloads():
    specs = wl.workloads()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(specs)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == specs[entry["name"]].why


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(results, trace):
    key = "per_layer" if trace else "end_to_end"
    for name, result in results.items():
        assert result["correct"] and not result["violations"], (
            name, result["violations"],
        )
        line = run.contract_line(dict(result, trace=trace), BENCHMARK)
        json.dumps(line)  # printed as the last stdout line, parsed as JSON
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in BENCHMARK[key]]
        for metric in BENCHMARK[key]:
            emitted = line["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert math.isfinite(emitted["value"]), (name, metric["name"])


def test_tail_percentile_follows_sample_count():
    assert run.tail_percentile(19) == 50
    assert run.tail_percentile(99) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(999) == 90
    assert run.tail_percentile(1000) == 99
    assert run.samples_for(99) == 1000 and run.samples_for(90) == 100
    for workload in wl.workloads().values():
        assert run.tail_percentile(run.samples_for(workload.tail)) == workload.tail


def test_injected_reply_mismatch_fails_the_run(monkeypatch, capsys):
    tiny = wl.workloads(tiny=True)
    serial = tiny["rpc_large_serial"]
    prepare = serial.prepare

    def corrupted(seed, basis, tmp):
        items = prepare(seed, basis, tmp)
        expected = items[0].expected
        elements = expected.elements.copy()
        elements[0] = (elements[0] + 1) % len(basis.labels)
        items[0].expected = dataclasses.replace(expected, elements=elements)
        return items

    monkeypatch.setattr(serial, "prepare", corrupted)
    monkeypatch.setattr(wl, "workloads", lambda tiny=False: {serial.name: serial})
    code = run.main(["--workload", serial.name, "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False


def test_open_loop_latency_counts_from_due_time():
    """A scheduled 50 ms stall is charged to every request it delayed."""
    rate, stall_at, stall = 200.0, 10, 0.05
    latency, lags = {}, []

    async def issue(index):
        if index == stall_at:
            time.sleep(stall)  # blocks the loop, as a stalled process would
        await asyncio.sleep(0)
        return index

    def on_reply(index, due, sent, reply):
        latency[index] = (time.perf_counter() - due, sent - due)

    asyncio.run(
        loadgen.open_loop(
            issue, rate=rate, seconds=0.5, on_reply=on_reply,
            on_failure=lambda index: None, lags=lags,
        )
    )
    assert len(latency) == 100
    assert latency[stall_at][0] >= stall
    # Requests due during the stall left late; their latency includes the
    # wait from when they were due, not just their own service time.
    for index in range(stall_at + 1, stall_at + 8):
        waited, late = latency[index]
        assert late >= stall - (index - stall_at) / rate - 0.002
        assert waited >= late
    assert max(lags) >= stall - 1 / rate - 0.002
    assert latency[90][0] < 0.02
