"""Fast checks of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import measure  # noqa: E402
import run  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from uwfde import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _run_cli(capsys, monkeypatch, *args) -> dict:
    monkeypatch.chdir(ROOT)
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(capsys, monkeypatch, name,
                                                trace, section):
    result = _run_cli(capsys, monkeypatch, "--workload", name, "--seed", "1",
                      "--seconds", "0.2", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_workloads_match_the_benchmark_file():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


class _WrongBits:
    """A harness whose every other ``run_ber_sweep`` miscounts bits."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(harness, name)

    def run_ber_sweep(self, config):
        self.calls += 1
        result = harness.run_ber_sweep(config)
        if self.calls % 2 == 0:
            result.records[0].bits += 1  # a miscount the harness never makes
        return result


def test_wrong_bits_total_counts_as_failed():
    workload = WORKLOADS["ber-sweep"]
    record = measure.run_chunks(_WrongBits(), workload, 3, 0, 0.0, 4)
    record.update(setup_s=0.1, peak_rss_mb=1.0)
    assert [c["error"] is None for c in record["chunks"]] == [True, False] * 2
    assert "bits" in record["chunks"][1]["error"]
    result, diagnostics = run.summarize("ber-sweep", [record], 0)
    assert result["attempted"] == 4 and result["failed"] == 2
    assert not result["correct"]
    assert len(diagnostics["chunks_failed"]) == 2


def test_wrong_ber_leaves_the_band():
    workload = WORKLOADS["ber-sweep"]
    record = measure.run_chunks(harness, workload, 3, 0, 0.0, 2)
    by_chunk = {c["k"]: [[min(b, e + b // 4), b] for e, b in c["counts"]]
                for c in record["chunks"]}
    assert run.band_violations("ber-sweep", by_chunk)


def _names():
    return {name: getattr(harness, name)
            for names in LAYERS.values() for name in names}


@pytest.mark.parametrize("name", ["doppler-track", "ml-exhaustive"])
def test_spans_leave_results_unchanged_and_are_restored(name):
    workload = WORKLOADS[name]
    before = _names()
    tracer = Tracer()
    with tracer.installed(harness):
        assert all(getattr(harness, n) is not f for n, f in before.items())
        traced = measure.run_chunks(harness, workload, 5, 0, 0.0, 2)
    assert _names() == before
    assert all(getattr(harness, n) is f for n, f in before.items())
    untraced = measure.run_chunks(harness, workload, 5, 0, 0.0, 2)
    assert run.digest(traced) == run.digest(untraced)

    calls = tracer.calls
    assert calls["harness.run_points"] == 2
    assert calls["txrx.transmit_block"] > 0 and calls["harness.trial"] > 0
    if name == "doppler-track":
        assert calls["channel.evolve"] > 0 and calls["detectors.rls_step"] > 0
    else:
        assert calls["channel.evolve"] == 0 and calls["detectors.ml_detect"] > 0
        assert (tracer.counts["detectors.ml_candidates"]
                == calls["detectors.ml_detect"] * 2 ** 16)


def test_spans_are_restored_after_an_error():
    before = _names()
    with pytest.raises(RuntimeError):
        with Tracer().installed(harness):
            raise RuntimeError
    assert all(getattr(harness, n) is f for n, f in before.items())


def test_self_times_cover_the_traced_call():
    tracer = Tracer()
    workload = WORKLOADS["multirelay-rls"]
    with tracer.installed(harness):
        start = time.perf_counter_ns()
        workload.run(harness, 1, 2)
        wall = time.perf_counter_ns() - start
    assert 0.9 * wall < sum(tracer.self_ns.values()) <= wall
    assert tracer.calls["channel.evolve"] == 0
    assert tracer.calls["harness.run_points"] == 1
