"""uwfde benchmark: Monte Carlo throughput of the public harness entry points.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``. Every measurement runs in a
fresh interpreter (``measure.py``) with ``workers=1``; ``UWFDE_WORKERS``
is cleared for them.

``--trace 0`` splits ``--seconds`` over ``SLICES`` measuring processes and
reports the end-to-end metrics:

- ``blocks_per_ref``: blocks simulated per reference duration, the median
  over chunks of chunk blocks / (chunk s / reference s). The reference is
  timed just before and just after each chunk (``measure.ReferenceLoops``,
  weighted per workload). Dividing by it cancels most of the host's speed
  swings, which move raw blocks/s by up to 2x within seconds on a shared
  VM.
- ``setup_s``: seconds from spawning a fresh interpreter to its first
  timed chunk (``uwfde`` import, config, one warm-up trial), median over
  the measuring processes.
- ``peak_rss_mb``: peak resident memory of a measuring process, less the
  array the reference loops hold, median.

``--trace 1`` runs one untraced and one traced process, half the seconds
each, and reports the per-layer metrics: calls, self time and share of
traced wall time per layer and the counters of ``spans.py`` from the
traced process; raw blocks/s, chunk-time percentiles, chunk count and
reference-loop time from the untraced one; and the trace coverage and
overhead.

Both modes check every chunk's counts, check the pooled BER of every
(detector, grid point) against the band in ``reference.json``, require
identical counts wherever two processes ran the same chunk, and print a
sha256 of the first ``DIGEST_CHUNKS`` chunks' counts with an environment
record on the line before the result. The last line is the result JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from measure import DIGEST_CHUNKS  # noqa: E402
from spans import COUNTERS, LAYERS  # noqa: E402
from workloads import WORKLOADS, record_keys  # noqa: E402

SLICES = 4
# Chunk numbers of measuring process i start at i * CHUNK_STRIDE, so the
# processes of one run simulate distinct trials.
CHUNK_STRIDE = 1_000_000
CHILD_GRACE_S = 60.0
REFERENCE = os.path.join(HERE, "reference.json")


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int, cleared_workers: str | None) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "workload_seed": seed,
        "uwfde_workers_cleared": cleared_workers,
    }


def measure(workload: str, seed: int, seconds: float, first_chunk: int,
            trace: int) -> dict:
    """Run one measuring process to completion and return its record."""
    env = dict(os.environ)
    env.pop("UWFDE_WORKERS", None)
    cmd = [sys.executable, os.path.join(HERE, "measure.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--first-chunk", str(first_chunk),
           "--trace", str(trace),
           "--spawned-ns", str(time.monotonic_ns())]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=seconds + CHILD_GRACE_S)
    if done.returncode != 0:
        raise RuntimeError(f"measuring process exited {done.returncode}:\n"
                           f"{done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def reference_s(record: dict, weight: float) -> list[float]:
    """The reference duration around each chunk: the weighted geometric
    mean of the python and array loops, each averaged over the loops
    timed just before and just after the chunk."""
    refs = np.asarray(record["refs"])
    around = 0.5 * (refs[1:] + refs[:-1])
    return list(around[:, 0] ** weight * around[:, 1] ** (1.0 - weight))


def calibrated_rates(record: dict, workload) -> list[float]:
    """Blocks per reference duration of every successful chunk."""
    blocks = workload.trials_per_chunk * workload.blocks_per_trial()
    refs = reference_s(record, workload.python_weight)
    return [blocks / (c["s"] / ref) for c, ref in zip(record["chunks"], refs)
            if c["error"] is None]


def digest(record: dict) -> str:
    counts = [c["counts"] for c in record["chunks"][:DIGEST_CHUNKS]]
    return hashlib.sha256(json.dumps(counts).encode()).hexdigest()


def pool_counts(records: list[dict]) -> tuple[dict, list[str]]:
    """Counts per distinct chunk number; reports chunks that two processes
    ran with different results."""
    by_chunk, problems = {}, []
    for record in records:
        for c in record["chunks"]:
            if c["error"] is not None:
                continue
            seen = by_chunk.setdefault(c["k"], c["counts"])
            if seen != c["counts"]:
                problems.append(f"chunk {c['k']} differs between processes")
    return by_chunk, problems


def band_violations(name: str, by_chunk: dict) -> list[str]:
    """(detector, grid point) records whose pooled BER leaves the band.

    The band is ``z`` standard errors of the run-minus-reference
    difference. The run's error is clustered by chunk, since all bits of a
    trial share a channel draw; it is the larger of the one the chunks show
    and the one the reference's per-trial spread predicts. Rare-error
    records are heavy tailed, and one bad trial in a run then widens its
    own band instead of failing it.
    """
    with open(REFERENCE) as handle:
        reference = json.load(handle)
    ref = reference["workloads"][name]
    counts = np.array(list(by_chunk.values()), dtype=float)
    if counts.size == 0:
        return ["no successful chunk to check"]
    chunk_ber = counts[:, :, 0] / counts[:, :, 1]
    chunks = len(chunk_ber)
    trials = chunks * WORKLOADS[name].trials_per_chunk
    run_ber = counts[:, :, 0].sum(axis=0) / counts[:, :, 1].sum(axis=0)
    run_var = (chunk_ber.var(axis=0, ddof=1) / chunks if chunks > 1
               else np.zeros(len(run_ber)))
    problems = []
    for key, ber, var in zip(record_keys(WORKLOADS[name]), run_ber, run_var):
        band = ref["records"][key]
        sd = band["trial_sd"]
        tolerance = reference["z"] * math.sqrt(
            sd * sd / ref["trials"] + max(var, sd * sd / trials))
        if abs(ber - band["ber"]) > tolerance:
            problems.append(f"{key}: BER {ber:.6g} outside "
                            f"{band['ber']:.6g} +- {tolerance:.3g}")
    return problems


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(records: list[dict], workload) -> dict:
    rates = [r for record in records for r in calibrated_rates(record, workload)]
    return {
        "blocks_per_ref": metric(statistics.median(rates), "blocks/ref"),
        "setup_s": metric(statistics.median(r["setup_s"] for r in records), "s"),
        "peak_rss_mb": metric(
            statistics.median(r["peak_rss_mb"] for r in records), "MB"),
    }


def per_layer(untraced: dict, traced: dict, workload) -> dict:
    blocks = workload.trials_per_chunk * workload.blocks_per_trial()
    trace = traced["trace"]
    wall_s = sum(c["s"] for c in traced["chunks"])
    out = {}
    for layer in LAYERS:
        self_s = trace["self_ns"][layer] / 1e9
        out[f"{layer}.calls"] = metric(trace["calls"][layer], "count")
        out[f"{layer}.self_s"] = metric(self_s, "s")
        out[f"{layer}.share"] = metric(self_s / wall_s, "ratio")
    for name in COUNTERS:
        out[name] = metric(trace["counts"][name], "count")
    out["detectors.ml_bytes_computed"]["unit"] = "bytes"
    out["harness.blocks"] = metric(blocks * len(traced["chunks"]), "count")

    chunk_s = [c["s"] for c in untraced["chunks"]]
    out["harness.blocks_per_s_raw"] = metric(
        blocks * len(chunk_s) / sum(chunk_s), "blocks/s")
    out["harness.chunk_s_p50"] = metric(np.percentile(chunk_s, 50), "s")
    out["harness.chunk_s_p90"] = metric(np.percentile(chunk_s, 90), "s")
    out["harness.chunks"] = metric(len(chunk_s), "count")
    out["ref.loop_s"] = metric(
        statistics.median(reference_s(untraced, workload.python_weight)), "s")
    out["trace.coverage"] = metric(
        sum(trace["self_ns"].values()) / 1e9 / wall_s, "ratio")
    out["trace.overhead"] = metric(
        statistics.median(calibrated_rates(traced, workload))
        / statistics.median(calibrated_rates(untraced, workload)), "ratio")
    return out


def summarize(name: str, records: list[dict], trace: int) -> tuple[dict, dict]:
    """The result line of a run and its diagnostics, from the records of
    its measuring processes."""
    workload = WORKLOADS[name]
    errors = [f"chunk {c['k']}: {c['error']}" for r in records
              for c in r["chunks"] if c["error"] is not None]
    if any(all(c["error"] is not None for c in r["chunks"]) for r in records):
        raise RuntimeError("a measuring process had no successful chunk:\n"
                           + "\n".join(errors[:5]))
    by_chunk, problems = pool_counts(records)
    problems += band_violations(name, by_chunk)
    digests = [digest(r) for r in records if r["chunks"][0]["k"] == 0]
    if len(set(digests)) != 1:
        problems.append(f"count digests differ: {digests}")
    metrics = (per_layer(records[0], records[1], workload) if trace
               else end_to_end(records, workload))
    result = {"correct": not errors and not problems,
              "attempted": sum(len(r["chunks"]) for r in records),
              "failed": len(errors), "metrics": metrics}
    return result, {"digest": digests[0], "chunks_failed": errors[:5],
                    "problems": problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join("src", "uwfde", "harness.py")):
        print("run from the repository root: src/uwfde/harness.py not found",
              file=sys.stderr)
        return 2

    cleared = os.environ.pop("UWFDE_WORKERS", None)
    env = environment(args.seed, cleared)
    try:
        if args.trace:
            records = [measure(args.workload, args.seed, args.seconds / 2, 0, t)
                       for t in (0, 1)]
        else:
            records = [measure(args.workload, args.seed, args.seconds / SLICES,
                               i * CHUNK_STRIDE, 0) for i in range(SLICES)]
        result, diagnostics = summarize(args.workload, records, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    env["loadavg_end"] = list(os.getloadavg())
    print(json.dumps({"env": env, **diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
