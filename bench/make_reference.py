"""Regenerate ``bench/reference.json``, the BER band the benchmark checks.

For every workload, runs ``TRIALS[name]`` single-trial harness calls with
chunk seeds derived from ``REFERENCE_SEED`` (a seed the benchmark's own
runs are not expected to use) and stores, per (detector, grid point), the
pooled BER and the standard deviation of the per-trial BER. All bits of a
trial share one channel draw, so the trial, not the bit, is the
independent sample the band is built from.

Run from the repository root:

    python3 bench/make_reference.py

It uses one process per CPU and takes about ten minutes on two cores.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, chunk_counts, chunk_seed, record_keys  # noqa: E402

REFERENCE_SEED = 2 ** 40
# Trials per workload: the ML workload costs ~0.3 s a trial, the rest
# ~25-60 ms.
TRIALS = {"multirelay-rls": 4000, "ber-sweep": 4000, "ml-exhaustive": 1200,
          "doppler-track": 3000}
# Band half-width in standard errors of the run-minus-reference difference.
Z = 6.0
PATH = os.path.join(HERE, "reference.json")


def _trials(job):
    name, start, stop = job
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from uwfde import harness
    workload = WORKLOADS[name]
    return [chunk_counts(workload, workload.run(
                harness, 1, chunk_seed(REFERENCE_SEED, k)))
            for k in range(start, stop)]


def summarize(name: str, counts: np.ndarray) -> dict:
    """Band entry of one workload from its (trials, records, 2) counts."""
    per_trial = counts[:, :, 0] / counts[:, :, 1]
    pooled = counts[:, :, 0].sum(axis=0) / counts[:, :, 1].sum(axis=0)
    return {
        "trials": len(counts),
        "records": {
            key: {"ber": float(p), "trial_sd": float(sd)}
            for key, p, sd in zip(record_keys(WORKLOADS[name]), pooled,
                                  per_trial.std(axis=0, ddof=1))},
    }


def main() -> int:
    os.environ.pop("UWFDE_WORKERS", None)
    # One BLAS thread per process: the ML search's matrix product would
    # otherwise oversubscribe the cores and run ~3x slower.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    reference = {"z": Z, "seed": REFERENCE_SEED, "workloads": {}}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count()) as pool:
        for name in WORKLOADS:
            started = time.monotonic()
            total, step = TRIALS[name], 50
            jobs = [(name, s, min(s + step, total)) for s in range(0, total, step)]
            counts = np.array([trial for part in pool.map(_trials, jobs)
                               for trial in part], dtype=float)
            reference["workloads"][name] = summarize(name, counts)
            print(f"{name}: {total} trials in {time.monotonic() - started:.0f} s",
                  file=sys.stderr)
    with open(PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
