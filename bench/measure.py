"""One measuring process of a benchmark run.

Started by ``run.py`` as a fresh interpreter. It times its own set-up
(interpreter start, the ``uwfde`` import, building the config and one
warm-up trial), then runs chunks for ``--seconds``, timing two fixed
reference loops before and after each chunk, and prints one JSON object.
With ``--trace 1`` the chunks run with the layer spans installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from workloads import WORKLOADS, check_chunk, chunk_counts, chunk_seed  # noqa: E402

# Loop lengths: ~14 ms and ~20 ms on a 2-core Xeon VM, against chunks
# of ~200-350 ms.
PYTHON_LOOP_REPS = 1500
ARRAY_LOOP_REPS = 3
ARRAY_LOOP_ROWS = 2048
# Every process runs at least the chunks that run.py's count digest covers.
DIGEST_CHUNKS = 3


class ReferenceLoops:
    """Two fixed loops that import nothing from uwfde and so track only
    the host's speed, which swings in two ways on a shared VM.

    The python loop makes 64-point FFT, convolve and abs^2 calls, the
    interpreter-bound work of a transmit/equalize block. The array loop
    scores a 2^16 x 16 complex array against a vector in row blocks, the
    shape of the exhaustive ML search; it alone slows when the cache and
    memory are contended.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = np.exp(2j * np.pi * np.arange(64) / 7.0)
        self._taps = np.linspace(1.0, 0.1, 15) * np.exp(1j * np.arange(15))
        self._table = np.empty((2 ** 16, 16), dtype=complex)
        rng.standard_normal(out=self._table.view(float))  # no temporaries
        self._probe = self._table[12345] + 0.1
        self._weights = rng.uniform(0.5, 1.5, 16)

    @property
    def nbytes(self) -> int:
        """Resident bytes the loops hold between calls."""
        return self._table.nbytes

    def python_loop(self) -> float:
        start = time.perf_counter()
        for _ in range(PYTHON_LOOP_REPS):
            spectrum = np.fft.fft(self._x)
            np.convolve(self._taps, self._x)
            np.abs(spectrum) ** 2
        return time.perf_counter() - start

    def array_loop(self) -> float:
        start = time.perf_counter()
        for _ in range(ARRAY_LOOP_REPS):
            for row in range(0, len(self._table), ARRAY_LOOP_ROWS):
                block = self._table[row:row + ARRAY_LOOP_ROWS]
                (np.abs(self._probe - block) ** 2 @ self._weights).argmin()
        return time.perf_counter() - start

    def __call__(self) -> list[float]:
        """[python loop s, array loop s]."""
        return [self.python_loop(), self.array_loop()]


def run_chunks(harness, workload, seed: int, first_chunk: int,
               seconds: float, min_chunks: int) -> dict:
    """Time chunks ``first_chunk, first_chunk + 1, ...`` until ``seconds``
    have passed and at least ``min_chunks`` ran.

    Returns per-chunk seconds, counts and failure reasons, the
    reference-loop seconds around them (one more than the chunks) and the
    peak resident memory in MB, less what the reference loops hold.
    """
    trials = workload.trials_per_chunk
    reference = ReferenceLoops()
    chunks, refs = [], [reference()]
    start = time.perf_counter()
    k = first_chunk
    while len(chunks) < min_chunks or time.perf_counter() - start < seconds:
        chunk = {"k": k, "counts": None, "error": None}
        t0 = time.perf_counter()
        try:
            result = workload.run(harness, trials, chunk_seed(seed, k))
        except Exception as exc:  # a failed chunk is counted, not fatal
            chunk["s"] = time.perf_counter() - t0
            chunk["error"] = f"{type(exc).__name__}: {exc}"
        else:
            chunk["s"] = time.perf_counter() - t0
            chunk["error"] = check_chunk(workload, result, trials)
            chunk["counts"] = chunk_counts(workload, result)
        refs.append(reference())
        chunks.append(chunk)
        k += 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return {"chunks": chunks, "refs": refs,
            "peak_rss_mb": (peak - reference.nbytes) / 2 ** 20}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-chunk", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent at spawn")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from uwfde import harness
    workload = WORKLOADS[args.workload]
    workload.run(harness, 1, chunk_seed(args.seed, args.first_chunk))
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9

    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        with tracer.installed(harness):
            out = run_chunks(harness, workload, args.seed, args.first_chunk,
                             args.seconds, DIGEST_CHUNKS)
        out["trace"] = {"calls": tracer.calls, "self_ns": tracer.self_ns,
                        "counts": tracer.counts}
    else:
        out = run_chunks(harness, workload, args.seed, args.first_chunk,
                         args.seconds, DIGEST_CHUNKS)
    out["setup_s"] = setup_s
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
