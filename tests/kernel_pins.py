"""Report which pinned CSVs move under other CPU kernels.

numpy and OpenBLAS pick their kernels at run time, and a few environment
variables pick others from the same binaries. This script runs every
command in ``pins.json`` once in a subprocess at the default settings,
then once under each setting of ``KERNEL_SETTINGS``, where only that one
variable differs from the default run's environment, and prints each pin
whose CSV moved with the columns that differ:

    PYTHONPATH=src python tests/kernel_pins.py

A setting that numpy refuses, or that leaves the kernels as they were
(OpenBLAS runs its own choice for a core it cannot use), is reported as
skipped, with the reason. The script writes only temporary files and exits
0 whatever moved; it exits 1 only when a run fails. pytest does not collect
it (it is not a ``test_*.py`` file).
"""

import argparse
import csv
import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from make_pins import PINS, csv_digest

# The variables a setting changes; the default run clears all of them.
KERNEL_VARIABLES = ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS",
                    "NPY_DISABLE_CPU_FEATURES")
_NO_AVX512 = "AVX512_SPR,AVX512_ICL,X86_V4"
KERNEL_SETTINGS = [
    *(("OPENBLAS_CORETYPE", core) for core in
      ("Nehalem", "Sandybridge", "Haswell", "Zen", "SkylakeX")),
    ("OPENBLAS_NUM_THREADS", "1"),
    ("NPY_DISABLE_CPU_FEATURES", _NO_AVX512),
    ("NPY_DISABLE_CPU_FEATURES", _NO_AVX512 + ",X86_V3"),
]
# numpy's x86 feature levels, the highest enabled one naming a kernel set
_LEVELS = ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3", "X86_V2")


def kernels() -> dict:
    """The kernels this process runs: OpenBLAS's core and thread count
    (None where numpy bundles no OpenBLAS it can be asked about) and
    numpy's enabled CPU features."""
    core = threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            name = getattr(lib, f"scipy_openblas_get_corename{suffix}", None)
            if name is not None:
                name.argtypes, name.restype = [], ctypes.c_char_p
                count = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                count.argtypes, count.restype = [], ctypes.c_int
                core, threads = name().decode(), count()
                break
    return {"core": core, "threads": threads,
            "features": sorted(k for k, on in __cpu_features__.items() if on)}


def describe(probe: dict) -> str:
    level = next((f for f in _LEVELS if f in probe["features"]), "baseline")
    return (f"OpenBLAS core {probe['core'] or 'unknown'}, threads "
            f"{probe['threads']}, numpy {level}")


def pin_csv(directory: Path, index: int) -> Path:
    return directory / str(index) / "pin.csv"


def run_pins(directory: Path) -> None:
    """Write each pin's CSV at one worker to ``pin_csv(directory, index)``,
    in the order of ``pins.json``."""
    pins = json.loads(PINS.read_text())
    for index, args in enumerate(pins["digests"]):
        where = directory / str(index)
        where.mkdir(parents=True)
        csv_digest(args, pins["configs"], where)


def child(env: dict, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, __file__, *args], env=env,
                          capture_output=True, text=True)


def reason(stderr: str) -> str:
    """What a child died of, on one line: the message after its
    traceback's last indented frame line."""
    lines = stderr.strip().splitlines()
    frames = [i for i, line in enumerate(lines) if line.startswith(" ")]
    return " ".join(lines[frames[-1] + 1:] if frames else lines[-1:]) or (
        "no output")


def moved_columns(before: Path, after: Path) -> str | None:
    """None when the two CSVs are byte-identical, else which columns
    differ and in how many rows."""
    if before.read_bytes() == after.read_bytes():
        return None
    with open(before, newline="") as a, open(after, newline="") as b:
        old, new = list(csv.reader(a)), list(csv.reader(b))
    if len(old) != len(new) or old[0] != new[0]:
        return "the header or the row count differs"
    rows = len(old) - 1
    counts = [sum(x[j] != y[j] for x, y in zip(old[1:], new[1:]))
              for j in range(len(old[0]))]
    return ", ".join(f"{name} ({count} of {rows} rows)"
                     for name, count in zip(old[0], counts) if count)


def report() -> int:
    """Run the pins under each setting and print what moved."""
    pins = json.loads(PINS.read_text())
    commands = list(pins["digests"])
    base = {k: v for k, v in os.environ.items() if k not in KERNEL_VARIABLES}
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        default = child(base, "--probe")
        run = default if default.returncode else child(
            base, "--run", str(root / "default"))
        if run.returncode != 0:
            print(f"default settings: failed: {reason(run.stderr)}")
            return 1
        probe = json.loads(default.stdout)
        held = sum(hashlib.sha256(pin_csv(root / "default", i).read_bytes())
                   .hexdigest() == pins["digests"][args]
                   for i, args in enumerate(commands))
        print(f"default settings ({describe(probe)}): {held} of "
              f"{len(commands)} pins match {PINS.name}")
        for number, (variable, value) in enumerate(KERNEL_SETTINGS):
            name = f"{variable}={value}"
            env = {**base, variable: value}
            seen = child(env, "--probe")
            if seen.returncode != 0:
                print(f"{name}: skipped: {reason(seen.stderr)}")
                continue
            other = json.loads(seen.stdout)
            if other == probe:
                print(f"{name}: skipped: the kernels stay the default's "
                      f"({describe(other)})")
                continue
            out = root / str(number)
            run = child(env, "--run", str(out))
            if run.returncode != 0:
                print(f"{name}: failed: {reason(run.stderr)}")
                failed = True
                continue
            moved = [(args, moved_columns(pin_csv(root / "default", i),
                                          pin_csv(out, i)))
                     for i, args in enumerate(commands)]
            moved = [(args, columns) for args, columns in moved if columns]
            print(f"{name} ({describe(other)}): {len(moved)} of "
                  f"{len(commands)} pins moved")
            for args, columns in moved:
                print(f"  {args}\n    {columns}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true",
                      help="print this process's kernels as JSON")
    mode.add_argument("--run", metavar="DIR",
                      help="write every pin's CSV under DIR")
    args = parser.parse_args()
    if args.probe:
        print(json.dumps(kernels()))
        return 0
    if args.run:
        run_pins(Path(args.run))
        return 0
    return report()


if __name__ == "__main__":
    sys.exit(main())
