"""Rewrite the CSV digests in ``tests/pins.json``.

Each pin is the arguments of one ``uwfde`` command; ``test_pins.py`` runs
it at one worker and at two and compares the sha256 of its CSV with the
pin. A change that moves a pin reruns this script and names each moved pin,
and why, in CHANGES.md:

    PYTHONPATH=src python tests/make_pins.py

The file also records the numpy version and random stream version the
digests were taken under: a ``Generator`` may draw other numbers under
another numpy (NEP 19). Its ``why`` map, which this script keeps as it is,
says what each command checks; a new pin adds its digest and its reason
there.
"""

import hashlib
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from uwfde.cli import main
from uwfde.harness import STREAM_VERSION

PINS = Path(__file__).with_name("pins.json")


def csv_digest(args: str, configs: dict, directory: Path,
               workers: int = 1) -> str:
    """The sha256 of the CSV that ``uwfde args --workers workers`` writes,
    run in ``directory``, where each config file it may name is written
    first from ``configs``."""
    for name, config in configs.items():
        (directory / name).write_text(json.dumps(config))
    out = directory / "pin.csv"
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        code = main([*shlex.split(args), "--workers", str(workers),
                     "--out", str(out)])
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"uwfde {args} exited {code}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def rewrite() -> None:
    pins = json.loads(PINS.read_text())
    with tempfile.TemporaryDirectory() as directory:
        digests = {args: csv_digest(args, pins["configs"], Path(directory))
                   for args in pins["digests"]}
    moved = [args for args, old in pins["digests"].items()
             if digests[args] != old]
    pins.update(numpy=np.__version__, stream_version=STREAM_VERSION,
                digests=digests)
    PINS.write_text(json.dumps(pins, indent=2) + "\n")
    for args in moved:
        print(f"moved: {args}", file=sys.stderr)


if __name__ == "__main__":
    rewrite()
