"""Pinned CSV digests: each pinned command writes, at one worker, the bytes
it wrote when ``make_pins.py`` last took its digest. A change that moves a
pin declares it (see ``make_pins.py``); a pin is never dropped or loosened
to let a change pass."""

import json

import numpy as np
import pytest

from make_pins import PINS, csv_digest
from uwfde.harness import STREAM_VERSION, WORKERS_ENV_VAR

PINNED = json.loads(PINS.read_text())


def test_pins_are_of_this_stream():
    assert PINNED["stream_version"] == STREAM_VERSION


@pytest.mark.parametrize("args", list(PINNED["digests"]))
def test_csv_matches_its_pin(args, tmp_path, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV_VAR, "1")
    got = csv_digest(args, PINNED["configs"], tmp_path)
    assert got == PINNED["digests"][args], (
        f"uwfde {args} wrote other bytes (pins taken under numpy "
        f"{PINNED['numpy']}, running {np.__version__})")
