"""Pinned CSV digests: each pinned command writes, at one worker and at
two, the bytes it wrote when ``make_pins.py`` last took its digest; the
two-worker pass skips, saying so, where fewer than two CPUs are usable. A
change that moves a pin declares it (see ``make_pins.py``); a pin is never
dropped or loosened to let a change pass. ``pins.json`` says why each
command is pinned."""

import json

import numpy as np
import pytest

from make_pins import PINS, csv_digest
from uwfde.harness import STREAM_VERSION, _usable_cpus

PINNED = json.loads(PINS.read_text())


def test_pins_are_of_this_stream():
    assert PINNED["stream_version"] == STREAM_VERSION


def test_every_pin_says_why():
    assert PINNED["why"].keys() == PINNED["digests"].keys()


@pytest.mark.parametrize("args", list(PINNED["digests"]))
def test_csv_matches_its_pin(args, tmp_path):
    # a run of several groups of trials hands them to a pool at two workers
    for workers in (1, 2):
        if workers == 2 and _usable_cpus() < 2:
            # two workers would run in-process here and check nothing new
            pytest.skip("the one-worker pass matched; the two-worker pass "
                        "needs two usable CPUs to start a pool")
        got = csv_digest(args, PINNED["configs"], tmp_path, workers)
        assert got == PINNED["digests"][args], (
            f"uwfde {args} wrote other bytes at {workers} workers (pins "
            f"taken under numpy {PINNED['numpy']}, running {np.__version__})")
