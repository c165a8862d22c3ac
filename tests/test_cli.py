"""Command-line interface tests: flags, CSV output, manifests, exit codes."""

import csv
import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwfde.cli import _parse_grid, main
from uwfde.harness import STREAM_VERSION


def run_cli(args):
    return main(args)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def file_hash(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


FAST = ["--trials", "3", "--N", "16", "--L", "4", "--data-frames", "2",
        "--pilot-frames", "0"]

# Each config flag, a value other than its default, and the SimConfig
# field it sets.
CONFIG_FLAGS = [
    (["--seed", "9"], "master_seed", 9),
    (["--workers", "2"], "workers", 2),
    (["--trials", "2"], "trials", 2),
    (["--N", "8"], "block_size", 8),
    (["--scheme", "qpsk"], "scheme", "qpsk"),
    (["--L", "3"], "num_taps", 3),
    (["--data-frames", "1"], "data_frames", 1),
    (["--pilot-frames", "3"], "pilot_frames", 3),
    (["--mu", "0.01"], "mu", 0.01),
    (["--lambda-rls", "0.9"], "lambda_rls", 0.9),
    (["--eta", "1.5"], "eta", 1.5),
    (["--relay-noise", "0.5"], "relay_noise_factor", 0.5),
    (["--channel", "flat"], "channel_model", "flat"),
    (["--U", "2"], "num_relays", 2),
    (["--fd", "0.01"], "fd_norm", 0.01),
    (["--delta", "0.3"], "delta", 0.3),
]


# Grid texts for the _parse_grid property: finite values stay within
# [-100, 100] and finite steps at or above 0.5, so no accepted range holds
# more than 401 values.
_GRID_VALUE = st.one_of(st.floats(-100, 100).map(repr),
                        st.sampled_from(["inf", "-inf", "nan", "1e999"]))
_GRID_STEP = st.one_of(st.floats(0.5, 1000).map(repr),
                       st.sampled_from(["0", "-1", "inf", "nan"]))
_GRID_TEXT = st.one_of(
    st.tuples(_GRID_VALUE, _GRID_STEP, _GRID_VALUE).map(":".join),
    st.lists(_GRID_VALUE, max_size=4).map(",".join))


def manifest_with_extra(tmp_path, args, key, value):
    """Run ``args`` into ``a.csv`` and return the path of its manifest with
    ``extras[key]`` set to ``value``."""
    run_cli([*args, "--out", str(tmp_path / "a.csv")])
    path = tmp_path / "a.csv.manifest.json"
    manifest = json.loads(path.read_text())
    manifest["extras"][key] = value
    path.write_text(json.dumps(manifest))
    return path


class TestGridParsing:
    def test_range_inclusive(self):
        assert _parse_grid("0:2:30") == [float(v) for v in range(0, 31, 2)]

    def test_comma_list(self):
        assert _parse_grid("1,2.5,7") == [1.0, 2.5, 7.0]

    def test_fractional_step(self):
        grid = _parse_grid("0.1:0.1:0.9")
        assert grid == [round(0.1 * k, 10) for k in range(1, 10)]

    def test_malformed_range(self):
        with pytest.raises(ValueError):
            _parse_grid("0:30")
        with pytest.raises(ValueError):
            _parse_grid("0:-1:30")

    @pytest.mark.parametrize("text", ["10:2:0", ",", ""])
    def test_empty_or_reversed_grid_rejected(self, text):
        with pytest.raises(ValueError):
            _parse_grid(text)

    @pytest.mark.parametrize("text", ["0:1:inf", "0.1:inf:0.9", "1:inf:3",
                                      "nan:1:3", "-1e308:1:1e308", "nan",
                                      "1,inf"])
    def test_non_finite_grid_rejected(self, text):
        with pytest.raises(ValueError, match="finite"):
            _parse_grid(text)

    @settings(max_examples=300, deadline=None)
    @given(text=_GRID_TEXT)
    def test_accepted_grid_is_finite_and_not_empty(self, text):
        try:
            grid = _parse_grid(text)
        except ValueError:
            return
        assert grid and all(math.isfinite(g) for g in grid)

    @pytest.mark.parametrize("flags", [
        ["ber", "--snr", "0:1:inf"],
        ["placement", "--delta-grid", "0.1:inf:0.9"],
        ["multirelay", "--relays", "1:inf:3"],
        # an empty second grid ran the default positions or relay counts
        ["placement", "--delta-grid", ""],
        ["multirelay", "--relays", ""],
    ], ids=["ber", "placement", "multirelay", "placement-empty",
            "multirelay-empty"])
    def test_non_finite_range_is_usage_error(self, tmp_path, flags):
        with pytest.raises(SystemExit) as err:
            run_cli([*flags, "--detectors", "mmse",
                     "--out", str(tmp_path / "x.csv"), *FAST])
        assert err.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("text", ["0:1:20000", "0:1e-12:30",
                                      "-1e308:1:100"])
    def test_oversized_range_rejected(self, text):
        with pytest.raises(ValueError, match="values"):
            _parse_grid(text)

    def test_oversized_range_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--snr", "0:1:20000", "--detectors", "mmse",
                     "--out", str(tmp_path / "x.csv"), *FAST])
        assert err.value.code == 2


class TestBerCommand:
    def test_grid_times_detectors_rows(self, tmp_path):
        out = tmp_path / "ber.csv"
        code = run_cli(["ber", "--detectors", "mmse,mrc", "--snr", "0:2:30",
                        "--out", str(out), "--seed", "1", *FAST])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["experiment", "detector", "snr_db", "fd_norm",
                          "delta", "U", "bits", "errors", "ber",
                          "ci_half_width", "seed"]
        assert len(rows) == 16 * 2
        for row in rows:
            assert math.isfinite(float(row[8]))
            assert int(row[6]) > 0

    def test_zero_trials_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--trials", "0", "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    def test_unknown_detector_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--detectors", "zf", "--out",
                     str(tmp_path / "x.csv"), *FAST])
        assert err.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--detectors", "mmse,mmse"],
        ["--snr", "10:2:0"],
        ["--data-frames", "0"],
        ["--detectors", "ml", "--N", "32"],
        ["--detectors", "rls,mmse"],        # FAST sends no pilot blocks
        ["--snr", "10,10"],
        ["--L", "0"],                       # exited 1 from the tap profile
        ["--L", "-3"],
    ])
    def test_bad_grid_or_frames_is_usage_error(self, tmp_path, flags):
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--out", str(tmp_path / "x.csv"), *FAST, *flags])
        assert err.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_same_seed_reproduces_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli(["ber", "--snr", "0,10", "--out", str(out), "--seed", "9",
                     *FAST])
        assert file_hash(a) == file_hash(b)

    def test_worker_env_override_preserves_bytes(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["ber", "--snr", "0,10", "--seed", "9", "--trials", "4",
                "--N", "16", "--L", "4", "--data-frames", "2",
                "--pilot-frames", "2", "--detectors", "mmse,rls"]
        run_cli([*args, "--out", str(a)])
        monkeypatch.setenv("UWFDE_WORKERS", "2")
        run_cli([*args, "--out", str(b)])
        assert file_hash(a) == file_hash(b)

    def test_non_integer_worker_env_is_usage_error(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("UWFDE_WORKERS", "two")
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--out", str(tmp_path / "x.csv"), *FAST])
        assert err.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "ber.csv"
        run_cli(["ber", "--snr", "5", "--out", str(out), "--seed", "4", *FAST])
        manifest = json.loads((tmp_path / "ber.csv.manifest.json").read_text())
        assert manifest["experiment"] == "ber"
        assert manifest["master_seed"] == 4
        assert manifest["config"]["trials"] == 3
        assert manifest["outputs"] == [str(out)]
        assert manifest["duration_s"] >= 0
        assert manifest["stream_version"] == STREAM_VERSION

    def test_manifest_records_the_effective_worker_count(self, tmp_path,
                                                          monkeypatch):
        out = tmp_path / "ber.csv"
        monkeypatch.setenv("UWFDE_WORKERS", "1")
        run_cli(["ber", "--snr", "5", "--out", str(out), "--workers", "2",
                 *FAST])
        manifest = json.loads((tmp_path / "ber.csv.manifest.json").read_text())
        assert manifest["config"]["workers"] == 2
        assert manifest["workers_effective"] == 1

    # each command with values away from its defaults, extras included
    @pytest.mark.parametrize("args", [
        ["ber", "--snr", "0,6", *FAST],
        ["placement", "--snr", "10", "--delta-grid", "0.2,0.5,0.8",
         "--detectors", "mmse", *FAST],
        ["multirelay", "--snr", "10", "--relays", "2,1", "--detectors",
         "mmse", *FAST],
        ["converge", "--snr-db", "8", "--trials", "2", "--N", "16", "--L",
         "4", "--pilot-frames", "3"],
        ["channel-dump", "--realizations", "3", "--L", "4"],
    ], ids=lambda args: args[0])
    def test_rerun_from_manifest_reproduces_bytes(self, tmp_path, args):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli([*args, "--out", str(out1), "--seed", "11"]) == 0
        assert run_cli([args[0], "--config", str(out1) + ".manifest.json",
                        "--out", str(out2)]) == 0
        assert file_hash(out1) == file_hash(out2)

    # a manifest of no stream version, or of any earlier one
    @pytest.mark.parametrize("stale", [None, *range(1, STREAM_VERSION)])
    def test_manifest_of_another_stream_is_usage_error(self, tmp_path, capsys,
                                                         stale):
        out = tmp_path / "a.csv"
        run_cli(["ber", "--snr", "0", "--out", str(out), "--seed", "1", *FAST])
        path = tmp_path / "a.csv.manifest.json"
        manifest = json.loads(path.read_text())
        if stale is None:
            del manifest["stream_version"]
        else:
            manifest["stream_version"] = stale
        path.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--config", str(path), "--out", str(tmp_path / "b.csv")])
        assert err.value.code == 2
        assert "stream" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "block_size": 16, "num_taps": 4, "trials": 2, "data_frames": 2,
            "pilot_frames": 0, "master_seed": 3,
            "sv": {"cluster_rate": 0.5, "ray_rate": 1.0, "cluster_decay": 6.0,
                    "ray_decay": 2.0, "num_clusters": 2, "rays_per_cluster": 2},
        }))
        out = tmp_path / "o.csv"
        code = run_cli(["ber", "--config", str(cfg_path), "--snr", "4",
                        "--trials", "5", "--out", str(out)])
        assert code == 0
        manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
        assert manifest["config"]["trials"] == 5  # flag wins
        assert manifest["config"]["block_size"] == 16

    def test_config_num_taps_picks_the_profile_as_L_does(self, tmp_path):
        # {"num_taps": 4} drew the 15-ray profile of the default 15 taps
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"num_taps": 4}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["channel-dump", "--realizations", "5", "--seed", "3"]
        assert run_cli([*args, "--config", str(cfg_path), "--out", str(a)]) == 0
        assert run_cli([*args, "--L", "4", "--out", str(b)]) == 0
        assert file_hash(a) == file_hash(b)

    def test_non_whole_config_num_taps_keeps_the_config_message(
            self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"num_taps": 2.5}))
        with pytest.raises(SystemExit) as err:
            run_cli(["channel-dump", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv")])
        assert err.value.code == 2
        assert "num_taps must be a whole number" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o.csv"), *FAST])
        assert err.value.code == 2

    def test_missing_out_directory_is_usage_error(self, tmp_path, capsys):
        # refused before the run starts, so nothing is simulated or written
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--out", str(tmp_path / "nope" / "o.csv"), *FAST])
        assert err.value.code == 2
        assert "directory of --out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_directory_is_usage_error(self, tmp_path, capsys,
                                          monkeypatch):
        # refused before the run starts, with or without a trailing slash,
        # also when a path names a directory only by its form: a trailing
        # slash on a name that does not exist, or no name at all
        monkeypatch.chdir(tmp_path)
        for out in (str(tmp_path), str(tmp_path) + os.sep, "nodir" + os.sep,
                    "x.csv" + os.sep, ""):
            with pytest.raises(SystemExit) as err:
                run_cli(["ber", "--out", out, *FAST])
            assert err.value.code == 2
            assert "is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_empty_detector_list_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"detectors": []}))
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv"), *FAST])
        assert err.value.code == 2

    @pytest.mark.parametrize("bad", [{"num_relays": 1.7}, {"trials": 2.5},
                                     {"cp_len": 3.5}, {"workers": "2"}])
    def test_non_whole_config_value_is_usage_error(self, tmp_path, bad):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--config", str(cfg_path), "--snr", "10",
                     "--out", str(tmp_path / "o.csv"), *FAST[2:]])
        assert err.value.code == 2
        assert not (tmp_path / "o.csv").exists()

    def test_whole_float_config_value_runs_as_int(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"num_relays": 2.0, "trials": 2.0}))
        out = tmp_path / "o.csv"
        code = run_cli(["ber", "--config", str(cfg_path), "--snr", "10",
                        "--out", str(out), *FAST[2:]])
        assert code == 0
        manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
        assert manifest["config"]["num_relays"] == 2
        assert isinstance(manifest["config"]["num_relays"], int)
        assert manifest["config"]["trials"] == 2
        _, rows = read_csv(out)
        assert len(rows) == 1

    @pytest.mark.parametrize("counts", [{"num_clusters": 2.5},
                                        {"rays_per_cluster": 1.5}])
    def test_non_whole_cluster_count_is_usage_error(self, tmp_path, counts):
        sv = {"cluster_rate": 0.5, "ray_rate": 1.0, "cluster_decay": 6.0,
              "ray_decay": 2.0, "num_clusters": 2, "rays_per_cluster": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sv": {**sv, **counts}}))
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--config", str(cfg_path), "--snr", "10",
                     "--out", str(tmp_path / "o.csv"), *FAST])
        assert err.value.code == 2
        assert not (tmp_path / "o.csv").exists()

    def test_whole_float_cluster_count_runs_as_int(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sv": {
            "cluster_rate": 0.5, "ray_rate": 1.0, "cluster_decay": 6.0,
            "ray_decay": 2.0, "num_clusters": 2.0, "rays_per_cluster": 2}}))
        out = tmp_path / "o.csv"
        code = run_cli(["ber", "--config", str(cfg_path), "--snr", "10",
                        "--out", str(out), *FAST])
        assert code == 0
        manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
        assert manifest["config"]["sv"]["num_clusters"] == 2
        assert isinstance(manifest["config"]["sv"]["num_clusters"], int)

    def test_negative_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--snr", "10", "--seed", "-1",
                     "--out", str(tmp_path / "o.csv"), *FAST])
        assert err.value.code == 2
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("flags", [["--mu", "nan"], ["--eta", "inf"],
                                       ["--relay-noise", "nan"]])
    def test_non_finite_float_is_usage_error(self, tmp_path, flags):
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--snr", "10", "--detectors", "lms,mmse",
                     "--out", str(tmp_path / "o.csv"), *FAST,
                     "--pilot-frames", "2", *flags])
        assert err.value.code == 2
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("flags,field,value", CONFIG_FLAGS,
                             ids=[field for _, field, _ in CONFIG_FLAGS])
    def test_config_flag_lands_in_manifest(self, tmp_path, monkeypatch, flags,
                                           field, value):
        monkeypatch.setenv("UWFDE_WORKERS", "1")
        out = tmp_path / "o.csv"
        code = run_cli(["ber", "--snr", "10", "--out", str(out), *FAST,
                        *flags])
        assert code == 0
        manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
        assert manifest["config"][field] == value

    @pytest.mark.parametrize("bad", [
        {"scheme": 3}, {"sv": 5}, {"sv": "x"},
        # a file or a manifest section that is no JSON object: [] ran the
        # defaults with exit 0, the others exited 1
        [], [1, 2], "abc",
        {"version": "0.1.0", "stream_version": STREAM_VERSION, "config": [1]},
        {"version": "0.1.0", "stream_version": STREAM_VERSION, "config": {},
         "extras": [1]},
    ])
    def test_wrong_type_config_value_is_usage_error(self, tmp_path, bad):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--config", str(cfg_path), "--snr", "10",
                     "--out", str(tmp_path / "o.csv"), *FAST])
        assert err.value.code == 2
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"block_sized": 16}))
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv"), *FAST])
        assert err.value.code == 2

    # Link budgets whose powers overflow or come out NaN: each exited 1 with
    # "Numerical result out of range", or wrote a CSV on a NaN noise variance.
    @pytest.mark.parametrize("flags", [
        ["ber", "--snr", "-4000"],
        ["ber", "--snr", "10", "--eta", "1000", "--delta", "0.1"],
        ["placement", "--snr", "10", "--eta", "1000",
         "--delta-grid", "0.1,0.9"],
        ["ber", "--snr", "-20", "--relay-noise", "1e308"],
    ], ids=["snr", "eta", "placement-eta", "relay-noise"])
    def test_out_of_range_powers_are_usage_errors(self, tmp_path, capsys,
                                                  flags):
        with pytest.raises(SystemExit) as err:
            run_cli([*flags, "--detectors", "mmse",
                     "--out", str(tmp_path / "x.csv"), *FAST])
        assert err.value.code == 2
        assert "power" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestConvergeCommand:
    def test_iteration_rows(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = run_cli(["converge", "--snr-db", "5", "--trials", "4",
                        "--pilot-frames", "6", "--N", "16", "--L", "4",
                        "--out", str(out), "--seed", "2"])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["detector", "iteration", "ensemble_mse", "trials",
                          "seed"]
        by_det = {}
        for det, it, mse, trials, seed in rows:
            by_det.setdefault(det, []).append(int(it))
            assert math.isfinite(float(mse))
        assert by_det["lms"] == list(range(1, 7))
        assert by_det["rls"] == list(range(1, 7))
        assert by_det["mmse_floor"] == list(range(1, 7))

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli(["converge", "--trials", "3", "--pilot-frames", "4",
                     "--N", "16", "--L", "4", "--out", str(out), "--seed", "6"])
        assert file_hash(a) == file_hash(b)

    def test_manifest_records_the_detectors_that_ran(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(["converge", "--trials", "2", "--pilot-frames", "3",
                        "--N", "16", "--L", "4", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["config"]["detectors"] == ["lms", "rls"]

    def test_config_detectors_beyond_the_ml_limit_run(self, tmp_path):
        # converge runs lms and rls whatever the config names, so an ML
        # search it never performs is no reason to refuse it
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"detectors": ["ml"]}))
        out = tmp_path / "c.csv"
        assert run_cli(["converge", "--config", str(cfg_path), "--N", "64",
                        "--L", "4", "--trials", "2", "--pilot-frames", "3",
                        "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3 * 3

    def test_zero_pilot_frames_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["converge", "--pilot-frames", "0", "--trials", "2",
                     "--N", "16", "--L", "4", "--out", str(tmp_path / "c.csv")])
        assert err.value.code == 2
        assert not (tmp_path / "c.csv").exists()

    def test_config_with_several_snrs_is_usage_error(self, tmp_path, capsys):
        # converge runs at one operating point and its CSV has no SNR
        # column, so a grid of several would silently run its first only
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"snr_grid": [5, 30]}))
        with pytest.raises(SystemExit) as err:
            run_cli(["converge", "--config", str(cfg_path), "--trials", "2",
                     "--N", "16", "--L", "4", "--pilot-frames", "3",
                     "--out", str(tmp_path / "c.csv")])
        assert err.value.code == 2
        assert "one SNR" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_snr_flag_overrides_a_config_grid(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"snr_grid": [5, 30]}))
        out = tmp_path / "c.csv"
        assert run_cli(["converge", "--config", str(cfg_path), "--snr-db",
                        "30", "--trials", "2", "--N", "16", "--L", "4",
                        "--pilot-frames", "3", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["config"]["snr_grid"] == [30.0]


class TestPlacementCommand:
    def test_rows_and_delta_column(self, tmp_path):
        out = tmp_path / "plc.csv"
        code = run_cli(["placement", "--snr", "10", "--delta-grid",
                        "0.1:0.1:0.9", "--detectors", "rls", "--trials", "2",
                        "--N", "16", "--L", "4", "--data-frames", "2",
                        "--pilot-frames", "2", "--out", str(out), "--seed", "3"])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 9
        deltas = [float(r[4]) for r in rows]
        assert deltas == [round(0.1 * k, 10) for k in range(1, 10)]

    def test_bad_delta_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["placement", "--delta-grid", "0,0.5",
                     "--out", str(tmp_path / "x.csv"), *FAST])
        assert err.value.code == 2

    def test_repeated_delta_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["placement", "--delta-grid", "0.3,0.3",
                     "--out", str(tmp_path / "x.csv"), *FAST])
        assert err.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_non_string_manifest_grid_is_usage_error(self, tmp_path):
        path = manifest_with_extra(
            tmp_path, ["placement", "--snr", "10", "--delta-grid", "0.2,0.8",
                       "--detectors", "mmse", *FAST], "delta_grid", [0.2, 0.8])
        with pytest.raises(SystemExit) as err:
            run_cli(["placement", "--config", str(path),
                     "--out", str(tmp_path / "b.csv")])
        assert err.value.code == 2
        assert not (tmp_path / "b.csv").exists()


class TestMultirelayCommand:
    def test_relay_grid_rows(self, tmp_path):
        out = tmp_path / "mr.csv"
        code = run_cli(["multirelay", "--snr", "10", "--relays", "1,2,3",
                        "--trials", "2", "--N", "16", "--L", "4",
                        "--data-frames", "2", "--pilot-frames", "2",
                        "--out", str(out), "--seed", "3"])
        assert code == 0
        _, rows = read_csv(out)
        assert [int(r[5]) for r in rows] == [1, 2, 3]

    def test_zero_relays_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["multirelay", "--relays", "0,1",
                     "--out", str(tmp_path / "x.csv"), *FAST])
        assert err.value.code == 2

    def test_repeated_relay_count_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["multirelay", "--relays", "2,2", "--detectors", "mmse",
                     "--out", str(tmp_path / "x.csv"), *FAST])
        assert err.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("relays", ["1.7,2.2", "1,2.5"])
    def test_fractional_relay_count_rejected(self, tmp_path, relays):
        with pytest.raises(SystemExit) as err:
            run_cli(["multirelay", "--relays", relays, "--detectors", "mmse",
                     "--snr", "10", "--out", str(tmp_path / "x.csv"), *FAST])
        assert err.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_non_string_manifest_grid_is_usage_error(self, tmp_path):
        path = manifest_with_extra(
            tmp_path, ["multirelay", "--snr", "10", "--relays", "1,2",
                       "--detectors", "mmse", *FAST], "relay_grid", [1, 2])
        with pytest.raises(SystemExit) as err:
            run_cli(["multirelay", "--config", str(path),
                     "--out", str(tmp_path / "b.csv")])
        assert err.value.code == 2
        assert not (tmp_path / "b.csv").exists()


class TestChannelDumpCommand:
    def test_rows_and_unit_power(self, tmp_path):
        out = tmp_path / "taps.csv"
        code = run_cli(["channel-dump", "--realizations", "20", "--L", "4",
                        "--out", str(out), "--seed", "5"])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["realization_id", "tap_index", "re", "im", "power"]
        assert len(rows) == 20 * 4
        totals = {}
        for rid, idx, re_part, im_part, power in rows:
            assert float(power) == pytest.approx(
                float(re_part) ** 2 + float(im_part) ** 2, abs=1e-12)
            totals[rid] = totals.get(rid, 0.0) + float(power)
        for total in totals.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli(["channel-dump", "--realizations", "5", "--L", "4",
                     "--out", str(out), "--seed", "8"])
        assert file_hash(a) == file_hash(b)

    def test_pinned_taps(self, tmp_path):
        # the taps of seed 8 as stream version 4 draws them; a tolerance
        # rather than a hash, since numpy builds may round libm calls apart
        out = tmp_path / "taps.csv"
        assert run_cli(["channel-dump", "--realizations", "3", "--L", "4",
                        "--out", str(out), "--seed", "8"]) == 0
        _, rows = read_csv(out)
        taps = np.array([complex(float(re_part), float(im_part))
                         for _, _, re_part, im_part, _ in rows]).reshape(3, 4)
        pinned = np.array([
            [-0.32865374471466047 + 0.26172143329107306j,
             0.5986581383849816 - 0.6819802348943296j, 0, 0],
            [0.6401345633113712 - 0.27495915279741273j,
             0.3064477451376084 - 0.14800686233888782j,
             0.34636035282289745 - 0.5280563031913926j, 0],
            [0.6020606518042811 - 0.42575864181287626j, 0,
             0.44805777496369503 - 0.42026053594451024j,
             0.260314887635649 - 0.10542306184186843j]])
        assert np.allclose(taps, pinned, rtol=0, atol=1e-12)

    def test_flat_channel_dumps_a_unit_first_tap(self, tmp_path):
        out = tmp_path / "taps.csv"
        assert run_cli(["channel-dump", "--channel", "flat", "--realizations",
                        "3", "--L", "4", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3 * 4
        for _, idx, re_part, im_part, power in rows:
            expected = 1.0 if idx == "0" else 0.0
            assert (float(re_part), float(im_part), float(power)) == (
                expected, 0.0, expected)

    def test_nonpositive_count_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["channel-dump", "--realizations", "0",
                     "--out", str(tmp_path / "x.csv"), "--L", "4"])
        assert err.value.code == 2

    @pytest.mark.parametrize("count", [2.5, "5"])
    def test_non_whole_manifest_count_is_usage_error(self, tmp_path, count):
        path = manifest_with_extra(
            tmp_path, ["channel-dump", "--realizations", "3", "--L", "4"],
            "realizations", count)
        with pytest.raises(SystemExit) as err:
            run_cli(["channel-dump", "--config", str(path),
                     "--out", str(tmp_path / "b.csv")])
        assert err.value.code == 2
        assert not (tmp_path / "b.csv").exists()

    def test_whole_float_manifest_count_runs_as_int(self, tmp_path):
        path = manifest_with_extra(
            tmp_path, ["channel-dump", "--realizations", "3", "--L", "4"],
            "realizations", 2.0)
        out = tmp_path / "b.csv"
        assert run_cli(["channel-dump", "--config", str(path),
                        "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2 * 4
        manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert manifest["extras"]["realizations"] == 2
        assert isinstance(manifest["extras"]["realizations"], int)


class TestOutputAtomicity:
    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "ber.csv"
        run_cli(["ber", "--snr", "5", "--out", str(out), "--seed", "1", *FAST])
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".uwfde-")]
        assert leftovers == []
