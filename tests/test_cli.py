"""Command-line interface tests: flags, CSV output, manifests, exit codes."""

import csv
import hashlib
import json
import math
import os

import pytest

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

    def test_rerun_from_manifest_reproduces_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["ber", "--snr", "0,6", "--out", str(out1), "--seed", "11",
                 *FAST])
        run_cli(["ber", "--config", str(out1) + ".manifest.json",
                 "--out", str(out2)])
        assert file_hash(out1) == file_hash(out2)

    @pytest.mark.parametrize("stale", [None, STREAM_VERSION - 1])
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

    def test_missing_config_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o.csv"), *FAST])
        assert err.value.code == 2

    def test_empty_detector_list_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"detectors": []}))
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv"), *FAST])
        assert err.value.code == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"block_sized": 16}))
        with pytest.raises(SystemExit) as err:
            run_cli(["ber", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv"), *FAST])
        assert err.value.code == 2


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

    def test_nonpositive_count_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["channel-dump", "--realizations", "0",
                     "--out", str(tmp_path / "x.csv"), "--L", "4"])
        assert err.value.code == 2


class TestOutputAtomicity:
    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "ber.csv"
        run_cli(["ber", "--snr", "5", "--out", str(out), "--seed", "1", *FAST])
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".uwfde-")]
        assert leftovers == []
