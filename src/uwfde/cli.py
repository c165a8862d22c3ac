"""Command-line front end: parse a run, dispatch it, write CSV + manifest.

Exit codes: 0 success, 2 usage error, 1 runtime error. Output files are
written atomically (temp file in the target directory, then rename). Worker
count can be forced through the ``UWFDE_WORKERS`` environment variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .channel import (_whole_number, generate_channel, quantize_to_taps,
                      sv_profile)
from .harness import (STREAM_VERSION, ExperimentResult, SimConfig,
                      _relay_counts, _relay_positions, _worker_count,
                      run_ber_sweep, run_convergence, run_multirelay,
                      run_placement_sweep, trial_seed)

BER_COLUMNS = ["experiment", "detector", "snr_db", "fd_norm", "delta", "U",
               "bits", "errors", "ber", "ci_half_width", "seed"]
CONVERGE_COLUMNS = ["detector", "iteration", "ensemble_mse", "trials", "seed"]
DUMP_COLUMNS = ["realization_id", "tap_index", "re", "im", "power"]


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".uwfde-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(path: str, columns: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _write_manifest(path: str, experiment: str, config: SimConfig,
                    outputs: list[str], started: float,
                    extras: dict | None = None) -> None:
    manifest = {
        "experiment": experiment,
        "version": __version__,
        "stream_version": STREAM_VERSION,
        "workers_effective": _worker_count(config),
        "master_seed": config.master_seed,
        "duration_s": round(time.monotonic() - started, 3),
        "outputs": outputs,
        "config": config.to_dict(),
        "extras": extras or {},
    }
    _atomic_write(path, json.dumps(manifest, indent=2) + "\n")


def _ber_rows(result: ExperimentResult):
    for r in result.records:
        yield [r.experiment, r.detector, r.snr_db, r.fd_norm, r.delta,
               r.num_relays, r.bits, r.errors, r.ber, r.ci_half_width, r.seed]


def _converge_rows(result: ExperimentResult):
    trials = result.config.trials
    seed = result.config.master_seed
    for det in ("lms", "rls"):
        for i, mse in enumerate(result.mse_traces[det], start=1):
            yield [det, i, float(mse), trials, seed]
    for i in range(1, result.config.pilot_frames + 1):
        yield ["mmse_floor", i, result.mmse_floor, trials, seed]


def _parse_grid(text: str) -> list[float]:
    """Accept 'start:step:stop' (inclusive) or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range must look like start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        if stop < start:
            raise ValueError("range stop must not be below its start")
        count = int(round((stop - start) / step))
        grid = [round(start + k * step, 10) for k in range(count + 1)]
        return [g for g in grid if g <= stop + 1e-9]
    grid = [float(p) for p in text.split(",") if p.strip()]
    if not grid:
        raise ValueError("grid must hold at least one value")
    return grid


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, dest="master_seed",
                        help="master seed")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--workers", type=int, help="parallel trial workers")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials")
    parser.add_argument("--N", type=int, dest="block_size", help="block size")
    parser.add_argument("--scheme", choices=["bpsk", "qpsk"])
    parser.add_argument("--L", type=int, dest="num_taps",
                        help="channel taps; also picks the arrival profile")
    parser.add_argument("--data-frames", type=int)
    parser.add_argument("--pilot-frames", type=int)
    parser.add_argument("--mu", type=float, help="LMS step size")
    parser.add_argument("--lambda-rls", type=float, help="RLS forgetting factor")
    parser.add_argument("--eta", type=float, help="path-loss exponent")
    parser.add_argument("--relay-noise", type=float, dest="relay_noise_factor",
                        help="relay noise power relative to destination")
    parser.add_argument("--channel", choices=["sv", "flat"], dest="channel_model")


def _read_config_file(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> tuple[dict, dict]:
    """Load the config file (plain config or a previous run's manifest)."""
    if not args.config:
        return {}, {}
    try:
        with open(args.config) as handle:
            loaded = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    if isinstance(loaded, dict) and "config" in loaded and "version" in loaded:
        stream = loaded.get("stream_version", "1 (unversioned)")
        if stream != STREAM_VERSION:
            parser.error(f"{args.config} was written with random stream "
                         f"version {stream}, but this uwfde draws stream "
                         f"version {STREAM_VERSION}, so its CSV cannot be "
                         "replayed; pass its config section as a plain config "
                         "to rerun it under the current stream")
        return dict(loaded["config"]), dict(loaded.get("extras", {}))
    return dict(loaded), {}


def _build_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  data: dict) -> SimConfig:
    """Apply explicit flags on top of config-file values: every parsed flag
    whose dest is a ``SimConfig`` field, except the grids and detectors
    that ``_apply_grid_flags`` has already folded into ``data``."""
    fields = set(SimConfig.__dataclass_fields__) - {"detectors", "snr_grid"}
    data = dict(data)
    data.update({k: v for k, v in vars(args).items()
                 if k in fields and v is not None})
    if args.num_taps is not None and "sv" not in data:
        data["sv"] = sv_profile(args.num_taps)
    try:
        config = SimConfig.from_dict(data)
        _worker_count(config)  # a malformed UWFDE_WORKERS is a usage error
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))
    return config


def _grid(parser: argparse.ArgumentParser, text: str) -> list[float]:
    """``_parse_grid`` with a malformed grid, or one that is not a string
    (a manifest's extras may hold any JSON), reported as a usage error."""
    if not isinstance(text, str):
        parser.error(f"a grid must be a string such as 1,2,3, got {text!r}")
    try:
        return _parse_grid(text)
    except ValueError as exc:
        parser.error(str(exc))


def _apply_grid_flags(parser, args, data, snr_default: str,
                      detector_default: str) -> None:
    """Fold --snr and --detectors into the config data; explicit flags win,
    then config-file values, then the command's defaults."""
    if args.snr is not None:
        data["snr_grid"] = tuple(_grid(parser, args.snr))
    elif "snr_grid" not in data:
        data["snr_grid"] = tuple(_parse_grid(snr_default))
    if getattr(args, "detectors", None) is not None:
        data["detectors"] = tuple(args.detectors.split(","))
    elif "detectors" not in data:
        data["detectors"] = tuple(detector_default.split(","))


def cmd_ber(parser, args) -> int:
    data, _ = _read_config_file(parser, args)
    _apply_grid_flags(parser, args, data, "0:2:30", "mmse")
    config = _build_config(parser, args, data)
    started = time.monotonic()
    result = run_ber_sweep(config)
    _write_csv(args.out, BER_COLUMNS, _ber_rows(result))
    _write_manifest(args.out + ".manifest.json", result.experiment, config,
                    [args.out], started)
    return 0


def cmd_converge(parser, args) -> int:
    data, _ = _read_config_file(parser, args)
    if args.snr_db is not None:
        data["snr_grid"] = (args.snr_db,)
    elif "snr_grid" not in data:
        data["snr_grid"] = (5.0,)
    config = _build_config(parser, args, data)
    if config.pilot_frames < 1:
        parser.error("converge needs at least one pilot frame")
    started = time.monotonic()
    result = run_convergence(config)
    _write_csv(args.out, CONVERGE_COLUMNS, _converge_rows(result))
    _write_manifest(args.out + ".manifest.json", result.experiment, config,
                    [args.out], started)
    return 0


def cmd_placement(parser, args) -> int:
    data, extras = _read_config_file(parser, args)
    _apply_grid_flags(parser, args, data, "0,10,20,30", "lms,rls")
    grid_text = args.delta_grid or extras.get("delta_grid") or "0.1:0.1:0.9"
    try:
        deltas = _relay_positions(_grid(parser, grid_text))
    except ValueError as exc:
        parser.error(str(exc))
    config = _build_config(parser, args, data)
    started = time.monotonic()
    result = run_placement_sweep(config, deltas)
    _write_csv(args.out, BER_COLUMNS, _ber_rows(result))
    _write_manifest(args.out + ".manifest.json", result.experiment, config,
                    [args.out], started, extras={"delta_grid": grid_text})
    return 0


def cmd_multirelay(parser, args) -> int:
    data, extras = _read_config_file(parser, args)
    _apply_grid_flags(parser, args, data, "0:5:30", "rls")
    grid_text = args.relays or extras.get("relay_grid") or "1,2,3"
    try:
        relay_grid = _relay_counts(_grid(parser, grid_text))
    except ValueError as exc:
        parser.error(str(exc))
    config = _build_config(parser, args, data)
    started = time.monotonic()
    result = run_multirelay(config, relay_grid)
    _write_csv(args.out, BER_COLUMNS, _ber_rows(result))
    _write_manifest(args.out + ".manifest.json", result.experiment, config,
                    [args.out], started, extras={"relay_grid": grid_text})
    return 0


def cmd_channel_dump(parser, args) -> int:
    data, extras = _read_config_file(parser, args)
    count = args.realizations
    if count is None:
        count = extras.get("realizations", 100)
    try:
        count = _whole_number(count, "realizations")
    except ValueError as exc:
        parser.error(str(exc))
    if count < 1:
        parser.error("--realizations must be >= 1")
    config = _build_config(parser, args, data)
    started = time.monotonic()
    rng = np.random.default_rng(
        trial_seed(config.master_seed, "channel-dump", 0))
    rows = []
    for rid in range(count):
        gains, delays = generate_channel(config.sv, rng)
        taps = quantize_to_taps(gains, delays, config.sv.sample_period,
                                config.num_taps)
        for idx, tap in enumerate(taps):
            rows.append([rid, idx, float(tap.real), float(tap.imag),
                         float(abs(tap) ** 2)])
    _write_csv(args.out, DUMP_COLUMNS, rows)
    _write_manifest(args.out + ".manifest.json", "channel-dump", config,
                    [args.out], started, extras={"realizations": count})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwfde",
        description="Monte Carlo experiments for SC-FDE detection over "
                    "amplify-and-forward underwater acoustic relay links.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ber = sub.add_parser("ber", help="BER versus SNR per detector")
    _add_common(ber)
    ber.add_argument("--snr", help="dB grid, a:b:c or list (default 0:2:30)")
    ber.add_argument("--detectors",
                     help="comma list of mrc,mmse,ml,lms,rls (default mmse)")
    ber.add_argument("--U", type=int, dest="num_relays", help="relay count")
    ber.add_argument("--fd", type=float, dest="fd_norm",
                     help="normalized Doppler per block")
    ber.add_argument("--delta", type=float, help="relay position in (0,1)")
    ber.set_defaults(func=cmd_ber)

    conv = sub.add_parser("converge", help="adaptive learning curves")
    _add_common(conv)
    conv.add_argument("--snr-db", type=float, help="operating point (default 5)")
    conv.set_defaults(func=cmd_converge)

    plc = sub.add_parser("placement", help="BER versus relay position")
    _add_common(plc)
    plc.add_argument("--snr", help="dB grid (default 0,10,20,30)")
    plc.add_argument("--delta-grid", help="positions (default 0.1:0.1:0.9)")
    plc.add_argument("--detectors", help="default lms,rls")
    plc.add_argument("--fd", type=float, dest="fd_norm")
    plc.set_defaults(func=cmd_placement)

    multi = sub.add_parser("multirelay", help="BER versus relay count")
    _add_common(multi)
    multi.add_argument("--snr", help="dB grid (default 0:5:30)")
    multi.add_argument("--relays", help="relay count grid (default 1,2,3)")
    multi.add_argument("--detectors", help="default rls")
    multi.add_argument("--fd", type=float, dest="fd_norm")
    multi.set_defaults(func=cmd_multirelay)

    dump = sub.add_parser("channel-dump", help="dump quantized tap realizations")
    _add_common(dump)
    dump.add_argument("--realizations", type=int, help="default 100")
    dump.set_defaults(func=cmd_channel_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except Exception as exc:  # runtime failure, not a usage problem
        print(f"uwfde: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
