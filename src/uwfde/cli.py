"""Command-line front end: parse a run, dispatch it, write CSV + manifest.

Exit codes: 0 success, 2 usage error, 1 runtime error. Output files are
written atomically (temp file in the target directory, then rename). Worker
count can be forced through the ``UWFDE_WORKERS`` environment variable.

Every command runs through ``_run``, and every value of a run follows one
rule: its flag when given, else the config file (a manifest's extras for
the command's extra value), else the command's default.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from functools import partial

import numpy as np

from . import __version__
from .channel import _whole_number
from .harness import (DETECTOR_NAMES, STREAM_VERSION, SimConfig, _build_links,
                      _convergence_point, _relay_counts, _relay_positions,
                      _substream, _worker_count, run_ber_sweep,
                      run_convergence, run_multirelay, run_placement_sweep,
                      trial_seed)

BER_COLUMNS = ["experiment", "detector", "snr_db", "fd_norm", "delta", "U",
               "bits", "errors", "ber", "ci_half_width", "seed"]
CONVERGE_COLUMNS = ["detector", "iteration", "ensemble_mse", "trials", "seed"]
DUMP_COLUMNS = ["realization_id", "tap_index", "re", "im", "power"]
# Most values of a start:step:stop range, checked before building its list.
GRID_LIMIT = 10_000


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


def _write_manifest(out: str, experiment: str, config: SimConfig,
                    started: float, extras: dict) -> None:
    manifest = {
        "experiment": experiment,
        "version": __version__,
        "stream_version": STREAM_VERSION,
        "workers_effective": _worker_count(config),
        "master_seed": config.master_seed,
        "duration_s": round(time.monotonic() - started, 3),
        "outputs": [out],
        "config": config.to_dict(),
        "extras": extras,
    }
    _atomic_write(out + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


def _ber_rows(run, config: SimConfig, *extra):
    for r in run(config, *extra).records:
        yield [r.experiment, r.detector, r.snr_db, r.fd_norm, r.delta,
               r.num_relays, r.bits, r.errors, r.ber, r.ci_half_width, r.seed]


def _converge_rows(config: SimConfig):
    result = run_convergence(config)
    trials, seed = config.trials, config.master_seed
    for det in ("lms", "rls"):
        for i, mse in enumerate(result.mse_traces[det], start=1):
            yield [det, i, float(mse), trials, seed]
    for i in range(1, config.pilot_frames + 1):
        yield ["mmse_floor", i, result.mmse_floor, trials, seed]


def _dump_rows(config: SimConfig, count: int):
    seed = trial_seed(config.master_seed, "channel-dump", 0)
    taps = _build_links(config, (_substream(seed, 0), _substream(seed, 1)),
                        count)
    for (rid, idx), tap in np.ndenumerate(taps):
        yield [rid, idx, float(tap.real), float(tap.imag), float(abs(tap) ** 2)]


def _parse_grid(text: str) -> list[float]:
    """Accept 'start:step:stop' (inclusive, ascending, at most
    ``GRID_LIMIT`` values) or a comma-separated list; either must give at
    least one value, all of them finite. Anything but a string (a
    manifest's extras may hold any JSON) is a ``TypeError``."""
    if not isinstance(text, str):
        raise TypeError(f"a grid must be a string such as 1,2,3, got {text!r}")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range must look like start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        if stop < start:
            raise ValueError("range stop must not be below its start")
        span = (stop - start) / step
        if not all(map(math.isfinite, (start, step, stop, span))):
            raise ValueError("range start, step, stop and length must be "
                             "finite")
        if round(span) + 1 > GRID_LIMIT:
            raise ValueError(f"range holds {round(span) + 1:.3g} values, "
                             f"more than the limit of {GRID_LIMIT}")
        grid = [round(start + k * step, 10) for k in range(round(span) + 1)]
        grid = [g for g in grid if g <= stop + 1e-9]
    else:
        grid = [float(p) for p in text.split(",") if p.strip()]
    if not grid:
        raise ValueError("grid must hold at least one value")
    if not all(map(math.isfinite, grid)):
        raise ValueError("grid values must be finite")
    return grid


def _realizations(config: SimConfig, count) -> int:
    count = _whole_number(count, "realizations")
    if count < 1:
        raise ValueError("--realizations must be >= 1")
    return count


def _from_text(dest: str, value):
    """A flag's or a command default's value as its config field takes it:
    an SNR grid (one float for converge) or a detector list is text."""
    if dest == "detectors":
        return tuple(value.split(","))
    if dest == "snr_grid":
        return tuple(_parse_grid(value)) if isinstance(value, str) else (value,)
    return value


def _read_config_file(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> tuple[dict, dict]:
    """Load the config file: a plain config, or a previous run's manifest,
    whose config section and extras come back apart."""
    if not args.config:
        return {}, {}
    try:
        with open(args.config) as handle:
            loaded = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    extras = {}
    if isinstance(loaded, dict) and "config" in loaded and "version" in loaded:
        stream = loaded.get("stream_version", "1 (unversioned)")
        if stream != STREAM_VERSION:
            parser.error(f"{args.config} was written with random stream "
                         f"version {stream}, but this uwfde draws stream "
                         f"version {STREAM_VERSION}, so its CSV cannot be "
                         "replayed; pass its config section as a plain config "
                         "to rerun it under the current stream")
        loaded, extras = loaded["config"], loaded.get("extras", {})
    if not (isinstance(loaded, dict) and isinstance(extras, dict)):
        parser.error(f"{args.config} must hold a JSON object, and a "
                     "manifest's config and extras must be JSON objects")
    return loaded, extras


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace,
         columns: list[str], table, defaults: dict, extra: str | None = None,
         check=None) -> int:
    """One command: resolve its values, build and check its config, then
    write the CSV rows of ``table(config)`` and the manifest. Each
    ``SimConfig`` field and the command's ``extra`` value comes from its
    flag when given, else the config file (a manifest's extras for
    ``extra``), else ``defaults``. ``check(config[, value])`` vets the
    config and turns the extra value into the argument ``table`` takes
    after the config."""
    data, extras = _read_config_file(parser, args)
    fields = set(SimConfig.__dataclass_fields__)
    try:
        values = {k: _from_text(k, v) for k, v in defaults.items()
                  if k in fields}
        values.update(data)
        values.update((k, _from_text(k, v)) for k, v in vars(args).items()
                      if k in fields and v is not None)
        config = SimConfig.from_dict(values)
        _worker_count(config)  # a malformed UWFDE_WORKERS is a usage error
        saved, arguments = {}, []
        if extra is not None:
            raw = getattr(args, extra)
            raw = extras.get(extra, defaults[extra]) if raw is None else raw
            arguments = [check(config, raw)]
            # a grid is saved as the text it was given
            saved = {extra: raw if isinstance(raw, str) else arguments[0]}
        elif check is not None:
            check(config)
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))
    if not os.path.basename(args.out) or os.path.isdir(args.out):
        parser.error(f"--out {args.out!r} is a directory, not a CSV path")
    if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        parser.error(f"the directory of --out {args.out} does not exist")
    started = time.monotonic()
    _write_csv(args.out, columns, table(config, *arguments))
    _write_manifest(args.out, args.command, config, started, saved)
    return 0


def _command(sub, name: str, description: str, columns: list[str], table,
             defaults: dict, extra: str | None = None,
             check=None) -> argparse.ArgumentParser:
    """A subcommand with the common flags, bound to ``_run``."""
    cmd = sub.add_parser(name, help=description)
    cmd.add_argument("--seed", type=int, dest="master_seed",
                     help="master seed")
    cmd.add_argument("--config", help="JSON config file (flags override it)")
    cmd.add_argument("--out", required=True, help="output CSV path")
    cmd.add_argument("--workers", type=int, help="parallel trial workers")
    cmd.add_argument("--trials", type=int, help="Monte Carlo trials")
    cmd.add_argument("--N", type=int, dest="block_size", help="block size")
    cmd.add_argument("--scheme", choices=["bpsk", "qpsk"])
    cmd.add_argument("--L", type=int, dest="num_taps",
                     help="channel taps; also picks the arrival profile")
    cmd.add_argument("--data-frames", type=int)
    cmd.add_argument("--pilot-frames", type=int)
    cmd.add_argument("--mu", type=float, help="LMS step size")
    cmd.add_argument("--lambda-rls", type=float, help="RLS forgetting factor")
    cmd.add_argument("--eta", type=float, help="path-loss exponent")
    cmd.add_argument("--relay-noise", type=float, dest="relay_noise_factor",
                     help="relay noise power relative to destination")
    cmd.add_argument("--channel", choices=["sv", "flat"], dest="channel_model")
    cmd.set_defaults(func=partial(_run, columns=columns, table=table,
                                  defaults=defaults, extra=extra, check=check))
    if "detectors" in defaults:  # a BER command
        cmd.add_argument("--snr", dest="snr_grid", metavar="SNR", help="dB "
                         f"grid, a:b:c or list (default {defaults['snr_grid']})")
        cmd.add_argument("--detectors", help=f"comma list of "
                         f"{','.join(DETECTOR_NAMES)} (default "
                         f"{defaults['detectors']})")
        cmd.add_argument("--fd", type=float, dest="fd_norm",
                         help="normalized Doppler per block")
    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwfde",
        description="Monte Carlo experiments for SC-FDE detection over "
                    "amplify-and-forward underwater acoustic relay links.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ber = _command(sub, "ber", "BER versus SNR per detector", BER_COLUMNS,
                   partial(_ber_rows, run_ber_sweep),
                   {"snr_grid": "0:2:30", "detectors": "mmse"})
    ber.add_argument("--U", type=int, dest="num_relays", help="relay count")
    ber.add_argument("--delta", type=float, help="relay position in (0,1)")

    defaults = {"snr_grid": 5.0}
    conv = _command(sub, "converge", "adaptive learning curves",
                    CONVERGE_COLUMNS, _converge_rows, defaults,
                    check=_convergence_point)
    conv.add_argument("--snr-db", type=float, dest="snr_grid",
                      metavar="SNR_DB", help="operating point (default "
                      f"{defaults['snr_grid']})")
    # converge trains both adaptive detectors whatever the file names
    conv.set_defaults(detectors="lms,rls")

    defaults = {"snr_grid": "0,10,20,30", "detectors": "lms,rls",
                "delta_grid": "0.1:0.1:0.9"}
    plc = _command(sub, "placement", "BER versus relay position", BER_COLUMNS,
                   partial(_ber_rows, run_placement_sweep), defaults,
                   "delta_grid",
                   lambda config, text: _relay_positions(config,
                                                         _parse_grid(text)))
    plc.add_argument("--delta-grid", help="positions (default "
                     f"{defaults['delta_grid']})")

    defaults = {"snr_grid": "0:5:30", "detectors": "rls", "relay_grid": "1,2,3"}
    multi = _command(sub, "multirelay", "BER versus relay count", BER_COLUMNS,
                     partial(_ber_rows, run_multirelay), defaults, "relay_grid",
                     lambda _, text: _relay_counts(_parse_grid(text)))
    multi.add_argument("--relays", dest="relay_grid", help="relay count grid "
                       f"(default {defaults['relay_grid']})")

    defaults = {"realizations": 100}
    dump = _command(sub, "channel-dump", "dump quantized tap realizations",
                    DUMP_COLUMNS, _dump_rows, defaults, "realizations",
                    _realizations)
    dump.add_argument("--realizations", type=int,
                      help=f"default {defaults['realizations']}")

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
