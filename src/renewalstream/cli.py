"""Command-line front end.

Subcommands: analyze, detect, characterize, simulate, downsample. Output is
plot-ready CSV/JSON only; every run with a fixed seed and config writes
byte-identical files. Exit codes: 0 clean or no detection, 1 error, 2
periodic traffic detected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .characterization import (
    DEFAULT_THRESHOLDS, ZoneThresholds, characterize, difference
)
from .detection import MIN_CONVERGED_EVENTS, DetectionConfig, detect
from .errors import InvalidConfigError, StreamAnalysisError
from .estimation import EstimationConfig, estimate_stream
from .ingest import (
    EventStream,
    downsample,
    inter_arrivals,
    parse_stream,
    serialize_stream,
)
from .synth import GeneratorSpec, labels_to_csv

ENV_SEED = "RS_SEED"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DETECTED = 2


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 at byte {exc.start} ({exc.reason})"
    raise StreamAnalysisError(f"cannot read {path}: {reason}")


def _read_stream(path: str):
    stream = parse_stream(_read_text(path))
    if stream.m < MIN_CONVERGED_EVENTS:
        _warn(
            f"only {stream.m} events; estimates may not have converged "
            f"(recommended minimum {MIN_CONVERGED_EVENTS})"
        )
    return stream


def _write(files: dict[Path, str], directory: Path | None = None) -> None:
    """Make directory, if given, then write each file, in order."""
    path = directory
    try:
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
        for path, text in files.items():
            path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise StreamAnalysisError(f"cannot write {path}: {exc.strerror}") from None


# How a setting reads flag text or a JSON value: one kind per type.
class Kind(NamedTuple):
    form: str
    types: tuple  # JSON value types accepted; a bool only by SWITCH
    parse: Callable


def _parse(kind: Kind, value):
    if isinstance(value, bool) != (kind is SWITCH) or not isinstance(value, kind.types):
        raise TypeError
    return kind.parse(value)


def _pair(sep: str, item: Kind, make: Callable) -> Callable:
    def parse(value):
        parts = value.split(sep) if isinstance(value, str) else value
        if len(parts) != 2:
            raise ValueError
        return make(*(_parse(item, part) for part in parts))

    return parse


INTEGER = Kind("an integer", (str, int), int)
NUMBER = Kind("a number", (str, int, float), float)
SWITCH = Kind("true or false", (bool,), bool)
TEXT = Kind("a path", (str,), str)
THRESHOLDS = Kind("lo,hi", (str, list), _pair(",", NUMBER, ZoneThresholds))
GROUP_SIZES = Kind("min:max", (str, list), _pair(":", INTEGER, lambda lo, hi: (lo, hi)))

# key: (kind, commands, help). Each key foo_bar is the flag --foo-bar and
# the config key foo_bar; a setting given neither way is left out, so the
# library's default applies.
SETTINGS = {
    "k": (INTEGER, "analyze characterize detect", "maximum partial-sum order"),
    "delta": (NUMBER, "analyze characterize detect", "bin width override, seconds"),
    "out_dir": (TEXT, "analyze characterize detect", "output directory"),
    "thresholds": (THRESHOLDS, "analyze characterize", "zone thresholds as lo,hi"),
    "n_sub": (INTEGER, "detect", "sub-density count"),
    "half_window": (INTEGER, "detect", "smoothing half-window T"),
    "trim": (NUMBER, "detect", "trimmed-mean fraction per side"),
    "p_fa": (NUMBER, "detect", "false-alarm level"),
    "exclude_origin_bin": (SWITCH, "detect", "drop bin 0 before normalization"),
    "m": (INTEGER, "simulate", "event count (default 1000)"),
    "mean_gap": (NUMBER, "simulate", "poisson and periodic mean gap"),
    "trigger_gap": (NUMBER, "simulate", "cluster gap between bursts"),
    "burst_mean": (NUMBER, "simulate", "cluster mean burst size"),
    "intra_gap": (NUMBER, "simulate", "cluster gap within a burst"),
    "period": (NUMBER, "simulate", "periodic train period"),
    "jitter": (NUMBER, "simulate", "periodic train jitter"),
    "fraction": (NUMBER, "simulate", "periodic train size per event"),
    "seed": (INTEGER, "simulate downsample", f"seed (else ${ENV_SEED}, else 0)"),
    "downsample": (GROUP_SIZES, "downsample", "group-size range as min:max"),
}
# Settings whose library field has another name.
FIELDS = {"delta": "bin_width", "trim": "trim_fraction"}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _convert(key: str, value, name: str | None = None):
    kind = SETTINGS[key][0]
    try:
        return _parse(kind, value)
    except (TypeError, ValueError, OverflowError):
        message = f"{name or _flag(key)} must be {kind.form}, got {value!r}"
        raise InvalidConfigError(message) from None


def _config_file(path: str, keys: list[str]) -> dict:
    try:
        config = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise InvalidConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise InvalidConfigError(f"{path} must hold one JSON object")
    for key in config:
        if key not in keys:
            raise InvalidConfigError(f"{path}: unknown key {key!r}")
    return config


def _settings(args: argparse.Namespace) -> dict:
    """The command's settings by field name: flag, else file, else CLI default."""
    keys = [key for key, row in SETTINGS.items() if args.command in row[1].split()]
    given = {}
    if args.config is not None:
        given.update(_config_file(args.config, keys))
    given.update((key, value) for key, value in vars(args).items() if key in keys)
    env_seed = os.environ.get(ENV_SEED)
    if env_seed and "seed" in keys and "seed" not in given:
        given["seed"] = _convert("seed", env_seed, f"${ENV_SEED}")
    given = {"m": 1000, "seed": 0} | given  # the library has no default for these
    return {
        FIELDS.get(key, key): _convert(key, given[key]) for key in keys if key in given
    }


def _build(cls, settings: dict, **extra):
    """cls from the settings that name its fields; the rest keep cls's defaults."""
    names = {field.name for field in fields(cls)}
    given = {key: value for key, value in settings.items() if key in names}
    return cls(**given, **extra)


def _cmd_analyze(args, settings: dict) -> int:
    """analyze and characterize: one estimate, two views of it.

    analyze writes both estimates, e.csv and summary.json, and prints the
    summary; characterize prints the score and writes e.csv only when
    out_dir is given.
    """
    stream = _read_stream(args.input)
    emp, conv = estimate_stream(stream, _build(EstimationConfig, settings))
    curves = difference(emp, conv)
    thresholds = settings.get("thresholds", DEFAULT_THRESHOLDS)
    result = characterize(curves, emp.k, stream.rate, thresholds)
    if args.command == "characterize":
        files = {"e.csv": curves.to_csv()} if "out_dir" in settings else {}
        text = result.to_json()
    else:
        summary = {
            "rate": stream.rate,
            "m": stream.m,
            "k": emp.k,
            "delta": emp.bin_width,
            "e_max_norm": result.e_max_norm,
            "position_tweets": result.position_tweets,
            "zone": result.zone,
        }
        files = {
            "rd_empirical.csv": emp.to_csv(),
            "rd_convolution.csv": conv.to_csv(),
            "e.csv": curves.to_csv(),
            "summary.json": json.dumps(summary, indent=2) + "\n",
        }
        text = json.dumps(summary)
    if files:
        out = Path(settings.get("out_dir", "."))
        _write({out / name: content for name, content in files.items()}, out)
    print(text)
    return EXIT_OK


def _cmd_detect(args, settings: dict) -> int:
    stream = _read_stream(args.input)
    estimate, _ = estimate_stream(
        stream, _build(EstimationConfig, settings), convolution=False
    )
    config = _build(DetectionConfig, settings)
    report = detect(estimate, config)
    if report.n_sub < config.n_sub:
        _warn(f"reducing n_sub from {config.n_sub} to {report.n_sub} for a short grid")
    text = report.to_json()
    print(text)
    if "out_dir" in settings:
        out = Path(settings["out_dir"])
        _write({out / "detection.json": text + "\n"}, out)
    return EXIT_DETECTED if report.detected else EXIT_OK


def _cmd_simulate(args, settings: dict) -> int:
    stream, labels = _build(GeneratorSpec, settings, kind=args.kind).generate()
    out_path = Path(args.out)
    labels_path = Path(args.labels or f"{out_path}.labels.csv")
    text = serialize_stream(stream)
    _write({out_path: text, labels_path: labels_to_csv(stream, labels)})
    print(f"wrote {stream.m} events to {out_path} (labels: {labels_path})")
    return EXIT_OK


def _cmd_downsample(args, settings: dict) -> int:
    if "downsample" not in settings:
        return _fail("downsample needs --downsample min:max")
    stream = _read_stream(args.input)
    lo, hi = settings["downsample"]
    grouped = downsample(inter_arrivals(stream), lo, hi, settings["seed"])
    gaps = np.concatenate([[0], grouped.values])
    reduced = EventStream(stream.times[0] + np.cumsum(gaps))
    _write({Path(args.out): serialize_stream(reduced)})
    print(f"wrote {reduced.m} events to {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors end in the CLI's one error line and exit 1, not argparse's 2."""

    def error(self, message: str):
        raise InvalidConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="renewalstream",
        description="Renewal-density analysis of timestamped event streams",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    switch = {"action": "store_const", "const": True}
    for command, handler, about in (
        ("analyze", _cmd_analyze, "both estimates, difference curves, summary"),
        ("detect", _cmd_detect, "periodic-event detection report"),
        ("characterize", _cmd_analyze, "correlation score and zone only"),
        ("simulate", _cmd_simulate, "write a synthetic stream and labels"),
        ("downsample", _cmd_downsample, "group inter-arrivals and rewrite stream"),
    ):
        p = sub.add_parser(command, help=about)
        p.set_defaults(handler=handler)
        if command == "simulate":
            p.add_argument("--kind", choices=["poisson", "cluster", "periodic"],
                           default="poisson")
            p.add_argument("--labels", help="label sidecar (default <out>.labels.csv)")
        else:
            p.add_argument("input", help="event log, one timestamp per line")
        if command in ("simulate", "downsample"):
            p.add_argument("--out", required=True, help="stream output path")
        for key, (kind, commands, help) in SETTINGS.items():
            if command in commands.split():
                p.add_argument(_flag(key), default=argparse.SUPPRESS, help=help,
                               **(switch if kind is SWITCH else {}))
        p.add_argument("--config", help="JSON config file; flags take precedence")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args, _settings(args))
    except (StreamAnalysisError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
