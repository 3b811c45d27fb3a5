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
from pathlib import Path

import numpy as np

from .characterization import (
    DEFAULT_THRESHOLDS,
    ZoneThresholds,
    characterize,
    difference,
)
from .detection import MIN_CONVERGED_EVENTS, DetectionConfig, detect
from .errors import (
    InsufficientDataError,
    InvalidConfigError,
    StreamAnalysisError,
)
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
        raise StreamAnalysisError(f"cannot read {path}: {exc.strerror}") from None


def _read_stream(path: str):
    stream = parse_stream(_read_text(path))
    if stream.m < MIN_CONVERGED_EVENTS:
        _warn(
            f"only {stream.m} events; estimates may not have converged "
            f"(recommended minimum {MIN_CONVERGED_EVENTS})"
        )
    return stream


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    return json.loads(_read_text(path))


def _merged(args: argparse.Namespace, file_cfg: dict, key: str, default=None):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in file_cfg:
        return file_cfg[key]
    return default


def _resolve_seed(args: argparse.Namespace, file_cfg: dict) -> int:
    seed = _merged(args, file_cfg, "seed")
    if seed is None:
        env = os.environ.get(ENV_SEED)
        seed = int(env) if env else 0
    return int(seed)


def _estimation_config(args, file_cfg) -> EstimationConfig:
    return EstimationConfig(
        k=_merged(args, file_cfg, "k"),
        bin_width=_merged(args, file_cfg, "delta"),
    )


def _detection_config(args, file_cfg) -> DetectionConfig:
    return DetectionConfig(
        n_sub=int(_merged(args, file_cfg, "n_sub", 8)),
        half_window=_merged(args, file_cfg, "half_window"),
        trim_fraction=float(_merged(args, file_cfg, "trim", 0.35)),
        p_fa=float(_merged(args, file_cfg, "p_fa", 0.05)),
        exclude_origin_bin=bool(
            _merged(args, file_cfg, "exclude_origin_bin", False)
        ),
    )


def _thresholds(args, file_cfg) -> ZoneThresholds:
    raw = _merged(args, file_cfg, "thresholds")
    if raw is None:
        return DEFAULT_THRESHOLDS
    parts = raw.split(",") if isinstance(raw, str) else raw
    try:
        lo, hi = (float(part) for part in parts)
    except (TypeError, ValueError):
        raise InvalidConfigError(f"--thresholds must be lo,hi, got {raw!r}") from None
    return ZoneThresholds(low=lo, high=hi)


def _out_dir(args, file_cfg) -> Path:
    out = Path(_merged(args, file_cfg, "out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_analyze(args) -> int:
    """analyze and characterize: one estimate, two views of it.

    analyze writes both estimates, e.csv and summary.json, and prints the
    summary; characterize prints the score and writes e.csv only when
    --out-dir is given.
    """
    file_cfg = _load_config_file(args.config)
    thresholds = _thresholds(args, file_cfg)
    stream = _read_stream(args.input)
    emp, conv = estimate_stream(stream, _estimation_config(args, file_cfg))
    curves = difference(emp, conv)
    result = characterize(curves, emp.k, stream.rate, thresholds)
    if args.command == "characterize":
        files = {} if args.out_dir is None else {"e.csv": curves.to_csv()}
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
        out = _out_dir(args, file_cfg)
        for name, content in files.items():
            (out / name).write_text(content, encoding="utf-8")
    print(text)
    return EXIT_OK


def _cmd_detect(args) -> int:
    file_cfg = _load_config_file(args.config)
    stream = _read_stream(args.input)
    estimate, _ = estimate_stream(
        stream, _estimation_config(args, file_cfg), convolution=False
    )
    config = _detection_config(args, file_cfg)
    # short grids (tiny inputs) still get a report: cap the sub-density
    # count so every sub-density keeps at least 2 bins
    max_sub = estimate.n_bins // 2
    if max_sub < 1:
        raise InsufficientDataError(
            f"detection needs a grid of at least 2 bins, got {estimate.n_bins}; "
            "use a smaller bin width"
        )
    if config.n_sub > max_sub:
        _warn(f"reducing n_sub from {config.n_sub} to {max_sub} for a short grid")
        config.n_sub = max_sub
    report = detect(estimate, config)
    text = report.to_json()
    print(text)
    if args.out_dir is not None:
        out = _out_dir(args, file_cfg)
        (out / "detection.json").write_text(text + "\n", encoding="utf-8")
    return EXIT_DETECTED if report.detected else EXIT_OK


def _cmd_simulate(args) -> int:
    file_cfg = _load_config_file(args.config)
    spec = GeneratorSpec(
        kind=args.kind,
        m=int(_merged(args, file_cfg, "m", 1000)),
        seed=_resolve_seed(args, file_cfg),
        mean_gap=float(_merged(args, file_cfg, "mean_gap", 1.0)),
        trigger_gap=float(_merged(args, file_cfg, "trigger_gap", 10.0)),
        burst_mean=float(_merged(args, file_cfg, "burst_mean", 3.0)),
        intra_gap=float(_merged(args, file_cfg, "intra_gap", 1.0)),
        period=float(_merged(args, file_cfg, "period", 100.0)),
        jitter=float(_merged(args, file_cfg, "jitter", 0.0)),
        fraction=float(_merged(args, file_cfg, "fraction", 0.05)),
    )
    stream, labels = spec.generate()
    out_path = Path(args.out)
    out_path.write_text(serialize_stream(stream), encoding="utf-8")
    labels_path = (
        Path(args.labels)
        if args.labels
        else out_path.parent / (out_path.name + ".labels.csv")
    )
    labels_path.write_text(labels_to_csv(stream, labels), encoding="utf-8")
    print(f"wrote {stream.m} events to {out_path} (labels: {labels_path})")
    return EXIT_OK


def _cmd_downsample(args) -> int:
    file_cfg = _load_config_file(args.config)
    spec = _merged(args, file_cfg, "downsample")
    if spec is None:
        return _fail("downsample needs --downsample min:max")
    try:
        lo, hi = (int(part) for part in str(spec).split(":"))
    except ValueError:
        message = f"--downsample must be min:max, got {spec!r}"
        raise InvalidConfigError(message) from None
    stream = _read_stream(args.input)
    grouped = downsample(
        inter_arrivals(stream), lo, hi, _resolve_seed(args, file_cfg)
    )
    gaps = np.concatenate([[0], grouped.values])
    reduced = EventStream(stream.times[0] + np.cumsum(gaps))
    Path(args.out).write_text(serialize_stream(reduced), encoding="utf-8")
    print(f"wrote {reduced.m} events to {args.out}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags take precedence")
    parser.add_argument("--seed", type=int, help=f"seed (falls back to ${ENV_SEED})")


def _add_estimation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, help="maximum partial-sum order")
    parser.add_argument("--delta", type=float, help="bin width override, seconds")


def _add_detection_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-sub", dest="n_sub", type=int, help="sub-density count")
    parser.add_argument(
        "--half-window", dest="half_window", type=int, help="smoothing half-window T"
    )
    parser.add_argument("--trim", type=float, help="trimmed-mean fraction per side")
    parser.add_argument("--p-fa", dest="p_fa", type=float, help="false-alarm level")
    parser.add_argument(
        "--exclude-origin-bin",
        dest="exclude_origin_bin",
        action="store_const",
        const=True,
        help="drop bin 0 before normalization",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renewalstream",
        description="Renewal-density analysis of timestamped event streams",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("analyze", help="both estimates, difference curves, summary")
    p.add_argument("input", help="event log, one timestamp per line")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--thresholds", help="zone thresholds as lo,hi")
    _add_estimation_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("detect", help="periodic-event detection report")
    p.add_argument("input")
    p.add_argument("--out-dir", dest="out_dir", help="also write detection.json here")
    _add_estimation_flags(p)
    _add_detection_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("characterize", help="correlation score and zone only")
    p.add_argument("input")
    p.add_argument("--out-dir", dest="out_dir", help="also write e.csv here")
    p.add_argument("--thresholds", help="zone thresholds as lo,hi")
    _add_estimation_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("simulate", help="write a synthetic stream and labels")
    p.add_argument("--kind", choices=["poisson", "cluster", "periodic"],
                   default="poisson")
    p.add_argument("--out", required=True, help="stream output path")
    p.add_argument("--labels", help="label sidecar path (default <out>.labels.csv)")
    p.add_argument("--m", type=int, help="event count")
    p.add_argument("--mean-gap", dest="mean_gap", type=float)
    p.add_argument("--trigger-gap", dest="trigger_gap", type=float)
    p.add_argument("--burst-mean", dest="burst_mean", type=float)
    p.add_argument("--intra-gap", dest="intra_gap", type=float)
    p.add_argument("--period", type=float)
    p.add_argument("--jitter", type=float)
    p.add_argument("--fraction", type=float)
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("downsample", help="group inter-arrivals and rewrite stream")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--downsample", help="group-size range as min:max")
    _add_common(p)
    p.set_defaults(handler=_cmd_downsample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_help()
        return EXIT_ERROR
    try:
        return args.handler(args)
    except StreamAnalysisError as exc:
        return _fail(str(exc))
    except FileNotFoundError as exc:
        return _fail(f"cannot read {exc.filename}")
    except (ValueError, json.JSONDecodeError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
