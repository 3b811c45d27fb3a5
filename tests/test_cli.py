import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalstream import cli
from renewalstream.cli import SETTINGS, main
from renewalstream.ingest import parse_stream
from renewalstream.synth import gen_poisson, inject_periodic
from test_ingest import logs


def write_stream(path, stream):
    path.write_text("".join(f"{t}\n" for t in stream.times), encoding="utf-8")


@pytest.fixture()
def poisson_log(tmp_path):
    path = tmp_path / "stream.log"
    write_stream(path, gen_poisson(2.0, 8000, seed=42))
    return path


class TestAnalyze:
    def test_writes_all_artifacts(self, tmp_path, poisson_log):
        out = tmp_path / "out"
        code = main(
            ["analyze", str(poisson_log), "--k", "80", "--out-dir", str(out)]
        )
        assert code == 0
        for name in ("rd_empirical.csv", "rd_convolution.csv", "e.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {
            "rate", "m", "k", "delta", "e_max_norm", "position_tweets", "zone",
        }
        assert summary["m"] == 8000
        assert summary["k"] == 80

    def test_rerun_is_byte_identical(self, tmp_path, poisson_log):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["analyze", str(poisson_log), "--k", "60", "--out-dir", str(out_a)]) == 0
        assert main(["analyze", str(poisson_log), "--k", "60", "--out-dir", str(out_b)]) == 0
        for name in ("rd_empirical.csv", "rd_convolution.csv", "e.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_single_event_input_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "one.log"
        path.write_text("5\n", encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.log")]) == 1


@pytest.mark.parametrize("command", ["analyze", "characterize", "detect"])
@pytest.mark.parametrize(
    "delta", ["0", "1e-9", "nan", "inf", "-1", "1e-308", "5e-324", "1e-320"]
)
def test_bad_bin_width_fails_with_one_error_line(
    tmp_path, poisson_log, capsys, command, delta
):
    # at k = 1 the five-event log's grid ends at one bin whatever the width,
    # so no grid budget stops a subnormal width there
    tiny = tmp_path / "tiny.log"
    tiny.write_text("0\n0\n0\n0\n1\n", encoding="utf-8")
    out = tmp_path / "out"
    for log in ([str(poisson_log)], [str(tiny), "--k", "1"]):
        argv = [command, *log, "--delta", delta, "--out-dir", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert "Warning" not in err and not caught
        assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "characterize"])
@pytest.mark.parametrize("delta", ["1e18", "9.3e18", "1e300"])
def test_one_bin_grid_still_scored(tmp_path, poisson_log, capsys, command, delta):
    # an integral width of 2**63 or more cannot divide the lags as int64
    out = tmp_path / "out"
    argv = [command, str(poisson_log), "--delta", delta, "--out-dir", str(out)]
    assert main(argv) == 0
    # one bin holds every pair lag below k: both estimates read k / width
    assert json.loads(capsys.readouterr().out)["e_max_norm"] == 0.0
    assert (out / "e.csv").read_text().count("\n") == 2


@pytest.mark.parametrize("delta", ["3000", "1e300"])
def test_detect_on_one_bin_grid_fails_with_one_error_line(
    poisson_log, capsys, delta
):
    for origin in ([], ["--exclude-origin-bin"]):
        assert main(["detect", str(poisson_log), "--delta", delta, *origin]) == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("error:")


@pytest.mark.parametrize(
    "delta, n_sub, sub_bins",
    # grids of 10, 4 and 2 bins at k 20, one bin fewer without the origin
    [("2", 4, 2), ("5", 1, 3), ("8", None, None)],
)
def test_detect_caps_n_sub_on_the_bins_left_after_the_origin_bin(
    tmp_path, capsys, delta, n_sub, sub_bins
):
    path = tmp_path / "p6k.log"
    write_stream(path, gen_poisson(2.0, 6000, seed=3))
    argv = ["detect", str(path), "--k", "20", "--delta", delta, "--exclude-origin-bin"]
    code = main(argv)
    captured = capsys.readouterr()
    if n_sub is None:
        assert code == 1
        assert captured.err.splitlines() == [
            "error: detection needs a grid of at least 2 bins, got 1 after the "
            "origin bin; use a smaller bin width"
        ]
    else:
        assert code == 0
        report = json.loads(captured.out)
        assert (report["n_sub"], report["n_bins"]) == (n_sub, sub_bins)
        assert captured.err.splitlines() == [
            f"warning: reducing n_sub from 8 to {n_sub} for a short grid"
        ]


@pytest.mark.parametrize("command", ["analyze", "characterize", "detect"])
def test_epoch_beyond_int64_fails_with_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "big.log"
    path.write_text("5\n99999999999999999999\n", encoding="utf-8")
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: line 2: epoch seconds outside the int64 range: "
        "'99999999999999999999'"
    ]


def test_directory_input_fails_with_one_error_line(tmp_path, capsys):
    assert main(["analyze", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot read {tmp_path}: Is a directory"
    ]


@pytest.mark.parametrize(
    "args, message",
    [
        (["analyze", "--thresholds", "1"], "--thresholds must be lo,hi, got '1'"),
        (["characterize", "--thresholds", "1,2,3"],
         "--thresholds must be lo,hi, got '1,2,3'"),
        (["analyze", "--thresholds", "a,b"], "--thresholds must be lo,hi, got 'a,b'"),
        (["analyze", "--config", "{CFG}"], "--thresholds must be lo,hi, got [1]"),
        (["downsample", "--downsample", "3", "--out", "{OUT}"],
         "--downsample must be min:max, got '3'"),
        (["downsample", "--downsample", "2:x", "--out", "{OUT}"],
         "--downsample must be min:max, got '2:x'"),
    ],
)
def test_malformed_range_flag_fails_with_one_error_line(
    tmp_path, poisson_log, capsys, args, message
):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"thresholds": [1]}), encoding="utf-8")
    out = tmp_path / "down.log"
    args = [a.format(CFG=config, OUT=out) for a in args]
    assert main([args[0], str(poisson_log), *args[1:]]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def _argv(command, log, tmp_path):
    if command == "simulate":
        return ["simulate", "--out", str(tmp_path / "sim.log")]
    if command == "downsample":
        return ["downsample", str(log), "--out", str(tmp_path / "down.log")]
    return [command, str(log)]


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("detect", {"k": "abc"}, "--k must be an integer, got 'abc'"),
        ("analyze", {"k": True}, "--k must be an integer, got True"),
        ("analyze", {"k": 4.0}, "--k must be an integer, got 4.0"),
        ("characterize", {"delta": False}, "--delta must be a number, got False"),
        ("detect", {"n_sub": None}, "--n-sub must be an integer, got None"),
        ("detect", [1, 2], "{CFG} must hold one JSON object"),
        ("detect", "kk", "{CFG} must hold one JSON object"),
        ("detect", {"n_subs": 4}, "{CFG}: unknown key 'n_subs'"),
        ("analyze", {"seed": 3}, "{CFG}: unknown key 'seed'"),
        ("simulate", {"out_dir": "x"}, "{CFG}: unknown key 'out_dir'"),
        ("detect", {"exclude_origin_bin": "false"},
         "--exclude-origin-bin must be true or false, got 'false'"),
        ("simulate", {"seed": "x"}, "--seed must be an integer, got 'x'"),
        ("simulate", {"mean_gap": [2]}, "--mean-gap must be a number, got [2]"),
        ("downsample", {"downsample": [2, 3, 4]},
         "--downsample must be min:max, got [2, 3, 4]"),
        ("downsample", {"downsample": [2, 3.5]},
         "--downsample must be min:max, got [2, 3.5]"),
        ("analyze", {"out_dir": 7}, "--out-dir must be a path, got 7"),
    ],
)
def test_bad_config_fails_with_one_error_line_naming_it(
    tmp_path, poisson_log, capsys, command, config, message
):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = [*_argv(command, poisson_log, tmp_path), "--config", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: " + message.format(CFG=path)
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "stream.log"]


@pytest.mark.parametrize("text", ["{k: 3}", "[" * 100_000 + "]" * 100_000])
def test_config_that_is_not_json_fails_with_one_error_line(
    tmp_path, poisson_log, capsys, text
):
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(poisson_log), "--config", str(path)]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith(f"error: {path} is not valid JSON: ")


@pytest.mark.parametrize(
    "config, flags",
    [
        ({"delta": "1"}, ["--delta", "1"]),
        ({"half_window": "3", "trim": 0}, ["--half-window", "3", "--trim", "0"]),
        ({"exclude_origin_bin": True, "k": 40}, ["--exclude-origin-bin", "--k", "40"]),
        ({"exclude_origin_bin": False}, []),
    ],
)
def test_config_values_read_as_the_flags_read(
    tmp_path, poisson_log, capsys, config, flags
):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    from_file = main(["detect", str(poisson_log), "--config", str(path)])
    file_out = capsys.readouterr()
    from_flags = main(["detect", str(poisson_log), *flags])
    assert (from_file, file_out) == (from_flags, capsys.readouterr())


@pytest.mark.parametrize(
    "command, written", [("characterize", "e.csv"), ("detect", "detection.json")]
)
def test_out_dir_from_config_writes_as_the_flag_does(
    tmp_path, poisson_log, command, written
):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"out_dir": str(tmp_path / "c")}), encoding="utf-8")
    assert main([command, str(poisson_log), "--config", str(path)]) == 0
    assert main([command, str(poisson_log), "--out-dir", str(tmp_path / "f")]) == 0
    assert (tmp_path / "c" / written).read_bytes() == (
        tmp_path / "f" / written
    ).read_bytes()


@pytest.mark.parametrize(
    "args, message",
    [
        (["detect", "{LOG}", "--bogus"], "unrecognized arguments: --bogus"),
        (["detect", "{LOG}", "--k", "1O"], "--k must be an integer, got '1O'"),
        (["analyze", "{LOG}", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["characterize", "{LOG}", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["simulate"], "the following arguments are required: --out"),
        (["simulate", "--kind", "weird", "--out", "X"],
         "argument --kind: invalid choice: 'weird'"),
        (["analyze"], "the following arguments are required: input"),
        ([], "the following arguments are required: command"),
    ],
)
def test_usage_error_exits_one_not_two(
    tmp_path, monkeypatch, poisson_log, capsys, args, message
):
    monkeypatch.chdir(tmp_path)  # a run that wrongly went ahead writes here
    assert main([a.format(LOG=poisson_log) for a in args]) == 1
    captured = capsys.readouterr()
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith(f"error: {message}")
    assert captured.out == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["detect", "--help"])
    assert exit_info.value.code == 0
    assert "--exclude-origin-bin" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, target, reason",
    [
        (["characterize", "{LOG}", "--out-dir", "{FILE}"], "{FILE}", "File exists"),
        (["downsample", "{LOG}", "--downsample", "2:3", "--out", "{DIR}"], "{DIR}",
         "Is a directory"),
        (["simulate", "--out", "{DIR}/missing/x.log"], "{DIR}/missing/x.log",
         "No such file or directory"),
    ],
)
def test_write_failure_fails_with_one_error_line(
    tmp_path, poisson_log, capsys, args, target, reason
):
    names = {"LOG": poisson_log, "FILE": poisson_log, "DIR": tmp_path}
    argv = [a.format(**names) for a in args]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {target.format(**names)}: {reason}"
    ]


@pytest.mark.parametrize(
    "data, message",
    [(b"\xff\xfe", "byte 0 (invalid start byte)"),
     (b"1\n2\n\xc3", "byte 4 (unexpected end of data)")],
)
def test_non_utf8_input_fails_with_one_error_line(tmp_path, capsys, data, message):
    path = tmp_path / "binary.log"
    path.write_bytes(data)
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot read {path}: not UTF-8 at {message}"
    ]


def _analyze_outcome(path, out_dir, capsys):
    """Exit code, stdout, stderr (the log path masked) and written files."""
    code = main(["analyze", str(path), "--k", "40", "--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    files = {f.name: f.read_bytes() for f in sorted(out_dir.glob("*"))}
    return code, out, err.replace(str(path), "LOG"), files


def test_line_ends_and_encodings_read_as_before(tmp_path, capsys, monkeypatch):
    """A log reads as its UTF-8 text with universal newlines, whichever route
    it takes: bytes for ASCII with only \\n line ends, text otherwise."""
    lines = [str(t) for t in gen_poisson(2.0, 3000, seed=5).times]
    logs = {
        "lf": ("\n".join(lines) + "\n").encode(),
        "crlf": ("\r\n".join(lines) + "\r\n").encode(),
        "cr": ("\r".join(lines) + "\r").encode(),
        "accent": ("# café\n" + "\n".join(lines) + "\n").encode(),
        "three": ("\n".join(lines) + "\n3\n").encode(),
        "arabic_three": ("\n".join(lines) + "\n\u0663\n").encode(),
        "word": ("\n".join(lines) + "\ncafé\n").encode(),
        "latin1": ("\n".join(lines) + "\n# caf\xe9\n").encode("latin-1"),
    }
    outcomes = {}
    for name, data in logs.items():
        path = tmp_path / f"{name}.log"
        path.write_bytes(data)
        outcomes[name] = _analyze_outcome(path, tmp_path / name, capsys)
    code, _, _, files = outcomes["lf"]
    assert code == 0 and len(files) == 4
    for name in ("crlf", "cr", "accent"):
        assert outcomes[name] == outcomes["lf"], name
    assert outcomes["arabic_three"] == outcomes["three"]  # int() reads any digit
    bad_line = f"line {len(lines) + 1}: expected integer epoch seconds"
    assert outcomes["word"] == (
        1, "", f"error: {bad_line} or YYYY-MM-DDTHH:MM:SS: 'café'\n", {}
    )
    assert outcomes["latin1"] == (
        1, "", f"error: cannot read LOG: not UTF-8 at byte "
        f"{len(logs['lf']) + 5} (invalid continuation byte)\n", {}
    )

    def no_text(path, data=None):
        raise AssertionError("an ASCII log with \\n line ends took the text route")

    monkeypatch.setattr(cli, "_read_text", no_text)
    assert _analyze_outcome(tmp_path / "lf.log", tmp_path / "lf2", capsys) == (
        outcomes["lf"]
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["--mean-gap", "1e300", "--m", "5"], "the stream would span"),
        (["--kind", "cluster", "--trigger-gap", "1e300", "--m", "5"],
         "the stream would span"),
        (["--kind", "periodic", "--period", "1e300", "--m", "50"],
         "the train would reach"),
        (["--kind", "periodic", "--fraction", "1e300", "--m", "5"],
         "gives a train of"),
        (["--kind", "periodic", "--fraction", "inf", "--m", "5"], "gives a train of"),
        (["--m", "1000000000000"], "need 2 <= m <= 16777216"),
        (["--kind", "cluster", "--m", "1000000000000"], "need 2 <= m <= 16777216"),
        (["--kind", "cluster", "--burst-mean", "1e15", "--m", "5"],
         "would draw about"),
        (["--kind", "cluster", "--burst-mean", "inf", "--m", "5"], "would draw about"),
    ],
)
def test_generator_out_of_range_fails_with_one_error_line(
    tmp_path, capsys, args, message
):
    # every value here is rejected before a stream is drawn
    out = tmp_path / "sim.log"
    assert main(["simulate", *args, "--out", str(out)]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error:")
    assert message in err_lines[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, flag",
    [("poisson", "--mean-gap"), ("cluster", "--trigger-gap"),
     ("cluster", "--intra-gap"), ("periodic", "--period"), ("periodic", "--jitter")],
)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_generator_parameter_fails_with_one_error_line(
    tmp_path, capsys, kind, flag, value
):
    out = tmp_path / "sim.log"
    assert main(["simulate", "--kind", kind, flag, value, "--out", str(out)]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error:")
    assert "finite" in err_lines[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "detect"])
def test_span_beyond_int64_fails_with_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "wide.log"
    lines = [str(t) for t in range(0, 18000, 3)] + ["-9223372036854775808"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: stream spans 9223372036854793805 seconds, beyond the int64 range"
    ]


class TestDetect:
    def test_pure_poisson_exits_zero(self, tmp_path, poisson_log, capsys):
        code = main(["detect", str(poisson_log), "--k", "80"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["detected"] is False
        assert set(report) == {
            "n_sub", "n_bins", "p_fa", "subs", "detected", "dropped_bins",
        }

    def test_injected_train_exits_two(self, tmp_path, capsys):
        base = gen_poisson(240.0, 30_000, seed=9)
        span = int(base.times[-1] - base.times[0])
        period = 12_000.0
        merged = base
        for i in range(3):
            merged, _ = inject_periodic(
                merged, period, count=span // int(period), seed=90 + i
            )
        path = tmp_path / "spam.log"
        write_stream(path, merged)
        # n_sub chosen so each sub-density is ~32 bins; period spikes then
        # dominate their sub-density's chi-square
        code = main(
            [
                "detect", str(path),
                "--k", "150", "--delta", "1", "--n-sub", "836",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["detected"] is True

    def test_small_input_warns_but_reports(self, tmp_path, capsys):
        path = tmp_path / "tiny.log"
        write_stream(path, gen_poisson(2.0, 100, seed=1))
        code = main(["detect", str(path), "--k", "8"])
        captured = capsys.readouterr()
        assert code in (0, 2)
        assert "warning:" in captured.err
        report = json.loads(captured.out)
        assert report["n_sub"] >= 1 and report["n_bins"] >= 2

    def test_config_file_with_flag_precedence(self, tmp_path, poisson_log, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 40, "p_fa": 0.01}), encoding="utf-8")
        code = main(
            ["detect", str(poisson_log), "--config", str(cfg), "--p-fa", "0.05"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert report["p_fa"] == 0.05  # flag wins over file


class TestSimulate:
    def test_writes_stream_and_labels(self, tmp_path):
        out = tmp_path / "sim.log"
        code = main(
            [
                "simulate", "--kind", "periodic", "--m", "2000",
                "--mean-gap", "5", "--period", "300", "--fraction", "0.05",
                "--seed", "4", "--out", str(out),
            ]
        )
        assert code == 0
        stream = parse_stream(out.read_text())
        assert stream.m == 2000 + 100
        labels = (tmp_path / "sim.log.labels.csv").read_text().strip().split("\n")
        assert labels[0] == "time,label"
        assert len(labels) == stream.m + 1
        injected = sum(1 for line in labels[1:] if line.endswith(",injected"))
        assert injected == 100

    def test_round_trip(self, tmp_path):
        out = tmp_path / "p.log"
        assert main(
            ["simulate", "--kind", "poisson", "--m", "1000", "--mean-gap", "2",
             "--seed", "5", "--out", str(out)]
        ) == 0
        assert parse_stream(out.read_text()).m == 1000

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        out_env = tmp_path / "env.log"
        out_flag = tmp_path / "flag.log"
        out_other = tmp_path / "other.log"
        base = ["simulate", "--kind", "poisson", "--m", "500", "--mean-gap", "2"]
        monkeypatch.setenv("RS_SEED", "77")
        assert main(base + ["--out", str(out_env)]) == 0
        monkeypatch.delenv("RS_SEED")
        assert main(base + ["--seed", "77", "--out", str(out_flag)]) == 0
        assert main(base + ["--seed", "78", "--out", str(out_other)]) == 0
        assert out_env.read_bytes() == out_flag.read_bytes()
        assert out_env.read_bytes() != out_other.read_bytes()

    def test_bad_env_seed_is_named_as_the_variable(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "sim.log"
        monkeypatch.setenv("RS_SEED", "x")
        assert main(["simulate", "--m", "50", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: $RS_SEED must be an integer, got 'x'"
        ]
        assert not out.exists()
        # a flag takes precedence, so the variable is not read at all
        assert main(["simulate", "--m", "50", "--seed", "3", "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "args, env_seed, config, seed",
    [
        (["simulate", "--seed", "-1"], None, None, -1),
        (["downsample", "{LOG}", "--downsample", "2:3", "--seed=-1"], None, None, -1),
        (["simulate"], "-3", None, -3),
        (["simulate"], None, {"seed": -2}, -2),
    ],
)
def test_negative_seed_is_named_with_its_value(
    tmp_path, monkeypatch, poisson_log, capsys, args, env_seed, config, seed
):
    out = tmp_path / "out.log"
    argv = [a.format(LOG=poisson_log) for a in args] + ["--out", str(out)]
    if env_seed is not None:
        monkeypatch.setenv("RS_SEED", env_seed)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: seed must be >= 0, got {seed}"
    ]
    assert not out.exists()


class TestDownsample:
    def test_preserves_span_and_shrinks(self, tmp_path, poisson_log):
        out = tmp_path / "down.log"
        code = main(
            ["downsample", str(poisson_log), "--downsample", "2:4",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        original = parse_stream(poisson_log.read_text())
        reduced = parse_stream(out.read_text())
        assert reduced.m < original.m
        assert reduced.times[0] == original.times[0]
        assert reduced.times[-1] == original.times[-1]

    def test_requires_range(self, tmp_path, poisson_log):
        assert main(
            ["downsample", str(poisson_log), "--out", str(tmp_path / "x.log")]
        ) == 1


class TestCharacterize:
    def test_prints_summary_json(self, tmp_path, poisson_log, capsys):
        code = main(["characterize", str(poisson_log), "--k", "80"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"e_max_norm", "position_tweets", "zone"}

    def test_writes_curves_when_asked(self, tmp_path, poisson_log):
        out = tmp_path / "curves"
        assert main(
            ["characterize", str(poisson_log), "--k", "80", "--out-dir", str(out)]
        ) == 0
        assert (out / "e.csv").read_text().startswith("t,e,E\n")


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "renewalstream", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "analyze" in proc.stdout


FUZZ_COMMANDS = ["analyze", "detect", "characterize", "simulate", "downsample"]
JUNK_KEYS = ["kk", "n_subs", "input", "out", "config", "labels", "kind", "seed"]
# No "/" or "." in drawn text, so an out_dir drawn as text stays below the
# run directory. simulate draws numbers up to 50 only: --m and gen_cluster's
# draw are bounded by MAX_EVENTS, but a draw near those bounds allocates
# hundreds of MB and takes seconds.
TEXT = st.text(alphabet="ab19-_ :,eEé\x00", max_size=6)
SPECIALS = [0.0, -1.0, 1e-9, 5e-324, math.nan]
BIG_SPECIALS = [1e300, math.inf, -math.inf]


def _fuzz_value(command, key, as_text):
    """Mostly a value of the setting's form, sometimes one of any JSON type."""
    simulate = command == "simulate"
    integers = st.integers(-3, 50 if simulate else 5000)
    specials = st.sampled_from(SPECIALS + ([] if simulate else BIG_SPECIALS))
    numbers = st.one_of(integers, st.floats(0.5, 50), specials, specials)
    if key in ("thresholds", "downsample"):
        items = st.floats(0, 0.05) if key == "thresholds" else st.integers(-1, 6)
        sep = "," if key == "thresholds" else ":"
        good = st.lists(items, min_size=2, max_size=2)
        good = st.one_of(good, good.map(lambda p: sep.join(map(str, p))))
    elif key == "out_dir":
        good = TEXT
    elif key == "exclude_origin_bin":
        good = st.booleans()
    elif key in SETTINGS and SETTINGS[key][0].form == "an integer":
        good = st.one_of(integers, integers.map(str))
    else:
        good = st.one_of(numbers, numbers.map(str))
    if as_text:
        return good.map(lambda v: v if isinstance(v, str) else json.dumps(v))
    scalars = st.one_of(numbers, st.booleans(), TEXT, st.none())
    junk = st.one_of(
        scalars,
        st.lists(scalars, max_size=3),
        st.dictionaries(TEXT, scalars, max_size=2),
    )
    return st.one_of(good, good, junk)


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(FUZZ_COMMANDS))
    keys = [key for key, row in SETTINGS.items() if command in row[1].split()]
    config = None
    if draw(st.booleans()):
        # mostly the command's own keys, so that most draws reach the library
        names = draw(st.lists(st.sampled_from(keys * 4 + JUNK_KEYS), max_size=3))
        config = {key: draw(_fuzz_value(command, key, False)) for key in names}
        if draw(st.sampled_from(range(10))) == 0:
            config = draw(_fuzz_value(command, "k", False))
    flags = []
    if command == "simulate":
        flags += ["--kind", draw(st.sampled_from(["poisson", "cluster", "periodic"]))]
    for key in draw(st.lists(st.sampled_from(keys * 4 + ["bogus"]), max_size=3)):
        flags.append("--" + key.replace("_", "-"))
        if key != "exclude_origin_bin":
            flags.append(draw(_fuzz_value(command, key, True)))
    return command, config, flags


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    write_stream(path / "in.log", gen_poisson(2.0, 2000, seed=5))
    return path


def _run_in(directory, argv):
    """main's exit code and stderr for a run in directory, stdout dropped."""
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


def _assert_one_outcome(command, code, err):
    assert code in ((0, 1, 2) if command == "detect" else (0, 1))
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) <= 1


@settings(max_examples=300, deadline=None)
@given(invocation=_invocations())
def test_any_settings_end_in_an_exit_code_and_at_most_one_error_line(
    fuzz_dir, invocation
):
    command, config, flags = invocation
    if command == "simulate":
        argv = ["simulate", "--out", "sim.log"]
    elif command == "downsample":
        argv = ["downsample", "in.log", "--out", "down.log"]
    else:
        argv = [command, "in.log"]
    if config is not None:
        (fuzz_dir / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", "cfg.json"]
    _assert_one_outcome(command, *_run_in(fuzz_dir, argv + flags))


# analyze writes one CSV row per grid bin for each of three curves. Under the
# searched width, a few far-apart 10-digit epochs give millions of bins and
# about 25 s a run, so analyze takes a fixed width here; characterize runs
# the same estimate and the width search without writing the curves.
LOG_COMMANDS = [
    ["analyze", "in.log", "--delta", "86400"],
    ["characterize", "in.log"],
    ["detect", "in.log"],
    ["downsample", "in.log", "--downsample", "1:3", "--out", "down.log"],
]
log_bytes = logs().map(lambda text: text.encode("utf-8"))


@pytest.fixture(scope="module")
def log_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("log-fuzz")


@settings(max_examples=100, deadline=None)
@given(
    data=st.one_of(log_bytes, log_bytes, log_bytes, st.binary(max_size=60)),
    argv=st.sampled_from(LOG_COMMANDS),
)
def test_any_log_text_ends_in_an_exit_code_and_at_most_one_error_line(
    log_fuzz_dir, data, argv
):
    (log_fuzz_dir / "in.log").write_bytes(data)
    _assert_one_outcome(argv[0], *_run_in(log_fuzz_dir, argv))
