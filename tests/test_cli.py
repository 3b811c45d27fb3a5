import json
import subprocess
import sys

import pytest

from renewalstream.cli import main
from renewalstream.ingest import parse_stream
from renewalstream.synth import gen_poisson, inject_periodic


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


@pytest.mark.parametrize("command", ["analyze", "detect"])
@pytest.mark.parametrize("delta", ["0", "1e-9", "nan", "inf", "-1"])
def test_bad_bin_width_fails_with_one_error_line(
    tmp_path, poisson_log, capsys, command, delta
):
    out = tmp_path / "out"
    argv = [command, str(poisson_log), "--delta", delta, "--out-dir", str(out)]
    assert main(argv) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len([line for line in err_lines if line.startswith("error:")]) == 1
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
    assert main(["detect", str(poisson_log), "--delta", delta]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error:")


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
