import functools
import hashlib
import inspect
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import cpdkit.core
import cpdkit.penlik
from cpdkit import (
    ChangepointConfig,
    TimeSeries,
    bench,
    binary_segmentation,
    config_distance,
    gen_null,
    gen_teeth,
)
from cpdkit.cli import _DETECTOR_FLAGS, _method_params, build_parser, main

# SHA-256 of the detect JSON of test_detect_json_is_bit_identical, as recorded
DETECT_JSON_SHA256 = "725eba32ecc62b2ed7f1e40c8387df71af841a3cbbf371d1161d61d04c9cea5f"


def write_step_csv(path, header=True):
    lines = (["value"] if header else []) + ["0.0"] * 50 + ["5.0"] * 50
    path.write_text("\n".join(lines) + "\n")


class TestDetect:
    def test_constant_series_any_method(self, tmp_path, capsys):
        src = tmp_path / "c.csv"
        src.write_text("\n".join(["3.0"] * 40) + "\n")
        for method in ("binseg", "wbs", "wbs2-sdll", "bic", "mbic"):
            assert main(["detect", str(src), "--method", method]) == 0
            result = json.loads(capsys.readouterr().out)
            assert result["changepoints"] == []

    def test_noiseless_step_binseg(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        write_step_csv(src)
        assert main(["detect", str(src), "--method", "binseg"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["changepoints"] == [51]
        assert result["n_changepoints"] == 1
        assert result["segment_means"] == [0.0, 5.0]

    def test_two_column_input(self, tmp_path, capsys):
        src = tmp_path / "tv.csv"
        rows = ["time,value"] + [f"{i},{0.0 if i <= 50 else 5.0}" for i in range(1, 101)]
        src.write_text("\n".join(rows) + "\n")
        assert main(["detect", str(src), "--method", "binseg"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["changepoints"] == [51]

    def test_missing_file_exit_2(self, capsys):
        assert main(["detect", "/no/such/file.csv", "--method", "binseg"]) == 2

    def test_non_numeric_row_exit_3(self, tmp_path, capsys):
        # nan and inf parse as floats; the series once failed as a whole with
        # no line named
        src = tmp_path / "bad.csv"
        for cell in ("bogus", "nan", "inf", "-inf"):
            src.write_text(f"1.0\n2.0\n{cell}\n3.0\n")
            assert main(["detect", str(src), "--method", "binseg"]) == 3
            assert "line 3" in capsys.readouterr().err

    def test_unknown_method_exit_4(self, tmp_path, capsys):
        src = tmp_path / "c.csv"
        src.write_text("1.0\n2.0\n")
        assert main(["detect", str(src), "--method", "pelt"]) == 4

    def test_negative_threshold_constant_exit_4(self, tmp_path, capsys):
        # nan once passed the sign check: exit 0, no changepoints and a
        # "threshold": NaN that is not valid JSON
        src = tmp_path / "s.csv"
        write_step_csv(src)
        for value in ("-1", "nan", "inf", "-inf"):
            for method, flag in (("wbs", "--threshold-c"), ("binseg", "--threshold-c"),
                                 ("wbs2-sdll", "--lambda")):
                assert main(["detect", str(src), "--method", method, f"{flag}={value}"]) == 4
                assert "non-negative" in capsys.readouterr().err

    def test_min_seg_below_two_exit_4(self, tmp_path, capsys):
        # --min-seg 0 once ended in a ZeroDivisionError traceback (exit 1)
        src = tmp_path / "s.csv"
        write_step_csv(src)
        for method in ("bic", "mbic"):
            for value in ("0", "1"):
                assert main(["detect", str(src), "--method", method, "--min-seg", value]) == 4
                assert "min_seg must be at least 2" in capsys.readouterr().err

    def test_min_seg_above_length_exit_4(self, tmp_path, capsys):
        # --min-seg 101 on 100 points once failed with "m_max must be
        # non-negative", a setting the caller never passed
        src = tmp_path / "s.csv"
        write_step_csv(src)
        for method in ("bic", "mbic"):
            assert main(["detect", str(src), "--method", method, "--min-seg", "101"]) == 4
            assert "infeasible: 1 segments of length >= 101" in capsys.readouterr().err

    def test_unwritable_out_exit_4(self, tmp_path, capsys):
        # a missing directory or a directory as --out once ended in a
        # traceback (exit 1)
        src = tmp_path / "s.csv"
        write_step_csv(src)
        for out in (tmp_path / "missing" / "dir" / "x.json", tmp_path):
            assert main(["detect", str(src), "--method", "binseg", "--out", str(out)]) == 4
            err = capsys.readouterr().err
            assert str(out) in err
            assert "Traceback" not in err

    def test_out_file_and_determinism(self, tmp_path):
        src = tmp_path / "n.csv"
        rng = np.random.default_rng(0)
        src.write_text("\n".join(str(v) for v in rng.standard_normal(120)) + "\n")
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(["detect", str(src), "--method", "wbs", "--seed", "3",
                         "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_floor_mult_flag_reaches_detector(self, tmp_path, capsys):
        series, _ = gen_teeth(300, period=20, sigma=0.6, seed=0)
        src = tmp_path / "teeth.csv"
        src.write_text("".join(f"{v!r}\n" for v in series.values.tolist()))
        assert main(["detect", str(src), "--method", "wbs2-sdll", "--seed", "0",
                     "--floor-mult", "1.0"]) == 0
        assert json.loads(capsys.readouterr().out)["n_changepoints"] == 1

    def test_min_len_flag_reaches_detector(self, tmp_path, capsys):
        # noiseless staircase, one step every 4 observations
        values = np.repeat(np.arange(10.0), 4)
        src = tmp_path / "stairs.csv"
        src.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        for min_len, expected in ((2, list(range(5, 41, 4))), (17, [9, 21, 29])):
            assert main(["detect", str(src), "--method", "binseg",
                         "--min-len", str(min_len)]) == 0
            assert json.loads(capsys.readouterr().out)["changepoints"] == expected
            api = binary_segmentation(TimeSeries(values), min_len=min_len)
            assert list(api.times) == expected

    def test_penalized_detect_runs_dp_once(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "n.csv"
        rng = np.random.default_rng(1)
        src.write_text("\n".join(str(v) for v in rng.standard_normal(40)) + "\n")
        calls = []
        table = cpdkit.penlik.segment_rss_table

        def counted(*args, **kwargs):
            calls.append(1)
            return table(*args, **kwargs)

        monkeypatch.setattr(cpdkit.penlik, "segment_rss_table", counted)
        for method in ("bic", "mbic"):
            calls.clear()
            assert main(["detect", str(src), "--method", method]) == 0
            assert json.loads(capsys.readouterr().out)["rss"] > 0
            assert len(calls) == 1, method

    def test_detect_computes_noise_scale_once(self, tmp_path, capsys, count_calls):
        # the reported sigma_hat is the one the detector used, not a recount
        src = tmp_path / "n.csv"
        values = np.random.default_rng(2).standard_normal(60)
        src.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        calls = count_calls(cpdkit.core, "mad_sigma")
        for method in bench.VALID_METHODS:
            calls.clear()
            assert main(["detect", str(src), "--method", method]) == 0
            assert json.loads(capsys.readouterr().out)["sigma_hat"] > 0
            assert len(calls) == 1, method

    @pytest.mark.parametrize("scale", [1e154, 1e-200])
    def test_penalized_detect_outside_moment_range_exits_4(self, tmp_path, capsys, scale):
        src = tmp_path / "n.csv"
        values = scale * np.random.default_rng(2).standard_normal(60)
        src.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        for method in ("bic", "mbic"):
            assert main(["detect", str(src), "--method", method]) == 4
            assert "between about 1e-150 and " in capsys.readouterr().err

    def test_detector_flag_defaults_match_detectors(self):
        # every flag default must equal, in value and type, the parameter it
        # feeds; the teeth flags feed TeethSpec, whose defaults are gen_teeth's
        parser = build_parser()
        for argv in (["detect", "x.csv", "--method", "bic"], ["bench"]):
            for method, params in _method_params(parser.parse_args(argv)).items():
                signature = inspect.signature(bench.METHODS[method])
                for name, value in params.items():
                    default = signature.parameters[name].default
                    assert (type(value), value) == (type(default), default), (method, name)
        args = parser.parse_args(["bench"])
        spec = bench.TeethSpec(length=args.teeth_length)
        generator = inspect.signature(gen_teeth).parameters
        for name in ("period", "amplitude", "sigma"):
            value = getattr(args, f"teeth_{name}")
            default = getattr(spec, name)
            assert (type(value), value) == (type(default), default), name
            assert default == generator[name].default, name


DETECTOR_FLAGS = [  # flag, a non-default value, the parameter it sets, its methods
    ("--threshold-c", 2.5, "c", ("binseg", "wbs")),
    ("--intervals", 300, "m_intervals", ("wbs",)),
    ("--min-span", 3, "min_span", ("wbs",)),
    ("--min-len", 4, "min_len", ("binseg",)),
    ("--m-stage", 50, "m_stage", ("wbs2-sdll",)),
    ("--lambda", 1.1, "lam", ("wbs2-sdll",)),
    ("--floor-mult", 0.5, "floor_mult", ("wbs2-sdll",)),
    ("--min-seg", 3, "min_seg", ("bic", "mbic")),
]


@pytest.mark.parametrize("flag, value, name, methods", DETECTOR_FLAGS,
                         ids=[flag for flag, *_ in DETECTOR_FLAGS])
def test_detector_flag_reaches_detector(tmp_path, capsys, monkeypatch, flag, value, name,
                                        methods):
    src = tmp_path / "s.csv"
    write_step_csv(src)
    for method in methods:
        detector = bench.METHODS[method]
        seen = []

        @functools.wraps(detector)
        def spy(*args, **kwargs):
            seen.append(kwargs.get(name))
            return detector(*args, **kwargs)

        monkeypatch.setitem(bench.METHODS, method, spy)
        assert main(["detect", str(src), "--method", method, flag, str(value)]) == 0
        assert main(["bench", "--methods", method, "--lengths", "30", "--reps", "1",
                     "--out", str(tmp_path / method), flag, str(value)]) == 0
        assert [(type(v), v) for v in seen] == [(type(value), value)] * 2, method


def test_every_detector_setting_is_one_flag():
    # binseg once took an explicit threshold that no flag could set, so the
    # API ran a detector the CLI could not
    dests = [name for _, name, _ in _DETECTOR_FLAGS]
    for method, detector in bench.METHODS.items():
        for name in inspect.signature(detector).parameters:
            if name not in ("series", "seed"):
                assert dests.count(name) == 1, (method, name)


def test_detect_json_is_bit_identical(tmp_path, capsys):
    # every method's JSON with default flags, on a teeth and a null series
    outputs = []
    for name, series in (("teeth", gen_teeth(300, 30, seed=1)[0]), ("null", gen_null(300, 1))):
        src = tmp_path / f"{name}.csv"
        src.write_text("".join(f"{v!r}\n" for v in series.values.tolist()))
        for method in ("binseg", "wbs", "wbs2-sdll", "bic", "mbic"):
            assert main(["detect", str(src), "--method", method]) == 0
            outputs.append(capsys.readouterr().out)
    digest = hashlib.sha256("".join(outputs).encode("utf-8")).hexdigest()
    assert digest == DETECT_JSON_SHA256


USAGE_ERRORS = [  # argv, a part of argparse's message
    (["detect", "{src}", "--method", "binseg", "--intervals", "2.5"],
     "argument --intervals: invalid int value: '2.5'"),
    (["detect", "{src}"], "the following arguments are required: --method"),
    (["detect", "{src}", "--method", "binseg", "--no-such-flag"],
     "unrecognized arguments: --no-such-flag"),
    (["bench", "--reps", "x", "--out", "{out}"], "argument --reps: invalid int value: 'x'"),
    ([], "the following arguments are required: command"),
]


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                             ids=["non-integer", "missing", "unknown", "bench", "no-command"])
    def test_usage_error_exit_4(self, tmp_path, capsys, argv, message):
        # argparse once exited 2, the code of an unreadable file
        src, out = tmp_path / "s.csv", tmp_path / "out"
        write_step_csv(src)
        assert main([a.format(src=src, out=out) for a in argv]) == 4
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_process_exit_4(self, tmp_path):
        write_step_csv(tmp_path / "s.csv")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cpdkit.core.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "cpdkit.cli", "detect", str(tmp_path / "s.csv"),
             "--method", "binseg", "--intervals", "2.5"],
            capture_output=True, text=True, env=env)
        assert done.returncode == 4
        assert "invalid int value: '2.5'" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("argv", [["--help"], ["detect", "--help"], ["bench", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cpdkit")


class TestDistance:
    def test_identical_files(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("10\n20\n")
        assert main(["distance", str(a), str(a), "--length", "100"]) == 0
        assert "distance: 0.000000" in capsys.readouterr().out

    def test_hand_example(self, tmp_path, capsys):
        t = tmp_path / "t.txt"
        e = tmp_path / "e.txt"
        t.write_text("10\n")
        e.write_text("20\n90\n")
        assert main(["distance", str(t), str(e), "--length", "100"]) == 0
        out = capsys.readouterr().out
        assert "count_term: 1" in out
        assert "assignment_term: 0.100000" in out
        assert "distance: 1.100000" in out

    def test_empty_truth(self, tmp_path, capsys):
        t = tmp_path / "t.txt"
        e = tmp_path / "e.txt"
        t.write_text("")
        e.write_text("5\n9\n14\n")
        assert main(["distance", str(t), str(e), "--length", "100"]) == 0
        assert "distance: 3.000000" in capsys.readouterr().out

    def test_out_of_range_exit_3(self, tmp_path, capsys):
        t = tmp_path / "t.txt"
        e = tmp_path / "e.txt"
        t.write_text("150\n")
        e.write_text("5\n")
        assert main(["distance", str(t), str(e), "--length", "100"]) == 3

    def test_non_integer_exit_3(self, tmp_path):
        t = tmp_path / "t.txt"
        e = tmp_path / "e.txt"
        t.write_text("5.5\n")
        e.write_text("5\n")
        assert main(["distance", str(t), str(e), "--length", "100"]) == 3

    def test_missing_file_exit_2(self, tmp_path):
        e = tmp_path / "e.txt"
        e.write_text("5\n")
        assert main(["distance", "/no/file", str(e), "--length", "100"]) == 2

    def test_short_length_exit_4_with_the_setting_rule(self, tmp_path, capsys):
        # the one rule of a length, in the words every other path raises
        t = tmp_path / "t.txt"
        e = tmp_path / "e.txt"
        t.write_text("")
        e.write_text("")
        with pytest.raises(ValueError) as rule:
            cpdkit.core.check_settings(length=1)
        assert main(["distance", str(t), str(e), "--length", "1"]) == 4
        assert capsys.readouterr().err == f"{rule.value}\n"


class TestRoundTrip:
    def test_detect_then_distance_self_is_zero(self, tmp_path, capsys):
        src = tmp_path / "steps.csv"
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(0, 0.2, 40), rng.normal(3, 0.2, 40)])
        src.write_text("\n".join(str(v) for v in x) + "\n")
        out = tmp_path / "det.json"
        assert main(["detect", str(src), "--method", "binseg", "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        cps = tmp_path / "cps.txt"
        cps.write_text("\n".join(str(t) for t in result["changepoints"]) + "\n")
        assert main(["distance", str(cps), str(cps), "--length", str(result["n_obs"])]) == 0
        assert "distance: 0.000000" in capsys.readouterr().out

    def test_detect_then_distance_gives_config_distance(self, tmp_path, capsys):
        # noisy teeth, so the methods miss or move some changes
        series, truth = gen_teeth(200, 20, 1.0, 0.6, seed=3)
        src, truth_file = tmp_path / "teeth.csv", tmp_path / "truth.txt"
        src.write_text("".join(f"{v!r}\n" for v in series.values.tolist()))
        truth_file.write_text("".join(f"{t}\n" for t in truth.times))
        distances = set()
        for method in bench.VALID_METHODS:
            out = tmp_path / f"{method}.json"
            assert main(["detect", str(src), "--method", method, "--out", str(out)]) == 0
            times = json.loads(out.read_text())["changepoints"]
            cps = tmp_path / f"{method}.txt"
            cps.write_text("".join(f"{t}\n" for t in times))
            capsys.readouterr()
            assert main(["distance", str(truth_file), str(cps), "--length", "200"]) == 0
            expected = config_distance(truth, ChangepointConfig.from_times(times, 200))
            assert f"distance: {expected:.6f}\n" in capsys.readouterr().out, method
            distances.add(expected)
        assert len(distances) > 1  # not every method recovers the truth

    def test_bench_csv_parses_back_to_the_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(["bench", "--methods", "binseg", "wbs", "--lengths", "60", "80",
                     "--reps", "8", "--seed", "3", "--signal", "--teeth-length", "100",
                     "--teeth-sigma", "0.6", "--out", str(out)]) == 0
        reports = {
            "null": bench.run_null_study(["binseg", "wbs"], [60, 80], 8, 3),
            "signal": bench.run_signal_study(
                bench.TeethSpec(100, sigma=0.6), ["binseg", "wbs"], 8, 3),
        }
        for study, report in reports.items():
            lines = (out / f"{study}_results.csv").read_text().splitlines()
            assert lines[0] == "method,series_length,n_reps,false_positive_rate,avg_distance"
            parsed = [line.split(",") for line in lines[1:]]
            assert len(parsed) == len(report.rows)
            for (method, length, n_reps, fp, dist), row in zip(parsed, report.rows):
                assert (method, int(length), int(n_reps)) == (
                    row.method, row.series_length, row.n_reps)
                assert float(fp) == pytest.approx(row.false_positive_rate, abs=5e-7)
                assert float(dist) == pytest.approx(row.avg_distance, abs=5e-7)
            assert any(0 < row.avg_distance < 8 for row in report.rows)


class TestBench:
    def test_invalid_method_exit_4(self, tmp_path, capsys):
        code = main(["bench", "--methods", "magic", "--lengths", "50",
                     "--reps", "2", "--out", str(tmp_path)])
        assert code == 4
        assert "methods" in capsys.readouterr().err

    def test_invalid_reps_exit_4(self, tmp_path):
        assert main(["bench", "--methods", "binseg", "--lengths", "50",
                     "--reps", "0", "--out", str(tmp_path)]) == 4

    def test_invalid_length_exit_4(self, tmp_path):
        assert main(["bench", "--methods", "binseg", "--lengths", "5",
                     "--reps", "2", "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("flags", [
        ["--jobs", "0"],
        ["--signal", "--teeth-length", "30", "--teeth-period", "20"],  # needs two periods
        ["--signal", "--teeth-sigma", "-1"],
        ["--signal", "--teeth-length", "8", "--teeth-period", "4"],  # below length 10
        # a NaN sigma once wrote a noiseless signal study; an infinite
        # amplitude wrote the null study, then failed on the signal series
        ["--signal", "--teeth-sigma=nan"],
        ["--signal", "--teeth-amplitude=inf"],
        ["--signal", "--teeth-amplitude=nan"],
        # rejected only by the detector on its first run: the null study
        # once wrote its files before the signal study failed, and a failing
        # null study left --out behind
        ["--methods", "wbs", "--lengths", "200", "--reps", "2", "--signal",
         "--teeth-length", "60", "--min-span", "100"],
        ["--methods", "wbs2-sdll", "--m-stage", "0"],
        ["--methods", "wbs", "--intervals", "-1"],
        ["--methods", "wbs", "--intervals", "0", "--min-span", "0"],
        ["--methods", "binseg", "--min-len", "1"],
        ["--methods", "bic", "--min-seg", "1"],
        ["--methods", "mbic", "--min-seg", "0"],
        ["--methods", "wbs", "--min-span", "500"],
    ])
    def test_invalid_settings_write_nothing(self, tmp_path, flags):
        # the null study once ran and wrote its files before the signal
        # study's settings were checked
        out = tmp_path / "out"
        code = main(["bench", "--methods", "binseg", "--lengths", "100", "--reps", "20",
                     "--out", str(out), *flags])
        assert code == 4
        assert not out.exists()

    @pytest.mark.parametrize("flags, repeated", [
        (["--methods", "wbs", "wbs", "--lengths", "50"], "method wbs"),
        (["--methods", "wbs", "--lengths", "50", "50"], "length 50"),
        (["--methods", "wbs", "wbs", "--lengths", "50", "50"], "method wbs"),
    ])
    def test_repeated_setting_exit_4(self, tmp_path, capsys, flags, repeated):
        # repeats once reran the same seeds and wrote identical CSV rows
        out = tmp_path / "out"
        code = main(["bench", *flags, "--reps", "3", "--seed", "1", "--out", str(out)])
        assert code == 4
        assert f"{repeated} is given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_teeth_length_may_equal_a_null_length(self, tmp_path):
        # each study's lengths are checked on their own; the teeth length
        # defaults to 200
        code = main(["bench", "--methods", "binseg", "--lengths", "200", "--reps", "2",
                     "--signal", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "signal_results.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_non_finite_detector_constant_exit_4(self, tmp_path, capsys, value):
        # --threshold-c nan once reported a false-positive rate of 0; the
        # constants are checked with the other settings, before --out exists
        for method, flag in (("binseg", "--threshold-c"), ("wbs", "--threshold-c"),
                             ("wbs2-sdll", "--lambda")):
            out = tmp_path / method
            code = main(["bench", "--methods", method, "--lengths", "100", "--reps", "3",
                         "--out", str(out), f"{flag}={value}"])
            assert code == 4
            assert "non-negative" in capsys.readouterr().err
            assert not out.exists()

    def test_unwritable_csv_exit_4(self, tmp_path, capsys):
        # a directory in the CSV's place once ended in a traceback (exit 1)
        blocked = tmp_path / "null_results.csv"
        blocked.mkdir()
        code = main(["bench", "--methods", "binseg", "--lengths", "50", "--reps", "2",
                     "--out", str(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert str(blocked) in err
        assert "Traceback" not in err
        # the table was once written before the CSV failed
        assert not (tmp_path / "null_table.txt").exists()

    def test_smoke_run_under_ten_seconds(self, tmp_path, capsys):
        start = time.time()
        code = main(["bench", "--methods", "binseg", "wbs", "--lengths", "100",
                     "--reps", "10", "--seed", "3", "--out", str(tmp_path)])
        elapsed = time.time() - start
        assert code == 0
        assert elapsed < 10.0
        assert (tmp_path / "null_table.txt").exists()
        assert (tmp_path / "null_results.csv").exists()

    def test_deterministic_outputs(self, tmp_path):
        d1 = tmp_path / "r1"
        d2 = tmp_path / "r2"
        for d in (d1, d2):
            assert main(["bench", "--methods", "wbs", "--lengths", "60",
                         "--reps", "8", "--seed", "21", "--out", str(d)]) == 0
        assert (d1 / "null_results.csv").read_bytes() == (d2 / "null_results.csv").read_bytes()
        assert (d1 / "null_table.txt").read_bytes() == (d2 / "null_table.txt").read_bytes()

    def test_signal_study_outputs(self, tmp_path, capsys):
        code = main(["bench", "--methods", "wbs2-sdll", "--lengths", "100",
                     "--reps", "5", "--seed", "9", "--out", str(tmp_path),
                     "--signal", "--teeth-length", "100", "--teeth-sigma", "0.1"])
        assert code == 0
        assert (tmp_path / "signal_results.csv").exists()
        csv = (tmp_path / "signal_results.csv").read_text()
        assert "wbs2-sdll,100,5," in csv
