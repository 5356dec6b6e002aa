"""Command line behavior: flags, exit codes, file formats, summaries."""

import subprocess
import sys

import numpy as np
import pytest

from fgn_toolkit import cli
from fgn_toolkit.cli import main
from fgn_toolkit.traceio import read_trace, write_trace
from fgn_toolkit import BMode, HurstParam, Trace, fgn_power_spectrum


def run(*argv):
    return main(list(argv))


@pytest.mark.parametrize("sub", ["synth", "estimate", "analyze", "convert", "spectrum"])
def test_help_renders(sub):
    with pytest.raises(SystemExit) as excinfo:
        run(sub, "--help")
    assert excinfo.value.code == 0


def write_values(path, values):
    write_trace(str(path), Trace(np.asarray(values, dtype=float)), "text")


class TestSynth:
    def test_writes_trace_with_header(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        assert run("synth", "--n", "1024", "--hurst", "0.8", "--seed", "1",
                   "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert "n=1024" in err and "seed=1" in err and "wall_time_s=" in err
        trace = read_trace(str(out))
        assert trace.n == 1024
        assert abs(trace.mean()) < 1e-8

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["synth", "--n", "512", "--hurst", "0.7", "--seed", "9", "--mode", "k:3"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rescale_flags(self, tmp_path):
        out = tmp_path / "t.txt"
        assert run("synth", "--n", "2048", "--hurst", "0.7", "--seed", "3",
                   "--mean", "50", "--sd", "5", "--out", str(out)) == 0
        trace = read_trace(str(out))
        assert trace.mean() == pytest.approx(50.0, abs=1e-8)
        assert trace.sd() == pytest.approx(5.0, rel=1e-9)

    def test_odd_n_exits_2_naming_requirement(self, tmp_path, capsys):
        assert run("synth", "--n", "7", "--hurst", "0.8", "--out", str(tmp_path / "x")) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert "even" in err_lines[0]

    def test_bad_hurst_exits_2(self, tmp_path):
        assert run("synth", "--n", "16", "--hurst", "1.5", "--out", str(tmp_path / "x")) == 2

    def test_nonpositive_sd_exits_2(self, tmp_path):
        assert run("synth", "--n", "16", "--hurst", "0.8", "--sd", "0",
                   "--out", str(tmp_path / "x")) == 2

    def test_unwritable_path_exits_3(self, tmp_path):
        missing_dir = tmp_path / "nope" / "t.txt"
        assert run("synth", "--n", "16", "--hurst", "0.8", "--seed", "1",
                   "--out", str(missing_dir)) == 3

    def test_raw_format_round_trip(self, tmp_path):
        out = tmp_path / "t.bin"
        assert run("synth", "--n", "256", "--hurst", "0.8", "--seed", "4",
                   "--format", "rawf64", "--out", str(out)) == 0
        assert read_trace(str(out), "rawf64").n == 256

    def test_entropy_seed_printed_when_omitted(self, tmp_path, capsys):
        assert run("synth", "--n", "64", "--hurst", "0.8", "--out", str(tmp_path / "t.txt")) == 0
        assert "seed=" in capsys.readouterr().err


class TestEstimate:
    def test_output_is_machine_parseable(self, tmp_path, capsys, synth_cache):
        path = tmp_path / "t.txt"
        write_trace(str(path), synth_cache(0.7, 8192, 5), "text")
        assert run("estimate", "--in", str(path), "--mode", "fast") == 0
        fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
        assert 0.6 < float(fields["h_hat"]) < 0.8
        assert float(fields["sigma_h"]) > 0
        assert fields["mode"] == "doubleprime"
        assert fields["n"] == "8192"

    def test_fast_and_exact_agree(self, tmp_path, capsys, synth_cache):
        path = tmp_path / "t.txt"
        write_trace(str(path), synth_cache(0.7, 8192, 5), "text")
        run("estimate", "--in", str(path), "--mode", "fast")
        h_fast = float(capsys.readouterr().out.split()[0].split("=")[1])
        run("estimate", "--in", str(path), "--mode", "exact")
        out = dict(kv.split("=") for kv in capsys.readouterr().out.split())
        assert abs(h_fast - float(out["h_hat"])) <= float(out["sigma_h"])

    def test_antipersistent_input_hits_boundary_exit_5(self, tmp_path, capsys, rng):
        # differenced noise has h below 0.5, so the minimizer collapses
        # onto the lower edge of the search interval
        path = tmp_path / "w.txt"
        write_values(path, np.diff(rng.standard_normal(8193)))
        assert run("estimate", "--in", str(path)) == 5
        captured = capsys.readouterr()
        assert "h_hat=0.501" in captured.out
        assert "boundary" in captured.err

    def test_coarse_tolerance_does_not_flag_interior_estimate(self, tmp_path, capsys):
        # the flag follows the search's final bracket, not how close h_hat
        # is to an end: at tol 0.3 an h = 0.7 estimate is still interior
        path = tmp_path / "t.txt"
        assert run("synth", "--n", "4096", "--hurst", "0.7", "--seed", "3",
                   "--out", str(path)) == 0
        capsys.readouterr()
        assert run("estimate", "--in", str(path), "--tol", "0.3") == 0
        captured = capsys.readouterr()
        assert "h_hat=0.69" in captured.out
        assert captured.err == ""

    def test_huge_sd_trace_estimates_like_unit_sd(self, tmp_path, capsys):
        # a --sd 1e150 trace exited 4 through a second magnitude rule
        lines = []
        for sd in ("1", "1e150"):
            path = tmp_path / f"sd{sd}.txt"
            assert run("synth", "--n", "4096", "--hurst", "0.8", "--seed", "1", "--sd", sd,
                       "--out", str(path)) == 0
            capsys.readouterr()
            assert run("estimate", "--in", str(path)) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            lines.append(captured.out)
        assert lines[1] == lines[0]

    def test_constant_trace_exits_4(self, tmp_path):
        path = tmp_path / "c.txt"
        write_values(path, np.full(64, 3.0))
        assert run("estimate", "--in", str(path)) == 4

    def test_subnormal_spread_trace_exits_4(self, tmp_path, capsys):
        # a range but no sd: constant by the rule analyze and convert use
        path = tmp_path / "c.txt"
        write_values(path, [0.0, 5e-324] * 10)
        assert run("estimate", "--in", str(path)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: degenerate trace: degenerate (constant) trace\n"

    def test_missing_file_exits_3(self, tmp_path):
        assert run("estimate", "--in", str(tmp_path / "absent.txt")) == 3

    @pytest.mark.parametrize("n", [1, 3])
    def test_short_trace_names_its_length(self, tmp_path, capsys, n):
        # the length as read, before an odd last value is dropped
        path = tmp_path / "short.txt"
        write_values(path, [0.1, -0.4, 0.3][:n])
        assert run("estimate", "--in", str(path)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: degenerate trace: estimate needs at least 4 samples, got {n}\n")

    def test_odd_length_trace_drops_last_value(self, tmp_path, capsys, synth_cache):
        # the periodogram takes an even length: an odd trace is estimated
        # from its first n - 1 values, with one note on stderr
        values = synth_cache(0.7, 1026, 4).values
        odd, even = tmp_path / "odd.txt", tmp_path / "even.txt"
        write_values(odd, values[:1025])
        write_values(even, values[:1024])
        assert run("estimate", "--in", str(even)) == 0
        expected = capsys.readouterr().out
        assert run("estimate", "--in", str(odd)) == 0
        captured = capsys.readouterr()
        assert captured.out == expected and "n=1024" in expected
        assert captured.err == (
            "note: odd trace length 1025; estimating from the first 1024 values\n")

    def test_three_value_trace_exits_4(self, tmp_path):
        path = tmp_path / "odd.txt"
        write_values(path, [0.1, -0.4, 0.3])
        assert run("estimate", "--in", str(path)) == 4

    @pytest.mark.parametrize("values", [[0.1], [0.1, -0.4, 0.3]], ids=["one", "three"])
    def test_failed_odd_trace_prints_only_the_error(self, tmp_path, capsys, values):
        # the odd-length note belongs to an estimate that stands: an exit-4
        # error is the one stderr line
        path = tmp_path / "odd.txt"
        write_values(path, values)
        assert run("estimate", "--in", str(path)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: degenerate trace: ")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_value_exits_3(self, tmp_path, capsys, bad):
        path = tmp_path / "t.txt"
        path.write_text("\n".join(["0.5", bad] + ["1.0"] * 62) + "\n")
        assert run("estimate", "--in", str(path)) == 3
        assert "finite" in capsys.readouterr().err

    def test_tiny_tolerance_exits_2(self, tmp_path, rng):
        path = tmp_path / "t.txt"
        write_values(path, rng.standard_normal(64))
        assert run("estimate", "--in", str(path), "--tol", "1e-9") == 2

    def test_nan_tolerance_exits_2_with_one_line(self, tmp_path, rng, capsys):
        path = tmp_path / "t.txt"
        write_values(path, rng.standard_normal(64))
        assert run("estimate", "--in", str(path), "--tol", "nan") == 2
        assert capsys.readouterr().err.splitlines() == ["error: --tol must be at least 1e-6, got nan"]

    @pytest.mark.parametrize("tol", ["1", "inf"])
    def test_tolerance_as_wide_as_the_search_exits_2(self, tmp_path, rng, capsys, tol):
        # used to print the search's first point and exit 5
        path = tmp_path / "t.txt"
        write_values(path, rng.standard_normal(16))
        assert run("estimate", "--in", str(path), "--tol", tol) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --tol must be below the search width 0.498, got {float(tol)}"]


class TestAnalyze:
    def test_variance_time_csv_and_summary(self, tmp_path, capsys, synth_cache):
        path, out = tmp_path / "t.txt", tmp_path / "vt.csv"
        write_trace(str(path), synth_cache(0.7, 32768, 303), "text")
        assert run("analyze", "--in", str(path), "--what", "vt", "--out", str(out)) == 0
        assert "implied_h=" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "m,norm_var"
        assert lines[1].startswith("1,1")

    def test_normality_summary(self, tmp_path, capsys, synth_cache):
        path = tmp_path / "t.txt"
        write_trace(str(path), synth_cache(0.7, 16384, 3), "text")
        assert run("analyze", "--in", str(path), "--what", "normality") == 0
        out = capsys.readouterr().out
        assert "a2=" in out and "verdict=pass" in out

    def test_qq_row_count_matches_n(self, tmp_path, capsys, rng):
        path, out = tmp_path / "t.txt", tmp_path / "qq.csv"
        write_values(path, rng.standard_normal(500))
        assert run("analyze", "--in", str(path), "--what", "qq", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theoretical,sample"
        assert len(lines) == 501

    def test_acf_rows(self, tmp_path, rng):
        path, out = tmp_path / "t.txt", tmp_path / "acf.csv"
        write_values(path, rng.standard_normal(1000))
        assert run("analyze", "--in", str(path), "--what", "acf",
                   "--max-lag", "20", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lag,rho"
        assert len(lines) == 22
        assert lines[1] == "0,1"

    def test_degenerate_trace_exits_4(self, tmp_path):
        path = tmp_path / "c.txt"
        write_values(path, np.full(256, 1.0))
        assert run("analyze", "--in", str(path), "--what", "normality") == 4

    def test_short_trace_vt_names_its_length(self, tmp_path, rng, capsys):
        # no levels were given: the default levels of 15 values are just [1]
        path = tmp_path / "short.txt"
        write_values(path, rng.standard_normal(15))
        assert run("analyze", "--in", str(path), "--what", "vt") == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: degenerate trace: variance-time needs at least 20 samples, got 15\n")

    def test_constant_trace_qq_exits_4_before_writing(self, tmp_path, capsys):
        # r^2 of a constant trace's Q-Q points is 0/0: one error line, no CSV
        path, out = tmp_path / "c.txt", tmp_path / "qq.csv"
        write_values(path, np.full(256, 1.0))
        assert run("analyze", "--in", str(path), "--what", "qq", "--out", str(out)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: degenerate trace: degenerate (constant) trace\n"
        assert not out.exists()

    @pytest.mark.parametrize("lag", ["-1", "0"])
    def test_bad_max_lag_exits_2_with_one_line(self, tmp_path, rng, capsys, lag):
        # -1 used to exit 4 as a "degenerate trace", 0 to end in a traceback
        path = tmp_path / "t.txt"
        write_values(path, rng.standard_normal(64))
        assert run("analyze", "--in", str(path), "--what", "acf", "--max-lag", lag) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --max-lag must be at least 1, got {lag}"]

    def test_max_lag_past_quarter_of_trace_exits_4(self, tmp_path, rng):
        # whether a lag is too long depends on the trace, so it is not a bad flag
        path = tmp_path / "t.txt"
        write_values(path, rng.standard_normal(64))
        assert run("analyze", "--in", str(path), "--what", "acf", "--max-lag", "16") == 4


class TestConvert:
    def test_exp2_zero_trace_gives_unit_counts(self, tmp_path):
        path, out = tmp_path / "t.txt", tmp_path / "c.txt"
        write_values(path, np.zeros(32))
        assert run("convert", "--in", str(path), "--transform", "exp2",
                   "--emit", "counts", "--out", str(out)) == 0
        counts = [int(line) for line in out.read_text().split()]
        assert counts == [1] * 32

    def test_even_interarrivals_conserve_count(self, tmp_path, rng):
        path, out = tmp_path / "t.txt", tmp_path / "ia.txt"
        values = rng.integers(0, 6, size=40).astype(float)
        write_values(path, values)
        assert run("convert", "--in", str(path), "--emit", "interarrivals",
                   "--spread", "even", "--out", str(out)) == 0
        times = [float(line) for line in out.read_text().split()]
        assert len(times) == int(np.rint(values).sum())
        assert np.all(np.diff(times) > 0)

    def test_uniform_interarrivals_deterministic_by_seed(self, tmp_path):
        path = tmp_path / "t.txt"
        write_values(path, np.full(16, 5.0))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run("convert", "--in", str(path), "--emit", "interarrivals",
                       "--spread", "uniform", "--seed", "11", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_linear_rescale_count_mean(self, tmp_path, rng):
        path, out = tmp_path / "t.txt", tmp_path / "c.txt"
        write_values(path, rng.standard_normal(4096))
        assert run("convert", "--in", str(path), "--transform", "linear",
                   "--mean", "500", "--sd", "50", "--out", str(out)) == 0
        counts = np.array([int(line) for line in out.read_text().split()])
        assert abs(counts.mean() - 500.0) <= 2.0

    @pytest.mark.filterwarnings("error")
    def test_clamp_fraction_reported(self, tmp_path, capsys, rng):
        path, out = tmp_path / "t.txt", tmp_path / "c.txt"
        write_values(path, rng.standard_normal(512) - 5.0)
        assert run("convert", "--in", str(path), "--out", str(out)) == 0
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("clamp_fraction=")

    @pytest.mark.filterwarnings("error")
    def test_strict_clamp_exits_6(self, tmp_path, capsys, rng):
        path, out = tmp_path / "t.txt", tmp_path / "c.txt"
        write_values(path, rng.standard_normal(512) - 5.0)
        assert run("convert", "--in", str(path), "--strict", "--out", str(out)) == 6
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: clamp fraction")

    def test_negative_seed_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        write_values(path, [1.0, 2.0, 3.0, 4.0])
        assert run("convert", "--in", str(path), "--emit", "interarrivals",
                   "--spread", "uniform", "--seed", "-1", "--out", str(tmp_path / "ia.txt")) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines == ["error: --seed must be nonnegative, got -1"]

    @pytest.mark.parametrize("peak,emit", [(70.0, "counts"), (50.0, "interarrivals")])
    def test_exp2_overflow_exits_4_with_one_line(self, tmp_path, capsys, peak, emit):
        # 2**70 does not fit an int64 count; 2**50 arrivals exceed the total limit
        path, out = tmp_path / "t.txt", tmp_path / "c.txt"
        write_values(path, [1.0, peak, 3.0, 4.0])
        assert run("convert", "--in", str(path), "--transform", "exp2",
                   "--emit", emit, "--spread", "even", "--out", str(out)) == 4
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines[-1].startswith("error: degenerate trace:")
        assert not any("Traceback" in line for line in err_lines)

    def test_rescale_overflow_exits_2_naming_the_flags(self, tmp_path, capsys, rng):
        # the trace is valid; the flags scale it past the float range
        path = tmp_path / "t.txt"
        write_values(path, rng.standard_normal(64))
        assert run("convert", "--in", str(path), "--sd", "1e308",
                   "--out", str(tmp_path / "c.txt")) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: --mean/--sd ")
        assert not (tmp_path / "c.txt").exists()

    def test_constant_trace_with_sd_exits_4(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        write_values(path, [2.0] * 8)
        assert run("convert", "--in", str(path), "--sd", "2",
                   "--out", str(tmp_path / "c.txt")) == 4
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines == ["error: degenerate trace: cannot rescale a constant trace"]

    @pytest.mark.parametrize("values", [[529835250278883.0] * 20, [0.0, 5e-324] * 10],
                             ids=["mean-not-value", "subnormal-spread"])
    def test_near_constant_trace_with_sd_exits_4(self, tmp_path, capsys, values):
        # a nonzero sd with no range, or a range with no sd: constant either way
        path = tmp_path / "t.txt"
        write_values(path, values)
        assert run("convert", "--in", str(path), "--mean", "3", "--sd", "0.5",
                   "--out", str(tmp_path / "c.txt")) == 4
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines == ["error: degenerate trace: cannot rescale a constant trace"]
        assert not (tmp_path / "c.txt").exists()

    @pytest.mark.parametrize("spread", ["uniform", "even"])
    def test_bins_too_narrow_for_their_times_exit_4(self, tmp_path, capsys, spread):
        path = tmp_path / "t.txt"
        write_values(path, [3.0, 3.0, 3.0])
        assert run("convert", "--in", str(path), "--bin-width", "5e-324", "--emit",
                   "interarrivals", "--spread", spread, "--seed", "1",
                   "--out", str(tmp_path / "c.txt")) == 4
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines == ["clamp_fraction=0.0000", "error: degenerate trace: bins of width "
                             "4.94066e-324 are too narrow to keep their times apart"]
        assert not (tmp_path / "c.txt").exists()

    def test_bad_bin_width_exits_2(self, tmp_path, rng):
        path = tmp_path / "t.txt"
        write_values(path, rng.standard_normal(64))
        assert run("convert", "--in", str(path), "--bin-width", "0",
                   "--out", str(tmp_path / "c.txt")) == 2


class TestSpectrumTable:
    def grid_errors(self, capsys, mode):
        run("spectrum", "--hurst", "0.7", "--mode", mode, "--lambda-grid", "0.01:3.0:11")
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "lambda,f,B,rel_err_vs_partial10000"
        return np.array([float(line.split(",")[3]) for line in lines[1:]])

    def test_truncated3_errors_positive_and_small(self, capsys):
        err = self.grid_errors(capsys, "k:3")
        assert np.all(err > 0)
        assert np.all(err <= 0.005)

    def test_partial200_underestimates(self, capsys):
        err = self.grid_errors(capsys, "partial:200")
        assert np.all(err <= 0)

    def test_doubleprime_error_tiny(self, capsys):
        err = self.grid_errors(capsys, "doubleprime")
        assert np.abs(err).max() <= 7.5e-5

    @pytest.mark.parametrize("mode, b_sums", [("k:3", 2), ("partial:10000", 1)])
    def test_b_evaluated_once_per_mode(self, capsys, monkeypatch, mode, b_sums):
        # f is built from the B column, and partial:10000 is its own reference
        calls = []
        spectrum_b = cli.spectrum_b
        monkeypatch.setattr(cli, "spectrum_b", lambda *a: calls.append(a) or spectrum_b(*a))
        run("spectrum", "--hurst", "0.7", "--mode", mode, "--lambda-grid", "0.01:3.0:11")
        assert len(calls) == b_sums
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in capsys.readouterr().out.splitlines()[1:]])
        want_f = fgn_power_spectrum(HurstParam(0.7), rows[:, 0], BMode.parse(mode))
        np.testing.assert_allclose(rows[:, 1], want_f, rtol=1e-9)
        if mode == "partial:10000":
            assert np.all(rows[:, 3] == 0)

    def test_csv_output_file(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run("spectrum", "--hurst", "0.8", "--lambda-grid", "0.1:3.0:5",
                   "--out", str(out)) == 0
        assert out.read_text().splitlines()[0] == "lambda,f,B,rel_err_vs_partial10000"

    def test_grid_outside_domain_exits_2(self):
        assert run("spectrum", "--hurst", "0.8", "--lambda-grid", "0:3.0:5") == 2
        assert run("spectrum", "--hurst", "0.8", "--lambda-grid", "0.1:3.5:5") == 2
        assert run("spectrum", "--hurst", "0.8", "--lambda-grid", "oops") == 2

    def test_oversized_grid_exits_2_with_one_line(self, capsys):
        # 10^15 steps used to reach np.linspace and fail allocating 7 PiB
        assert run("spectrum", "--hurst", "0.8",
                   "--lambda-grid", "0.01:3:1000000000000000") == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: lambda grid steps must be at most 65536, got 1000000000000000"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_spectrum_exits_2_with_one_line(self, capsys):
        # lambda^(-2h-1) overflows at 1e-300: f was nan, with two numpy warnings
        assert run("spectrum", "--hurst", "0.7", "--mode", "exact",
                   "--lambda-grid", "1e-300:1e-300:2") == 2
        assert one_error_line(capsys) == ("error: the spectrum overflows the float range "
                                          "for lambda below 3.64e-129 at h=0.7")



def one_error_line(capsys):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def host_refuses(nbytes):
    """Whether this host refuses an nbytes allocation outright.

    Linux under heuristic (0) or strict (2) overcommit refuses at once any
    one allocation above RAM plus swap, so numpy raises MemoryError without
    touching memory.  Anywhere else the size might really be committed.
    """
    try:
        with open("/proc/sys/vm/overcommit_memory") as f:
            policy = f.read().strip()
        with open("/proc/meminfo") as f:
            kib = {line.split(":")[0]: int(line.split()[1]) for line in f}
    except (OSError, ValueError, IndexError):
        return False
    return policy in ("0", "2") and nbytes > 1024 * (kib["MemTotal"] + kib["SwapTotal"])


class TestFlagContract:
    """Each flag is checked by the parser, and each failure is one stderr line."""

    @pytest.mark.parametrize("flag, value, message", [
        ("--sd", "nan", "--sd must be finite and positive, got nan"),
        ("--sd", "inf", "--sd must be finite and positive, got inf"),
        ("--mean", "inf", "--mean must be finite, got inf"),
        ("--mean", "nan", "--mean must be finite, got nan"),
        ("--n", "abc", "argument --n: invalid int value: 'abc'"),
        ("--seed", "abc", "argument --seed: invalid int value: 'abc'"),
        ("--mode", "k:0", "B mode needs at least one term, got 0"),
        ("--mode", "k:2.5", "cannot parse B mode 'k:2.5'"),
    ], ids=["sd-nan", "sd-inf", "mean-inf", "mean-nan", "n-abc", "seed-abc", "mode-k0",
            "mode-k2.5"])
    def test_bad_synth_flag(self, tmp_path, capsys, flag, value, message):
        full = {"--n": "16", "--hurst": "0.8", "--seed": "1", flag: value,
                "--out": str(tmp_path / "t")}
        assert run("synth", *[x for kv in full.items() for x in kv]) == 2
        assert one_error_line(capsys) == f"error: {message}"
        assert not (tmp_path / "t").exists()

    def test_scale_out_of_range_exits_2(self, tmp_path, capsys):
        # the flag is finite, but the rescaled values are not
        assert run("synth", "--n", "16", "--hurst", "0.8", "--seed", "1", "--sd", "1e308",
                   "--out", str(tmp_path / "t")) == 2
        assert one_error_line(capsys) == "error: trace values must all be finite"

    def test_missing_required_flag(self, capsys):
        assert run("synth", "--hurst", "0.8", "--out", "t.txt") == 2
        assert one_error_line(capsys) == "error: the following arguments are required: --n"

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["synth", "--n", "16", "--hurst", "0.8",
                                                      "--out", "t.txt", "--format", "csv"]])
    def test_argparse_errors_are_one_line(self, capsys, argv):
        assert run(*argv) == 2
        one_error_line(capsys)

    @pytest.mark.parametrize("width", ["nan", "inf", "-inf", "0"])
    def test_bad_bin_width(self, tmp_path, capsys, width):
        path = tmp_path / "t.txt"
        write_values(path, [1.0, 2.0, 3.0, 4.0])
        # "--bin-width -inf" would read -inf as an option: the = form passes it as a value
        assert run("convert", "--in", str(path), f"--bin-width={width}",
                   "--out", str(tmp_path / "c.txt")) == 2
        want = f"error: --bin-width must be finite and positive, got {float(width)}"
        assert one_error_line(capsys) == want

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "--seed must be nonnegative, got -1"),
        ("--mean", "nan", "--mean must be finite, got nan"),
        ("--sd", "inf", "--sd must be finite and positive, got inf"),
    ], ids=["seed", "mean", "sd"])
    def test_convert_flags_checked_for_counts_too(self, tmp_path, capsys, flag, value, message):
        # --seed only seeds --emit interarrivals, and a non-finite --mean or --sd
        # used to exit 4 as a degenerate trace
        path = tmp_path / "t.txt"
        write_values(path, [1.0, 2.0, 3.0, 4.0])
        assert run("convert", "--in", str(path), "--emit", "counts", flag, value,
                   "--out", str(tmp_path / "c.txt")) == 2
        assert one_error_line(capsys) == f"error: {message}"

    def test_max_lag_checked_for_every_analysis(self, tmp_path, capsys, rng):
        path = tmp_path / "t.txt"
        write_values(path, rng.standard_normal(64))
        assert run("analyze", "--in", str(path), "--what", "vt", "--max-lag", "0") == 2
        assert one_error_line(capsys) == "error: --max-lag must be at least 1, got 0"

    @pytest.mark.parametrize("grid", ["0.1:nan:5", "nan:3.0:5", "nan:nan:5"])
    def test_nan_lambda_grid(self, capsys, grid):
        assert run("spectrum", "--hurst", "0.8", "--lambda-grid", grid) == 2
        assert one_error_line(capsys) == "error: lambda grid must lie within (0, pi]"

    def test_spectrum_mode_beyond_any_array(self, capsys):
        assert run("spectrum", "--hurst", "0.8", "--mode", "k:" + "1" * 30) == 2
        one_error_line(capsys)

    @pytest.mark.parametrize("mode", ["k:" + "1" * 30, "k:100000000000000000",
                                      "partial:" + "1" * 30])
    def test_estimate_mode_beyond_any_array(self, tmp_path, rng, capsys, mode):
        # used to exit 4 as "degenerate trace: Maximum allowed dimension exceeded"
        path = tmp_path / "t.txt"
        write_values(path, rng.standard_normal(16))
        assert run("estimate", "--in", str(path), "--mode", mode) == 2
        assert one_error_line(capsys).startswith(f"error: B mode {mode} cannot be built on 8 ")

    @pytest.mark.parametrize("argv, nbytes", [
        (["synth", "--n", "100000000000000", "--hurst", "0.8"], 4e14),  # 364 TiB
        (["synth", "--n", "16", "--hurst", "0.8", "--mode", "partial:100000000000"], 8e11),
        (["synth", "--n", "16", "--hurst", "0.8", "--mode", "k:100000000000"], 1.28e13),
    ], ids=["n", "partial", "k"])
    def test_unallocatable_size_exits_2(self, tmp_path, capsys, argv, nbytes):
        # only sizes numpy asks for and the host refuses before touching memory
        if not host_refuses(nbytes):
            pytest.skip("this host might commit the allocation")
        assert run(*argv, "--seed", "1", "--out", str(tmp_path / "t")) == 2
        assert one_error_line(capsys).startswith("error: Unable to allocate")


def test_cli_import_leaves_scipy_stats_unloaded(child_env):
    # fresh interpreters that find the package where this test found it
    for module in ("fgn_toolkit", "fgn_toolkit.cli"):
        code = (f"import sys, {module}; "
                "print([m for m in ('scipy.stats', 'scipy.linalg') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env, check=True)
        assert proc.stdout.strip() == "[]", module


def test_cli_import_leaves_scipy_special_unloaded(child_env):
    # the normal CDF of A^2 and the quantiles of Q-Q are the package's own,
    # so no command and no library call loads any scipy module
    code = ("import sys, numpy as np, fgn_toolkit.cli; "
            "from fgn_toolkit import Trace, ad_normality_test, qq_points; "
            "t = Trace(np.random.default_rng(1).standard_normal(1000)); "
            "ad_normality_test(t); qq_points(t); "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_concurrent_futures_unloaded(child_env):
    # spectrum sums start plain threads, so no command pays for importing
    # concurrent.futures
    code = "import sys, fgn_toolkit.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env, check=True)
    assert proc.stdout.strip() == "False"
