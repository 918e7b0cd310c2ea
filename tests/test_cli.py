"""Command-line interface contract tests.

Covers the range grammar, exit codes, the CSV layout (metadata block,
header row, ordering), byte-identical reruns, and the wiring between CLI
metric names and the solver columns they select.
"""

from __future__ import annotations

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from phaselim import asympt, canonical, cli, estimators, variational


def read_report(path):
    """Split a CLI output file into (metadata dict, header list, float rows)."""
    metadata: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[2:].partition("=")
            metadata[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    assert header is not None, "output file has no header row"
    return metadata, header, rows


def column(rows, header, name):
    idx = header.index(name)
    return np.array([float(row[idx]) for row in rows])


class TestParseRange:
    def test_log_grid(self):
        grid = cli.parse_range("1:100:3log")
        assert grid == pytest.approx([1.0, 10.0, 100.0], rel=1e-14)

    def test_lin_grid(self):
        grid = cli.parse_range("0:1:5lin")
        assert grid == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-15)

    def test_count_one_returns_lower_endpoint(self):
        assert cli.parse_range("7:9:1lin") == [7.0]
        assert cli.parse_range("7:9:1log") == [7.0]

    def test_endpoints_join_the_grid(self):
        grid = cli.parse_range("1e-2:1e4:60log")
        assert len(grid) == 60
        assert grid[0] == pytest.approx(1e-2, rel=1e-12)
        assert grid[-1] == pytest.approx(1e4, rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            "1:100",  # missing count
            "1:100:3:log",  # too many fields
            "1:100:3geo",  # unknown scale suffix
            "1:100:log",  # no count digits
            "1:100:0log",  # count below 1
            "100:1:3lin",  # descending bounds
            "0:10:3log",  # log scale needs positive lower bound
            "x:10:3lin",  # non-numeric bound
            "1:2:1000000000000log",  # count above the cap, checked before the grid
            "1:2:1000001lin",
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            cli.parse_range(spec)


class TestExitCodes:
    def test_unknown_flag_exits_2(self, capsys):
        assert cli.main(["curve", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_verify_suite_exits_2(self, capsys):
        assert cli.main(["verify", "nosuchsuite"]) == 2
        capsys.readouterr()

    def test_malformed_targets_exit_2(self, capsys):
        assert cli.main(["curve", "--targets", "1,abc"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_malformed_range_exits_2(self, capsys):
        assert cli.main(["curve", "--range", "5:1:3lin"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_series_target_below_regime_exits_2(self, capsys, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("sweep_curve called for a target below the regime")

        monkeypatch.setattr(variational, "sweep_curve", unexpected)
        assert cli.main(["series", "--targets", "5,1000"]) == 2
        err = capsys.readouterr().err
        assert "configuration error: series targets must be >= 10" in err

    @pytest.mark.parametrize("targets", ["-1", "nan", "inf", "5,5"])
    def test_invalid_targets_exit_2(self, capsys, targets):
        assert cli.main(["curve", f"--targets={targets}"]) == 2
        err = capsys.readouterr().err
        assert "configuration error: target means must be" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["mzi", "--visibility", "0"], "visibility must be in (0, 1]"),
            (["povm", "--instances", "0"], "instances must be >= 1"),
            (["bounds", "--states", "0"], "states must be >= 1"),
            (
                ["bounds", "--states", "20", "--max-dimension", "1"],
                "max_dimension must be >= 2",
            ),
            (
                ["bounds", "--states", "20", "--max-dimension", "0"],
                "max_dimension must be >= 2",
            ),
            (["inequalities", "--grid-points", "0"], "grid_points must be >= 2"),
            (["inequalities", "--grid-points", "-5"], "grid_points must be >= 2"),
            (["inequalities", "--grid-points", "1"], "grid_points must be >= 2"),
            (["povm", "--seed", "-1"], "seed must be >= 0"),
            (["bounds", "--seed", "-7"], "seed must be >= 0"),
        ],
        ids=[
            "visibility",
            "instances",
            "states",
            "max-dimension-1",
            "max-dimension-0",
            "grid-points-0",
            "grid-points-negative",
            "grid-points-1",
            "seed-povm",
            "seed-bounds",
        ],
    )
    def test_invalid_verify_option_exits_2(self, capsys, argv, message):
        assert cli.main(["verify", *argv]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suite, flag, value",
        [
            ("povm", "--max-dimension", "3"),
            ("povm", "--states", "20"),
            ("povm", "--grid-points", "2001"),
            ("bounds", "--grid-points", "2001"),
            ("bounds", "--instances", "4"),
            ("inequalities", "--visibility", "0.9"),
            ("mzi", "--states", "20"),
            ("probe", "--instances", "4"),
            ("probe", "--visibility", "0.9"),
        ],
    )
    def test_flag_of_another_suite_exits_2(self, capsys, suite, flag, value):
        # the flag is rejected before any check runs: no PASS line is printed
        assert cli.main(["verify", suite, flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"configuration error: {flag} does not apply to verify {suite}" in err

    @pytest.mark.parametrize("suite", sorted({suite for suite, _, _ in cli._SUITE_FLAGS.values()}))
    def test_unset_verify_flags_take_the_table_defaults(self, capsys, monkeypatch, suite):
        seen = []
        monkeypatch.setitem(cli._SUITES, suite, lambda config: seen.append(config) or [])
        assert cli.main(["verify", suite]) == 0
        capsys.readouterr()
        (config,) = seen
        assert config.seed == 20240901
        for name, (flag_suite, default, _) in cli._SUITE_FLAGS.items():
            if flag_suite == suite:
                assert getattr(config, name) == default
                assert type(getattr(config, name)) is type(default)

    @pytest.mark.parametrize("command", ["curve", "series"])
    def test_target_over_dimension_limit_exits_2(self, capsys, command):
        start = time.perf_counter()
        assert cli.main([command, "--targets", "1e9"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "configuration error: target mean 1000000000.0: dimension" in err
        assert "exceeds the limit of 10000000 rows" in err

    @pytest.mark.parametrize("command", ["curve", "series"])
    def test_range_count_above_the_cap_exits_2(self, capsys, monkeypatch, command):
        def unexpected(*args, **kwargs):
            raise AssertionError("the grid was built before its count was checked")

        monkeypatch.setattr(np, "logspace", unexpected)
        assert cli.main([command, "--range", "1:2:1000000000000log"]) == 2
        err = capsys.readouterr().err
        assert "configuration error: range spec '1:2:1000000000000log'" in err
        assert "above 1000000" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spectrum", ["nonneg", "symmetric"])
    @pytest.mark.parametrize("command", ["curve", "series"])
    @pytest.mark.parametrize("target", ["1e308", "2e307"])
    def test_target_of_infinite_cutoff_exits_2(self, capsys, command, spectrum, target):
        # 8 L overflows to inf at 1e308, and ceil of it would raise
        assert cli.main([command, "--spectrum", spectrum, "--targets", target]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: target mean {float(target)}: dimension" in err
        assert "exceeds the limit of 10000000 rows" in err
        assert "Traceback" not in err and len(err) < 120

    @pytest.mark.parametrize("knob", ["factor", "floor"])
    def test_removed_cutoff_flags_exit_2_as_unknown(self, capsys, knob):
        flag = f"--cutoff-{knob}"
        assert cli.main(["curve", "--targets", "10", flag, "20"]) == 2
        assert f"unrecognized arguments: {flag} 20" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--targets", "1"],
            ["verify", "inequalities", "--grid-points", "2001"],
        ],
        ids=["curve", "verify"],
    )
    def test_unwritable_output_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x.csv"
        assert cli.main([*argv, "--output", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: cannot write {path}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--targets", "1000"],
            ["series", "--targets", "1000"],
            *[["verify", suite] for suite in sorted(cli._SUITES)],
        ],
        ids=["curve", "series", *[f"verify-{suite}" for suite in sorted(cli._SUITES)]],
    )
    @pytest.mark.parametrize("target", ["missing-parent", "directory"])
    def test_unwritable_output_exits_2_before_solving(
        self, capsys, tmp_path, monkeypatch, argv, target
    ):
        # verify has no sweep to trap: an empty stdout shows that no suite ran
        def unexpected(*args, **kwargs):
            raise AssertionError("sweep_curve called for an unwritable output")

        monkeypatch.setattr(variational, "sweep_curve", unexpected)
        if target == "directory":
            path, reason = tmp_path, "Is a directory"
        else:
            path, reason = tmp_path / "missing" / "x.csv", "No such file"
        assert cli.main([*argv, "--output", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"configuration error: cannot write {path}: {reason}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["curve", "--targets", "1000"], ["verify", "probe"]],
        ids=["curve", "verify-probe"],
    )
    def test_read_only_output_file_exits_2_before_solving(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        # as root a chmod does not deny writing, so os.access denies this file
        path = tmp_path / "ro.csv"
        path.write_text("kept\n", encoding="utf-8")
        access = cli.os.access
        monkeypatch.setattr(
            cli.os, "access", lambda p, mode: False if str(p) == str(path) else access(p, mode)
        )
        monkeypatch.setattr(variational, "sweep_curve", None)
        assert cli.main([*argv, "--output", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"configuration error: cannot write {path}: Permission denied" in err
        assert path.read_text(encoding="utf-8") == "kept\n"

    def test_out_of_memory_is_solver_failure(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(variational, "sweep_curve", exhausted)
        assert cli.main(["curve", "--targets", "1e5"]) == 3
        err = capsys.readouterr().err
        assert "solver failure: Unable to allocate 74.5 GiB" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spectrum", ["nonneg", "symmetric"])
    def test_band_below_its_f1_floor_is_solver_failure(self, capsys, monkeypatch, spectrum):
        # f2 - 1 does not lie above f1, so its band fails the banded
        # contract: exit 3, with no pair printed and no traceback
        monkeypatch.setitem(canonical.COSINE_COSTS, "f2", (1.5, -8.0 / 3.0, 1.0 / 6.0))
        argv = ["curve", "--metric", "f2", "--spectrum", spectrum, "--targets", "10"]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert "solver failure: the band does not factor at its f1 floor" in err
        assert "Traceback" not in err
        assert "mean," not in out

    def test_amse_mean_of_1e_300_lands(self, capsys):
        assert cli.main(["curve", "--metric", "amse", "--targets", "1e-300"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert float(row[0]) == pytest.approx(1e-300, rel=1e-6)
        assert float(row[1]) == pytest.approx(math.pi / math.sqrt(3.0), rel=1e-12)  # delta

    def test_holevo_mean_of_1e_300_lands(self, capsys):
        assert cli.main(["curve", "--targets", "1e-300"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert float(row[0]) == pytest.approx(1e-300, rel=1e-6)
        assert float(row[2]) == math.inf  # delta_H

    @pytest.mark.parametrize("spectrum", ["nonneg", "symmetric"])
    @pytest.mark.parametrize("metric", ["holevo", "amse"])
    def test_subnormal_target_is_solver_failure(self, capsys, metric, spectrum):
        argv = ["curve", "--metric", metric, "--spectrum", spectrum, "--targets", "1e-310"]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        message = "mean target 1e-310 is below reach: its first penalty overflows"
        assert f"solver failure: {message}" in err
        assert "Warning" not in err

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "curve" in capsys.readouterr().out

    def test_verify_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setitem(
            cli._SUITES, "probe", lambda config: [("forced_failure", -1.0)]
        )
        assert cli.main(["verify", "probe"]) == 1
        captured = capsys.readouterr()
        assert "FAIL forced_failure" in captured.out
        assert "1 check(s) failed" in captured.err


class TestCurveOutput:
    HEADER = [
        "mean",
        "delta",
        "delta_H",
        "delta_1",
        "delta_2",
        "delta_3",
        "scaled",
        "beta",
        "cutoff",
        "residual",
        "tail_mass",
    ]

    def test_empty_targets_write_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert cli.main(["curve", "--output", str(out)]) == 0
        metadata, header, rows = read_report(out)
        assert header == self.HEADER
        assert rows == []
        assert metadata["targets"] == "0"
        assert metadata["command"] == "curve"

    def test_rows_metadata_and_scaled_column(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = cli.main(
            [
                "curve",
                "--metric",
                "holevo",
                "--spectrum",
                "nonneg",
                "--targets",
                "30,0.5,2",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        metadata, header, rows = read_report(out)
        assert header == self.HEADER
        assert len(rows) == 3
        assert metadata["metric"] == "holevo"
        assert metadata["spectrum"] == "nonneg"
        assert metadata["version"]
        assert float(metadata["mean_rtol"]) == pytest.approx(1e-6)
        assert float(metadata["cutoff_per_L"]) == variational._CUTOFF_PER_L
        assert int(metadata["min_cutoff"]) == variational._MIN_CUTOFF
        assert float(metadata["tail_rtol"]) == variational._TAIL_RTOL
        assert [key for key in metadata if "cutoff" in key] == [
            "cutoff_per_L",
            "min_cutoff",
        ]
        mean = column(rows, header, "mean")
        # Targets are swept in ascending order regardless of input order.
        assert np.all(np.diff(mean) > 0)
        assert mean == pytest.approx([0.5, 2.0, 30.0], rel=1e-6)
        scaled = column(rows, header, "scaled")
        delta_h = column(rows, header, "delta_H")
        assert scaled == pytest.approx(delta_h * (mean + 1.0), rel=1e-15)

    def test_metric_selects_matching_column(self, tmp_path):
        out = tmp_path / "f2.csv"
        code = cli.main(
            [
                "curve",
                "--metric",
                "f2",
                "--spectrum",
                "symmetric",
                "--targets",
                "4",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_report(out)
        scaled = column(rows, header, "scaled")
        delta_2 = column(rows, header, "delta_2")
        mean = column(rows, header, "mean")
        assert scaled == pytest.approx(delta_2 * (2.0 * mean + 1.0), rel=1e-15)

    def test_rows_match_direct_solver_call(self, tmp_path):
        out = tmp_path / "direct.csv"
        assert cli.main(["curve", "--targets", "6", "--output", str(out)]) == 0
        _, header, rows = read_report(out)
        cost = variational.cost_function("f1")
        point = variational.sweep_curve(cost, "nonneg", [6.0])[0]
        assert column(rows, header, "delta_H")[0] == pytest.approx(
            point.delta_H, rel=1e-15
        )
        assert column(rows, header, "beta")[0] == pytest.approx(
            point.beta, rel=1e-15
        )
        assert column(rows, header, "cutoff")[0] == point.cutoff
        assert column(rows, header, "tail_mass")[0] == point.tail_mass

    def test_stdout_when_no_output_path(self, capsys):
        assert cli.main(["curve", "--targets", "1"]) == 0
        out = capsys.readouterr().out
        assert ",".join(self.HEADER) in out
        assert out.startswith("# version=")


class TestSeriesOutput:
    def test_metadata_carries_coefficients_to_10_digits(self, tmp_path):
        out = tmp_path / "series.csv"
        code = cli.main(
            ["series", "--spectrum", "nonneg", "--targets", "12", "--output", str(out)]
        )
        assert code == 0
        metadata, header, rows = read_report(out)
        assert header == ["mean", "numeric", "series", "abs_gap", "rel_gap"]
        expansion = asympt.nonneg_series_expansion()
        assert metadata["series_variable"] == expansion.variable
        for exponent, coeff in zip(expansion.exponents, expansion.coefficients):
            assert metadata[f"coefficient_{exponent}"] == f"{coeff:.10g}"
        assert round(float(metadata["coefficient_2"]), 4) == pytest.approx(1.8936)
        assert len(rows) == 1
        mean = column(rows, header, "mean")[0]
        assert mean == pytest.approx(12.0, rel=1e-6)
        numeric = column(rows, header, "numeric")[0]
        series = column(rows, header, "series")[0]
        gap = column(rows, header, "abs_gap")[0]
        rel = column(rows, header, "rel_gap")[0]
        assert gap == pytest.approx(numeric - series, abs=1e-18)
        assert rel == pytest.approx(gap / series, rel=1e-12)
        assert abs(rel) < 1e-6

    def test_symmetric_metadata_coefficients(self, tmp_path):
        out = tmp_path / "sym.csv"
        code = cli.main(
            ["series", "--spectrum", "symmetric", "--output", str(out)]
        )
        assert code == 0
        metadata, _, rows = read_report(out)
        assert rows == []  # no targets: header-only report
        expansion = asympt.symmetric_series_expansion()
        assert metadata["series_variable"] == expansion.variable
        assert round(float(metadata["coefficient_2"]), 4) == pytest.approx(0.6266)
        assert round(float(metadata["coefficient_6"]), 4) == pytest.approx(-0.6292)

    def test_target_at_the_regime_edge_prints_nothing_on_stderr(
        self, tmp_path, capsys, monkeypatch
    ):
        # target 10 may land a little below 10, inside mean_rtol (this sweep
        # lands 5e-12 above, so its landed mean is set 1e-9 relative below); the
        # series is evaluated at the landed L, with no regime warning
        sweep = variational.sweep_curve

        def landed_below(*args):
            return [
                dataclasses.replace(point, mean_constraint=10.0 - 1e-8)
                for point in sweep(*args)
            ]

        monkeypatch.setattr(variational, "sweep_curve", landed_below)
        out = tmp_path / "edge.csv"
        argv = ["series", "--spectrum", "symmetric", "--targets", "10", "--output", str(out)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        _, header, rows = read_report(out)
        mean = column(rows, header, "mean")[0]
        series = column(rows, header, "series")[0]
        assert mean < 10.0
        assert series == asympt.symmetric_series_expansion().evaluate(2.0 * mean + 1.0)


class TestVerifyOutput:
    def test_report_file_and_pass_lines(self, tmp_path, capsys):
        out = tmp_path / "probe.csv"
        assert cli.main(["verify", "probe", "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        metadata, header, rows = read_report(out)
        assert header == ["check", "margin", "threshold", "ok"]
        assert metadata["suite"] == "probe"
        assert int(metadata["checks"]) == len(rows)
        assert len(rows) >= 1
        for row in rows:
            assert row[3] == "True"
            assert f"PASS {row[0]}" in printed

    @pytest.mark.parametrize("points", [2, 3, 2001, 20001, 32768, 32769, 33039])
    def test_small_inequality_grid_passes(self, points, capsys):
        # the chunked walk must equal one evaluation of the whole grid, at
        # the endpoints +-pi and on both sides of a chunk boundary; at 33039
        # points (k * step - pi) misses pi at the last k, which linspace sets
        code = cli.main(["verify", "inequalities", "--grid-points", str(points)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out
        theta = np.linspace(-math.pi, math.pi, points)
        assert np.array_equal(np.concatenate(list(cli._grid_chunks(points))), theta)
        f1, f2, f3 = (variational.cost_function(n).evaluate(theta) for n in ("f1", "f2", "f3"))
        expected = {
            "theta_sq_minus_f1": np.min(theta**2 - f1),
            "theta_sq_minus_f2": np.min(theta**2 - f2),
            "f3_minus_theta_sq": np.min(f3 - theta**2),
            "f2_nonnegative": np.min(f2),
        }
        printed = dict(line.split(" ")[1:] for line in out.splitlines())
        assert printed == {name: f"margin={cli._format(float(v))}" for name, v in expected.items()}

    def test_bounds_print_heis_k_a_only_for_nonneg_states(self, capsys):
        # seed 0 draws one symmetric state: heis_k_a applies to none
        assert cli.main(["verify", "bounds", "--states", "1", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS state_heis_k_a_median " in out
        assert "state_heis_k_a " not in out

    @pytest.mark.parametrize("max_dimension", [2, 3, 20])
    def test_bounds_states_fit_the_max_dimension(self, max_dimension):
        # a symmetric spectrum has at least 3 rows, so M = 2 draws nonneg states
        rng = np.random.default_rng(0)
        drawn = [cli._random_state(rng, max_dimension) for _ in range(200)]
        assert max(state.dimension for state in drawn) <= max_dimension
        kinds = {state.spectrum.kind for state in drawn}
        assert kinds == ({"nonneg"} if max_dimension < 3 else {"nonneg", "symmetric"})

    def test_small_povm_suite_passes(self, capsys):
        code = cli.main(
            ["verify", "povm", "--instances", "4", "--seed", "20240901"]
        )
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_mzi_metadata_records_visibility(self, tmp_path, capsys):
        out = tmp_path / "mzi.csv"
        code = cli.main(
            ["verify", "mzi", "--visibility", "0.9", "--output", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        metadata, _, rows = read_report(out)
        assert float(metadata["visibility"]) == pytest.approx(0.9)
        assert all(row[3] == "True" for row in rows)

    @pytest.mark.parametrize("visibility", [0.1, 0.5, 0.99, 1.0])
    def test_mzi_quadrature_rule_is_converged(self, visibility):
        model = estimators.MziModel(visibility=visibility)
        value = cli._mzi_amse_quadrature(model)
        assert abs(value - (math.pi**2 / 3.0 - 2.0 * visibility)) <= 1e-14
        x, w = np.polynomial.legendre.leggauss(2 * cli._MZI_NODES)
        doubled = 0.5 * float(w @ model.exact_mse(0.5 * math.pi * (x + 1.0)))
        assert abs(value - doubled) <= 1e-14

    @pytest.mark.parametrize("visibility", ["0.1", "1e-3"])
    def test_mzi_identities_hold_at_low_visibility(self, capsys, visibility):
        # the bias-corrected bound is formed from the slope itself, and the
        # error-propagation gap is relative, so both stay at rounding level
        assert cli.main(["verify", "mzi", "--visibility", visibility]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS uncorrected_equals_error_prop" in out


class TestDeterminism:
    def test_curve_reruns_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "phaselim.cli",
                    "curve",
                    "--metric",
                    "f2",
                    "--spectrum",
                    "symmetric",
                    "--targets",
                    "0.5,3,25",
                    "--output",
                    str(path),
                ],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
        first, second = (path.read_bytes() for path in paths)
        assert first == second
        assert first  # non-empty

    def test_verify_reruns_are_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code = cli.main(
                [
                    "verify",
                    "povm",
                    "--instances",
                    "5",
                    "--seed",
                    "11",
                    "--output",
                    str(path),
                ]
            )
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEntryPoint:
    def test_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        from phaselim import __version__

        assert __version__ in capsys.readouterr().out

    def test_missing_command_exits_2(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_module_runs_as_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "phaselim.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip()

    def test_import_leaves_scipy_integrate_unloaded(self):
        """`verify mzi` integrates with a Gauss-Legendre rule, so importing
        the CLI must not pay for scipy.integrate."""
        probe = "import sys, phaselim.cli; print('scipy.integrate' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_constants_leave_scipy_optimize_and_sparse_unloaded(self):
        """No eigensolve path uses scipy.sparse and the Bessel zeros are
        bisected without scipy.optimize, so the asymptotic constants every
        command reads pay for neither."""
        probe = (
            "import sys, phaselim.cli; phaselim.asympt.constants(); "
            "print(sorted({'scipy.optimize', 'scipy.sparse'} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_commands_and_closed_forms_leave_scipy_optimize_integrate_sparse_unloaded(self):
        """The Bessel-zero bisection, the Gauss-Legendre rule of `verify
        mzi` and the LAPACK and FFT solvers need none of these modules."""
        probe = (
            "import contextlib, io, sys\n"
            "from phaselim import asympt, cli\n"
            "runs = [['verify', 'mzi'], ['verify', 'probe'],\n"
            "        ['series', '--targets', '100'], ['curve', '--targets', '1']]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(argv) for argv in runs]\n"
            "asympt.bessel_state_nonneg(20.0)\n"
            "asympt.bessel_state_symmetric(20.0)\n"
            "loaded = {'scipy.optimize', 'scipy.integrate', 'scipy.sparse'} & set(sys.modules)\n"
            "print(codes, sorted(loaded))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[0, 0, 0, 0] []"
