"""Command-line interface contract tests.

Covers the range grammar, exit codes, the CSV layout (metadata block,
header row, ordering), byte-identical reruns, and the wiring between CLI
metric names and the solver columns they select.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from phaselim import asympt, cli, variational


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

    def test_series_target_below_regime_exits_2(self, capsys):
        assert cli.main(["series", "--targets", "5,1000"]) == 2
        assert ">= 10" in capsys.readouterr().err

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
        ],
    )
    def test_invalid_verify_option_exits_2(self, capsys, argv, message):
        assert cli.main(["verify", *argv]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["curve", "series"])
    def test_target_over_dimension_limit_exits_2(self, capsys, command):
        start = time.perf_counter()
        assert cli.main([command, "--targets", "1e9"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "configuration error: target mean 1000000000.0: dimension" in err
        assert "exceeds the limit of 10000000 rows" in err

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

    def test_unwritable_output_exits_2_before_solving(
        self, capsys, tmp_path, monkeypatch
    ):
        def unexpected(*args, **kwargs):
            raise AssertionError("sweep_curve called for an unwritable output")

        monkeypatch.setattr(variational, "sweep_curve", unexpected)
        path = tmp_path / "missing" / "x.csv"
        assert cli.main(["curve", "--targets", "1000", "--output", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: cannot write {path}: No such file" in err
        assert not path.parent.exists()

    def test_out_of_memory_is_solver_failure(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(variational, "sweep_curve", exhausted)
        assert cli.main(["curve", "--targets", "1e5"]) == 3
        err = capsys.readouterr().err
        assert "solver failure: Unable to allocate 74.5 GiB" in err
        assert "Traceback" not in err

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "curve" in capsys.readouterr().out

    def test_verify_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setitem(
            cli._SUITES, "probe", lambda config: [("forced_failure", -1.0, -1e-12)]
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

    def test_small_inequality_grid_passes(self, capsys):
        code = cli.main(["verify", "inequalities", "--grid-points", "20001"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

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
