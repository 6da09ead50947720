"""Initial-condition grammar, CSV/SVG emission, CLI commands, exit codes."""

import csv
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import hydrobench
from hydrobench import cli
from hydrobench.cli import RunConfig, emit_outputs, main
from hydrobench.initial_conditions import ICParseError, parse_initial_condition, realize

ACOUSTIC_PERIOD = 2.0 * math.pi / math.sqrt(5.0 / 3.0)


class TestICGrammar:
    def test_single_term(self):
        spec = parse_initial_condition("u:1:1.0")
        assert len(spec.terms) == 1
        term = spec.terms[0]
        assert (term.field, term.mode, term.amplitude, term.phase) == ("u", 1, 1.0, 0.0)

    def test_two_terms_with_phase(self):
        spec = parse_initial_condition("u:1:1.0:0.0,p:2:0.5:1.5708")
        assert len(spec.terms) == 2
        assert spec.terms[1].field == "p"
        assert spec.terms[1].phase == pytest.approx(1.5708)

    def test_whitespace_ignored(self):
        spec = parse_initial_condition("  u : 1 : 1.0 ,  s : 3 : 0.25 ")
        assert [t.field for t in spec.terms] == ["u", "s"]

    def test_unknown_field_named_in_error(self):
        with pytest.raises(ICParseError, match="x"):
            parse_initial_condition("x:1:1.0")

    def test_error_carries_position(self):
        with pytest.raises(ICParseError) as info:
            parse_initial_condition("u:1:1.0,q:2:1.0")
        assert info.value.position == 8

    def test_non_integer_mode(self):
        with pytest.raises(ICParseError, match="integer"):
            parse_initial_condition("u:one:1.0")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "text, name", [("u:1:1,p:2:{}", "amplitude"), ("u:1:1,p:2:1:{}", "phase")]
    )
    def test_non_finite_amplitude_or_phase(self, text, name, value):
        with pytest.raises(ICParseError, match=f"{name} must be finite") as info:
            parse_initial_condition(text.format(value))
        assert info.value.position == 6

    def test_mode_too_large_for_grid(self):
        with pytest.raises(ICParseError, match="grid"):
            parse_initial_condition("u:9:1.0", grid_size=16)

    def test_empty_string(self):
        with pytest.raises(ICParseError):
            parse_initial_condition("")

    def test_realize_sinusoid(self):
        fields = realize(parse_initial_condition("u:2:0.5"), 32)
        x = 2.0 * np.pi * np.arange(32) / 32
        assert fields["u"] == pytest.approx(0.5 * np.sin(2 * x))
        assert np.all(fields["p"] == 0)

    def test_realize_phase_shift(self):
        fields = realize(parse_initial_condition(f"p:1:1:{np.pi / 2}"), 32)
        x = 2.0 * np.pi * np.arange(32) / 32
        assert fields["p"] == pytest.approx(np.cos(x))

    def test_empty_spec_rejected_directly(self):
        from hydrobench.initial_conditions import ICSpec

        with pytest.raises(ValueError):
            ICSpec(terms=())


class TestEmitOutputs:
    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_outputs(cli._table({"a": [1.5], "b": ["x"]}), path)
        assert path.read_text() == "a,b\n1.5,x\n"

    def test_reals_round_trip(self, tmp_path):
        values = [math.pi, 1.0 / 3.0, 2e-15, -7.123456789012345e100]
        path = tmp_path / "floats.csv"
        emit_outputs(cli._table({"v": values}), path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        for value, row in zip(values, rows):
            assert float(row["v"]) == value

    def test_rejects_empty_table(self, tmp_path):
        with pytest.raises(ValueError):
            emit_outputs(cli._table({"a": np.empty(0)}), tmp_path / "no.csv")
        assert not (tmp_path / "no.csv").exists()

    def test_blocks_match_per_value_format(self, tmp_path):
        # Tricky doubles across two write-block boundaries: every value must
        # come out exactly as format(v, ".17g"), every label as str(v).
        tricky = [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 2.0**53 + 2]
        tricky += [math.nan, math.inf, -math.inf]
        count = 2 * cli.WRITE_BLOCK + 1
        labels = [f"row{i}" for i in range(count)]
        a = [tricky[i % len(tricky)] for i in range(count)]
        b = [tricky[(i * 5 + 3) % len(tricky)] for i in range(count)]
        path = tmp_path / "oracle.csv"
        emit_outputs(cli._table({"a": a, "label": labels, "b": b}), path)
        lines = ["a,label,b"]
        lines += [
            f"{format(x, '.17g')},{name},{format(y, '.17g')}" for x, name, y in zip(a, labels, b)
        ]
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_svg_deterministic_and_well_formed(self, tmp_path):
        rows = cli._table({"t": np.arange(20.0), "y": np.sin(np.arange(20) / 3.0)})
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit_outputs(rows, first, emit_svg=True, title="chart")
        emit_outputs(rows, second, emit_svg=True, title="chart")
        svg_a = (tmp_path / "a.svg").read_bytes()
        svg_b = (tmp_path / "b.svg").read_bytes()
        assert svg_a == svg_b
        root = ET.fromstring(svg_a)
        assert root.tag.endswith("svg")
        assert root.attrib["width"] == "800"
        assert root.attrib["height"] == "600"


class TestDispersionCommand:
    def test_row_count_contract(self, tmp_path):
        out = tmp_path / "disp.csv"
        code = main(
            [
                "dispersion",
                "--model",
                "burnett",
                "--eps",
                "0.1",
                "--kmin",
                "0.1",
                "--kmax",
                "4",
                "--samples",
                "64",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64 * 3
        assert set(r["branch"] for r in rows) == {"entropy", "sound_plus", "sound_minus"}

    def test_rows_sorted_by_model_k_branch(self, tmp_path):
        out = tmp_path / "disp.csv"
        main(
            [
                "dispersion",
                "--model",
                "moment_reference,euler",
                "--eps",
                "0.1",
                "--kmin",
                "0.5",
                "--kmax",
                "2",
                "--samples",
                "4",
                "--out",
                str(out),
            ]
        )
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        keys = [(r["model"], float(r["k"]), r["branch"]) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 4 * 3 + 4 * 5


class TestEvolveCommand:
    def test_full_acoustic_period_returns_to_start(self, tmp_path):
        out = tmp_path / "evolve.csv"
        period = repr(ACOUSTIC_PERIOD)
        code = main(
            [
                "evolve",
                "--model",
                "euler",
                "--ic",
                "u:1:1",
                "--tmax",
                period,
                "--dt-out",
                period,
                "--grid-size",
                "32",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        start = [r for r in rows if float(r["t"]) == 0.0]
        end = [r for r in rows if float(r["t"]) != 0.0]
        assert len(start) == len(end) == 32
        worst = max(
            max(abs(float(a["u"]) - float(b["u"])), abs(float(a["p"]) - float(b["p"])))
            for a, b in zip(start, end)
        )
        assert worst <= 1e-10

    def test_moment_reference_model_supported(self, tmp_path):
        out = tmp_path / "mom.csv"
        code = main(
            [
                "evolve",
                "--model",
                "moment_reference",
                "--ic",
                "u:1:1",
                "--eps",
                "0.1",
                "--tmax",
                "2",
                "--dt-out",
                "1",
                "--grid-size",
                "16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 16

    @pytest.mark.parametrize("n", [16, 15])
    def test_moment_reference_starts_at_the_initial_condition_exactly(self, tmp_path, n):
        # The t = 0 rows are the realized fields, not their analysis and synthesis.
        ic = "u:1:1,p:2:0.3:0.1,s:3:0.2"
        out = tmp_path / "mom.csv"
        argv = ["evolve", "--model", "moment_reference", "--ic", ic, "--eps", "0.1"]
        argv += ["--tmax", "1", "--dt-out", "1", "--grid-size", str(n), "--out", str(out)]
        assert main(argv) == 0
        rows = np.genfromtxt(out, delimiter=",", names=True)
        start = rows[rows["t"] == 0.0]
        fields = realize(parse_initial_condition(ic, n), n)
        for name in ("u", "p", "s"):
            assert np.array_equal(start[name], fields[name]), name


class TestCompareCommand:
    def test_columns_and_zero_start(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(
            [
                "compare",
                "--model",
                "burnett",
                "--model",
                "navier_stokes",
                "--ic",
                "u:1:1",
                "--eps",
                "0.1",
                "--tmax",
                "4",
                "--dt-out",
                "2",
                "--grid-size",
                "16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["t", "l2_error_burnett", "l2_error_navier_stokes"]
            rows = list(reader)
        assert float(rows[0]["l2_error_burnett"]) == 0.0
        assert all(float(r["l2_error_burnett"]) >= 0.0 for r in rows)


    def test_repeated_models_written_once_in_first_seen_order(self, tmp_path):
        out = tmp_path / "cmp.csv"
        argv = ["compare", "--model", "burnett,burnett,riemann,riemann_decoupled"]
        argv += ["--ic", "u:1:1", "--tmax", "1", "--dt-out", "0.5", "--grid-size", "16"]
        assert main(argv + ["--out", str(out)]) == 0
        with open(out) as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "l2_error_burnett", "l2_error_riemann_decoupled"]

    @pytest.mark.xfail(
        strict=True,
        reason="compare feeds (u, p, s) modes to the (R+, R-, s) Riemann symbol without "
        "riemann_split; the benchmark reference pins that behaviour until both are fixed",
    )
    def test_riemann_gap_equals_burnett_gap(self, tmp_path):
        # Split into Riemann invariants and joined back, the Riemann-decoupled
        # evolution is the Burnett evolution exactly, so the two gaps must agree.
        out = tmp_path / "cmp.csv"
        argv = ["compare", "--model", "burnett,riemann", "--ic", "u:1:1,p:3:0.5"]
        argv += ["--eps", "0.1", "--tmax", "4", "--dt-out", "1", "--grid-size", "16"]
        assert main(argv + ["--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        burnett = np.array([float(r["l2_error_burnett"]) for r in rows])
        riemann = np.array([float(r["l2_error_riemann_decoupled"]) for r in rows])
        assert np.allclose(riemann, burnett, rtol=1e-8, atol=1e-12)


class TestSecularCommand:
    def test_series_columns(self, tmp_path):
        out = tmp_path / "sec.csv"
        code = main(
            [
                "secular",
                "--ic",
                "u:1:1",
                "--eps",
                "0.1",
                "--tmax",
                "50",
                "--dt-out",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["t", "naive_ratio", "multiscale_ratio"]
            rows = list(reader)
        naive = [float(r["naive_ratio"]) for r in rows]
        assert naive == sorted(naive)

    def test_beyond_horizon_is_usage_error(self, tmp_path):
        code = main(
            [
                "secular",
                "--ic",
                "u:1:1",
                "--eps",
                "0.1",
                "--tmax",
                "500",
                "--dt-out",
                "5",
                "--out",
                str(tmp_path / "sec.csv"),
            ]
        )
        assert code == 1


class TestOutputTimes:
    @pytest.mark.parametrize(
        "tmax, dt_out, steps",
        [
            (0.3, 0.1, 3),  # the doubles divide to 2.9999999999999996
            (0.7, 0.1, 7),  # and to 6.999999999999999
            (0.29999999995, 0.1, 2),  # 0.3 would lie past tmax
            (10.0, 0.1, 100),
            (10.0, 0.5, 20),
            (10000.0, 0.5, 20000),
            (4.8669344111683355, 4.8669344111683355, 1),
            (20.0, 0.5, 40),
            (400.0, 0.5, 800),
        ],
    )
    def test_exact_step_count(self, tmp_path, tmax, dt_out, steps):
        config = RunConfig(
            command="secular",
            tmax=tmax,
            dt_out=dt_out,
            ic=parse_initial_condition("u:1:1"),
            out_path=tmp_path / "x.csv",
        )
        times = cli._output_times(config)
        assert np.array_equal(times, dt_out * np.arange(steps + 1))


class TestDeterminismAndConfig:
    def test_identical_config_identical_bytes(self, tmp_path):
        args = [
            "dispersion",
            "--model",
            "burnett",
            "--eps",
            "0.1",
            "--kmin",
            "0.2",
            "--kmax",
            "2",
            "--samples",
            "16",
            "--svg",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "model=burnett\neps=0.1\nkmin=0.5\nkmax=2.0\nsamples=8\n"
            f"out={tmp_path / 'from_config.csv'}\n"
        )
        code = main(["dispersion", "--config", str(config), "--samples", "4"])
        assert code == 0
        with open(tmp_path / "from_config.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 3  # flag wins over the config value of 8


    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("model=burnett\ngridsize=4096\n")
        argv = ["evolve", "--config", str(config), "--ic", "u:1:1", "--tmax", "1"]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{config}:2" in err and "'gridsize'" in err
        assert not (tmp_path / "x.csv").exists()

    def test_key_of_another_command_accepted(self, tmp_path):
        # One file may serve several commands; dispersion ignores the evolve keys.
        config = tmp_path / "run.cfg"
        config.write_text("model=euler\nkmin=0.5\nkmax=1\nsamples=4\nic=u:1:1\ntmax=2\n")
        out = tmp_path / "d.csv"
        assert main(["dispersion", "--config", str(config), "--out", str(out)]) == 0
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 4 * 3

    @pytest.mark.parametrize(
        "line, key, expected",
        [
            ("eps=abc", "eps", "float"),
            ("grid_size=abc", "grid_size", "int"),
            ("samples=4.5", "samples", "int"),
            ("svg=on", "svg", "1/true/yes or 0/false/no"),
        ],
    )
    def test_bad_config_value_is_one_line_usage_error(self, tmp_path, capsys, line, key, expected):
        config = tmp_path / "run.cfg"
        config.write_text(f"model=burnett\nic=u:1:1\ntmax=1\n{line}\n")
        assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1
        value = line.split("=")[1]
        assert capsys.readouterr().err == (
            f"error: {config}:4: '{key}' expects {expected}, got '{value}'\n"
        )
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "word, svg",
        [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)],
    )
    def test_svg_config_switch_spellings(self, tmp_path, word, svg):
        config = tmp_path / "run.cfg"
        config.write_text(f"model=euler\nic=u:1:1\ntmax=1\ngrid_size=8\nsvg={word}\n")
        assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 0
        assert (tmp_path / "x.csv").exists()
        assert (tmp_path / "x.svg").exists() is svg

    def test_config_file_matches_flags_byte_for_byte(self, tmp_path):
        flags = ["--model", "burnett,navier_stokes", "--ic", "u:1:1,p:3:0.5:0.2", "--eps", "0.1"]
        flags += ["--tmax", "4", "--dt-out", "0.5", "--grid-size", "15"]
        assert main(["compare", *flags, "--out", str(tmp_path / "flags.csv")]) == 0
        config = tmp_path / "run.cfg"
        config.write_text(
            "model=burnett,navier_stokes\nic=u:1:1,p:3:0.5:0.2\neps=0.1\ntmax=4\n"
            f"dt-out=0.5\ngrid-size=15\nout={tmp_path / 'config.csv'}\n"
        )
        assert main(["compare", "--config", str(config)]) == 0
        assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()


class TestSvgShapes:
    def test_evolve_svg_charts_snapshot_against_x(self, tmp_path):
        out = tmp_path / "evo.csv"
        code = main(
            [
                "evolve",
                "--model",
                "euler",
                "--ic",
                "u:1:1",
                "--tmax",
                "2",
                "--dt-out",
                "1",
                "--grid-size",
                "16",
                "--out",
                str(out),
                "--svg",
            ]
        )
        assert code == 0
        svg = (tmp_path / "evo.svg").read_text()
        # x axis labeled with the spatial coordinate, u/p/s series present
        assert ">x</text>" in svg
        for name in ("u", "p", "s"):
            assert f">{name}</text>" in svg

    def test_dispersion_svg_one_polyline_per_branch_component(self, tmp_path):
        out = tmp_path / "disp.csv"
        code = main(
            [
                "dispersion",
                "--model",
                "euler",
                "--eps",
                "0.1",
                "--kmin",
                "0.5",
                "--kmax",
                "2",
                "--samples",
                "8",
                "--out",
                str(out),
                "--svg",
            ]
        )
        assert code == 0
        svg = (tmp_path / "disp.svg").read_text()
        # 3 branches x (re, im) = 6 polylines
        assert svg.count("<polyline") == 6

    def test_polylines_match_per_point_arithmetic(self, tmp_path):
        # Groups in sorted label order, each ordered by x with ties kept in
        # table order, and every point computed as scalar Python arithmetic.
        rng = np.random.default_rng(3)
        x = rng.integers(0, 6, 40) * 0.3
        rows = cli._table(
            {"g": rng.choice(["b", "a"], 40), "x": x, "y": rng.normal(size=40), "z": x * x}
        )
        emit_outputs(rows, tmp_path / "c.csv", emit_svg=True)
        x_lo, x_hi = min(rows["x"].tolist()), max(rows["x"].tolist())
        ys = rows["y"].tolist() + rows["z"].tolist()
        y_lo, y_hi = min(ys), max(ys)
        expected = []
        for label in ("a", "b"):
            group = sorted((r for r in rows.tolist() if r[0] == label), key=lambda r: r[1])
            for col in (2, 3):
                expected.append(
                    " ".join(
                        f"{70 + (r[1] - x_lo) / (x_hi - x_lo) * 710:.3f},"
                        f"{550 - (r[col] - y_lo) / (y_hi - y_lo) * 510:.3f}"
                        for r in group
                    )
                )
        root = ET.fromstring((tmp_path / "c.svg").read_text())
        got = [el.attrib["points"] for el in root if el.tag.endswith("polyline")]
        assert got == expected
        names = [el.text for el in root if el.tag.endswith("text")][-4:]
        assert names == ["y[a]", "z[a]", "y[b]", "z[b]"]


class TestImportCost:
    def test_data_commands_leave_scipy_unloaded(self, tmp_path):
        # Importing scipy.linalg takes longer than most whole CLI calls; only
        # the secular command and defective symbols need it.
        script = """
import sys
from hydrobench.cli import main
common = ["--ic", "u:1:1,p:2:0.5", "--tmax", "1", "--dt-out", "0.5", "--grid-size", "16"]
assert main(["evolve", "--model", "burnett", *common, "--out", "e.csv", "--svg"]) == 0
assert main(["evolve", "--model", "moment", *common, "--out", "m.csv"]) == 0
assert main(["compare", "--model", "euler,riemann", *common, "--out", "c.csv"]) == 0
assert main(["dispersion", "--model", "ns,moment", "--kmax", "2", "--out", "d.csv", "--svg"]) == 0
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""
        src = str(Path(hydrobench.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestMinimumGridSize:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_small_grids_rejected_everywhere_with_one_message(self, n, tmp_path):
        from hydrobench.hydro_spectral import HydroState

        message = f"grid size must be at least 8, got {n}"
        with pytest.raises(ValueError) as field_error:
            HydroState(u=np.zeros(n), p=np.zeros(n), s=np.zeros(n))
        with pytest.raises(ValueError) as ic_error:
            realize(parse_initial_condition("u:1:1"), n)
        with pytest.raises(cli.UsageError) as config_error:
            RunConfig(
                command="evolve",
                models=(cli.ModelId.EULER,),
                grid_size=n,
                ic=parse_initial_condition("u:1:1"),
                out_path=tmp_path / "x.csv",
            )
        assert str(field_error.value) == str(ic_error.value) == str(config_error.value) == message

    def test_eight_accepted_everywhere(self, tmp_path):
        from hydrobench.hydro_spectral import HydroState

        HydroState(u=np.zeros(8), p=np.zeros(8), s=np.zeros(8))
        realize(parse_initial_condition("u:1:1"), 8)
        RunConfig(
            command="evolve",
            models=(cli.ModelId.EULER,),
            grid_size=8,
            ic=parse_initial_condition("u:1:1"),
            out_path=tmp_path / "x.csv",
        )


class TestExitCodes:
    def test_usage_error_bad_model(self, tmp_path):
        code = main(
            [
                "dispersion",
                "--model",
                "bogus",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    def test_usage_error_missing_ic(self, tmp_path):
        code = main(
            ["evolve", "--model", "euler", "--tmax", "1", "--dt-out", "1", "--out",
             str(tmp_path / "x.csv")]
        )
        assert code == 1

    def test_usage_error_bad_flag(self):
        assert main(["dispersion", "--nonsense"]) == 1

    def test_usage_error_two_models_for_evolve(self, tmp_path):
        code = main(
            [
                "evolve",
                "--model",
                "euler",
                "--model",
                "burnett",
                "--ic",
                "u:1:1",
                "--tmax",
                "1",
                "--dt-out",
                "1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    def test_usage_error_compare_without_hydro_model(self, tmp_path):
        code = main(
            [
                "compare",
                "--model",
                "moment_reference",
                "--ic",
                "u:1:1",
                "--tmax",
                "1",
                "--dt-out",
                "1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["dispersion", "--model", "euler", "--eps=nan"],
            ["dispersion", "--model", "euler", "--kmin=nan"],
            ["dispersion", "--model", "euler", "--kmax=inf"],
            ["evolve", "--model", "euler", "--ic", "u:1:1", "--lambda02=nan"],
            ["evolve", "--model", "euler", "--ic", "u:1:1", "--tmax=inf"],
            ["compare", "--model", "euler", "--ic", "u:1:1", "--dt-out=nan"],
            ["secular", "--ic", "u:1:1", "--eps=-inf"],
        ],
    )
    def test_non_finite_value_is_usage_error(self, tmp_path, capsys, argv):
        flag, value = argv[-1].split("=")
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be finite, got {float(value)}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["evolve", "compare"])
    @pytest.mark.parametrize("ic", ["u:1:nan", "u:1:inf", "u:1:1:inf"])
    def test_non_finite_ic_is_usage_error(self, tmp_path, capsys, command, ic):
        out = tmp_path / "x.csv"
        argv = [command, "--model", "burnett", "--ic", ic, "--grid-size", "16", "--out", str(out)]
        assert main([*argv, "--tmax", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be finite" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["evolve", "compare"])
    def test_overflowing_ic_is_numerical_failure(self, tmp_path, capsys, command):
        # Each term is finite, but their sum overflows on the grid; synthesis
        # refuses the non-finite spectrum instead of writing inf or nan rows.
        out = tmp_path / "x.csv"
        argv = [command, "--model", "burnett", "--ic", "u:1:1e308,u:1:1e308", "--tmax", "1"]
        assert main([*argv, "--grid-size", "16", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical failure: ")
        assert "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("ic", ["p:1:1", "u:1:0", "u:1:1,u:2:1"])
    def test_secular_refuses_unsupported_ic_as_usage_error(self, tmp_path, capsys, ic):
        out = tmp_path / "x.csv"
        assert main(["secular", "--ic", ic, "--tmax", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: secularity experiments need")
        assert not out.exists()

    def test_unwritable_output_path(self, tmp_path):
        code = main(
            [
                "dispersion",
                "--model",
                "euler",
                "--kmin",
                "0.5",
                "--kmax",
                "1",
                "--samples",
                "4",
                "--out",
                str(tmp_path / "no_such_dir" / "x.csv"),
            ]
        )
        assert code == 1

    def test_malformed_config_file(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("model burnett\n")
        assert main(["dispersion", "--config", str(config)]) == 1

    def test_branch_merge_exits_two_through_cli(self, tmp_path, capsys):
        # Tracking the kinetic moment branches across their real exceptional
        # point is a genuine numerical refusal, reported on one stderr line.
        code = main(
            [
                "dispersion",
                "--model",
                "moment_reference",
                "--eps",
                "0.1",
                "--kmin",
                "0.5",
                "--kmax",
                "4",
                "--samples",
                "60",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "numerical failure" in err

    def test_numerical_failure_maps_to_two(self, tmp_path, monkeypatch):
        from hydrobench.dispersion import BranchCollisionError

        def explode(config):
            raise BranchCollisionError("synthetic collision")

        monkeypatch.setitem(cli.__dict__, "_cmd_dispersion", explode)
        config = RunConfig(
            command="dispersion",
            models=(cli.ModelId.BURNETT,),
            out_path=tmp_path / "x.csv",
        )
        assert cli.run(config) == 2

    def test_selftest_help_runs(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "dispersion" in out and "selftest" in out


class TestSelftestCommand:
    def test_every_check_passes(self, capsys):
        from hydrobench import checks

        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        total = len(checks.REGISTRY)
        assert lines[-1] == f"{total}/{total} checks passed"
        assert len(lines) == total + 1
        assert all(line.startswith("ok  ") for line in lines[:-1])

    def test_failures_are_reported_not_raised(self, monkeypatch, capsys):
        import dataclasses

        from hydrobench import checks

        def over_bound():
            return [checks.Measurement("worst eigenvalue gap", 3e-12, "<=", 1e-12)]

        def crash():
            raise RuntimeError("synthetic crash")

        registry = list(checks.REGISTRY)
        registry[2] = dataclasses.replace(registry[2], measure=over_bound)
        registry[3] = dataclasses.replace(registry[3], measure=crash)
        monkeypatch.setattr(checks, "REGISTRY", registry)
        assert main(["selftest"]) == 2
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 2
        assert "worst eigenvalue gap 3e-12 violates <= 1e-12" in failed[0]
        assert "synthetic crash" in failed[1]
        total = len(checks.REGISTRY)
        assert lines[-1] == f"{total - 2}/{total} checks passed"
