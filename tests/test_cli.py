import gc
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from isingfiber.cli import main
from isingfiber.grid import BinaryTable, ParseError, format_table, parse_table
from isingfiber.models import AutologisticParams, IsingParams
from reference_gibbs import gibbs_autologistic as reference_autologistic
from reference_gibbs import gibbs_ising as reference_ising


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_exit(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_diagonal_table(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("10\n01\n")
        code, out, _ = run_cli(capsys, "stats", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "schema": 1,
            "t1": 2,
            "t2": 4,
            "u": 1,
            "uprime": 0,
            "rows": 2,
            "cols": 2,
        }

    def test_all_zero(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("000\n000\n000\n")
        code, out, _ = run_cli(capsys, "stats", str(path))
        assert code == 0
        payload = json.loads(out)
        assert (payload["t1"], payload["t2"], payload["u"], payload["uprime"]) == (0, 0, 0, 0)

    def test_ragged_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("10\n011\n")
        code, out, err = run_cli(capsys, "stats", str(path))
        assert code == 1
        assert out == ""
        assert "ragged" in err


    @pytest.mark.parametrize("command", ["stats", "test"])
    def test_file_is_closed(self, capsys, tmp_path, command):
        # reading the table file leaves no unclosed handle behind
        path = tmp_path / "t.txt"
        path.write_text("10\n01\n")
        extra = ["-n", "50"] if command == "test" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli(capsys, command, str(path), *extra)
            gc.collect()
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestEnumerate:
    def test_fiber_size(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--rows", "2", "--cols", "2", "--t1", "1", "--t2", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 4
        assert payload["histogram"] == {"0": 4}

    def test_exact_pvalues(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate",
            "--rows", "2", "--cols", "2", "--t1", "1", "--t2", "2",
            "--stat", "u", "--observed", "0",
        )
        payload = json.loads(out)
        assert code == 0
        assert (payload["p1"], payload["p2"]) == (0.0, 1.0)

    def test_cap_exceeded(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--rows", "6", "--cols", "6", "--t1", "3", "--t2", "8"
        )
        assert code == 1
        assert "25" in err

    @pytest.mark.parametrize("rows, cols", [("-1", "2"), ("-10", "-10")])
    def test_bad_shape_exits_one(self, capsys, rows, cols):
        # the shape is blamed, not t1 or the cell cap
        code, out, err = run_cli(
            capsys, "enumerate", "--rows", rows, "--cols", cols, "--t1", "0", "--t2", "0"
        )
        assert code == 1 and out == ""
        assert f"grid shape must be positive, got {rows}x{cols}" in err


class TestSimulate:
    def test_ising_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "g.txt"
        code, out, err = run_cli(
            capsys,
            "simulate", "ising",
            "--rows", "10", "--cols", "10",
            "--alpha", "-2", "--beta", "0.1", "--seed", "7",
            "-o", str(out_path),
        )
        assert code == 0
        table = parse_table(out_path.read_text())
        assert (table.rows, table.cols) == (10, 10)
        # the stderr log carries the same statistics the stats command reports
        code2, out2, _ = run_cli(capsys, "stats", str(out_path))
        payload = json.loads(out2)
        assert f"t1={payload['t1']} t2={payload['t2']}" in err

    def test_stdout_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "ising",
            "--rows", "3", "--cols", "4", "--alpha", "0", "--beta", "0",
            "--seed", "1", "--sweeps", "2",
        )
        assert code == 0
        table = parse_table(out)
        assert (table.rows, table.cols) == (3, 4)

    def test_autologistic(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "autologistic",
            "--rows", "5", "--cols", "5",
            "--b0", "-2", "--b1", "0.2", "--b2", "-0.2", "--b3", "0.2", "--b4", "-0.2",
            "--seed", "7", "--sweeps", "100",
        )
        assert code == 0
        assert parse_table(out).rows == 5

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_prints_the_reference_loops_table(self, capsys, seed):
        # the printed table is the one the inline reference loops draw from
        # default_rng(seed), for both models
        code, out, _ = run_cli(
            capsys,
            "simulate", "ising",
            "--rows", "9", "--cols", "7", "--alpha", "-0.5", "--beta", "0.4",
            "--seed", str(seed), "--sweeps", "150",
        )
        expected = reference_ising(IsingParams(-0.5, 0.4), 9, 7, 150, np.random.default_rng(seed))
        assert code == 0 and out == format_table(expected)
        code, out, _ = run_cli(
            capsys,
            "simulate", "autologistic",
            "--rows", "6", "--cols", "8",
            "--b0", "-1", "--b1", "0.5", "--b2", "0.3", "--b3", "-0.4", "--b4", "0.2",
            "--seed", str(seed), "--sweeps", "150",
        )
        params = AutologisticParams(-1.0, 0.5, 0.3, -0.4, 0.2)
        expected = reference_autologistic(params, 6, 8, 150, np.random.default_rng(seed))
        assert code == 0 and out == format_table(expected)

    @pytest.mark.parametrize("rows", ["0", "-1"])
    def test_empty_shape_exits_one(self, capsys, rows):
        code, out, err = run_cli(
            capsys, "simulate", "ising", "--rows", rows, "--cols", "3", "--alpha", "0", "--beta", "0"
        )
        assert code == 1 and out == ""
        assert "table shape must be positive" in err

    def test_missing_required_flag(self, capsys):
        code, out, err = run_cli_exit(
            capsys, "simulate", "ising", "--cols", "10", "--alpha", "-2", "--beta", "0.1"
        )
        assert code == 1
        assert "usage" in err

    def test_overflowing_parameters_exit_one(self, capsys):
        for model, *params in (
            ("ising", "--alpha", "1e308", "--beta", "1e308"),
            ("autologistic", "--b0", "0", "--b1", "1e308", "--b2=-1e308", "--b3", "0", "--b4", "0"),
        ):
            code, out, err = run_cli(
                capsys, "simulate", model, "--rows", "2", "--cols", "2", *params
            )
            assert code == 1 and out == ""
            assert "NaN" in err


class TestTest:
    def test_single_one_2x2(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("10\n00\n")
        code, out, _ = run_cli(
            capsys, "test", str(path), "-n", "1000", "--seed", "5", "--stat", "u"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 6
        assert payload["delta"] == 1.0
        assert payload["p1"] == 0.0
        assert payload["p2"] == pytest.approx(1.0)
        assert payload["config"]["t1"] == 1
        assert payload["config"]["t2"] == 2
        assert list(payload["config"]) == [
            "rows", "cols", "t1", "t2", "n_samples", "stat",
            "endgame_cells",
        ]
        assert out.endswith("\n")

    def test_empty_fiber_exits_two(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("10\n00\n")
        code, out, err = run_cli(
            capsys, "test", str(path), "-n", "100", "--t1", "1", "--t2", "3"
        )
        assert code == 2
        assert out == ""
        assert "empty fiber sample" in err

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_fewer_than_two_samples_exit_one_before_sampling(
        self, capsys, tmp_path, monkeypatch, samples
    ):
        import isingfiber.inference as inference

        monkeypatch.setattr(inference, "collect_trials", None)  # no trial may run
        path = tmp_path / "t.txt"
        path.write_text("100\n010\n001\n")
        code, out, err = run_cli(capsys, "test", str(path), "-n", samples)
        assert code == 1
        assert out == "" and f"at least two samples, got {samples}" in err

    def test_thread_count_does_not_change_output(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("100\n010\n001\n")
        outputs = []
        for threads in ("1", "4"):
            code, out, _ = run_cli(
                capsys, "test", str(path), "-n", "400", "--seed", "9", "--threads", threads
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_sampler_flags(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("100\n010\n001\n")
        code, out, _ = run_cli(
            capsys,
            "test", str(path), "-n", "300", "--seed", "3",
            "--endgame-cells", "0", "--stat", "uprime",
        )
        assert code == 0
        assert json.loads(out)["config"]["endgame_cells"] == 0

    def test_retired_no_lp_flag_exits_one(self, capsys, tmp_path):
        # --endgame-cells 0 does what --no-lp did
        path = tmp_path / "t.txt"
        path.write_text("100\n010\n001\n")
        code, out, err = run_cli_exit(capsys, "test", str(path), "-n", "300", "--no-lp")
        assert code == 1
        assert out == "" and "--no-lp" in err

    def test_retired_lp_cells_flag_exits_one(self, capsys, tmp_path):
        # --endgame-cells is the flag's new name
        path = tmp_path / "t.txt"
        path.write_text("100\n010\n001\n")
        code, out, err = run_cli_exit(capsys, "test", str(path), "-n", "300", "--lp-cells", "0")
        assert code == 1
        assert out == "" and "--lp-cells" in err

    @pytest.mark.parametrize(
        "flag", [["--naive-proposal"], ["--rho-clamp", "0.01"]], ids=lambda flag: flag[0]
    )
    def test_retired_sampler_flags_exit_one(self, capsys, tmp_path, flag):
        # the sampler has one proposal, clamped at sampler.RHO_CLAMP
        path = tmp_path / "t.txt"
        path.write_text("100\n010\n001\n")
        code, out, err = run_cli_exit(capsys, "test", str(path), "-n", "300", *flag)
        assert code == 1
        assert out == "" and flag[0] in err

    def test_stat_choice_changes_observed(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("10\n01\n")
        code, out, _ = run_cli(capsys, "test", str(path), "-n", "200", "--seed", "1")
        assert json.loads(out)["observed_stat"] == 1  # u of the diagonal pair
        code, out, _ = run_cli(
            capsys, "test", str(path), "-n", "200", "--seed", "1", "--stat", "uprime"
        )
        assert json.loads(out)["observed_stat"] == 0


def strict_json(text):
    """json.loads that refuses Infinity and NaN, as RFC 8259 does."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestJsonOutput:
    def test_overflowing_fiber_size_is_null(self, capsys, tmp_path):
        # a 50x50 fiber at 20% ones has more than 1e308 members
        rng = np.random.default_rng(5)
        cells = (rng.random(2500) < 0.2).astype(int).tolist()
        path = tmp_path / "t.txt"
        path.write_text(format_table(BinaryTable(50, 50, tuple(cells))))
        code, out, _ = run_cli(capsys, "test", str(path), "-n", "10", "--seed", "1")
        assert code == 0
        payload = strict_json(out)
        assert payload["schema"] == 6
        assert payload["fiber_size_estimate"] is None and payload["fiber_size_se"] is None
        assert payload["log_fiber_size_estimate"] > 709.0

    @pytest.mark.parametrize(
        "rows, cols, extra",
        [(1, 30, []), (10, 10, ["--endgame-cells", "40"])],
        ids=["1x30", "10x10-endgame-cells-40"],
    )
    def test_row_endgame_shapes_end_in_a_report(self, capsys, tmp_path, rows, cols, extra):
        # 1x30 has no narrow endgame table (30 columns), so the last row's
        # exact table screens its endgame; on 10x10 the narrow table trims
        # 40 cells to the 13 whose counts fit its byte budget
        rng = np.random.default_rng(rows * cols)
        cells = (rng.random(rows * cols) < 0.3).astype(int).tolist()
        path = tmp_path / "t.txt"
        path.write_text(format_table(BinaryTable(rows, cols, tuple(cells))))
        code, out, err = run_cli(capsys, "test", str(path), "-n", "200", "--seed", "4", *extra)
        assert code == 0, err
        payload = strict_json(out)
        assert payload["schema"] == 6 and payload["n_trials"] == 200
        assert payload["n_accepted"] > 0
        assert "lp_ratio_threshold" not in payload["config"]


def table_texts():
    """Table files: 1xn, nx1 and small grids, constant tables among them,
    with LF or CRLF line endings and an optional trailing blank line."""
    shape = st.one_of(
        st.tuples(st.just(1), st.integers(1, 12)),
        st.tuples(st.integers(1, 12), st.just(1)),
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
    )

    @st.composite
    def build(draw):
        rows, cols = draw(shape)
        fill = draw(st.sampled_from(["random", "zeros", "ones"]))
        if fill == "random":
            cells = draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
        else:
            cells = [int(fill == "ones")] * (rows * cols)
        table = BinaryTable(rows, cols, tuple(cells))
        newline = draw(st.sampled_from(["\n", "\r\n"]))
        text = format_table(table).replace("\n", newline)
        if draw(st.booleans()):
            text += newline
        return table, text

    return build()


class TestFuzz:
    @given(st.text(alphabet="01 \r\n\tx", max_size=40))
    def test_parse_table_returns_a_table_or_raises_parse_error(self, text):
        try:
            table = parse_table(text)
        except ParseError:
            return
        assert table.rows >= 1 and table.cols >= 1

    @given(table_texts())
    def test_parse_table_reads_crlf_and_a_trailing_blank_line(self, case):
        table, text = case
        assert parse_table(text) == table

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        table_texts(),
        st.integers(1, 30),
        st.one_of(st.none(), st.tuples(st.integers(-1, 30), st.integers(-1, 50))),
    )
    @example((BinaryTable(2, 2, (1, 0, 0, 0)), "10\r\n00\r\n\r\n"), 20, (1, 3))  # empty fiber
    @example((BinaryTable(1, 1, (1,)), "1\n"), 5, None)
    def test_every_input_ends_in_a_report_or_a_clean_exit(
        self, capsys, tmp_path, case, n, override
    ):
        _, text = case
        path = tmp_path / "t.txt"
        path.write_bytes(text.encode())
        args = ["test", str(path), "-n", str(n), "--seed", "3"]
        if override is not None:
            args += ["--t1", str(override[0]), "--t2", str(override[1])]
        code, out, err = run_cli_exit(capsys, *args)
        assert code in (0, 1, 2), err
        if code == 0:
            assert strict_json(out)["n_trials"] == n
        else:
            assert out == "" and err.startswith("error: ")


def test_unknown_subcommand(capsys):
    code, _, err = run_cli_exit(capsys, "frobnicate")
    assert code == 1
