import json

import pytest

from isingfiber.cli import main
from isingfiber.grid import parse_table


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

    def test_missing_required_flag(self, capsys):
        code, out, err = run_cli_exit(
            capsys, "simulate", "ising", "--cols", "10", "--alpha", "-2", "--beta", "0.1"
        )
        assert code == 1
        assert "usage" in err


class TestTest:
    def test_single_one_2x2(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("10\n00\n")
        code, out, _ = run_cli(
            capsys, "test", str(path), "-n", "1000", "--seed", "5", "--stat", "u"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["delta"] == 1.0
        assert payload["p1"] == 0.0
        assert payload["p2"] == pytest.approx(1.0)
        assert payload["config"]["t1"] == 1
        assert payload["config"]["t2"] == 2
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

    def test_simplex_iteration_limit_exits_two(self, capsys, tmp_path, monkeypatch):
        import isingfiber.simplex

        monkeypatch.setattr(isingfiber.simplex, "MAX_ITER", 1)
        path = tmp_path / "t.txt"
        path.write_text("1111\n0100\n0000\n0000\n")  # (t1, t2) = (5, 6) runs the LP screen
        code, out, err = run_cli(capsys, "test", str(path), "-n", "20")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "iteration limit" in err
        assert "Traceback" not in err

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
            "--no-lp", "--stat", "uprime",
        )
        assert code == 0
        assert json.loads(out)["config"]["lp_enabled"] is False
        code, out, _ = run_cli(
            capsys, "test", str(path), "-n", "300", "--seed", "3", "--naive-proposal"
        )
        assert code == 0
        assert json.loads(out)["config"]["naive_proposal"] is True

    def test_stat_choice_changes_observed(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("10\n01\n")
        code, out, _ = run_cli(capsys, "test", str(path), "-n", "200", "--seed", "1")
        assert json.loads(out)["observed_stat"] == 1  # u of the diagonal pair
        code, out, _ = run_cli(
            capsys, "test", str(path), "-n", "200", "--seed", "1", "--stat", "uprime"
        )
        assert json.loads(out)["observed_stat"] == 0


def test_unknown_subcommand(capsys):
    code, _, err = run_cli_exit(capsys, "frobnicate")
    assert code == 1
