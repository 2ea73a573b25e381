"""CLI surface: formats, determinism, exit codes."""

import hashlib
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import qps
from qps import NonConvergenceError, QParam, theta3
from qps.cli import build_verify_report, cli
from qps.wigner import _mp_quad_tables

runner = CliRunner()
COMMANDS = ["poly", "theta", "angle-dist", "action-dist", "wigner", "verify"]


def run(*args, env=None):
    return runner.invoke(cli, list(args), env=env, catch_exceptions=False)


def parse_csv_table(text: str):
    lines = [ln for ln in text.strip().splitlines()]
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows)


class TestPoly:
    def test_h1_row_reads_one_one(self):
        res = run("poly", "--q", "0.5", "--n", "1", "--grid-points", "8")
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0] == "1"
        assert lines[1] == "1,1"

    def test_n0_single_coefficient_row(self):
        res = run("poly", "--q", "0.5", "--n", "0", "--grid-points", "8")
        assert res.output.splitlines()[0] == "1"

    def test_coefficient_rows_match_library(self):
        res = run("poly", "--q", "0.5", "--n", "3", "--grid-points", "8")
        lines = res.output.splitlines()
        parsed = [float(x) for x in lines[3].split(",")]
        expected = [float(c) for c in qps.rs_coefficients(3, QParam.from_q(0.5))]
        assert parsed == expected

    def test_json_mirrors_csv(self):
        res = run("poly", "--q", "0.5", "--n", "2", "--grid-points", "8", "--format", "json")
        payload = json.loads(res.output)
        assert payload["coefficients"][2] == pytest.approx([1.0, 1.5, 1.0])
        assert len(payload["theta"]) == 8
        assert len(payload["abs_r_squared"]) == 3


class TestTheta:
    def test_csv_samples_match_library(self):
        res = run("theta", "--q", "0.5", "--grid-points", "16")
        header, rows = parse_csv_table(res.output)
        assert header == ["theta", "theta3"]
        qp = QParam.from_q(0.5)
        for th, val in rows:
            assert val == theta3(th, qp, 1e-12).value

    def test_json_has_metadata(self):
        res = run("theta", "--mu", "0.3", "--grid-points", "8", "--format", "json")
        payload = json.loads(res.output)
        assert payload["representation"] == "gaussian_sum"
        assert len(payload["terms_used"]) == 8


class TestAngleDist:
    def test_mu_list_columns_normalized(self):
        res = run("angle-dist", "--n", "0", "--mu-list", "0.1,0.5,1.0")
        header, rows = parse_csv_table(res.output)
        assert header == ["theta", "mu=0.1", "mu=0.5", "mu=1.0"]
        for col in range(1, 4):
            total = rows[:, col].sum() / rows.shape[0]
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_ground_state_column_is_theta3(self):
        res = run("angle-dist", "--n", "0", "--mu", "0.5", "--grid-points", "32")
        header, rows = parse_csv_table(res.output)
        qp = QParam.from_mu(0.5)
        for th, val in rows:
            assert val == pytest.approx(theta3(th, qp, 1e-12).value, rel=1e-14)

    def test_first_excited_matches_closed_form(self):
        res = run("angle-dist", "--n", "1", "--mu", "0.5", "--grid-points", "32")
        _, rows = parse_csv_table(res.output)
        mu = 0.5
        qp = QParam.from_mu(mu)
        pref = math.exp(-2 * mu) / (1 - math.exp(-2 * mu))
        for th, val in rows:
            closed = (
                pref
                * (1 - 2 * math.exp(mu) * math.cos(th) + math.exp(2 * mu))
                * theta3(th, qp, 1e-15).value
            )
            assert val == pytest.approx(closed, abs=1e-12, rel=1e-12)

    def test_mu_list_conflicts_with_single_knob(self):
        res = run("angle-dist", "--q", "0.5", "--mu-list", "0.1,0.5")
        assert res.exit_code == 2

    @pytest.mark.parametrize("mu_list", ["0.1,,0.5", ",0.5", "0.1,", "0.1, ,0.5", ""])
    def test_empty_mu_list_entry_is_usage_error(self, mu_list):
        res = run("angle-dist", "--mu-list", mu_list)
        assert res.exit_code == 2
        assert res.stdout == ""
        errors = [ln for ln in res.stderr.splitlines() if ln.startswith("Error:")]
        assert errors == [f"Error: --mu-list has an empty entry: {mu_list!r}"]


class TestActionDist:
    def test_delta_row(self):
        res = run("action-dist", "--q", "0.5", "--n", "2", "--m-range", "-2:6")
        header, rows = parse_csv_table(res.output)
        assert header == ["m", "lambda"]
        assert list(rows[:, 0].astype(int)) == list(range(-2, 7))
        expected = [1.0 if int(m) == 2 else 0.0 for m in rows[:, 0]]
        assert rows[:, 1] == pytest.approx(expected, abs=1e-8)

    def test_single_point_range(self):
        res = run("action-dist", "--q", "0.5", "--n", "0", "--m-range", "0:0")
        _, rows = parse_csv_table(res.output)
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-8)

    def test_window_around_state(self):
        res = run("action-dist", "--q", "0.9", "--n", "4", "--m-range", "3:5")
        _, rows = parse_csv_table(res.output)
        assert rows[:, 1] == pytest.approx([0.0, 1.0, 0.0], abs=1e-8)

    def test_bad_range_is_usage_error(self):
        res = run("action-dist", "--q", "0.5", "--m-range", "5:1")
        assert res.exit_code == 2

    def test_coarse_grid_is_exact(self):
        # an 8-point grid aliases the Wigner spectrum, but the action marginal
        # is the exact angle integral, independent of --grid-points
        args = ("action-dist", "--q", "0.85", "--n", "5", "--m-range", "2:8")
        res = run(*args, "--grid-points", "8")
        assert res.exit_code == 0
        _, rows = parse_csv_table(res.output)
        expected = [1.0 if int(m) == 5 else 0.0 for m in rows[:, 0]]
        assert rows[:, 1] == pytest.approx(expected, abs=1e-8)
        assert res.output == run(*args, "--grid-points", "4096").output

    def test_json_keys(self):
        res = run("action-dist", "--q", "0.5", "--n", "2", "--m-range", "1:3", "--format", "json")
        payload = json.loads(res.output)
        assert set(payload) == {"command", "q", "mu", "n", "grid_points", "m", "values"}
        assert payload["m"] == [1, 2, 3]

    def test_small_q_large_n_is_delta(self):
        # the Wigner weights a_r a_s stay bounded at q = 1e-4 where the split
        # form e^{mu (r+s)} q^n overflowed
        res = runner.invoke(cli, ["action-dist", "--q", "0.0001", "--n", "94",
                                  "--m-range", "91:97", "--grid-points", "512"])
        assert res.exit_code == 0
        _, rows = parse_csv_table(res.output)
        expected = [1.0 if int(m) == 94 else 0.0 for m in rows[:, 0]]
        assert rows[:, 1] == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize(
        "args",
        [
            ("action-dist", "--q", "0.9999", "--n", "300", "--m-range", "299:301"),
            ("wigner", "--q", "0.999", "--n", "1000", "--m", "1000"),
        ],
    )
    def test_prefactor_underflow_is_numerical_error(self, args):
        # (q;q)_n underflows to 0 here while a_r a_s is still finite
        res = runner.invoke(cli, list(args))
        assert res.exit_code == 3
        assert "1/(q;q)_n overflows" in res.output


class TestWignerCmd:
    def test_matches_library_grid(self):
        res = run("wigner", "--q", "0.5", "--n", "1", "--m", "1", "--grid-points", "16")
        _, rows = parse_csv_table(res.output)
        grid = qps.phase_grid(16)
        vals = qps.wigner_grid(1, 1, QParam.from_q(0.5), grid, 1e-12)
        assert rows[:, 1] == pytest.approx(list(vals), rel=1e-15)

    def test_column_integrates_to_delta(self):
        for m, expect in ((2, 1.0), (4, 0.0)):
            res = run("wigner", "--q", "0.5", "--n", "2", "--m", str(m))
            _, rows = parse_csv_table(res.output)
            assert rows[:, 1].mean() == pytest.approx(expect, abs=1e-8)


class TestVerify:
    def test_passes_at_q_half(self):
        res = run("verify", "--q", "0.5", "--n", "6")
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert names == {
            "algebra_relations",
            "orthogonality_triangle",
            "theta3_dual_representation",
            "action_marginal_delta",
            "angle_normalization",
        }

    def test_near_classical_note(self):
        res = run("verify", "--q", "0.999", "--n", "5")
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["near_classical"] is True
        assert report["classical_commutator_deviation"] < 0.005

    def test_marginal_grids_resolve_bandwidth_near_q_one(self):
        # a 256-point grid aliases the q = 0.9999 spectrum and under-resolves
        # theta_3; the marginal checks size their grid from the bandwidth
        report = build_verify_report(QParam.from_q(0.9999), 2, 1e-10)
        assert report["passed"] is True

    @pytest.mark.parametrize("q", [1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999])
    def test_passes_across_domain(self, q):
        # q = 0.9999 at n = 2 is the case above; n = 0 runs as n = 2, whose
        # angle grid is the smallest, and n = 8 reads one quadrature table
        for n in (0, 2, 8, 10):
            report = build_verify_report(QParam.from_q(q), n, 1e-10)
            failing = [c for c in report["checks"] if not c["passed"]]
            assert report["passed"] is True, (n, failing)

    def test_n8_builds_one_quadrature_table(self):
        # the n_top = 8 table holds H_0..H_8; n = 9 and 10 add the n_top = 16 one
        _mp_quad_tables.cache_clear()
        assert run("verify", "--q", "0.5", "--n", "8").exit_code == 0
        assert _mp_quad_tables.cache_info().misses == 1
        _mp_quad_tables.cache_clear()
        assert run("verify", "--q", "0.5", "--n", "10").exit_code == 0
        assert _mp_quad_tables.cache_info().misses == 2

    def test_algebra_passes_where_qnumbers_near_1e3(self):
        # rounding in k [k]_q alone reaches 1e-10 here; verify checks only the
        # two q identities, each scaled by [k+1]_q
        res = run("verify", "--q", "0.9999", "--n", "1000")
        assert res.exit_code == 0
        algebra = json.loads(res.output)["checks"][0]
        assert list(algebra["residuals"]) == [
            "aadag_minus_q_adaga_minus_one",
            "comm_a_adag_minus_qN",
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        log_mu=st.floats(math.log(-math.log1p(-1e-4) / 2), math.log(-math.log(1e-4) / 2)),
        n=st.integers(2, 10),
    )
    def test_passes_or_raises_typed_error_across_domain(self, log_mu, n):
        # q log-spread in mu over [1e-4, 1 - 1e-4]; the errors are the ones
        # the CLI maps to exit 3, so verify never exits 0 on a failed check
        qp = QParam.from_mu(math.exp(log_mu))
        try:
            report = build_verify_report(qp, n, 1e-10)
        except (NonConvergenceError, OverflowError):
            return
        failing = [c for c in report["checks"] if not c["passed"]]
        assert report["passed"] is True, (qp.q, n, failing)

    def test_malformed_q_exits_2_before_compute(self):
        res = run("verify", "--q", "1.5")
        assert res.exit_code == 2

    def test_negative_n_exits_2(self):
        res = run("verify", "--q", "0.5", "--n", "-7")
        assert res.exit_code == 2
        assert "--n must be >= 0, got -7" in res.output

    @pytest.mark.parametrize("n", [0, 1])
    def test_small_n_runs_as_2(self, n):
        res = run("verify", "--q", "0.5", "--n", str(n))
        assert res.exit_code == 0
        assert res.output == run("verify", "--q", "0.5", "--n", "2").output

    def test_unattainable_tol_exits_1_with_names(self):
        result = runner.invoke(cli, ["verify", "--q", "0.5", "--n", "4", "--tol", "1e-30"])
        assert result.exit_code == 1
        assert "verification failed" in result.output


class TestConfigValidation:
    def test_requires_exactly_one_knob(self):
        assert run("poly").exit_code == 2
        assert run("poly", "--q", "0.5", "--mu", "0.3").exit_code == 2

    def test_rejects_bad_grid(self):
        assert run("theta", "--q", "0.5", "--grid-points", "4").exit_code == 2

    def test_rejects_bad_tol(self):
        assert run("theta", "--q", "0.5", "--tol", "-1").exit_code == 2
        # an infinite --tol truncates every sum to its first terms and passes
        # every verify check
        for args in (("theta", "--mu", "2"), ("angle-dist", "--q", "0.5", "--n", "1"),
                     ("wigner", "--q", "0.3", "--n", "3", "--m", "3"),
                     ("verify", "--q", "0.5", "--n", "3")):
            for tol in ("inf", "-inf", "nan"):
                res = run(*args, "--tol", tol)
                assert res.exit_code == 2, (args, tol)
                assert res.stdout == ""
                assert res.stderr == f"Error: --tol must be positive and finite, got {float(tol)}\n"

    def test_rejects_q_out_of_range(self):
        assert run("poly", "--q", "0").exit_code == 2
        assert run("poly", "--q", "1").exit_code == 2

    @pytest.mark.parametrize("command,option", [
        ("poly", "--tol"), ("theta", "--n"), ("action-dist", "--tol"),
        ("verify", "--grid-points"),
    ])
    def test_rejects_option_the_command_does_not_read(self, command, option):
        for argv in ([option, "1"], [f"{option}=1"]):
            res = run(command, "--q", "0.5", *argv)
            assert res.exit_code == 2
            assert res.stdout == ""
            assert res.stderr == f"Error: No such option '{option}'\n"
        assert option not in [flag for flag, _ in cli.commands[command].options]
        assert option not in run(command, "--help").stdout


class TestUsageErrors:
    """Every usage error exits 2 with empty stdout and one `Error:` line on stderr."""

    @staticmethod
    def assert_usage_error(res):
        assert res.exit_code == 2
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: "), res.stderr

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_option_or_missing_value(self, command):
        for argv in (["--bogus", "1"], ["--bogus=1"], ["--q"]):
            res = run(command, "--q", "0.5", *argv)
            self.assert_usage_error(res)

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "verify"])
    def test_bad_format(self, command):
        self.assert_usage_error(run(command, "--q", "0.5", "--format", "xml"))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_knob_both_or_neither(self, command):
        for knobs in ([], ["--q", "0.5", "--mu", "0.3"]):
            res = run(command, *knobs)
            self.assert_usage_error(res)
            assert res.stderr == "Error: provide exactly one of --q or --mu\n"

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "theta"])
    def test_non_integer_n(self, command):
        for value in ("1.5", "x", ""):
            self.assert_usage_error(run(command, "--q", "0.5", "--n", value))

    @pytest.mark.parametrize("argv", [[], ["nosuch"], ["--bogus"], ["--q", "0.5"]])
    def test_no_command(self, argv):
        self.assert_usage_error(run(*argv))

    def test_version(self):
        res = run("--version")
        assert res.exit_code == 0
        assert res.stdout == "qps, version 0.1.0\n"
        assert res.stderr == ""


class TestNegativeOptionValues:
    """A value that starts with '-' is the option's value, not another option."""

    # stdout digests pinned from the click front end, which read both forms
    M_RANGE = "46d9d952baf742dfda451c6ce0e23fa4e8b663fc3184ddbf35bd2eb509f74560"
    WIGNER = "1c76aa32426a473c212da1c821495d76c67e1c815b7808b97de163dfe0491682"

    @pytest.mark.parametrize("argv", [["--m-range", "-2:4"], ["--m-range=-2:4"]])
    def test_m_range(self, argv):
        res = run("action-dist", "--q", "0.5", "--n", "2", *argv)
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == self.M_RANGE

    @pytest.mark.parametrize("argv", [["--m", "-1"], ["--m=-1"]])
    def test_wigner_negative_m(self, argv):
        res = run("wigner", "--q", "0.5", "--n", "1", "--grid-points", "8", *argv)
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == self.WIGNER

    def test_negative_mu_is_a_value(self):
        res = run("theta", "--mu", "-3")
        assert res.exit_code == 2
        assert res.stderr == "Error: mu must be positive and finite, got -3.0\n"


class TestNonConvergenceExit:
    def test_exit_code_3(self, monkeypatch):
        def boom(*args, **kwargs):
            raise NonConvergenceError("theta3_series", 5000)

        monkeypatch.setattr("qps.cli.theta3", boom)
        result = runner.invoke(cli, ["theta", "--q", "0.5"])
        assert result.exit_code == 3


class TestDeterminism:
    def test_identical_runs_identical_bytes(self):
        for args in (
            ("angle-dist", "--n", "1", "--mu-list", "0.1,0.5", "--grid-points", "64"),
            # 4099 rows: an odd grid size, far past the default
            ("wigner", "--q", "0.97", "--n", "32", "--m", "32", "--grid-points", "4099"),
        ):
            a = run(*args)
            b = run(*args)
            assert a.output == b.output, args

    def test_round_trip_precision(self):
        res = run("theta", "--q", "0.5", "--grid-points", "8")
        _, rows = parse_csv_table(res.output)
        qp = QParam.from_q(0.5)
        # 17 significant digits reparse to the exact binary values
        for th, val in rows:
            assert val == theta3(th, qp, 1e-12).value


class TestOutputPath:
    def test_writes_file(self, tmp_path):
        target = tmp_path / "table.csv"
        res = run("theta", "--q", "0.5", "--grid-points", "8", "--out", str(target))
        assert res.exit_code == 0
        assert res.output == ""
        header, rows = parse_csv_table(target.read_text())
        assert header == ["theta", "theta3"]
        assert rows.shape == (8, 2)

    @pytest.mark.parametrize("args", [
        ("poly", "--q", "0.5", "--n", "1", "--grid-points", "8"),
        ("verify", "--q", "0.5", "--n", "3"),
        ("theta", "--q", "0.5", "--grid-points", "8"),
        ("angle-dist", "--q", "0.5", "--grid-points", "8"),
        ("action-dist", "--q", "0.5"),
        ("wigner", "--q", "0.5", "--grid-points", "8"),
    ], ids=lambda args: args[0])
    def test_missing_directory_is_usage_error(self, tmp_path, args):
        target = tmp_path / "missing" / "out.txt"
        res = run(*args, "--out", str(target))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith(f"Error: cannot write {target}: ")
        assert res.stderr.count("\n") == 1
        assert not target.parent.exists()


    #: one call per table command, in the argv form of the golden digests
    TABLES = [
        ("poly", "--q", "0.5", "--n", "3", "--grid-points", "16"),
        ("theta", "--mu", "3", "--grid-points", "16"),
        ("angle-dist", "--n", "2", "--mu-list", "0.1,0.5", "--grid-points", "16"),
        ("action-dist", "--q", "0.5", "--n", "2", "--m-range", "-1:4"),
        ("wigner", "--q", "0.5", "--n", "2", "--m", "2", "--grid-points", "16"),
    ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("args", TABLES, ids=lambda args: args[0])
    def test_file_holds_the_stdout_bytes(self, tmp_path, args, fmt):
        # poly's CSV is two blocks: a writer that emitted each would leave
        # only the last one in the file
        printed = run(*args, "--format", fmt)
        target = tmp_path / "table.out"
        res = run(*args, "--format", fmt, "--out", str(target))
        assert printed.exit_code == res.exit_code == 0
        assert res.stdout_bytes == b""
        assert printed.stdout_bytes
        assert target.read_bytes() == printed.stdout_bytes


class TestSubnormalTol:
    """1/tol overflows for a subnormal --tol, so the theta_3 bandwidth reads -ln(tol)."""

    @pytest.mark.parametrize("args", [
        ("theta", "--mu", "3"),
        ("angle-dist", "--n", "2", "--mu", "3"),
        ("wigner", "--q", "0.5", "--n", "2", "--m", "2"),
    ], ids=lambda args: args[0])
    def test_tables_are_finite(self, args):
        res = run(*args, "--tol", "1e-320")
        assert res.exit_code == 0
        _, rows = parse_csv_table(res.stdout)
        assert rows.shape[0] == 256
        assert np.isfinite(rows).all()

    @pytest.mark.parametrize("args", [
        ("theta", "--mu", "0.5"),
        ("angle-dist", "--q", "0.9", "--n", "2"),
    ], ids=lambda args: args[0])
    def test_gaussian_branch_stops_at_smallest_tol(self, args):
        # tol / 2 rounds to 0 at the smallest subnormal, so the theta_3 Gaussian
        # sum stops on 2 * term < tol rather than running to its term cap
        res = run(*args, "--tol", "5e-324")
        assert res.exit_code == 0
        _, rows = parse_csv_table(res.stdout)
        assert rows.shape[0] == 256
        assert np.isfinite(rows).all()

    @staticmethod
    def assert_only_the_triangle_fails(tol):
        # the triangle's threshold is tol itself, which no double residual meets
        res = runner.invoke(cli, ["verify", "--q", "0.5", "--n", "3", "--tol", tol])
        assert res.exit_code == 1
        assert "verification failed: orthogonality_triangle\n" in res.stderr
        failing = [c["name"] for c in json.loads(res.stdout)["checks"] if not c["passed"]]
        assert failing == ["orthogonality_triangle"]

    def test_verify_fails_only_the_triangle(self):
        self.assert_only_the_triangle_fails("1e-320")

    def test_verify_at_smallest_tol_fails_only_the_triangle(self):
        self.assert_only_the_triangle_fails("5e-324")


class TestTolAboveOne:
    """-ln(tol) < 0 for tol > 1, so the theta_3 bandwidth clamps at 0."""

    def test_wigner_table_is_finite(self):
        res = run("wigner", "--q", "0.5", "--n", "2", "--m", "2", "--tol", "10")
        assert res.exit_code == 0
        _, rows = parse_csv_table(res.stdout)
        assert rows.shape[0] == 256
        assert np.isfinite(rows).all()

    def test_angle_marginal_from_wigner_is_finite(self):
        value = qps.angle_distribution_from_wigner(2, 0.3, QParam.from_q(0.5), 12, tol=10)
        assert math.isfinite(value)
