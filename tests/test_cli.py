import argparse
import datetime
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import types
from dataclasses import asdict

import numpy as np
import pytest

from coinwalk import cli, lattice, spectral
from coinwalk.boundstates import single_boundary_mode
from coinwalk.cli import main
from coinwalk.lattice import evolve, position_distribution

REFERENCE_TABLE = {
    "1/3": [2.13e-2, 5.69e-3, 1.52e-3, 4.08e-4, 1.09e-4,
            2.93e-5, 7.85e-6, 2.10e-6, 5.64e-7, 1.51e-7],
    "1/4": [4.68e-2, 1.89e-2, 7.77e-3, 3.21e-3, 1.33e-3,
            5.52e-4, 2.29e-4, 9.47e-5, 3.92e-5, 1.62e-5],
    "1/6": [8.04e-2, 4.31e-2, 2.41e-2, 1.37e-2, 7.89e-3,
            4.54e-3, 2.62e-3, 1.51e-3, 8.73e-4, 5.04e-4],
}


def run_json(capsys, argv):
    code = main(argv)
    payload = capsys.readouterr().out
    return code, json.loads(payload)


def parse_csv(text):
    meta, rows, header = {}, [], None
    for line in text.strip().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestDispersionCommand:
    def test_row_count_and_zero_momentum(self, capsys):
        code, payload = run_json(capsys, ["dispersion", "--theta", "0.25", "--k-points", "5"])
        assert code == 0
        assert payload["schema_version"] == 2
        assert len(payload["data"]) == 5
        middle = payload["data"][2]
        assert abs(middle["k"]) < 1e-14
        assert abs(middle["E_plus"] - np.pi / 4) < 1e-12
        assert abs(middle["E_minus"] + np.pi / 4) < 1e-12

    def test_gap_edge_rows_are_null_not_nan(self, capsys):
        code, payload = run_json(capsys, ["dispersion", "--theta", "0", "--k-points", "5"])
        assert code == 0
        middle = payload["data"][2]
        assert middle["n_x"] is None and middle["n_y"] is None and middle["n_z"] is None

    def test_invalid_theta_is_usage_error(self, capsys):
        assert main(["dispersion", "--theta", "nonsense"]) == 2


class TestWindingCommand:
    def test_sweep_signs_and_null(self, capsys):
        code, payload = run_json(
            capsys,
            ["winding", "--theta-min", "-0.9", "--theta-max", "0.9", "--steps", "19"],
        )
        assert code == 0
        for row in payload["data"]:
            if abs(row["theta"]) < 1e-12:
                assert row["m"] is None and row["reason"] == "gap-closed"
            else:
                assert row["m"] == (1 if row["theta"] > 0 else -1)
                assert abs(row["integral_value"] - row["m"]) < 1e-6

    def test_single_point(self, capsys):
        code, payload = run_json(capsys, ["winding", "--theta-min", "0.25"])
        assert code == 0
        assert len(payload["data"]) == 1
        assert payload["data"][0]["m"] == 1


class TestBoundSingleCommand:
    def test_existing_mode_reports_residual(self, capsys):
        code, payload = run_json(
            capsys,
            ["bound-single", "--theta1", "0.25", "--theta2", "-0.25", "--energy", "0"],
        )
        assert code == 0
        assert payload["extras"]["exists"] is True
        assert payload["extras"]["eigenvector_residual"] < 1e-10
        assert len(payload["data"]) == 64

    def test_probability_peaks_at_boundary(self, capsys):
        _, payload = run_json(
            capsys,
            ["bound-single", "--theta1", "0.25", "--theta2", "-0.25", "--energy", "0"],
        )
        best = max(payload["data"], key=lambda row: row["prob"])
        assert abs(best["n"]) <= 1

    def test_same_sign_still_succeeds_with_verdict(self, capsys):
        code, payload = run_json(
            capsys,
            ["bound-single", "--theta1", "0.25", "--theta2", "0.3"],
        )
        assert code == 0
        assert payload["extras"]["exists"] is False
        assert payload["extras"]["reason"] == "same-sign-no-bound-state"
        assert payload["data"] == []


class TestWireSpectrumCommand:
    def test_reproduces_reference_table(self, capsys):
        code, payload = run_json(
            capsys,
            ["wire-spectrum", "--theta2-list", "1/3,1/4,1/6", "--n-min", "1", "--n-max", "10"],
        )
        assert code == 0
        assert len(payload["data"]) == 10
        for row in payload["data"]:
            n = row["N"]
            for token, column in REFERENCE_TABLE.items():
                got = row[f"E_over_pi[{token}]"]
                want = column[n - 1]
                assert abs(got - want) / want < 5e-3

    def test_fit_slopes_attached(self, capsys):
        _, payload = run_json(
            capsys,
            ["wire-spectrum", "--theta2-list", "1/4", "--n-min", "1", "--n-max", "10"],
        )
        fits = payload["extras"]["fits"]
        assert len(fits) == 1
        fit = fits[0]
        assert abs(fit["slope"] + fit["kappa2_predicted"]) / fit["kappa2_predicted"] < 0.02

    def test_benchmark_request_has_every_cell(self, capsys):
        argv = ["wire-spectrum", "--theta2-list", "1/3,1/4,1/6,0.4,0.7", "--n-min", "1", "--n-max", "40"]
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert all(value is not None for row in payload["data"] for value in row.values())
        assert "errors" not in payload["extras"]
        assert len(payload["extras"]["fits"]) == 5
        for row in payload["data"][:10]:
            for token, column in REFERENCE_TABLE.items():
                assert abs(row[f"E_over_pi[{token}]"] / column[row["N"] - 1] - 1) < 5e-3
        _, again = run_json(capsys, argv)
        assert json.dumps(again["extras"]["fits"]) == json.dumps(payload["extras"]["fits"])

    def test_solves_each_root_once(self, capsys, monkeypatch):
        # the decay fit reuses the table's roots: one solve per theta2 token
        calls = []
        solve = spectral.solve_wire_energy

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(cli, "solve_wire_energy", counted)
        monkeypatch.setattr(spectral, "solve_wire_energy", counted)
        argv = ["wire-spectrum", "--theta2-list", "1/3,1/4,-0.2,0.7", "--n-max", "12", "--fit-min-n", "3"]
        _, payload = run_json(capsys, argv)
        assert len(calls) == 4
        fits = payload["extras"]["fits"]
        assert [fit["theta2"] for fit in fits] == ["1/3", "1/4", "0.7"]
        for fit in fits:  # the same numbers as solving the fitted lengths again
            want = asdict(spectral.fit_splitting_decay(cli._angle_in_pi_units(fit["theta2"]), range(3, 13)))
            assert json.dumps({key: fit[key] for key in want}) == json.dumps(want)

    def test_errors_only_where_no_bound_state(self, capsys):
        # -0.2 shares the wall's sign of sin; a 0.1 pi block needs N >= 2 to
        # hold its end modes inside the gap
        _, payload = run_json(
            capsys, ["wire-spectrum", "--theta2-list", "0.1,-0.2,1/4", "--n-max", "3"]
        )
        cells = {(e["theta2"], e["N"]) for e in payload["extras"]["errors"]}
        assert cells == {("0.1", 1), ("-0.2", 1), ("-0.2", 2), ("-0.2", 3)}
        for row in payload["data"]:
            assert (row["E_over_pi[0.1]"] is None) == (row["N"] == 1)
            assert row["E_over_pi[-0.2]"] is None
            assert row["E_over_pi[1/4]"] > 0

    @pytest.mark.parametrize("theta2_list", ["foo", "1/4,3", ","])
    def test_bad_theta2_token_is_usage_error(self, capsys, theta2_list):
        code = main(["wire-spectrum", "--theta2-list", theta2_list])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_six_significant_digits(self, capsys):
        _, payload = run_json(
            capsys, ["wire-spectrum", "--theta2-list", "1/4", "--n-max", "2"]
        )
        value = payload["data"][0]["E_over_pi[1/4]"]
        assert value == float(f"{value:.6g}")


class TestEvolveCommand:
    def test_unitary_spread(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "evolve", "--kind", "uniform", "--theta1", "0.25",
                "--n-sites", "64", "--init", "delta:32", "--steps", "100",
            ],
        )
        assert code == 0
        assert abs(payload["extras"]["final_norm"] - 1.0) < 1e-10
        final = [row["prob"] for row in payload["data"] if row["t"] == 100]
        assert abs(sum(final) - 1.0) < 1e-12

    def test_zero_steps_echo(self, capsys):
        _, payload = run_json(
            capsys,
            [
                "evolve", "--kind", "uniform", "--theta1", "0.25",
                "--n-sites", "16", "--init", "delta:5", "--steps", "0",
            ],
        )
        probs = {row["site"]: row["prob"] for row in payload["data"]}
        assert probs[5] == 1.0

    def test_bound_state_is_stationary(self, capsys):
        _, payload = run_json(
            capsys,
            [
                "evolve", "--kind", "antisymmetric", "--theta1", "-0.25",
                "--theta2", "0.25", "--wire-length", "10", "--n-sites", "64",
                "--init", "bound:0", "--steps", "60", "--snapshot-every", "30",
            ],
        )
        by_time = {}
        for row in payload["data"]:
            by_time.setdefault(row["t"], {})[row["site"]] = row["prob"]
        first, last = by_time[0], by_time[60]
        drift = max(abs(first[m] - last[m]) for m in first)
        assert drift < 1e-9

    def test_negative_snapshot_interval_is_usage_error(self, capsys):
        code = main(
            [
                "evolve", "--kind", "uniform", "--theta1", "0.25",
                "--n-sites", "16", "--steps", "10", "--snapshot-every", "-3",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_bound_init_needs_boundary_kind(self, capsys):
        assert (
            main(
                [
                    "evolve", "--kind", "uniform", "--theta1", "0.25",
                    "--n-sites", "16", "--init", "bound:0",
                ]
            )
            == 2
        )


class TestEvolveInit:
    @pytest.mark.parametrize(
        "init",
        [
            "delta:3:left:junk", "delta:3::", "delta:99", "delta:8", "delta:-1", "delta:", "delta:x",
            "delta:3:up", "bound:2", "foo",
        ],
    )
    def test_malformed_delta_is_usage_error(self, capsys, init):
        argv = ["evolve", "--kind", "uniform", "--theta1", "0.25", "--n-sites", "8", "--init", init]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("init,index", [("delta:7", 14), ("delta:0:right", 1), ("delta:7:right", 15)])
    def test_delta_sites_of_the_ring(self, init, index):
        args = argparse.Namespace(init=init)
        state = cli._initial_state(args, lattice.build_profile("uniform", 8, 0.25 * np.pi))
        assert state.amplitudes[index] == 1.0

    def test_help_states_site_range(self, capsys):
        assert main(["evolve", "--help"]) == 0
        assert "(SITE < n-sites)" in " ".join(capsys.readouterr().out.split())

    def test_bound_start_tail_cut(self):
        # a benchmark-shaped boundary mode whose far tail decays into subnormals
        theta1, theta2, length = -0.297474 * np.pi, 0.892280 * np.pi, 4096
        args = argparse.Namespace(
            init="bound:0", kind="single", theta1=theta1, theta2=theta2,
            n_sites=length, wire_length=None, offset=None,
        )
        profile = cli._profile_from_args(args)
        mode = single_boundary_mode(theta1, theta2, 0.0, length).wavefunction
        start = cli._initial_state(args, profile)
        cut = start.amplitudes != mode.amplitudes
        assert np.abs(mode.amplitudes[cut]).min() < np.finfo(float).tiny
        assert np.all(start.amplitudes[cut] == 0)
        kept = start.amplitudes[start.amplitudes != 0]
        assert np.abs(mode.amplitudes[cut]).max() < cli._TAIL_CUT <= np.abs(kept).min()
        moved = np.linalg.norm(mode.amplitudes - start.amplitudes)
        assert moved <= np.sqrt(2 * length) * cli._TAIL_CUT
        assert np.linalg.norm(start.amplitudes) == np.linalg.norm(mode.amplitudes)
        # Rounding can carry the change up to the last bit of larger amplitudes
        # (here probs near 1e-266 at t = 2000), far below stepping's own error.
        for steps in (1, 400, 2000):
            np.testing.assert_allclose(
                position_distribution(evolve(start, profile, steps)),
                position_distribution(evolve(mode, profile, steps)),
                rtol=1e-13, atol=1e-300,
            )


class TestDiagonalizeCommand:
    def test_symmetric_block_flags_two_pairs(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "diagonalize", "--kind", "symmetric", "--theta1", "0.5",
                "--theta2", "-0.25", "--wire-length", "10", "--n-sites", "64",
            ],
        )
        assert code == 0
        assert payload["extras"]["localized_near_zero"] == 2
        assert payload["extras"]["localized_near_pi"] == 2

    def test_uniform_profile_flags_nothing(self, capsys):
        _, payload = run_json(
            capsys,
            ["diagonalize", "--kind", "uniform", "--theta1", "0.25", "--n-sites", "48"],
        )
        assert payload["extras"]["localized_near_zero"] == 0
        assert payload["extras"]["localized_near_pi"] == 0

    @pytest.mark.parametrize(
        "layout",
        [
            ["--kind", "single", "--theta1", "0.3", "--theta2", "0.5", "--n-sites", "16"],
            ["--kind", "uniform", "--theta1", "0.5", "--n-sites", "64"],
        ],
        ids=["same-sign-single", "all-reflecting"],
    )
    def test_reflecting_flat_band_flags_nothing(self, capsys, layout):
        # the E = +/-pi/2 states of reflecting coins lie pi/2 from both targets
        _, payload = run_json(capsys, ["diagonalize", *layout])
        assert payload["extras"]["localized_near_zero"] == 0
        assert payload["extras"]["localized_near_pi"] == 0

    def test_antisymmetric_block_localizes_at_positive_end(self, capsys):
        # states flagged at E=0 sit at the +pi/2 block end (and the ring seam),
        # never at the -pi/2 end
        _, payload = run_json(
            capsys,
            [
                "diagonalize", "--kind", "antisymmetric", "--theta1", "0.5",
                "--theta2", "-0.25", "--wire-length", "10", "--n-sites", "64",
            ],
        )
        assert payload["extras"]["localized_near_zero"] == 2

    def test_size_cap_usage_error(self, capsys):
        assert (
            main(
                ["diagonalize", "--kind", "uniform", "--theta1", "0.25", "--n-sites", str(spectral.SIZE_CAP + 1)]
            )
            == 2
        )

    def test_ring_at_the_size_cap(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "diagonalize", "--kind", "antisymmetric", "--theta1", "-0.3", "--theta2", "0.35",
                "--wire-length", "8", "--n-sites", str(spectral.SIZE_CAP),
            ],
        )
        assert code == 0
        assert len(payload["data"]) == 2 * spectral.SIZE_CAP
        assert payload["extras"]["localized_near_zero"] == payload["extras"]["localized_near_pi"] == 2


class TestOutputContracts:
    def test_csv_json_numeric_parity(self, capsys, tmp_path):
        # theta = 0 puts a gap closing at k = 0, exercising null cells too
        args = ["dispersion", "--theta", "0", "--k-points", "7"]
        _, payload = run_json(capsys, args)
        csv_path = tmp_path / "out.csv"
        assert main(args + ["--format", "csv", "--output", str(csv_path)]) == 0
        _, header, rows = parse_csv(csv_path.read_text())
        assert len(rows) == len(payload["data"])
        for row, ref in zip(rows, payload["data"]):
            for column, cell in zip(header, row):
                want = ref[column]
                if want is None:
                    assert cell == ""
                else:
                    assert float(cell) == want

    def test_deterministic_data(self, capsys):
        args = ["winding", "--theta-min", "-0.5", "--theta-max", "0.5", "--steps", "11"]
        _, first = run_json(capsys, args)
        _, second = run_json(capsys, args)
        assert first["data"] == second["data"]
        assert first["meta"]["params"] == second["meta"]["params"]

    def test_output_file_writing(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(["winding", "--theta-min", "0.25", "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["data"][0]["m"] == 1

    def test_numeric_failure_exit_code(self, capsys):
        # bound-state start with same-sign angles cannot be constructed
        code = main(
            [
                "evolve", "--kind", "antisymmetric", "--theta1", "0.25",
                "--theta2", "0.3", "--wire-length", "8", "--n-sites", "64",
                "--init", "bound:0",
            ]
        )
        assert code == 3

    def test_missing_subcommand_usage_error(self, capsys):
        assert main([]) == 2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--kind", "single", "--theta1", "0.25"],
            ["evolve", "--kind", "symmetric", "--theta1", "0.25", "--theta2", "-0.2"],
            [
                "diagonalize", "--kind", "wire", "--theta1", "0.3", "--theta2", "0.2",
                "--wire-length", "3",
            ],
            ["diagonalize", "--kind", "uniform", "--theta1", "0.3", "--n-sites", "1"],
            [
                "diagonalize", "--kind", "symmetric", "--theta1", "0.3", "--theta2", "-0.2",
                "--wire-length", "63", "--n-sites", "64",
            ],
            ["bound-single", "--theta1", "0.25", "--theta2", "-0.25", "--n-sites", "1"],
            ["bound-single", "--theta1", "0.25", "--theta2", "0.3", "--n-sites", "1"],
            [
                "evolve", "--kind", "symmetric", "--theta1", "0.3", "--theta2", "-0.2",
                "--wire-length", "-1",
            ],
            [
                "diagonalize", "--kind", "antisymmetric", "--theta1", "-0.25", "--theta2", "0.25",
                "--wire-length", "31", "--n-sites", "64",
            ],
        ],
        ids=[
            "missing-theta2", "missing-wire-length", "wire-theta1", "one-site", "no-exterior",
            "bound-single-one-site", "bound-single-one-site-same-sign", "negative-wire-length",
            "antisymmetric-block-past-half-ring",
        ],
    )
    def test_malformed_layout(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["dispersion", "--theta", "0.25", "--k-points", "1"],
            ["winding", "--theta-min", "0.25", "--grid-points", "32"],
            ["wire-spectrum", "--theta2-list", "1/4", "--n-min", "0"],
            ["wire-spectrum", "--theta2-list", "1/4", "--n-min", "5", "--n-max", "3"],
            ["evolve", "--kind", "uniform", "--theta1", "0.25", "--n-sites", "8", "--steps", "-1"],
        ],
        ids=["k-points", "grid-points", "n-min", "n-max-below-n-min", "negative-steps"],
    )
    def test_out_of_range_flag(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound-single", "--theta1", "{}", "--theta2", "-0.25"],
            ["dispersion", "--theta", "{}"],
            ["winding", "--theta-min", "{}"],
            ["wire-spectrum", "--theta2-list", "1/4,{}"],
            ["evolve", "--kind", "uniform", "--theta1", "{}", "--n-sites", "8"],
            ["diagonalize", "--kind", "single", "--theta1", "-0.25", "--theta2", "{}", "--n-sites", "8"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("angle", ["1.0000000000005", "-1.0000000000005", "10000000000005/10000000000000"])
    def test_angle_just_past_pi(self, capsys, argv, angle):
        # the parser applies the library's own angle range, so no such angle reaches a computation
        code = main([arg.format(angle) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1

    @pytest.mark.parametrize("text,value", [("1", np.pi), ("-1", -np.pi), ("1/1", np.pi), (" -1/1 ", -np.pi)])
    def test_angle_range_ends_parse(self, text, value):
        assert cli._angle_in_pi_units(text) == value

    @pytest.mark.parametrize(
        "argv",
        [
            ["dispersion", "--theta", "nan"],
            ["bound-single", "--theta1", "nan", "--theta2", "0.25"],
            ["winding", "--theta-min", "nan"],
            ["winding", "--theta-min", "0.1", "--theta-max", "inf/inf", "--steps", "3"],
            ["wire-spectrum", "--theta2-list", "1/4,nan"],
        ],
        ids=["dispersion", "bound-single", "winding", "winding-max", "wire-spectrum"],
    )
    def test_non_finite_angle(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        # argparse puts a usage line before its error line; wire-spectrum has none
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1

    @pytest.mark.parametrize("n_sites", ["0", "x"])
    def test_n_sites_not_a_positive_integer(self, capsys, n_sites):
        code = main(["diagonalize", "--kind", "uniform", "--theta1", "0.25", "--n-sites", n_sites])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-0.5"])
    def test_ipr_threshold_out_of_range(self, capsys, threshold):
        code = main(
            ["diagonalize", "--kind", "uniform", "--theta1", "0.25", "--n-sites", "8",
             f"--ipr-threshold={threshold}"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestEntryPoint:
    def test_python_m_coinwalk(self):
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "coinwalk", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )

        done = run("winding", "--theta-min", "0.25", "--grid-points", "64")
        assert done.returncode == 0
        assert json.loads(done.stdout)["data"][0]["m"] == 1
        bad = run("evolve", "--kind", "symmetric", "--theta1", "0.25", "--theta2", "-0.2")
        assert bad.returncode == 2
        assert bad.stdout == ""
        assert bad.stderr.startswith("error:")

    def test_import_leaves_out_scipy_optimize(self):
        # the root solver needs no scipy.optimize, whose import costs start-up time
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        probe = "import sys, coinwalk.cli; print('scipy.optimize' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0
        assert done.stdout.strip() == "False"

    def test_no_subcommand_imports_numpy_ma(self):
        # numpy.ma costs tens of ms of a fresh process's first request, and no subcommand needs it
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        probe = textwrap.dedent(
            """
            import os, sys
            from coinwalk.cli import main
            requests = [
                "dispersion --theta 0 --k-points 16 --format csv",
                "winding --theta-min -1 --theta-max 1 --steps 9",
                "bound-single --theta1 0.25 --theta2 -0.25 --energy pi",
                "wire-spectrum --theta2-list 1/3,1/4,0 --n-max 8",
                "evolve --kind single --theta1 -0.3 --theta2 0.35 --steps 20 --init bound:0",
                "diagonalize --kind antisymmetric --theta1 -0.3 --theta2 0.35 --wire-length 8 --n-sites 64",
            ]
            for request in requests:
                code = main(request.split() + ["--output", os.devnull])
                print(request.split()[0], code, "numpy.ma" in sys.modules)
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        commands = ["dispersion", "winding", "bound-single", "wire-spectrum", "evolve", "diagonalize"]
        assert done.stdout.splitlines() == [f"{command} 0 False" for command in commands]

    def test_runs_without_scipy(self):
        # scipy is a test-only dependency: with every scipy import made to fail,
        # the eigensolver, the kernel, the root solver and both mode builders still run
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        probe = textwrap.dedent(
            """
            import os, sys
            sys.modules["scipy"] = None
            from coinwalk.cli import main
            requests = [
                "diagonalize --kind wire --theta1 -0.5 --theta2 0.3 --wire-length 6 --n-sites 48",
                "diagonalize --kind symmetric --theta1 -0.6 --theta2 0.7 --wire-length 5 --n-sites 48",
                "diagonalize --kind uniform --theta1 0 --n-sites 48",
                "evolve --kind uniform --theta1 0.25 --n-sites 32 --steps 20",
                "wire-spectrum --theta2-list 1/3,1/4 --n-max 8",
                "bound-single --theta1 0.25 --theta2 -0.25 --energy pi",
                "evolve --kind antisymmetric --theta1 -0.25 --theta2 0.3 --wire-length 10 --init bound:pi",
            ]
            print([main(r.split() + ["--output", os.devnull]) for r in requests])
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0]", done.stderr


class TestParserReuse:
    """``main`` builds its parser once per process; each call must still behave like a fresh process."""

    REQUESTS = [
        ["winding", "--theta-min", "0.25", "--grid-points", "64"],
        ["dispersion", "--theta", "0.3", "--k-points", "5", "--format", "csv"],
        ["evolve", "--kind", "uniform", "--theta1", "0.3", "--n-sites", "8", "--steps", "3"],
    ]

    @staticmethod
    def undated(text):
        return re.sub(r".*generated_at.*\n", "", text)

    def test_consecutive_calls_match_fresh_processes(self, capsys):
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "coinwalk", *argv], env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True, text=True, timeout=120, check=True,
            ).stdout
            for argv in self.REQUESTS
        ]
        for argv, want in zip(self.REQUESTS + self.REQUESTS[:1], fresh + fresh[:1]):
            assert main(argv) == 0
            assert self.undated(capsys.readouterr().out) == self.undated(want)
            # a usage error in between leaves the next call as it was
            assert main(["diagonalize", "--kind", "uniform", "--theta1", "0.3", "--bogus"]) == 2
            assert main(["winding", "--theta-min", "0.25", "--steps", "2"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""

    def test_replaced_command_runs(self, capsys, monkeypatch):
        assert main(self.REQUESTS[0]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_winding", seen.append)
        assert main(self.REQUESTS[0]) == 0
        assert [args.command for args in seen] == ["winding"]
        assert capsys.readouterr().out.count('"command": "winding"') == 1


class TestEmitterParity:
    """JSON output byte for byte against the standard library encoder of the same payload."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        class FixedClock(datetime.datetime):
            @classmethod
            def now(cls, tz=None):
                return datetime.datetime(2020, 1, 2, 3, 4, 5, tzinfo=tz)

        monkeypatch.setattr(
            cli, "datetime", types.SimpleNamespace(datetime=FixedClock, timezone=datetime.timezone)
        )
        calls = []
        emit = cli._emit

        def record(args, command, params, columns, data, extras=None):
            calls.append((args, command, params, columns, data, extras))
            emit(args, command, params, columns, data, extras)

        monkeypatch.setattr(cli, "_emit", record)
        return calls

    @staticmethod
    def rows(data):
        """Row tuples of column data; array cells are their ``tolist()`` values."""
        return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in data)))

    @classmethod
    def reference(cls, args, command, params, columns, data, extras):
        payload = {
            "schema_version": cli.SCHEMA_VERSION,
            "meta": {
                "command": command,
                "version": cli.__version__,
                "generated_at": "2020-01-02T03:04:05+00:00",
                "params": params,
            },
            "data": [dict(zip(columns, row)) for row in cls.rows(data)],
            "extras": extras or {},
        }
        return json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["dispersion", "--theta", "0", "--k-points", "9"],
            ["winding", "--theta-min", "-0.5", "--theta-max", "0.5", "--steps", "5"],
            ["bound-single", "--theta1", "0.25", "--theta2", "-0.25", "--energy", "pi"],
            ["bound-single", "--theta1", "0.25", "--theta2", "0.3"],
            ["wire-spectrum", "--theta2-list", "1/4,0.7,1/4", "--n-max", "6", "--fit-min-n", "2"],
            [
                "evolve", "--kind", "single", "--theta1", "0.3", "--theta2", "-0.4",
                "--n-sites", "96", "--init", "bound:pi", "--steps", "20",
            ],
            [
                "diagonalize", "--kind", "symmetric", "--theta1", "0.5",
                "--theta2", "-0.25", "--wire-length", "6", "--n-sites", "24",
            ],
        ],
        ids=lambda argv: argv[0],
    )
    def test_subcommands(self, capsys, recorded, argv):
        assert main(argv) == 0
        (call,) = recorded
        assert capsys.readouterr().out == self.reference(*call)

    @pytest.mark.parametrize(
        "columns,data",
        [
            (("x", "y"), [[0.0, 0.5, 1.0, 1.5, 2.0, float("nan")], [-1.25e-300] * 5 + [2.0]]),
            (("x", "y"), [(1.5, float("inf"), 2.5), (0.1, 0.2, 0.3)]),
            (("x", "y"), [(1.5, 2.5, 3.5), (0.1, -float("inf"), 0.3)]),
            (("n", "m"), [[0, 1, 2, 3, 4, True], [10**20 - i for i in range(5)] + [3]]),
            (("n", "m"), [[0, 1, 2], [False, 7, 8]]),
            (("x", "y"), [[0.0, 0.25, 0.5, np.float64(0.1)], [1.0, 1.0, 1.0, 3.0]]),
            (("n", "m"), [[0, 1, 2, None], [0, -1, -2, 9]]),
            (("t", "x", "t", "y"), [range(4), [0.0, 0.5, 1.0, 1.5], [1, 3, 5, 7], ["r0", "r1", "r2", "r3"]]),
            (
                ("x", "y"),
                [
                    np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -0.0]),
                    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -0.0],
                ],
            ),
            (
                ("n", "x", "m"),
                [
                    np.array([5, -2, 5, 0, 2**62, -(2**63), 7], dtype=np.int64),
                    np.array([0.1, -0.0, 1e300, 0.0, np.pi, -5e-324, 0.1]),
                    np.arange(7, dtype=np.int32) * 3,
                ],
            ),
            (("x", "y"), [np.array([0.5, np.nan, -0.0]), np.array([-np.inf, 1.0, 0.0])]),
            (("n", "b"), [[0, 1, True, 2, False], np.array([True, False, True, True, False])]),
            (("x",), [[0.5, None, -0.0, 1e-310, 0.0]]),
            (
                ("flag", "reason"),
                [
                    np.array([None, "0", "pi", None, "0", None], dtype=object),
                    [None, "gap-closed", 'caf\u00e9 "\\ \u2603', "gap-closed", None, ""],
                ],
            ),
        ],
        ids=[
            "nan", "inf", "-inf", "bool-true", "bool-false", "np-float64", "none",
            "repeated-key", "zeros-subnormals", "np-int64-float64", "np-nonfinite",
            "int-with-bool", "float-with-none", "none-and-str",
        ],
    )
    def test_column_encoder(self, columns, data):
        want = json.dumps({"data": [dict(zip(columns, row)) for row in self.rows(data)]}, indent=2)
        assert '{\n  "data": [\n' + cli._json_rows(columns, data) + "\n  ]\n}" == want

    @pytest.mark.parametrize(
        "init,layout",
        [
            ("delta:1234:right", ["--kind", "uniform", "--theta1", "0.3"]),
            ("bound:0", ["--kind", "single", "--theta1", "-0.3", "--theta2", "0.35"]),
        ],
        ids=["delta", "bound"],
    )
    def test_benchmark_shaped_evolve(self, capsys, recorded, init, layout):
        # the benchmark's ring and 11 snapshots, with few steps
        argv = ["evolve", *layout, "--n-sites", "4096", "--steps", "20", "--init", init]
        assert main(argv) == 0
        (call,) = recorded
        assert len(call[4][0]) == 11 * 4096
        assert capsys.readouterr().out == self.reference(*call)

    def test_empty_table(self, capsys, recorded):
        columns = ("x", "n")
        args = argparse.Namespace(format="json", output=None)
        cli._emit(args, "probe", {}, columns, ([], np.array([], dtype=np.int64)), {"k": 1})
        out = capsys.readouterr().out
        assert out == self.reference(*recorded[0])
        assert json.loads(out)["data"] == []
        cli._emit(argparse.Namespace(format="csv", output=None), "probe", {}, columns, ([], ()))
        assert capsys.readouterr().out.endswith("\n# generated_at=2020-01-02T03:04:05+00:00\nx,n\n")

    def test_special_values_and_csv(self, capsys, recorded):
        columns = ("x", 'k"%s\u00e9', "flag", "name", "x")
        rows = [
            (float("nan"), float("inf"), True, "caf\u00e9 \"\\ \u2603", 1),
            (-float("inf"), -0.0, False, None, 2.5e-300),
            (np.float64(0.1), 10**20, None, "", -7),
        ]
        data = list(zip(*rows))
        args = argparse.Namespace(format="json", output=None)
        cli._emit(args, "probe", {"\u00e9": [1, None]}, columns, data, {"note": "\u2603"})
        assert capsys.readouterr().out == self.reference(*recorded[0])

        csv_args = argparse.Namespace(format="csv", output=None)
        params = {"a": 1, "b": None, "c": np.float64(0.25)}
        cli._emit(csv_args, "probe", params, columns, data, {"e": [None]})
        assert capsys.readouterr().out == (
            "# schema_version=2\n# command=probe\n"
            f"# version={cli.__version__}\n"
            "# generated_at=2020-01-02T03:04:05+00:00\n"
            "# param.a=1\n# param.b=\n# param.c=0.25\n# extra.e=[null]\n"
            'x,k"%s\u00e9,flag,name,x\n'
            'nan,inf,True,caf\u00e9 "\\ \u2603,1\n'
            "-inf,-0.0,False,,2.5e-300\n"
            "0.1,100000000000000000000,,,-7\n"
        )
