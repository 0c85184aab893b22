import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kkbec import cli, correlation, model, spectrum
from kkbec.cli import build_parser, main
from kkbec.model import REGIMES

STANDARD_DOC = {
    "N": 9, "m": 1.0, "n": 1.0, "U": 1.0,
    "Uprime": 0.1, "Omega": -0.1, "L": None, "mono_metric": True,
}


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(STANDARD_DOC))
    return str(path)


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


class TestTower:
    def test_csv_output(self, tmp_path, config):
        code, out = run_to_file(tmp_path, "tower.csv", ["tower", "--config", config])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "j,n,alpha,Erj_sq_exact,Erj_sq_continuum,csj_sq,p5,constraint_value,degeneracy"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[3]) == 0.0

    def test_degenerate_rows(self, tmp_path, config):
        code, out = run_to_file(tmp_path, "tower.csv", ["tower", "--config", config])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        by_j = {int(r[0]): r for r in rows}
        assert by_j[1][3] == by_j[8][3]  # identical decimal strings
        assert float(by_j[1][3]) == pytest.approx(0.1101093, abs=1e-6)
        assert float(by_j[1][4]) == pytest.approx(0.1169729, abs=1e-6)

    def test_json_format_roundtrip(self, tmp_path, config):
        code, out = run_to_file(
            tmp_path, "tower.json", ["tower", "--config", config, "--format", "json"]
        )
        assert code == 0
        records = json.loads(out.read_text())
        assert len(records) == 9
        assert records[0]["j"] == 0
        assert records[0]["Erj_sq_exact"] == 0.0
        # JSON and CSV must carry bit-identical values
        _, csv_out = run_to_file(tmp_path, "tower.csv", ["tower", "--config", config])
        csv_rows = [line.split(",") for line in csv_out.read_text().splitlines()[1:]]
        for record, row in zip(records, csv_rows):
            assert record["Erj_sq_exact"] == float(row[3])
            assert record["p5"] == float(row[6])

    def test_normalized_mode(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "tower.csv", ["tower", "--normalized-omega", "0.1"]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 10

    @pytest.mark.parametrize("doc, message", [
        ({"m": 1e-300, "Uprime": -1e10}, "Erj_sq_continuum is NaN at j=0"),
        ({"m": 1.0, "Uprime": -1.4e308}, "Erj_sq_exact is NaN at j=0"),
    ])
    def test_nan_cell_exits_2(self, tmp_path, capsys, doc, message):
        # valid inputs whose c_s^2 overflows to -inf: -inf * 0 at the gapless mode
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"N": 3, "n": 1.0, "U": 1e10, "Omega": -1e-5,
                                    "mono_metric": False, **doc}))
        code, out = run_to_file(tmp_path, "tower.csv", ["tower", "--config", str(path)])
        assert code == cli.EXIT_VALIDATION == 2
        assert capsys.readouterr().err == f"error: inputs outside the floating-point range: {message}\n"
        assert not out.exists()


class TestDispersion:
    def test_blocks_and_columns(self, tmp_path, config):
        code, out = run_to_file(
            tmp_path, "disp.csv",
            ["dispersion", "--config", config, "--eta-points", "4"],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "j,eta,p,E,E_over_csp"
        assert len(lines) == 1 + 9 * 4
        j_vals = [int(line.split(",")[0]) for line in lines[1:]]
        assert j_vals == sorted(j_vals)

    def test_degenerate_blocks_identical(self, tmp_path, config):
        code, out = run_to_file(
            tmp_path, "disp.csv",
            ["dispersion", "--config", config, "--eta-points", "3"],
        )
        lines = out.read_text().splitlines()[1:]
        block = {}
        for line in lines:
            j, rest = line.split(",", 1)
            block.setdefault(int(j), []).append(rest.split(",", 1)[1])
        assert block[1] == block[8]
        assert block[2] == block[7]

    def test_phonon_limit_column(self, tmp_path, config):
        code, out = run_to_file(
            tmp_path, "disp.csv",
            ["dispersion", "--config", config, "--eta-min", "0.001",
             "--eta-max", "0.001", "--eta-points", "1"],
        )
        lines = out.read_text().splitlines()[1:]
        ratio = float(lines[0].split(",")[4])
        assert abs(ratio - 1.0) < 1e-3


class TestCorrelation:
    ARGS = ["--s-min", "10", "--s-max", "20", "--s-points", "3", "--quad-tol", "1e-9"]

    def test_columns_and_values(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "corr.csv",
            ["correlation", "--normalized-omega", "0.001"] + self.ARGS,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,delta,D_analytic,D_numeric,D_numeric_err,D_truncated"
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[2]) > 0 and float(cells[3]) > 0

    def test_delta_symmetry_bytes(self, tmp_path):
        _, near = run_to_file(
            tmp_path, "near.csv",
            ["correlation", "--normalized-omega", "0.001", "--delta", "1"] + self.ARGS,
        )
        _, far = run_to_file(
            tmp_path, "far.csv",
            ["correlation", "--normalized-omega", "0.001", "--delta", "8"] + self.ARGS,
        )
        near_rows = [line.split(",", 2)[2] for line in near.read_text().splitlines()[1:]]
        far_rows = [line.split(",", 2)[2] for line in far.read_text().splitlines()[1:]]
        assert near_rows == far_rows

    def test_non_mono_rejected(self, tmp_path):
        doc = {**STANDARD_DOC, "mono_metric": False}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, _ = run_to_file(
            tmp_path, "corr.csv", ["correlation", "--config", str(path)] + self.ARGS
        )
        assert code == 2

    def test_quadrature_failure_exit_code(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "corr.csv",
            ["correlation", "--normalized-omega", "0.001", "--s-points", "1",
             "--s-min", "15", "--s-max", "15", "--quad-tol", "1e-18"],
        )
        assert code == 4
        row = out.read_text().splitlines()[1].split(",")
        assert row[3] == "nan"

    def test_overflowing_integrand_exit_code(self, tmp_path):
        # at s = 1e-160 most double-exponential nodes u/s lie past eta ~ 1e154,
        # where eta^2 overflows; the first sum is not finite and the row must
        # fail there instead of refining the step
        code, out = run_to_file(
            tmp_path, "corr.csv",
            ["correlation", "--normalized-omega", "0.1", "--s-points", "1",
             "--s-min", "1e-160", "--s-max", "1e-160"],
        )
        assert code == 4
        assert out.read_text().splitlines()[1].split(",")[3] == "nan"

    @pytest.mark.parametrize("s", ["1e300", "1.7e308"])
    def test_largest_separations_read_zero(self, tmp_path, s):
        # the massless level's excess overflows at the first nodes, eta times it does not
        code, out = run_to_file(tmp_path, "corr.csv", [
            "correlation", "--normalized-omega", "0.001", "--s-points", "1",
            "--s-min", s, "--s-max", s])
        assert code == 0
        assert out.read_text().splitlines()[1] == f"{float(s)!r},1,0.0,0.0,0.0,0.0"

    @pytest.mark.parametrize("argv", [
        ["--normalized-omega", "0.001", "--s-min", "1e292", "--s-max", "1e300", "--s-points", "5"],
        ["--normalized-omega", "0.9", "--s-min", "1e20", "--s-max", "1.7e308",
         "--s-points", "40", "--j-tr", "4"],
    ])
    def test_truncated_sum_past_k1_underflow(self, tmp_path, argv):
        # every K1 argument m s here is 1.19e20 or more, where e^-(m s) and K1 underflow to 0.0
        code, out = run_to_file(tmp_path, "corr.csv", ["correlation"] + argv)
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == int(argv[argv.index("--s-points") + 1])
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    def test_infinite_tolerance_still_takes_two_steps(self, tmp_path):
        # step 1's error is inf, and so is the tolerance: the row must not stop there
        argv = ["correlation", "--normalized-omega", "0.001", "--s-points", "1",
                "--s-min", "5", "--s-max", "5"]
        rows = []
        for name, tol in (("inf.csv", ["--quad-tol", "inf"]), ("default.csv", [])):
            code, out = run_to_file(tmp_path, name, argv + tol)
            assert code == 0
            rows.append([float(cell) for cell in out.read_text().splitlines()[1].split(",")])
        (_, _, _, loose, loose_err, _), (_, _, _, value, err, _) = rows
        assert 0.0 < loose_err < 1e-10 * loose
        assert abs(loose - value) <= loose_err + err

    def test_default_truncation_fits_three_species(self):
        # N = 3 has the levels 0 and 1 only: the default J is min(2, (N-1)//2) = 1
        argv = ["correlation", "--normalized-omega", "0.01", "--species", "3"]
        code, out, err = _captured(argv)
        assert (code, err) == (0, "")
        assert _captured(argv + ["--j-tr", "1"]) == (0, out, "")
        assert len(out.splitlines()) == 26

    def test_truncation_past_the_levels_is_refused(self):
        code, out, err = _captured(["correlation", "--normalized-omega", "0.01", "--species", "3",
                                    "--j-tr", "2", "--s-points", "1", "--s-max", "2"])
        assert (code, out) == (2, "")
        assert err == "error: j_tr must lie in 0..1, got 2\n"

    def test_default_truncation_is_two_from_five_species(self):
        for species in ("5", "9"):
            argv = ["correlation", "--normalized-omega", "0.001", "--species", species] + self.ARGS
            assert _captured(argv) == _captured(argv + ["--j-tr", "2"])

    @pytest.mark.parametrize("species", [3, 9])
    def test_library_default_truncation_is_the_cli_default(self, capsys, species):
        argv = ["correlation", "--normalized-omega", "0.001", "--species", str(species)]
        code, out, err = _captured(argv + self.ARGS)
        assert (code, err) == (0, "")
        table = correlation.correlation_table(model.normalized_params(1e-3, species),
                                              cli._log_grid(10.0, 20.0, 3), 1, rel_tol=1e-9)
        cli._write_table(None, table, "csv")
        assert capsys.readouterr().out == out


class TestOracleCheck:
    def test_report(self, tmp_path, config):
        code, out = run_to_file(
            tmp_path, "oracle.json",
            ["oracle-check", "--cases", "6", "--p-points", "5"],
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["cases"] == 6
        assert report["max_rel_err"] <= 1e-9
        assert report["unstable_cases"] == 0
        assert report["hand_case_n3_ok"] is True
        assert report["tachyon_case_flagged"] is True

    def test_seed_with_small_energies_passes(self, tmp_path):
        # its worst case (N = 11, U' = -0.485, Omega = -0.473) divides the solver's
        # roundoff by a small E^2; the symmetric product route keeps it under 5e-10
        code, out = run_to_file(
            tmp_path, "oracle.json",
            ["oracle-check", "--cases", "8", "--seed", "2186642200"],
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["max_rel_err"] < 5e-10

    def test_mismatch_exit_code(self, tmp_path, config, monkeypatch):
        import kkbec.oracle

        monkeypatch.setattr(
            kkbec.oracle, "compare_with_closed_forms", lambda params, momenta: (1e-3, True)
        )
        code, out = run_to_file(
            tmp_path, "oracle.json",
            ["oracle-check", "--cases", "2", "--p-points", "3"],
        )
        assert code == 5
        assert json.loads(out.read_text())["pass"] is False

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_error_fails(self, tmp_path, monkeypatch, bad, position):
        import kkbec.oracle

        errors = iter([1e-12] * position + [bad] + [1e-12] * (2 - position))
        monkeypatch.setattr(
            kkbec.oracle, "compare_with_closed_forms", lambda params, momenta: (next(errors), True)
        )
        code, out = run_to_file(
            tmp_path, "oracle.json",
            ["oracle-check", "--cases", "3", "--p-points", "3"],
        )
        assert code == 5
        report = json.loads(out.read_text())
        assert math.isnan(report["max_rel_err"])
        assert report["pass"] is False

    @staticmethod
    def _expected(cases, p_points, seed, errors, stabilities):
        worst = math.nan if any(not math.isfinite(e) for e in errors) else max([0.0, *errors])
        unstable = stabilities.count(False)
        passed = worst <= 1e-9 and unstable == 0
        # the hand cases of the command pass for every seed
        return json.dumps({"cases": cases, "p_points": p_points, "seed": seed,
                           "max_rel_err": worst, "unstable_cases": unstable,
                           "hand_case_n3_ok": True, "tachyon_case_flagged": True,
                           "pass": passed}, indent=2) + "\n", 0 if passed else 5

    @pytest.mark.parametrize("seed, cases, p_points", [(7, 2, 3), (20240800, 3, 1),
                                                       (2186642200, 8, 20)])
    def test_bytes_are_json_dumps_of_the_cells(self, seed, cases, p_points):
        import kkbec.oracle

        rng = np.random.Generator(np.random.Philox(seed))
        results = [kkbec.oracle.compare_with_closed_forms(params, np.logspace(-2, 1, p_points))
                   for params in kkbec.oracle.sample_parameter_sets(rng, cases)]
        text, code = self._expected(cases, p_points, seed, *map(list, zip(*results)))
        assert _captured(["oracle-check", "--seed", str(seed), "--cases", str(cases),
                          "--p-points", str(p_points)]) == (code, text, "")

    @pytest.mark.parametrize("results", [
        [(1e-12, True), (-0.0, True)],
        [(0.0, True), (2e-9, True), (5e-324, False)],
        [(math.inf, True), (1e-300, True)],
        [(1e-13, False), (math.nan, True), (1e-12, False)],
    ])
    def test_failing_reports_are_json_dumps_of_the_cells(self, monkeypatch, results):
        import kkbec.oracle

        scripted = iter(results)
        monkeypatch.setattr(kkbec.oracle, "compare_with_closed_forms",
                            lambda params, momenta: next(scripted))
        text, code = self._expected(len(results), 2, 9, *map(list, zip(*results)))
        assert _captured(["oracle-check", "--seed", "9", "--cases", str(len(results)),
                          "--p-points", "2"]) == (code, text, "")


class TestValidate:
    def test_pass_with_notes(self, tmp_path, config, capsys):
        code, out = run_to_file(tmp_path, "report.json", ["validate", "--config", config])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True and payload["violations"] == []
        notes = [c for c in payload["mode_constraints"] if c["note"] == "warn"]
        assert notes, "high-j constraint values should carry threshold notes"
        assert "warn" in capsys.readouterr().err

    def test_even_species_exit(self, tmp_path):
        doc = {**STANDARD_DOC, "N": 10}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, _ = run_to_file(tmp_path, "r.json", ["validate", "--config", str(path)])
        assert code == 2

    def test_positive_rabi_exit(self, tmp_path):
        doc = {**STANDARD_DOC, "Omega": 0.1, "Uprime": -0.1}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, _ = run_to_file(tmp_path, "r.json", ["validate", "--config", str(path)])
        assert code == 2

    @staticmethod
    def _expected(params, mono, regime):
        """(exit code, stdout, stderr) of the report, built one mode at a time."""
        report = model.validate(params, regime)
        err = [f"{v.severity}: {v.constraint}: {v.message}\n" for v in report.violations]
        constraints = []
        for j in range((params.species_count + 1) // 2) if report.ok else ():
            value = spectrum.validity_constraint(params, j)
            note = ("reject" if value >= model.REJECT_RATIO else
                    "warn" if value > model.WARN_RATIO else "ok")
            constraints.append({"j": j, "constraint_value": value, "note": note})
            if note != "ok":
                err.append(f"{note}: validity constraint at j={j} is {value:.6g} "
                           f"(warn>{model.WARN_RATIO}, reject>={model.REJECT_RATIO})\n")
        ok = report.ok and all(c["note"] != "reject" for c in constraints)
        payload = {
            "regime": regime, "mono_metric": mono,
            "mono_metricity_holds": model.check_mono_metricity(params),
            "violations": [{"constraint": v.constraint, "message": v.message,
                            "severity": v.severity} for v in report.violations],
            "mode_constraints": constraints, "ok": ok,
        }
        return 0 if ok else 2, json.dumps(payload, indent=2) + "\n", "".join(err)

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("n_sp", [3, 4, 101])
    # 1e-3: every mode ok; 0.1: warn at N = 3; 0.3: |Omega|/nU warns; 1.0: reject at N = 3,
    # and |Omega|/nU errs in the relativistic regime; 30: nU/|Omega| warns in the other
    @pytest.mark.parametrize("ratio", [1e-3, 0.1, 0.3, 1.0, 30.0])
    def test_bytes_are_json_dumps_of_the_cells(self, regime, n_sp, ratio):
        params = model.normalized_params(ratio, n_sp)
        expected = self._expected(params, True, regime)
        assert _captured(["validate", "--normalized-omega", repr(ratio), "--species", str(n_sp),
                          "--regime", regime]) == expected

    @pytest.mark.parametrize("doc", [
        {**STANDARD_DOC, "Uprime": 0.3, "mono_metric": False},
        {**STANDARD_DOC, "L": 2.0},
        {**STANDARD_DOC, "Omega": 0.1, "Uprime": -0.1},
        {**STANDARD_DOC, "N": 101, "Uprime": 4.0, "Omega": -4.0, "L": 1e-3},
    ])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_config_bytes_are_json_dumps_of_the_cells(self, tmp_path, doc, regime):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        params, mono = model.params_from_document(doc)
        expected = self._expected(params, mono, regime)
        assert _captured(["validate", "--config", str(path), "--regime", regime]) == expected


class TestConfigHandling:
    def test_unknown_key(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**STANDARD_DOC, "temperature": 1.0}))
        assert main(["tower", "--config", str(path)]) == 2

    def test_boolean_length(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**STANDARD_DOC, "L": True}))
        assert main(["tower", "--config", str(path)]) == 2
        assert "L must be a number or null" in capsys.readouterr().err

    def test_bad_json(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{not json")
        assert main(["tower", "--config", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["tower", "--config", str(tmp_path / "absent.json")]) == 3

    def test_config_or_normalized_required(self, config):
        # exactly one input source: neither, or both, is a usage error
        for inputs in ([], ["--config", config, "--normalized-omega", "0.001"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["tower", *inputs])
            assert excinfo.value.code == 2

    def test_species_only_with_normalized_omega(self, tmp_path, capsys, config):
        # --config sets N, so an explicit --species beside it is refused, even the default 9
        for species in ("51", "9"):
            code, out = run_to_file(tmp_path, "out", ["tower", "--config", config,
                                                      "--species", species])
            assert code == 2 and not out.exists()
            assert main(["tower", "--config", config, "--species", species]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "--species" in captured.err
        # --species 0 is a value, not the default
        assert main(["tower", "--normalized-omega", "0.1", "--species", "0"]) == 2

    def test_bad_grids_rejected(self, config):
        assert main(["dispersion", "--config", config, "--eta-min", "-1"]) == 2
        assert main(["dispersion", "--config", config, "--eta-min", "5",
                     "--eta-max", "2"]) == 2
        assert main(["correlation", "--config", config, "--quad-tol", "0"]) == 2
        assert main(["correlation", "--config", config, "--delta", "12"]) == 2


class TestTotality:
    """Degenerate inputs end in a validation exit, never a traceback or a vacuous pass."""

    @pytest.mark.parametrize("argv", [
        ["tower", "--normalized-omega", "0"],
        ["correlation", "--normalized-omega", "0.001", "--s-points", "2",
         "--s-min", "5", "--s-max", "1"],
        ["oracle-check", "--cases", "0"],
        ["oracle-check", "--cases", "-1"],
        ["oracle-check", "--cases", "2", "--p-points", "0"],
        # at m = 5e-324 a derived scale divides by zero
        ["tower", "--config", "{tiny_mass}"],
        ["dispersion", "--config", "{tiny_mass}"],
        ["correlation", "--config", "{tiny_mass}"],
    ])
    def test_validation_exit(self, tmp_path, capsys, argv):
        tiny_mass = tmp_path / "tiny_mass.json"
        tiny_mass.write_text(json.dumps({**STANDARD_DOC, "m": 5e-324}))
        argv = [arg.format(tiny_mass=tiny_mass) for arg in argv]
        code, out = run_to_file(tmp_path, "out", argv)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["oracle-check", "--seed=--"],
        ["tower", "--normalized-omega=--"],
        ["tower", "--config=--"],
        ["correlation", "--normalized-omega", "0.001", "--s-min=--"],
    ])
    def test_double_dash_value_is_a_usage_error(self, capsys, argv):
        # Python 3.10 and 3.11 store '--opt=--' unconverted, as an empty list
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "expected one argument" in err and "Traceback" not in err

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
         "and data type float64",
         "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
         "and data type float64"),
        ("", "an allocation failed"),
    ], ids=["numpy", "bare"])
    @pytest.mark.parametrize("argv", [
        ["dispersion", "--normalized-omega", "0.1", "--eta-points", "1000000000000"],
        ["correlation", "--normalized-omega", "0.001", "--s-points", "1000000000000"],
        ["oracle-check", "--cases", "1"],
    ], ids=lambda argv: argv[0])
    def test_out_of_memory_is_a_validation_exit(self, tmp_path, capsys, monkeypatch,
                                                 argv, message, shown):
        # injected, not allocated: a host that overcommits memory could grant a
        # 1e12-point grid and then kill the process that touches it
        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "_log_grid", exhausted)
        monkeypatch.setattr(cli.oracle, "compare_with_closed_forms", exhausted)
        code, out = run_to_file(tmp_path, "out", argv)
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: out of memory: {shown}\n"

    def test_tiny_rabi_correlator_underflows(self, tmp_path):
        # at |Omega|/nU = 1e-300, (R_l Delta)^3 overflows but R_l/rho^3 is a
        # representable 3.6e-302
        code, out = run_to_file(tmp_path, "out", [
            "correlation", "--normalized-omega", "1e-300", "--s-points", "1",
            "--s-min", "5", "--s-max", "5"])
        assert code == 0
        row = dict(zip(*[line.split(",") for line in out.read_text().splitlines()]))
        assert math.isfinite(float(row["D_analytic"]))
        assert float(row["D_analytic"]) == pytest.approx(3.58e-302, rel=1e-3)


class TestDeterminismAndSvg:
    def test_byte_identical_reruns(self, tmp_path, config):
        commands = {
            "tower": ["tower", "--config", config],
            "disp": ["dispersion", "--config", config, "--eta-points", "3"],
            "corr": ["correlation", "--normalized-omega", "0.001", "--s-points", "2",
                     "--s-min", "12", "--s-max", "20"],
            "oracle": ["oracle-check", "--cases", "4",
                       "--p-points", "4", "--seed", "7"],
            "validate": ["validate", "--config", config],
        }
        for name, argv in commands.items():
            _, first = run_to_file(tmp_path, f"{name}_a.out", argv)
            _, second = run_to_file(tmp_path, f"{name}_b.out", argv)
            assert first.read_bytes() == second.read_bytes(), name

    def test_svg_written(self, tmp_path, config):
        code, out = run_to_file(
            tmp_path, "tower.csv", ["tower", "--config", config, "--svg"]
        )
        assert code == 0
        svg = out.with_name("tower.csv.svg")
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_svg_with_nothing_to_plot(self, tmp_path):
        # every correlator underflows to 0 at s = 1e200, leaving no point on log axes
        code, out = run_to_file(tmp_path, "c.csv", [
            "correlation", "--normalized-omega", "0.001", "--s-min", "1e200",
            "--s-max", "1e200", "--s-points", "1", "--svg"])
        assert code == 0
        assert out.read_text().splitlines()[1] == "1e+200,1,0.0,0.0,0.0,0.0"
        svg = out.with_name("c.csv.svg").read_text()
        assert svg.startswith("<svg") and "<rect" in svg and "polyline" not in svg

    def test_svg_drops_non_finite_points(self, tmp_path):
        # at |Omega|/nU = 1e300 the gaps of the pair overflow; only the massless mode is drawn
        code, out = run_to_file(tmp_path, "t.csv", ["tower", "--normalized-omega", "1e300",
                                                    "--species", "3", "--svg"])
        assert code == 0
        assert ",inf," in out.read_text()
        svg = out.with_name("t.csv.svg").read_text()
        assert svg.count('points="40.00,440.00"') == 2  # one point a curve
        assert "polyline" in svg and "nan" not in svg and "inf" not in svg

    @pytest.mark.parametrize("log_log", [False, True])
    def test_svg_keeps_the_finite_points(self, tmp_path, log_log):
        curve = [(1.0, 1.0), (10.0, math.inf), (math.nan, 5.0), (100.0, 100.0),
                 (-math.inf, 10.0), (1000.0, math.nan)]
        path = tmp_path / "plot.svg"
        cli._svg_polylines(path, {"curve": curve}, log_log)
        svg = path.read_text()
        assert 'points="40.00,440.00 600.00,40.00"' in svg
        assert "nan" not in svg and "inf" not in svg

    def test_svg_requires_out(self, config):
        assert main(["tower", "--config", config, "--svg"]) == 3

    def test_svg_without_out_writes_nothing(self, capsys):
        assert main(["tower", "--normalized-omega", "0.1", "--svg"]) == 3
        assert capsys.readouterr().out == ""


class TestOptions:
    # each subcommand takes only the options it reads
    EXPECTED = {
        "tower": {"--config", "--normalized-omega", "--species", "--out", "--format", "--svg"},
        "dispersion": {"--config", "--normalized-omega", "--species", "--out", "--format",
                       "--svg", "--eta-min", "--eta-max", "--eta-points"},
        "correlation": {"--config", "--normalized-omega", "--species", "--out", "--format",
                        "--svg", "--s-min", "--s-max", "--s-points", "--delta", "--j-tr",
                        "--quad-tol", "--unweighted-truncation"},
        "oracle-check": {"--out", "--seed", "--cases", "--p-points"},
        "validate": {"--config", "--normalized-omega", "--species", "--out", "--regime"},
    }

    def test_per_command_options(self):
        subs = next(a for a in build_parser()._actions if a.dest == "command").choices
        options = {
            name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, sub in subs.items()
        }
        assert options == self.EXPECTED

    def test_removed_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", "--normalized-omega", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _captured(argv):
    """(exit code or SystemExit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


class TestGridBounds:
    """The s and eta grids start and end at the requested bounds, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(s=st.floats(1e-6, 1e6))
    def test_single_point_row_prints_the_requested_s(self, s):
        code, out, _ = _captured(["correlation", "--normalized-omega", "0.001",
                                  f"--s-min={s!r}", f"--s-max={s!r}", "--s-points=1"])
        assert code in (0, 4)
        assert out.splitlines()[1].split(",")[0] == repr(s)

    @settings(max_examples=25, deadline=None)
    @given(low=st.floats(1e-4, 1e2), ratio=st.floats(1.0, 1e3), points=st.integers(1, 6))
    def test_eta_grid_ends_exact_and_interior_logspaced(self, low, ratio, points):
        high = low if points == 1 else low * ratio
        code, out, _ = _captured(["dispersion", "--normalized-omega", "0.1", "--species", "3",
                                  f"--eta-min={low!r}", f"--eta-max={high!r}",
                                  f"--eta-points={points}"])
        assert code == 0
        etas = [line.split(",")[1] for line in out.splitlines()[1:points + 1]]
        interior = np.logspace(math.log10(low), math.log10(high), points).tolist()[1:-1]
        assert etas[0] == repr(low) and etas[-1] == repr(high)
        assert etas[1:-1] == [repr(x) for x in interior]

    @settings(max_examples=50, deadline=None)
    @given(low=st.floats(1e-300, 1e300), log_ratio=st.floats(0.0, 10.0), points=st.integers(1, 40))
    def test_grid_is_the_logspace_with_its_bounds_set(self, low, log_ratio, points):
        high = low if points == 1 else min(low * 10.0**log_ratio, 1e300)
        expected = np.logspace(math.log10(low), math.log10(high), points)
        expected[0], expected[-1] = low, high
        assert cli._log_grid(low, high, points).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("low, high, points", [(3.0, 3.0, 1), (0.5, 2.0, 2)])
    def test_bounds_alone_need_no_logspace(self, monkeypatch, low, high, points):
        monkeypatch.setattr(np, "logspace", None)  # a call would raise TypeError
        assert cli._log_grid(low, high, points).tolist() == [low, high][:points]


class TestParserReuse:
    """main parses with one parser per process and dispatches at call time."""

    VALID = ["dispersion", "--normalized-omega", "0.1", "--species", "5", "--eta-points", "4"]
    REJECTED = [
        ["dispersion", "--normalized-omega", "0.1", "--eta-points", "four"],
        ["correlation", "--no-such-flag"],
        ["no-such-command"],
        [],
    ]

    @pytest.mark.parametrize("rejected", REJECTED)
    def test_rejection_leaves_no_trace(self, rejected):
        cli._parser.cache_clear()
        first = _captured(self.VALID)
        cli._parser.cache_clear()
        code, _, err = _captured(rejected)
        assert code == ("exit", 2) and "usage: kkbec" in err
        assert _captured(self.VALID) == first
        assert _captured(rejected) == (code, "", err)

    def test_patched_command_after_first_call(self, monkeypatch):
        argv = ["correlation", "--normalized-omega", "0.001", "--s-points", "1",
                "--s-min", "3", "--s-max", "3"]
        assert _captured(argv)[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_correlation", lambda args: seen.append(args.s_min) or 4)
        assert main(argv) == 4
        assert seen == [3.0]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_parser_built_at_most_once_per_process(self, monkeypatch):
        """Gate: 24 calls over every subcommand, one of them handed to argparse, add no
        more arguments than one build."""
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        build_parser()
        one_build = len(calls)
        calls.clear()
        cli._parser.cache_clear()
        commands = [
            ["tower", "--normalized-omega", "0.1", "--species", "3"],
            ["dispersion", "--normalized-omega", "0.1", "--species", "3", "--eta-points", "2"],
            ["correlation", "--normalized-omega", "0.001", "--s-points", "1",
             "--s-min", "5", "--s-max", "5"],
            ["oracle-check", "--cases", "1", "--p-points", "1"],
            ["validate", "--normalized-omega", "0.1"],
            ["tower", "--normalized-omega=0.1", "--species", "3"],  # an '=' form: argparse
        ]
        for argv in commands * 4:
            assert _captured(argv)[0] == 0, argv
        assert 0 < len(calls) <= one_build


class TestArgvFromSys:
    """main() with no argv reads sys.argv, as `python -m kkbec.cli` and the console script do."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    @pytest.mark.parametrize("argv", [["tower", "--normalized-omega", "0.1", "--species", "3"],
                                      ["--help"]])
    def test_module_run_is_the_in_process_run(self, argv):
        run = subprocess.run([sys.executable, "-m", "kkbec.cli", *argv], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(self.SRC)},
                             timeout=120)
        code, out, err = _captured(argv)  # --help: code is ("exit", 0)
        assert run.returncode == (code[1] if isinstance(code, tuple) else code)
        assert (run.stdout, run.stderr) == (out, err)


class TestDispatch:
    """main parses argv once: by one pass over the options of the command that argv[0]
    names, or else by the top-level argparse parser."""

    INPUT = ["--normalized-omega", "0.1", "--species", "3"]
    ROW = ["--s-min", "5", "--s-max", "5", "--s-points", "1"]
    # read in one pass: exact option strings, each once, with plain values;
    # the last four are the benchmark's request shapes
    TABLE = [
        ["tower", *INPUT],
        ["tower", "--config", "params.json", "--format", "json", "--out", "t.csv", "--svg"],
        ["correlation", "--normalized-omega", "0.001", "--s-min", "5", "--s-max", "5",
         "--s-points", "1", "--delta", "2", "--j-tr", "1", "--quad-tol", "1e-8",
         "--unweighted-truncation"],
        ["correlation", "--normalized-omega", "0.001", *ROW, "--quad-tol", "nan"],
        ["correlation", "--normalized-omega", "0.001", *ROW, "--quad-tol", "inf"],
        ["oracle-check", "--cases", "1", "--p-points", "1"],
        ["validate", *INPUT, "--regime", "unrestricted"],
        ["validate", "--config", "params.json"],
        ["correlation", "--normalized-omega", "0.001", "--species", "9", "--s-min", "2.5",
         "--s-max", "2.5", "--s-points", "1", "--delta", "3"],
        ["tower", "--normalized-omega", "0.01", "--species", "51"],
        ["validate", "--normalized-omega", "0.01", "--species", "51"],
        ["oracle-check", "--cases", "8"],
    ]
    # handed to argparse: abbreviations, '=' forms, repeats, a value that starts with '-'
    HANDED = [
        ["tower", "--normalized-om", "0.1", "--species=3"],
        ["dispersion", *INPUT, "--eta-points", "2", "--eta-min=0.5", "--eta-max", "2"],
        ["dispersion", "--species", "3", "--normalized-omega", "0.1", "--eta-points", "1",
         "--eta-min", "2", "--eta-max", "2", "--format", "csv", "--format", "json"],
        ["correlation", "--normalized-omega", "0.001", "--s-mi", "5", "--s-max", "5",
         "--s-points", "1"],
        ["correlation", "--normalized-omega", "0.001", "--s-min", "-1", "--s-max", "5",
         "--s-points", "1"],
        ["correlation", "--normalized-omega", "0.001", *ROW, "--delta", "1", "--delta", "2"],
        ["oracle-check", "--seed", "5", "--cases=1", "--p-points", "1", "--out", "r.json"],
    ]
    PARSED = TABLE + HANDED
    # each ends in a top-level parse: help, or a usage error
    REJECTED = [
        [], ["-h"], ["--help"], ["no-such-command"], ["tow", *INPUT], ["--"],
        ["--", "tower", *INPUT], ["tower", "--", *INPUT], ["-x", "tower", *INPUT],
        ["tower", *INPUT, "extra", "more"], ["tower", *INPUT, "--no-such-flag", "1"],
        ["tower", "-h"], ["correlation", "--help"], ["tower"],
        ["tower", "--config", "p.json", "--normalized-omega", "0.1"],
        ["correlation", "--normalized-omega", "0.1", "--s-min", "two"],
        ["correlation", "--normalized-omega", "0.1", "--s-m", "2"],
        ["oracle-check", "--normalized-omega", "0.1"],
        ["validate", *INPUT, "--regime", "bogus"],
        ["dispersion", *INPUT, "--format", "xml"],
        ["tower", *INPUT, "--format", "--out", "x"],
        ["tower", *INPUT, "--svg", "yes"],
        ["tower", *INPUT, "--format", "json", "-h"],
    ]

    @staticmethod
    def _top_level(argv):
        """(SystemExit code, stdout, stderr) of a parse by a fresh top-level parser."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
        return ("exit", exc.value.code), out.getvalue(), err.getvalue()

    @staticmethod
    def _fields(args):
        # repr tells nan from nan's absence, and -0.0 from 0.0, where == cannot
        return {name: repr(value) for name, value in vars(args).items()}

    @pytest.mark.parametrize("argv", PARSED)
    def test_namespace_of_a_top_level_parse(self, monkeypatch, argv):
        seen = []
        monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"),
                            lambda args: seen.append(args) or 0)
        assert main(argv) == 0
        assert [self._fields(args) for args in seen] == [
            self._fields(build_parser().parse_args(argv))]

    @pytest.mark.parametrize("argv", REJECTED)
    def test_rejection_is_the_top_level_parse(self, argv):
        assert _captured(argv) == self._top_level(argv)

    def test_one_parse_per_request(self, monkeypatch):
        """Gate: argv the reader takes builds no parser and calls no parse_known_args;
        argv it hands on gets exactly the top-level parse, the parser built at most once."""
        calls, builds = [], []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        cli._parser.cache_clear()
        commands = set()
        # the top-level parse hands argv[1:] on to the parser of the command it names
        for requests, parses in ((self.TABLE, []), (self.HANDED, ["kkbec", "kkbec {}"])):
            for argv in requests:
                if "--out" in argv or "--config" in argv:
                    continue
                calls.clear()
                # a command's outcome (--s-min -1 fails validation), never a usage error
                assert _captured(argv)[0] in (0, 2), argv
                assert calls == [prog.format(argv[0]) for prog in parses], argv
                assert len(builds) == (requests is self.HANDED), argv
                commands.add(argv[0])
        cli._parser.cache_clear()
        assert commands == set(TestOptions.EXPECTED)


def _table_tokens(command):
    """argv tokens for one command: its option strings, their prefixes and '=' forms, and values."""
    options = sorted(TestOptions.EXPECTED[command] | {"-h", "--help"})
    values = ["3", "0.5", "1e-3", "51", "-1", "-0.5", "-inf", "nan", "inf", "two", "",
              "-", "--", "csv", "json", *REGIMES]
    option = st.sampled_from(options)
    return st.one_of(
        st.tuples(option, st.sampled_from(values)).map(list),
        option.map(lambda opt: [opt]),
        st.tuples(option, st.integers(2, 20)).map(lambda t: [t[0][:t[1]]]),
        st.tuples(option, st.sampled_from(values)).map(lambda t: [f"{t[0]}={t[1]}"]),
        st.sampled_from(values).map(lambda value: [value]),
    )


class TestOptionTable:
    """The one-pass reader takes only argv that argparse parses to the same namespace."""

    @pytest.mark.parametrize("command", sorted(TestOptions.EXPECTED))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_taken_argv_is_argparse_namespace(self, command, data):
        chunks = data.draw(st.lists(_table_tokens(command), max_size=8))
        argv = [command, *(token for chunk in chunks for token in chunk)]
        taken = cli._read(argv)
        if taken is None:
            return
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                args, extras = build_parser().parse_known_args(argv)
            except SystemExit:  # a usage error that the reader took
                pytest.fail(f"argparse rejects {argv}: {err.getvalue()}")
        assert extras == []
        assert TestDispatch._fields(taken) == TestDispatch._fields(args)


def _fmt(value) -> str:
    """The per-cell CSV rule the column writer replaced, kept as the reference."""
    if value is None:
        return ""
    if isinstance(value, float):
        value = float(value)  # numpy scalars repr differently
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def _per_cell_table(header, rows, fmt):
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
        return "\n".join(lines) + "\n"
    records = [dict(zip(header, row)) for row in rows]
    # json rejects numpy ints and bools; the reference writes them as Python scalars
    return json.dumps(records, indent=2, allow_nan=True, default=lambda v: v.item()) + "\n"


def _column_table(tmp_path, columns, fmt, take=None):
    path = tmp_path / f"table.{fmt}"
    cli._write_table(path, columns, fmt, take)
    return path.read_text(encoding="utf-8")


def _assert_same_text(text, expected):
    # a list compare names the first differing line; a long-string compare diffs for minutes
    assert text.splitlines() == expected.splitlines()
    assert text == expected


class TestTableWriter:
    """The column writer gives the bytes of the per-cell rule it replaced."""

    FLOATS = [None, math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 0.1,
              1e300, 2.2250738585072014e-308, 1 / 3]
    INTS = [0, -1, 7, 2**62, -(2**63), 2**63 - 1, 3, 12, 5, -9, 1, 42]
    BOOLS = [True, False] * 6

    def columns(self):
        floats = self.FLOATS[1:] + [12.5]
        return {
            "optional": self.FLOATS,
            "py_float": floats,
            "np_float": np.array(floats),
            "np_float_scalars": [np.float64(x) for x in floats],
            "py_int": self.INTS,
            "np_int": np.array(self.INTS, dtype=np.int64),
            "np_int_scalars": [np.int64(x) for x in self.INTS],
            "bool": self.BOOLS,
            "np_bool": np.array(self.BOOLS),
        }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_edge_values(self, tmp_path, fmt):
        columns = self.columns()
        rows = list(zip(*columns.values()))
        assert _column_table(tmp_path, columns, fmt) == _per_cell_table(list(columns), rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_take_repeats_values(self, tmp_path, fmt):
        columns = self.columns()
        take = np.array([3, 0, 0, 11, 5, 3, 1])
        rows = [[list(values)[i] for values in columns.values()] for i in take.tolist()]
        assert (_column_table(tmp_path, columns, fmt, dict.fromkeys(columns, take))
                == _per_cell_table(list(columns), rows, fmt))

    @settings(max_examples=50, deadline=None)
    @given(cells=st.lists(st.tuples(st.one_of(st.none(), st.floats()), st.floats(),
                                    st.integers(-(2**63), 2**63 - 1), st.booleans()),
                          min_size=1, max_size=8),
           fmt=st.sampled_from(["csv", "json"]))
    def test_property(self, tmp_path_factory, cells, fmt):
        tmp_path = tmp_path_factory.mktemp("table")
        header = ["optional", "float", "int", "bool"]
        columns = dict(zip(header, map(list, zip(*cells))))
        columns["float"] = np.array(columns["float"])
        assert _column_table(tmp_path, columns, fmt) == _per_cell_table(header, cells, fmt)

    @settings(max_examples=100, deadline=None)
    @example(cells=[])
    @example(cells=[(None, 0.0, 0, False), (None, 0.0, 2**63, False)])
    @given(cells=st.lists(st.tuples(
        st.one_of(st.none(), st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf,
                                                           -math.inf])),
        st.floats(), st.integers(), st.booleans()), max_size=6))
    def test_json_is_json_dumps(self, tmp_path_factory, cells):
        # the joined text against the encoder it replaced, with the names json has to escape
        header = ["optional", 'float "%s"', "int \\ é", "bool"]
        columns = dict(zip(header, map(list, zip(*cells)))) or dict.fromkeys(header, [])
        columns['float "%s"'] = np.array(columns['float "%s"'], dtype=float)
        records = [dict(zip(header, row)) for row in cells]
        expected = json.dumps(records, indent=2, allow_nan=True) + "\n"
        assert _column_table(tmp_path_factory.mktemp("table"), columns, "json") == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_list_cells_are_taken_as_they_are(self, tmp_path, fmt):
        # a list through np.ravel made [0, 2**63] a float64 column: 0.0, 9.223372036854776e+18
        ints = [0, 2**63, -(2**64), 7]
        optional = [None, 2.5, np.float64(0.1), -0.0]
        columns = {"int": ints, "optional": optional, "float": np.array(ints, dtype=float)}
        rows = list(zip(ints, [None, 2.5, 0.1, -0.0], [float(value) for value in ints]))
        assert _column_table(tmp_path, columns, fmt) == _per_cell_table(list(columns), rows, fmt)
        assert str(2**63) in _column_table(tmp_path, columns, fmt)

    @pytest.mark.parametrize("n_sp", [3, 101])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_tower_matches_per_cell_rendering(self, n_sp, fmt):
        """Every mode evaluated on its own, in tower order: |n| up, +n before -n."""
        header = ["j", "n", "alpha", "Erj_sq_exact", "Erj_sq_continuum", "csj_sq",
                  "p5", "constraint_value", "degeneracy"]
        order = [0] + [j for n in range(1, (n_sp + 1) // 2) for j in (n, n_sp - n)]
        # at 1e300 the gaps overflow, so the columns a level shares are inf in both modes
        for ratio in (0.1, 1e300):
            params = model.normalized_params(ratio, n_sp)
            rows = [[j, model.kk_label(j, n_sp), 2.0 * math.pi * j / n_sp,
                     spectrum.rest_energy_sq(params, j), spectrum.continuum_mass_sq(params, j),
                     spectrum.sound_speed_sq(params, j), spectrum.p5(params, j),
                     spectrum.validity_constraint(params, j), 1 if j == 0 else 2]
                    for j in order]
            code, out, _ = _captured(["tower", "--normalized-omega", repr(ratio),
                                      "--species", str(n_sp), "--format", fmt])
            assert code == 0
            assert (ratio == 1e300) == any(word in out for word in (",inf,", "Infinity"))
            _assert_same_text(out, _per_cell_table(header, rows, fmt))

    @pytest.mark.parametrize("n_sp", [3, 101])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dispersion_matches_per_mode_rendering(self, n_sp, fmt):
        """Every mode evaluated on its own, one cell at a time."""
        params = model.normalized_params(0.1, n_sp)
        etas = np.logspace(-2, 1, 60)
        etas[0], etas[-1] = 0.01, 10.0
        momenta = etas / model.derive_scales(params, mono_metric=True).healing_length
        rows = []
        for j in range(n_sp):
            cs = math.sqrt(spectrum.sound_speed_sq(params, j))
            for eta, p in zip(etas.tolist(), momenta.tolist()):
                energy = spectrum.dispersion(params, j, p)
                rows.append([j, eta, p, energy, energy / (cs * p)])
        code, out, _ = _captured(["dispersion", "--normalized-omega", "0.1",
                                  "--species", str(n_sp), "--format", fmt])
        assert code == 0
        _assert_same_text(out, _per_cell_table(["j", "eta", "p", "E", "E_over_csp"], rows, fmt))


# text that json has to escape: quotes, backslashes, control and non-ASCII characters,
# and '%', which must not reach a template as a format directive
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\%/\n\t\x00\x1f\x7f é€\U0001f600'),
                              st.characters()), max_size=8)
JSON_FLOAT = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
JSON_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), JSON_FLOAT, JSON_TEXT)


def _ordered(fields: dict):
    """Dicts of the fields' draws, keyed in the order of ``fields`` as the CLI builds them."""
    return st.fixed_dictionaries(fields).map(lambda doc: {key: doc[key] for key in fields})


VALIDATE_DOC = _ordered({
    "regime": JSON_TEXT, "mono_metric": st.booleans(), "mono_metricity_holds": st.booleans(),
    "violations": st.lists(_ordered(
        {"constraint": JSON_TEXT, "message": JSON_TEXT, "severity": JSON_TEXT}), max_size=3),
    "mode_constraints": st.lists(_ordered(
        {"j": st.integers(), "constraint_value": JSON_FLOAT, "note": JSON_TEXT}), max_size=4),
    "ok": st.booleans(),
})
ORACLE_DOC = _ordered({
    "cases": st.integers(), "p_points": st.integers(), "seed": st.integers(),
    "max_rel_err": JSON_FLOAT, "unstable_cases": st.integers(),
    "hand_case_n3_ok": st.booleans(), "tachyon_case_flagged": st.booleans(),
    "pass": st.booleans(),
})


@st.composite
def _flat_documents(draw):
    """Drawn keys: scalars, and record lists whose records share their drawn keys."""
    keys = draw(st.lists(JSON_TEXT, min_size=1, max_size=4, unique=True))
    doc = {}
    for key in keys:
        if draw(st.booleans()):
            doc[key] = draw(JSON_SCALAR)
        else:
            fields = draw(st.lists(JSON_TEXT, min_size=1, max_size=3, unique=True))
            doc[key] = draw(st.lists(_ordered(dict.fromkeys(fields, JSON_SCALAR)), max_size=3))
    return doc


class TestJsonDocument:
    """The report renderer gives the bytes of json.dumps(doc, indent=2)."""

    @settings(max_examples=150, deadline=None)
    @example(doc={'a "%s" \\ key': "%(x)s %% \x00 é", "floats": [
        {"x": x, "%d": -0.0} for x in (math.nan, math.inf, -math.inf, 5e-324, 1e300)],
        "empty": [], "ints": 2**70, "none": None, "bool": False})
    @given(doc=st.one_of(VALIDATE_DOC, ORACLE_DOC, _flat_documents()))
    def test_is_json_dumps(self, doc):
        assert cli._json_document(doc) == json.dumps(doc, indent=2) + "\n"

    def test_numpy_scalars_read_as_python_scalars(self):
        doc = {"f": np.float64(0.1), "i": np.int64(-3), "b": np.bool_(True),
               "s": np.str_("ok"), "rows": [{"v": np.float64(math.nan)}]}
        assert cli._json_document(doc) == json.dumps(
            {"f": 0.1, "i": -3, "b": True, "s": "ok", "rows": [{"v": math.nan}]}, indent=2) + "\n"


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
               1e-300, 1e300, -1e300]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-1e3, 1e3), st.floats(1e-4, 0.2))
COUNTS = st.integers(-1, 4)


def _flags(**strategies):
    """One '--flag=value' per strategy; the '=' keeps a value like '-inf' from reading as a flag."""
    return st.tuples(*[
        strategy.map(lambda v, flag=name.replace("_", "-"): f"--{flag}={v}")
        for name, strategy in strategies.items()
    ]).map(list)


def _grid(name):
    """--NAME-min/max/points: drawn independently, or as a grid that passes the checks."""
    valid = st.tuples(st.floats(1e-3, 1e2), st.floats(1.0, 1e2), st.integers(2, 4))
    return st.one_of(
        st.tuples(FLOATS, FLOATS, COUNTS),
        FLOATS.map(lambda x: (x, x, 1)),
        valid.map(lambda t: (t[0], t[0] * t[1], t[2])),
    ).map(lambda t: [f"--{name}-min={t[0]}", f"--{name}-max={t[1]}", f"--{name}-points={t[2]}"])


INPUTS = dict(normalized_omega=FLOATS, species=st.integers(0, 50).map(lambda k: 2 * k + 1))
TABLE = dict(format=st.sampled_from(["csv", "json"]))
FUZZ = {
    "tower": _flags(**INPUTS, **TABLE),
    "dispersion": st.tuples(_flags(**INPUTS, **TABLE), _grid("eta")).map(lambda p: p[0] + p[1]),
    "correlation": st.tuples(
        _flags(**INPUTS, **TABLE, delta=st.integers(-1, 4), j_tr=st.integers(-1, 3),
               quad_tol=FLOATS),
        _grid("s"),
    ).map(lambda p: p[0] + p[1]),
    "oracle-check": _flags(seed=st.integers(-1, 2**64), cases=COUNTS, p_points=COUNTS),
    "validate": _flags(**INPUTS, regime=st.sampled_from(REGIMES)),
}


class TestFuzz:
    """Any numeric flag ends in a documented exit code, never a traceback."""

    @pytest.mark.parametrize("command", sorted(FUZZ))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_documented_exit_code(self, command, data):
        argv = [command] + data.draw(FUZZ[command])
        if command in ("tower", "dispersion", "correlation"):
            argv += data.draw(st.sampled_from([[], ["--svg"]]))
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            argv += data.draw(st.sampled_from([[], ["--out", f"{tmp}/out"]]))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects its input this way
                    code = exc.code
        assert code in {0, 2, 3, 4, 5}, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
