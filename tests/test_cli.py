import argparse
import contextlib
import io
import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkbec import cli, model, spectrum
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


class TestConfigHandling:
    def test_unknown_key(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**STANDARD_DOC, "temperature": 1.0}))
        assert main(["tower", "--config", str(path)]) == 2

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
    ])
    def test_validation_exit(self, tmp_path, capsys, argv):
        code, out = run_to_file(tmp_path, "out", argv)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err and "Traceback" not in err

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
        """Gate: 20 calls over every subcommand add no more arguments than one build."""
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
        ]
        for argv in commands * 4:
            assert _captured(argv)[0] == 0, argv
        assert 0 < len(calls) <= one_build


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

    @pytest.mark.parametrize("n_sp", [3, 101])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_tower_matches_per_cell_rendering(self, n_sp, fmt):
        """Every mode evaluated on its own, in tower order: |n| up, +n before -n."""
        params = model.normalized_params(0.1, n_sp)
        order = [0] + [j for n in range(1, (n_sp + 1) // 2) for j in (n, n_sp - n)]
        rows = [[j, model.kk_label(j, n_sp), 2.0 * math.pi * j / n_sp,
                 spectrum.rest_energy_sq(params, j), spectrum.continuum_mass_sq(params, j),
                 spectrum.sound_speed_sq(params, j), spectrum.p5(params, j),
                 spectrum.validity_constraint(params, j), 1 if j == 0 else 2] for j in order]
        header = ["j", "n", "alpha", "Erj_sq_exact", "Erj_sq_continuum", "csj_sq",
                  "p5", "constraint_value", "degeneracy"]
        code, out, _ = _captured(["tower", "--normalized-omega", "0.1", "--species", str(n_sp),
                                  "--format", fmt])
        assert code == 0
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
