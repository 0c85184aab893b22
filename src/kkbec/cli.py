"""Command-line surface: figure-ready CSV/JSON tables from parameter documents.

Exit codes: 0 success, 2 validation failure, 3 I/O failure, 4 quadrature
failure in at least one output row, 5 oracle mismatch. stderr is for humans;
files and stdout carry only machine-readable output. Floats are rendered with
``repr`` (shortest round-trip form), so identical inputs produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import correlation, model, oracle, spectrum
from .errors import KkbecError, QuadratureError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_QUADRATURE = 4
EXIT_ORACLE = 5

# Per-mode validity constraint thresholds ("<< 1"); the library only reports
# the number, the CLI applies these.
CONSTRAINT_WARN = 0.25
CONSTRAINT_REJECT = 1.0

DEFAULT_SEED = 20240800


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        value = float(value)  # numpy scalars repr differently
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def _write_table(path, header: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        records = [dict(zip(header, row)) for row in rows]
        text = json.dumps(records, indent=2, allow_nan=True) + "\n"
    _write_text(path, text)


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _svg_polylines(path, curves: dict[str, list[tuple[float, float]]], log_log: bool) -> None:
    """Minimal inspection plot: one polyline per curve, 640x480 viewport."""
    width, height, pad = 640.0, 480.0, 40.0

    def transform(pts):
        if log_log:
            return [(math.log10(x), math.log10(y)) for x, y in pts if x > 0 and y > 0]
        return list(pts)

    track = [transform(pts) for pts in curves.values()]
    flat = [pt for pts in track for pt in pts]
    if not flat:
        raise ValueError("nothing to plot")
    xs, ys = zip(*flat)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    x_span = (x1 - x0) or 1.0
    y_span = (y1 - y0) or 1.0

    def pixel(pt):
        px = pad + (pt[0] - x0) / x_span * (width - 2 * pad)
        py = height - pad - (pt[1] - y0) / y_span * (height - 2 * pad)
        return f"{px:.2f},{py:.2f}"

    palette = ["#1f77b4", "#ff7f0e", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
               "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for idx, (name, pts) in enumerate(zip(curves, track)):
        if not pts:
            continue
        colour = palette[idx % len(palette)]
        coords = " ".join(pixel(pt) for pt in pts)
        parts.append(
            f'<polyline fill="none" stroke="{colour}" stroke-width="1.5" points="{coords}">'
            f"<title>{name}</title></polyline>"
        )
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def _load_inputs(args) -> tuple[model.ModelParams, bool]:
    if args.normalized_omega is not None:
        return model.normalized_params(args.normalized_omega, args.species), True
    if args.config is None:
        raise ValueError("either --config or --normalized-omega is required")
    with open(args.config, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    return model.params_from_document(doc)


def _require_grid(low: float, high: float, points: int) -> None:
    if not (math.isfinite(low) and math.isfinite(high) and 0 < low <= high):
        raise ValueError(f"grid bounds must be finite and 0 < min <= max, got [{low}, {high}]")
    if points < 1 or (points == 1 and low != high):
        raise ValueError("grid needs at least one point (and min == max for a single point)")


def _report(params: model.ModelParams, regime: str) -> model.ValidationReport:
    report = model.validate(params, regime)
    for violation in report.violations:
        print(f"{violation.severity}: {violation.constraint}: {violation.message}",
              file=sys.stderr)
    return report


def _require_valid(params: model.ModelParams) -> None:
    if not _report(params, model.UNRESTRICTED).ok:
        raise ValueError("parameters violate the model constraints")


def _maybe_svg(args, curves, log_log=True):
    if args.svg:
        _svg_polylines(str(args.out) + ".svg", curves, log_log)


def cmd_tower(args) -> int:
    params, _ = _load_inputs(args)
    _require_valid(params)
    entries = spectrum.kk_tower(params)
    header = ["j", "n", "alpha", "Erj_sq_exact", "Erj_sq_continuum", "csj_sq",
              "p5", "constraint_value", "degeneracy"]
    rows = [
        [e.mode.j, e.mode.kk_label, e.mode.alpha, e.rest_energy_sq,
         e.continuum_mass_sq, e.sound_speed_sq, e.p5, e.constraint_value,
         e.degeneracy]
        for e in entries
    ]
    _write_table(args.out, header, rows, args.format)
    _maybe_svg(args, {
        "exact": [(e.mode.j, e.rest_energy_sq) for e in entries],
        "continuum": [(e.mode.j, e.continuum_mass_sq) for e in entries],
    }, log_log=False)
    return EXIT_OK


def cmd_dispersion(args) -> int:
    params, mono = _load_inputs(args)
    _require_valid(params)
    _require_grid(args.eta_min, args.eta_max, args.eta_points)
    scales = model.derive_scales(params, mono_metric=mono)
    etas = np.logspace(math.log10(args.eta_min), math.log10(args.eta_max), args.eta_points)
    js = np.arange(params.species_count)[:, np.newaxis]  # one row of the grid per mode
    # as in Python float arithmetic: overflow gives inf, a division by zero raises
    with np.errstate(over="ignore", invalid="ignore", divide="raise"):
        momenta = etas / scales.healing_length
        cs_sq = spectrum.sound_speed_sq(params, js)
        has_cone = (cs_sq > 0) & (momenta > 0)
        energies = spectrum.dispersion(params, js, momenta)
        over_csp = np.divide(energies, np.sqrt(cs_sq) * momenta,
                             out=np.zeros_like(energies), where=has_cone)
    columns = np.broadcast_arrays(js, etas, momenta, energies,
                                  np.where(has_cone, over_csp, None))
    rows = list(zip(*(column.ravel().tolist() for column in columns)))
    _write_table(args.out, ["j", "eta", "p", "E", "E_over_csp"], rows, args.format)
    _maybe_svg(args, {f"j={j}": list(zip(etas.tolist(), row))
                      for j, row in enumerate(energies.tolist())})
    return EXIT_OK


def cmd_correlation(args) -> int:
    params, mono = _load_inputs(args)
    _require_valid(params)
    if not mono:
        raise ValueError("correlation requires mono_metric parameters")
    _require_grid(args.s_min, args.s_max, args.s_points)
    # QuadConfig rejects a non-positive --quad-tol (exit 2 through main)
    cfg = correlation.QuadConfig(rel_tol=args.quad_tol, abs_tol=min(1e-15, args.quad_tol))
    svals = np.logspace(math.log10(args.s_min), math.log10(args.s_max), args.s_points)
    header = ["s", "delta", "D_analytic", "D_numeric", "D_numeric_err", "D_truncated"]
    rows = []
    failed = False
    for s in svals:
        query = correlation.CorrelationQuery(s=float(s), delta=args.delta, params=params)
        analytic = correlation.analytic_corr(query)
        truncated = correlation.truncated_corr(query, args.j_tr, not args.unweighted_truncation)
        try:
            numeric, err = correlation.numeric_corr(query, cfg)
        except QuadratureError:
            numeric, err = float("nan"), float("nan")
            failed = True
        rows.append([float(s), args.delta, analytic, numeric, err, truncated])
    _write_table(args.out, header, rows, args.format)
    _maybe_svg(args, {
        "analytic": [(r[0], r[2]) for r in rows],
        "numeric": [(r[0], r[3]) for r in rows],
        "truncated": [(r[0], r[5]) for r in rows],
    })
    return EXIT_QUADRATURE if failed else EXIT_OK


def cmd_oracle_check(args) -> int:
    if args.cases < 1 or args.p_points < 1:
        raise ValueError("oracle-check needs --cases >= 1 and --p-points >= 1")
    rng = np.random.Generator(np.random.Philox(args.seed))
    cases = oracle.sample_parameter_sets(rng, args.cases)
    momenta = np.logspace(-2, 1, args.p_points)
    max_rel = 0.0
    unstable = 0
    mismatch = False
    for params in cases:
        worst, stable = oracle.compare_with_closed_forms(params, momenta)
        max_rel = max(max_rel, worst)
        if not stable:
            unstable += 1
            mismatch = True  # stable couplings must not trip the flag
    # deterministic hand cases: the N=3 gap and an expected tachyonic set
    hand = model.ModelParams(3, 1.0, 1.0, 1.0, 0.1, -0.1)
    e_sq, stable = oracle.oracle_energies(oracle.build_bdg(hand, 0.0))
    hand_ok = stable and np.allclose(np.sort(e_sq), [0.0, 0.63, 0.63], atol=1e-9)
    tachyon = model.ModelParams(9, 1.0, 1.0, 1.0, -0.1, 0.1)
    _, tachyon_stable = oracle.oracle_energies(oracle.build_bdg(tachyon, 0.0))
    expected_unstable = not tachyon_stable
    passed = (max_rel <= 1e-9) and not mismatch and hand_ok and expected_unstable
    report = {
        "cases": len(cases),
        "p_points": int(args.p_points),
        "seed": int(args.seed),
        "max_rel_err": max_rel,
        "unstable_cases": unstable,
        "hand_case_n3_ok": bool(hand_ok),
        "tachyon_case_flagged": bool(expected_unstable),
        "pass": bool(passed),
    }
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK if passed else EXIT_ORACLE


def cmd_validate(args) -> int:
    params, mono = _load_inputs(args)
    report = _report(params, args.regime)
    constraints = []
    if report.ok:
        values = spectrum.validity_constraint(params, np.arange((params.species_count + 1) // 2))
        notes = np.where(values >= CONSTRAINT_REJECT, "reject",
                         np.where(values > CONSTRAINT_WARN, "warn", "ok"))
        constraints = [{"j": j, "constraint_value": value, "note": note}
                       for j, (value, note) in enumerate(zip(values.tolist(), notes))]
    payload = {
        "regime": args.regime,
        "mono_metric": bool(mono),
        "mono_metricity_holds": model.check_mono_metricity(params, 1e-9),
        "violations": [
            {"constraint": v.constraint, "message": v.message, "severity": v.severity}
            for v in report.violations
        ],
        "mode_constraints": constraints,
        "ok": report.ok and all(c["note"] != "reject" for c in constraints),
    }
    for entry in constraints:
        if entry["note"] != "ok":
            print(
                f"{entry['note']}: validity constraint at j={entry['j']} is "
                f"{entry['constraint_value']:.6g} (warn>{CONSTRAINT_WARN}, reject>={CONSTRAINT_REJECT})",
                file=sys.stderr,
            )
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if payload["ok"] else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kkbec",
        description="Kaluza-Klein tower, dispersion and correlators of a "
                    "ring-coupled multicomponent condensate",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # parent parsers: each subcommand takes only the option groups it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default stdout)")
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--config", help="JSON parameter document")
    inputs.add_argument("--normalized-omega", type=float, default=None, metavar="RATIO",
                        help="normalized mono-metric mode: m=n=U=1, |Omega|/nU=RATIO")
    inputs.add_argument("--species", type=int, default=9,
                        help="N for --normalized-omega (default 9)")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--svg", action="store_true",
                       help="also write a minimal SVG plot next to --out")

    tower = subs.add_parser("tower", parents=[inputs, out, table],
                            help="mass tower table (exact vs continuum)")
    tower.set_defaults(func=cmd_tower)

    disp = subs.add_parser("dispersion", parents=[inputs, out, table],
                           help="dispersion curves over an eta grid")
    disp.add_argument("--eta-min", type=float, default=0.01)
    disp.add_argument("--eta-max", type=float, default=10.0)
    disp.add_argument("--eta-points", type=int, default=60)
    disp.set_defaults(func=cmd_dispersion)

    corr = subs.add_parser("correlation", parents=[inputs, out, table],
                           help="analytic/numeric/truncated correlators")
    corr.add_argument("--s-min", type=float, default=2.0)
    corr.add_argument("--s-max", type=float, default=40.0)
    corr.add_argument("--s-points", type=int, default=25)
    corr.add_argument("--delta", type=int, default=1)
    corr.add_argument("--j-tr", type=int, default=2)
    corr.add_argument("--quad-tol", type=float, default=1e-10)
    corr.add_argument("--unweighted-truncation", action="store_true",
                      help="reproduce the unweighted printed truncated form")
    corr.set_defaults(func=cmd_correlation)

    check = subs.add_parser("oracle-check", parents=[out],
                            help="closed forms vs brute-force BdG")
    check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    check.add_argument("--cases", type=int, default=120)
    check.add_argument("--p-points", type=int, default=20)
    check.set_defaults(func=cmd_oracle_check)

    val = subs.add_parser("validate", parents=[inputs, out], help="regime constraint report")
    val.add_argument("--regime", choices=model.REGIMES, default=model.RELATIVISTIC)
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place that turns an outcome into an exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "svg", False) and args.out is None:
        print("error: --svg requires --out", file=sys.stderr)
        return EXIT_IO
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (KkbecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"error: inputs outside the floating-point range: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
