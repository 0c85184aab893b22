"""Command-line surface: figure-ready CSV/JSON tables from parameter documents.

Exit codes: 0 success, 2 validation failure, 3 I/O failure, 4 quadrature
failure in at least one output row, 5 oracle mismatch. stderr is for humans;
files and stdout carry only machine-readable output. Floats are rendered with
``repr`` (shortest round-trip form), so identical inputs produce byte-identical
outputs; each distinct table value is formatted once. s and eta grids include
their bounds exactly. ``main(argv)`` is reentrant and cheap to call in-process:
one parser per process, and ``cmd_*`` looked up at call time.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import correlation, model, oracle, spectrum
from .errors import KkbecError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_QUADRATURE = 4
EXIT_ORACLE = 5

DEFAULT_SEED = 20240800


def _write_table(path, columns: dict, fmt: str, take: dict | None = None) -> None:
    """Write columns of one kind of value each (numbers of one type, or floats and None).

    A CSV cell is ``repr`` of a Python scalar of ``np.ravel(column).tolist()``, or
    empty for None; with ``take[name]``, row i shows value ``take[name][i]``.
    """
    take = take or {}
    cells = []
    for name, column in columns.items():
        values = np.ravel(column).tolist()
        if fmt == "csv":
            values = ["" if value is None else repr(value) for value in values]
        cells.append(np.array(values, dtype=object)[take[name]].tolist() if name in take else values)
    rows = zip(*cells)
    if fmt == "csv":
        text = "\n".join([",".join(columns), *map(",".join, rows)]) + "\n"
    else:
        records = [dict(zip(columns, row)) for row in rows]
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
    with open(args.config, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    return model.params_from_document(doc)


def _log_grid(low: float, high: float, points: int) -> np.ndarray:
    """``points`` log-spaced values from ``low`` to ``high``, both bounds exact."""
    if not (math.isfinite(low) and math.isfinite(high) and 0 < low <= high):
        raise ValueError(f"grid bounds must be finite and 0 < min <= max, got [{low}, {high}]")
    if points < 1 or (points == 1 and low != high):
        raise ValueError("grid needs at least one point (and min == max for a single point)")
    grid = np.logspace(math.log10(low), math.log10(high), points)
    grid[0], grid[-1] = low, high  # 10**log10(x) need not be x
    return grid


def _report(params: model.ModelParams, regime: str) -> model.ValidationReport:
    report = model.validate(params, regime)
    for violation in report.violations:
        print(f"{violation.severity}: {violation.constraint}: {violation.message}",
              file=sys.stderr)
    return report


def _require_valid(params: model.ModelParams) -> None:
    if not _report(params, model.UNRESTRICTED).ok:
        raise ValueError("parameters violate the model constraints")


def _maybe_svg(args, x: np.ndarray, curves: dict[str, np.ndarray], log_log=True):
    """With --svg, plot each of ``curves`` against ``x``; build nothing without it."""
    if args.svg:
        xs = x.tolist()
        _svg_polylines(str(args.out) + ".svg",
                       {name: list(zip(xs, y.tolist())) for name, y in curves.items()}, log_log)


def cmd_tower(args) -> int:
    params, _ = _load_inputs(args)
    _require_valid(params)
    tower = spectrum.kk_tower(params)
    _write_table(args.out, tower, args.format)
    _maybe_svg(args, tower["j"], {"exact": tower["Erj_sq_exact"],
                                  "continuum": tower["Erj_sq_continuum"]}, log_log=False)
    return EXIT_OK


def cmd_dispersion(args) -> int:
    params, mono = _load_inputs(args)
    _require_valid(params)
    etas = _log_grid(args.eta_min, args.eta_max, args.eta_points)
    scales = model.derive_scales(params, mono_metric=mono)
    n_sp, points = params.species_count, etas.size
    # one row of the grid per level |n|: modes j and N - j share it bit for bit
    levels = np.arange(n_sp // 2 + 1)[:, np.newaxis]
    # as in Python float arithmetic: overflow gives inf, a division by zero raises
    with np.errstate(over="ignore", invalid="ignore", divide="raise"):
        momenta = etas / scales.healing_length
        cs_sq = spectrum.sound_speed_sq(params, levels)
        has_cone = (cs_sq > 0) & (momenta > 0)
        energies = spectrum.dispersion(params, levels, momenta)
        over_csp = np.divide(energies, np.sqrt(cs_sq) * momenta,
                             out=np.zeros_like(energies), where=has_cone)
    js = np.arange(n_sp)
    level_of_j = np.abs(model.kk_label(js, n_sp))
    eta_rows = np.tile(np.arange(points), n_sp)
    level_rows = np.repeat(level_of_j * points, points) + eta_rows
    _write_table(args.out, {"j": js, "eta": etas, "p": momenta, "E": energies,
                            "E_over_csp": np.where(has_cone, over_csp, None)}, args.format,
                 take={"j": np.repeat(js, points), "eta": eta_rows, "p": eta_rows,
                       "E": level_rows, "E_over_csp": level_rows})
    _maybe_svg(args, etas, {f"j={j}": energies[level]
                            for j, level in enumerate(level_of_j.tolist())})
    return EXIT_OK


def cmd_correlation(args) -> int:
    params, mono = _load_inputs(args)
    _require_valid(params)
    if not mono:
        raise ValueError("correlation requires mono_metric parameters")
    svals = _log_grid(args.s_min, args.s_max, args.s_points)
    # a non-positive --quad-tol raises ValueError in the first row (exit 2 through main)
    table = correlation.correlation_table(params, svals, args.delta, args.j_tr, args.quad_tol,
                                          not args.unweighted_truncation)
    _write_table(args.out, table, args.format)
    _maybe_svg(args, table["s"], {name: table["D_" + name]
                                  for name in ("analytic", "numeric", "truncated")})
    # a Python scan: np.isnan(...).any() added about 2% to a one-row request
    return EXIT_QUADRATURE if any(map(math.isnan, table["D_numeric"].tolist())) else EXIT_OK


def cmd_oracle_check(args) -> int:
    if args.cases < 1 or args.p_points < 1:
        raise ValueError("oracle-check needs --cases >= 1 and --p-points >= 1")
    rng = np.random.Generator(np.random.Philox(args.seed))
    cases = oracle.sample_parameter_sets(rng, args.cases)
    momenta = np.logspace(-2, 1, args.p_points)
    max_rel = 0.0
    unstable = 0  # the sampled couplings are stable, so any unstable case fails the check
    for params in cases:
        worst, stable = oracle.compare_with_closed_forms(params, momenta)
        max_rel = max(max_rel, worst)
        if not stable:
            unstable += 1
    # deterministic hand cases: the N=3 gap and an expected tachyonic set
    hand = model.ModelParams(3, 1.0, 1.0, 1.0, 0.1, -0.1)
    e_sq, stable = oracle.oracle_energies(oracle.build_bdg(hand, 0.0))
    hand_ok = stable and np.allclose(np.sort(e_sq), [0.0, 0.63, 0.63], atol=1e-9)
    tachyon = model.ModelParams(9, 1.0, 1.0, 1.0, -0.1, 0.1)
    _, tachyon_stable = oracle.oracle_energies(oracle.build_bdg(tachyon, 0.0))
    expected_unstable = not tachyon_stable
    passed = (max_rel <= 1e-9) and unstable == 0 and hand_ok and expected_unstable
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
        notes = np.where(values >= model.REJECT_RATIO, "reject",
                         np.where(values > model.WARN_RATIO, "warn", "ok"))
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
                f"{entry['constraint_value']:.6g} "
                f"(warn>{model.WARN_RATIO}, reject>={model.REJECT_RATIO})",
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
    source = inputs.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="JSON parameter document")
    source.add_argument("--normalized-omega", type=float, default=None, metavar="RATIO",
                        help="normalized mono-metric mode: m=n=U=1, |Omega|/nU=RATIO")
    inputs.add_argument("--species", type=int, default=9,
                        help="N for --normalized-omega (default 9)")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--svg", action="store_true",
                       help="also write a minimal SVG plot next to --out")

    subs.add_parser("tower", parents=[inputs, out, table],
                    help="mass tower table (exact vs continuum)")

    disp = subs.add_parser("dispersion", parents=[inputs, out, table],
                           help="dispersion curves over an eta grid")
    disp.add_argument("--eta-min", type=float, default=0.01)
    disp.add_argument("--eta-max", type=float, default=10.0)
    disp.add_argument("--eta-points", type=int, default=60)

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

    check = subs.add_parser("oracle-check", parents=[out],
                            help="closed forms vs brute-force BdG")
    check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    check.add_argument("--cases", type=int, default=120)
    check.add_argument("--p-points", type=int, default=20)

    val = subs.add_parser("validate", parents=[inputs, out], help="regime constraint report")
    val.add_argument("--regime", choices=model.REGIMES, default=model.RELATIVISTIC)

    return parser


_parser = functools.cache(build_parser)  # the one parser of the process that main uses


def main(argv=None) -> int:
    """Run one command; the only place that turns an outcome into an exit code."""
    args = _parser().parse_args(argv)
    if getattr(args, "svg", False) and args.out is None:
        print("error: --svg requires --out", file=sys.stderr)
        return EXIT_IO
    try:
        # looked up at call time, so a patched or wrapped cmd_* takes effect
        return globals()["cmd_" + args.command.replace("-", "_")](args)
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
