"""Command-line surface: figure-ready CSV/JSON tables from parameter documents.

Exit codes: 0 success, 2 validation failure, 3 I/O failure, 4 quadrature
failure in at least one output row, 5 oracle mismatch. stderr is for humans;
files and stdout carry only machine-readable output. Floats are rendered with
``repr`` (shortest round-trip form), so identical inputs produce byte-identical
outputs; ``tower`` and ``dispersion`` format each level's values once, for both
modes j and N - j that share them. JSON tables and the ``validate`` and
``oracle-check`` reports hold the bytes of ``json.dumps(..., indent=2)``, filled
into one template per record instead of going through json's pure-Python
indenting encoder. An SVG plot leaves out points that are not finite. s and eta
grids include their bounds exactly.
``main(argv)`` is reentrant and cheap to call in-process, and looks ``cmd_*``
up at call time. Each command's options are declared once, in ``_COMMANDS``,
which builds the argparse parser and the one-pass reader alike. argv is parsed
once: the reader takes argv that names a command and gives each option's exact
string at most once, with a plain value; whatever it declines goes to the
top-level argparse parser, built once per process when first needed. argparse
thus still accepts abbreviations and '--opt=value', and writes every help text
and usage error. Running out of memory, say on a grid of 1e12 points, is a
validation failure (exit 2).
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


# json's spelling of the reprs that are not JSON; every other repr of an int or float is
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "None": "null",
                  "True": "true", "False": "false"}
_json_string = json.encoder.encode_basestring_ascii  # json.dumps of a str, in C


def _write_table(path, columns: dict, fmt: str, take: dict | None = None) -> None:
    """Write columns of one kind of value each (numbers of one type, or floats and None).

    A cell is ``repr`` of a Python scalar: an array's ``tolist()`` item, or a
    list's item as it is, a NumPy scalar unwrapped by ``item()``. It is empty
    for None in CSV, and in JSON spelled as ``json.dumps(records, indent=2)``
    does. With ``take[name]``, row i shows value ``take[name][i]``, formatted
    once however many rows show it.
    """
    take = take or {}
    cells = []
    for name, column in columns.items():
        # np.ravel would turn a list of ints past int64 into floats
        values = map(repr, column.ravel().tolist() if isinstance(column, np.ndarray) else
                     [value.item() if isinstance(value, np.generic) else value for value in column])
        if fmt == "csv":
            values = ["" if value == "None" else value for value in values]
        else:
            values = [_JSON_SPELLING.get(value, value) for value in values]
        cells.append(np.array(values, dtype=object)[take[name]].tolist() if name in take else values)
    rows = zip(*cells)
    if fmt == "csv":
        text = "\n".join([",".join(columns), *map(",".join, rows)]) + "\n"
    else:
        text = _json_records(columns, rows) + "\n"
    _write_text(path, text)


def _json_records(keys, rows, depth: int = 0) -> str:
    """A list of records as ``json.dumps(records, indent=2)`` writes it ``depth`` levels
    deep, without its pure-Python encoder: one template, filled by each row of JSON
    texts, the record's values in the order of ``keys`` (at least one key)."""
    pad = "  " * depth
    # a key's '%' is doubled so that only the values fill the template
    fields = ",\n".join(f"{pad}    {_json_string(key).replace('%', '%%')}: %s" for key in keys)
    record = f"{pad}  {{\n{fields}\n{pad}  }}"
    records = ",\n".join([record % row for row in rows])
    return f"[\n{records}\n{pad}]" if records else "[]"


def _json_value(value) -> str:
    """``json.dumps(value)`` for a str, None, or a bool, int or float; a NumPy scalar
    reads as the Python scalar that ``item()`` gives."""
    if isinstance(value, str):
        return _json_string(value)
    text = repr(value.item() if isinstance(value, np.generic) else value)
    return _JSON_SPELLING.get(text, text)


def _json_document(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` and a newline, for a non-empty flat object whose
    values are what ``_json_value`` takes, or lists of records of those: dicts with
    the same keys in the same order."""
    fields = []
    for key, value in doc.items():
        if isinstance(value, list):
            text = _json_records(value[0] if value else (),
                                 [tuple(map(_json_value, record.values())) for record in value], 1)
        else:
            text = _json_value(value)
        fields.append(f"  {_json_string(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _svg_polylines(path, curves: dict[str, list[tuple[float, float]]], log_log: bool) -> None:
    """Minimal inspection plot: one polyline per curve, 640x480 viewport, blank with no points.

    A point is left out where a coordinate is not finite, or not positive on log axes.
    """
    width, height, pad = 640.0, 480.0, 40.0

    def transform(pts):
        if log_log:
            pts = [(math.log10(x), math.log10(y)) for x, y in pts if x > 0 and y > 0]
        return [(x, y) for x, y in pts if math.isfinite(x) and math.isfinite(y)]

    track = [transform(pts) for pts in curves.values()]
    xs, ys = zip(*([pt for pts in track for pt in pts] or [(0.0, 0.0)]))
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
        return model.normalized_params(args.normalized_omega,
                                       9 if args.species is None else args.species), True
    if args.species is not None:
        raise ValueError("--species goes with --normalized-omega; --config sets N")
    with open(args.config, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    return model.params_from_document(doc)


def _log_grid(low: float, high: float, points: int) -> np.ndarray:
    """``points`` log-spaced values from ``low`` to ``high``, both bounds exact."""
    if not (math.isfinite(low) and math.isfinite(high) and 0 < low <= high):
        raise ValueError(f"grid bounds must be finite and 0 < min <= max, got [{low}, {high}]")
    if points < 1 or (points == 1 and low != high):
        raise ValueError("grid needs at least one point (and min == max for a single point)")
    grid = np.empty(points)
    if points > 2:  # one point or two are the bounds alone
        grid[1:-1] = np.logspace(math.log10(low), math.log10(high), points)[1:-1]
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
    # rows 2l - 1 and 2l hold level l's modes j and N - j, which share these columns bit
    # for bit: each level's row 2l is formatted once, and row i shows level (i + 1) // 2
    shared = ("Erj_sq_exact", "Erj_sq_continuum", "csj_sq", "constraint_value")
    # valid inputs can overflow these to inf * 0 or inf - inf (the other columns stay
    # finite, or kk_tower raises): a NaN cell exits 2, as dispersion does on such inputs
    nan_cells = np.isnan(np.stack([tower[name] for name in shared]))
    if nan_cells.any():
        row, column = np.argwhere(nan_cells.T)[0]  # the first row, and its first NaN column
        raise FloatingPointError(f"{shared[column]} is NaN at j={tower['j'][row]}")
    level_rows = np.arange(1, params.species_count + 1) // 2
    _write_table(args.out, {**tower, **{name: tower[name][::2] for name in shared}},
                 args.format, take=dict.fromkeys(shared, level_rows))
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
        # a NaN stays: max(nan, x) is nan, but max(x, nan) would drop it
        max_rel = max(max_rel, worst) if math.isfinite(worst) else math.nan
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
    _write_text(args.out, _json_document(report))
    return EXIT_OK if passed else EXIT_ORACLE


def cmd_validate(args) -> int:
    params, mono = _load_inputs(args)
    report = _report(params, args.regime)
    constraints = []
    if report.ok:
        values = spectrum.validity_constraint(params, np.arange((params.species_count + 1) // 2))
        constraints = [{"j": j, "constraint_value": value,
                        "note": ("reject" if value >= model.REJECT_RATIO else
                                 "warn" if value > model.WARN_RATIO else "ok")}
                       for j, value in enumerate(values.tolist())]
    payload = {
        "regime": args.regime,
        "mono_metric": bool(mono),
        "mono_metricity_holds": model.check_mono_metricity(params),
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
    _write_text(args.out, _json_document(payload))
    return EXIT_OK if payload["ok"] else EXIT_VALIDATION


# Each command's help line and options, in the order of its help. An option maps to its
# add_argument keywords: its type, default, and choices or help; a flag has no type.
# A command that takes --config takes exactly one of the two _SOURCE options.
_OUT = {"--out": dict(type=str, help="output path (default stdout)")}
_SOURCE = {"--config": dict(type=str, help="JSON parameter document"),
           "--normalized-omega": dict(
               type=float, metavar="RATIO",
               help="normalized mono-metric mode: m=n=U=1, |Omega|/nU=RATIO")}
_INPUT = {**_SOURCE, "--species": dict(type=int, help="N for --normalized-omega (default 9)"),
          **_OUT}
_TABLE = {**_INPUT, "--format": dict(type=str, choices=("csv", "json"), default="csv"),
          "--svg": dict(action="store_true", help="also write a minimal SVG plot next to --out")}
_COMMANDS = {
    "tower": ("mass tower table (exact vs continuum)", _TABLE),
    "dispersion": ("dispersion curves over an eta grid", {
        **_TABLE, "--eta-min": dict(type=float, default=0.01),
        "--eta-max": dict(type=float, default=10.0), "--eta-points": dict(type=int, default=60)}),
    "correlation": ("analytic/numeric/truncated correlators", {
        **_TABLE, "--s-min": dict(type=float, default=2.0),
        "--s-max": dict(type=float, default=40.0), "--s-points": dict(type=int, default=25),
        "--delta": dict(type=int, default=1),
        "--j-tr": dict(type=int),  # None: correlation_table's default
        "--quad-tol": dict(type=float, default=1e-10),
        "--unweighted-truncation": dict(action="store_true",
                                        help="reproduce the unweighted printed truncated form")}),
    "oracle-check": ("closed forms vs brute-force BdG", {
        **_OUT, "--seed": dict(type=int, default=DEFAULT_SEED),
        "--cases": dict(type=int, default=120), "--p-points": dict(type=int, default=20)}),
    "validate": ("regime constraint report", {
        **_INPUT, "--regime": dict(type=str, choices=model.REGIMES, default=model.RELATIVISTIC)}),
}


class _Store(argparse.Action):
    """argparse's store, with '--opt=--' a usage error on every Python.

    Python 3.10 and 3.11 drop the '--' and store an empty list, unconverted;
    later ones convert '--' itself. Either way the option was given no value.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        if values == [] or values == "--":
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kkbec",
        description="Kaluza-Klein tower, dispersion and correlators of a "
                    "ring-coupled multicomponent condensate",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in _COMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        source = sub.add_mutually_exclusive_group(required=True) if "--config" in options else sub
        for option, keywords in options.items():
            group = source if option in _SOURCE else sub
            group.add_argument(option, **{"action": _Store, **keywords})  # a flag keeps store_true
    return parser


def _reader(options: dict) -> tuple[dict, dict]:
    """A command's options as ``_read`` takes them, option -> (dest, type or None for a
    flag, choices), and the defaults that argparse puts in a fresh namespace."""
    dests = {option: option[2:].replace("-", "_") for option in options}
    return ({option: (dests[option], keywords.get("type"), keywords.get("choices"))
             for option, keywords in options.items()},
            {dests[option]: keywords.get("default", None if "type" in keywords else False)
             for option, keywords in options.items()})


_READERS = {name: _reader(options) for name, (_, options) in _COMMANDS.items()}


def _read(argv: list[str]) -> argparse.Namespace | None:
    """argv's namespace in one pass over the options of the command that argv[0] names,
    or None to leave argv to argparse.

    It takes each token as an exact option string, used at most once, followed by
    its value when it takes one: a token that does not start with '-', converts
    with the option's type and lies in its choices. Exactly one _SOURCE option must
    be given where the command takes them. Whatever it takes, argparse parses to
    the same namespace.
    """
    reader = _READERS.get(argv[0]) if argv else None
    if reader is None:
        return None
    options, defaults = reader
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        option = options.get(token)
        if option is None or option[0] in given:
            return None
        dest, kind, choices = option
        if kind is None:
            given[dest] = True
            continue
        text = next(tokens, "-")  # a missing value reads as '-', which argparse must judge
        if text[:1] == "-":
            return None
        try:
            value = kind(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        given[dest] = value
    if "config" in defaults and ("config" in given) == ("normalized_omega" in given):
        return None
    args = argparse.Namespace(command=argv[0])
    args.__dict__.update(defaults, **given)
    return args


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one top-level parser of the process, built when argv first needs it."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; the only place that turns an outcome into an exit code.

    ``_read`` reads argv that names a command in one pass over its options. What
    it declines (help, no or an unknown command, abbreviations, '--opt=value',
    repeats, values that start with '-', unknown tokens, group errors) goes to the
    top-level argparse parser, which writes every help text and usage error.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv) or _parser().parse_args(argv)  # a Namespace is never false
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
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
