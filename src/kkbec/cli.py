"""Command-line surface: figure-ready CSV/JSON tables from parameter documents.

Exit codes: 0 success, 2 validation failure, 3 I/O failure, 4 a ``correlation`` row
whose D_numeric overflows or whose quadrature steps never agree at their one
tolerance (the row reads NaN), 5 oracle mismatch. ``_report`` prints a
document's violations once, a mono-metric request that n*U' = -Omega fails
included: ``validate`` reports them, and ``tower``, ``dispersion`` and
``correlation`` refuse the document (exit 2). Each parameter set, regime and
mono flag is validated once, into a bounded memo (``_checked``, 32 entries);
the violations print on every call. stderr is for humans;
files and stdout carry only machine-readable output. Floats are rendered with
``repr`` (shortest round-trip form), so identical inputs produce byte-identical
outputs. One cell formatter, ``_texts``, renders a column at a time, or a
``correlation`` row of Python scalars as ``correlation._rows`` yields it, with no
column arrays between (they are built only for ``--svg``); one row writer,
``_write_rows``, writes ``tower``'s and ``correlation``'s rows. ``tower``
and ``dispersion`` format each Kaluza-Klein level's cells once for both of its
modes j and N - j (``dispersion`` writes each mode's block as one join of its
level's rows), and ``validate`` its mode constraints a column at a time. JSON
tables and the ``validate`` and ``oracle-check`` reports hold the bytes of
``json.dumps(..., indent=2)``, filled into one template per record instead of
json's pure-Python indenting encoder. An SVG plot runs in ascending x and leaves
out points that are not finite. s and eta grids include their bounds exactly.
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
_NOTES = [(note, _json_string(note)) for note in ("ok", "warn", "reject")]  # on a mode's constraint


def _texts(values, spell: dict) -> list[str]:
    """``repr`` of each value of a 1-D float or int array, or of a sequence of Python floats
    and ints, spelled as ``spell`` says."""
    texts = list(map(repr, values.tolist() if isinstance(values, np.ndarray) else values))
    return [spell.get(text, text) for text in texts] if spell else texts


def _write_rows(path, keys, rows, fmt: str) -> None:
    """Write rows of cell texts under ``keys``: as CSV, or as ``json.dumps(records, indent=2)``
    writes them when the texts are JSON."""
    _write_text(path, "\n".join([",".join(keys), *map(",".join, rows)]) + "\n"
                if fmt == "csv" else _json_records(keys, rows) + "\n")


def _json_record(keys, depth: int = 0) -> str:
    """The template of one record of ``json.dumps(records, indent=2)`` in a list ``depth``
    levels deep: ``%s`` for each JSON text, in the order of ``keys`` (at least one key)."""
    pad = "  " * depth
    # a key's '%' is doubled so that only the values fill the template
    fields = ",\n".join(f"{pad}    {_json_string(key).replace('%', '%%')}: %s" for key in keys)
    return f"{pad}  {{\n{fields}\n{pad}  }}"


def _json_records(keys, rows, depth: int = 0) -> str:
    """A list of records as ``json.dumps(records, indent=2)`` writes it ``depth`` levels deep,
    without its pure-Python encoder: ``_json_record``'s template filled by each row of texts."""
    records = ",\n".join(map(_json_record(keys, depth).__mod__, rows))
    return f"[\n{records}\n{'  ' * depth}]" if records else "[]"


def _json_value(value) -> str:
    """``json.dumps(value)`` for a str, None, or a bool, int or float."""
    if isinstance(value, str):
        return _json_string(value)
    text = repr(value)
    return _JSON_SPELLING.get(text, text)


def _json_document(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` and a newline, for a non-empty flat object whose
    values are what ``_json_value`` takes, or lists of records given as (keys, rows of
    JSON texts)."""
    fields = [f"  {_json_string(key)}: "
              + (_json_records(*value, 1) if isinstance(value, tuple) else _json_value(value))
              for key, value in doc.items()]
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
    x0, y0 = min(xs), min(ys)
    x_span, y_span = (max(xs) - x0) or 1.0, (max(ys) - y0) or 1.0

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


# a bound on the reports kept, one per parameter set, regime and mono flag, each a few
# violations: 32 entries
@model._memo(maxsize=32)
def _checked(params: model.ModelParams, regime: str, mono: bool) -> model.ValidationReport:
    """The model's violations in ``regime``, and a mono_metricity error where a document asks
    for mono-metric scales that n*U' = -Omega does not give."""
    report = model.validate(params, regime)
    if mono and not model.check_mono_metricity(params):
        message = model.MONO_METRIC_ERROR.format(params.nUprime, params.rabi)
        report = model.ValidationReport(
            (*report.violations, model.Violation("mono_metricity", message, "error")))
    return report


def _report(params: model.ModelParams, regime: str, mono: bool) -> model.ValidationReport:
    """``_checked``'s report, each violation printed once, on every call."""
    report = _checked(params, regime, mono)
    for violation in report.violations:
        print(f"{violation.severity}: {violation.constraint}: {violation.message}",
              file=sys.stderr)
    return report


def _require_valid(params: model.ModelParams, mono: bool) -> None:
    if not _report(params, model.UNRESTRICTED, mono).ok:
        raise ValueError("parameters violate the model constraints")


def _maybe_svg(args, x: np.ndarray, curves: dict[str, np.ndarray], log_log=True):
    """With --svg, plot each of ``curves`` against ``x``, ascending; build nothing without it."""
    if args.svg:
        order = x.argsort(kind="stable")  # tower rows run j = 0, 1, N - 1, 2, N - 2, ...
        xs = x[order].tolist()
        _svg_polylines(str(args.out) + ".svg", {name: list(zip(xs, y[order].tolist()))
                                                for name, y in curves.items()}, log_log)


def _refuse_nan(cells: dict[str, np.ndarray], **keys: np.ndarray) -> None:
    """Raise FloatingPointError at the first NaN cell in printed order, naming its column
    and its row's ``keys``. All values broadcast to one shape, the rows in that order."""
    columns = np.broadcast_arrays(*cells.values(), *keys.values())
    nan_cells = np.isnan(np.stack(columns[:len(cells)], axis=-1))
    if nan_cells.any():
        *row, column = np.argwhere(nan_cells)[0]  # the first row, and its first NaN column
        where = ", ".join(f"{key}={values[tuple(row)]}"
                          for key, values in zip(keys, columns[len(cells):]))
        raise FloatingPointError(f"{list(cells)[column]} is NaN at {where}")


def cmd_tower(args) -> int:
    params, mono = _load_inputs(args)
    _require_valid(params, mono)
    tower = spectrum.kk_tower(params)
    # level l's modes n = l and -l (rows 2l - 1 and 2l) differ only in j, alpha and the signs of
    # n and p5 (p5(-n) = -p5(n) exactly): the rest is formatted once a level, from its first row
    first = np.maximum(np.arange(-1, params.species_count, 2), 0)
    level = {name: column[first] for name, column in tower.items() if name not in ("j", "alpha")}
    spell = _JSON_SPELLING if args.format == "json" else {}
    cells = []
    for name, column in tower.items():
        if name not in level:  # j and alpha: ints and finite floats, which JSON spells as repr
            cells.append(_texts(column, {}))
            continue
        texts = _texts(level[name], spell)
        if spell.get("nan", "nan") in texts:  # valid inputs can overflow to inf * 0 or inf - inf
            _refuse_nan(level, j=tower["j"][first])
        rows = texts[:1] * column.size
        rows[1::2] = texts[1:]
        rows[2::2] = ["-" + text for text in texts[1:]] if name in ("n", "p5") else texts[1:]
        cells.append(rows)
    _write_rows(args.out, tower, zip(*cells), args.format)
    _maybe_svg(args, tower["j"], {"exact": tower["Erj_sq_exact"],
                                  "continuum": tower["Erj_sq_continuum"]}, log_log=False)
    return EXIT_OK


def cmd_dispersion(args) -> int:
    params, mono = _load_inputs(args)
    _require_valid(params, mono)
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
    # the first printed row of level |n| is mode j = n, at each eta in grid order
    _refuse_nan({"p": momenta, "E": energies, "E_over_csp": over_csp}, j=levels, eta=etas)
    # each level's rows are formatted once, as the text after j; the block of mode j joins
    # its level's texts with j after each separator
    keys, csv = ("j", "eta", "p", "E", "E_over_csp"), args.format == "csv"
    head, after_j, after_eta, after_p, after_e, after_o = (
        "%s,%s,%s,%s,%s" if csv else _json_record(keys)).split("%s")
    start, sep, end = (",".join(keys) + "\n", "\n", "\n") if csv else ("[\n", ",\n", "\n]\n")
    eta_texts, p_texts, e_texts, o_texts = (_texts(column.ravel(), {} if csv else _JSON_SPELLING)
                                            for column in (etas, momenta, energies, over_csp))
    for cell in np.flatnonzero(~has_cone).tolist():  # no sound cone: no ratio
        o_texts[cell] = "" if csv else "null"
    leads = [f"{after_j}{eta}{after_eta}{p}{after_p}" for eta, p in zip(eta_texts, p_texts)]
    tails = [f"{lead}{e}{after_e}{o}{after_o}"
             for lead, e, o in zip(leads * len(levels), e_texts, o_texts)]
    level_of_j = np.abs(model.kk_label(np.arange(n_sp), n_sp)).tolist()
    blocks = [f"{head}{j}" + f"{sep}{head}{j}".join(tails[level * points:(level + 1) * points])
              for j, level in enumerate(level_of_j)]
    _write_text(args.out, start + sep.join(blocks) + end)
    if args.svg:
        _maybe_svg(args, etas, {f"j={j}": energies[level] for j, level in enumerate(level_of_j)})
    return EXIT_OK


def cmd_correlation(args) -> int:
    params, mono = _load_inputs(args)
    _require_valid(params, mono)
    if not mono:
        raise ValueError("correlation requires mono_metric parameters")
    svals = _log_grid(args.s_min, args.s_max, args.s_points)
    rows = list(correlation._rows(params, svals, args.delta, args.j_tr,
                                  not args.unweighted_truncation))
    spell = _JSON_SPELLING if args.format == "json" else {}
    _write_rows(args.out, correlation._COLUMNS, [tuple(_texts(row, spell)) for row in rows],
                args.format)
    if args.svg:
        s, _, analytic, numeric, _, truncated = np.array(rows, dtype=float).T
        _maybe_svg(args, s, {"analytic": analytic, "numeric": numeric, "truncated": truncated})
    return EXIT_QUADRATURE if any(math.isnan(row[3]) for row in rows) else EXIT_OK


def cmd_oracle_check(args) -> int:
    if args.cases < 1 or args.p_points < 1:
        raise ValueError("oracle-check needs --cases >= 1 and --p-points >= 1")
    rng = np.random.Generator(np.random.Philox(args.seed))
    cases = oracle.sample_parameter_sets(rng, args.cases)
    momenta = np.logspace(-2, 1, args.p_points)
    worst, stable = zip(*(oracle.compare_with_closed_forms(params, momenta) for params in cases))
    max_rel = max(worst) if all(map(math.isfinite, worst)) else math.nan
    unstable = stable.count(False)  # the sampled couplings are stable: any unstable case fails
    # deterministic hand cases: the N=3 gap and an expected tachyonic set
    hand = model.ModelParams(3, 1.0, 1.0, 1.0, 0.1, -0.1)
    e_sq, stable = oracle.oracle_energies(oracle.build_bdg(hand, 0.0))
    hand_ok = stable and np.allclose(np.sort(e_sq), [0.0, 0.63, 0.63], atol=1e-9)
    tachyon = model.ModelParams(9, 1.0, 1.0, 1.0, -0.1, 0.1)
    _, tachyon_stable = oracle.oracle_energies(oracle.build_bdg(tachyon, 0.0))
    expected_unstable = not tachyon_stable
    passed = (max_rel <= 1e-9) and unstable == 0 and hand_ok and expected_unstable
    report = {"cases": len(cases), "p_points": int(args.p_points), "seed": int(args.seed),
              "max_rel_err": max_rel, "unstable_cases": unstable, "hand_case_n3_ok": bool(hand_ok),
              "tachyon_case_flagged": bool(expected_unstable), "pass": bool(passed)}
    _write_text(args.out, _json_document(report))
    return EXIT_OK if passed else EXIT_ORACLE


def cmd_validate(args) -> int:
    params, mono = _load_inputs(args)
    report = _report(params, args.regime, mono)
    values = (spectrum.validity_constraint(params, np.arange((params.species_count + 1) // 2))
              if report.ok else np.empty(0))
    notes = ((values > model.WARN_RATIO) * 1 + (values >= model.REJECT_RATIO)).tolist()  # in _NOTES
    records = zip(map(repr, range(len(notes))), _texts(values, _JSON_SPELLING),
                  [_NOTES[note][1] for note in notes])
    payload = {"regime": args.regime, "mono_metric": bool(mono),
               "mono_metricity_holds": model.check_mono_metricity(params),
               "violations": (("constraint", "message", "severity"), [
                   tuple(map(_json_string, (v.constraint, v.message, v.severity)))
                   for v in report.violations]),
               "mode_constraints": (("j", "constraint_value", "note"), records),
               "ok": report.ok and 2 not in notes}
    for j, (value, note) in enumerate(zip(values.tolist(), notes)):
        if note:
            print(f"{_NOTES[note][0]}: validity constraint at j={j} is {value:.6g} "
                  f"(warn>{model.WARN_RATIO}, reject>={model.REJECT_RATIO})", file=sys.stderr)
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
    """Run one command; return the code it reports (0, or 4, 5 or 2 for a failed
    ``correlation`` row, ``oracle-check`` or ``validate``) or that of its error.

    ``_read`` reads argv that names a command in one pass over its options. What
    it declines (help, no or an unknown command, abbreviations, '--opt=value',
    repeats, values that start with '-', unknown tokens, group errors) goes to the
    top-level argparse parser, which writes every help text and usage error.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv) or _parser().parse_args(argv)  # a Namespace is never false
    try:
        if getattr(args, "svg", False) and args.out is None:
            raise OSError("--svg requires --out")
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
