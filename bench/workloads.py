"""Workloads of the kkbec benchmark: seeded requests, their execution, checks.

A request is one CLI command run in-process through ``kkbec.cli.main``, or
one library call where the CLI cannot reach (``compare``). The request
stream of a workload is a sequence of blocks; every block is a stratified
sample of the workload's input range, shuffled, so that any whole number of
blocks has the same cost mix whatever the seed. References are built once
per checkout by :mod:`refgen` into ``.bench_cache`` and checked against
every output; this module imports neither scipy nor :mod:`refgen` unless it
has to build them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CORRELATION = {
    "corr-near": {"n_sp": 9, "ratio": 1e-3, "s_lo": 1.2, "s_hi": 4.0},
    "corr-wideN": {"n_sp": 51, "ratio": 1e-3, "s_lo": 4.0, "s_hi": 400.0},
}
ORACLE = "oracle-cli"
WORKLOADS = (*CORRELATION, ORACLE)

# Correlator rows are drawn from a pool of POOL_SIZE separations, log-uniform
# and stratified over [s_lo, s_hi] with a fixed pool seed, because a QUADPACK
# reference row at N = 51 costs about 80 ms. A block takes one pool entry
# from each of STRATA equal strata. Row cost falls steeply with s, so the
# median and the p90 of a run of whole blocks lie in the middle of one
# stratum's cost range with 15 strata; with 16 both fell on the step
# between two strata and moved with where a run stopped.
POOL_SIZE = 240
STRATA = 15
POOL_SEED = 20240801
J_TR = 2  # the CLI's default truncation

# oracle-cli: |Omega|/nU values, odd N in 3..101 in five strata of ten, and
# the per-block request mix (30 requests). The 2-4 ms tower and validate
# requests are two thirds of a block, so the median latency lies inside
# their cost range; at one half it fell on the jump from their cost to
# that of the dearer requests and moved with where a run stopped.
ORACLE_RATIOS = (1e-3, 1e-2, 0.1)
ORACLE_SPECIES = tuple(range(3, 102, 2))
SPECIES_STRATA = 5
ORACLE_BLOCK = (("tower", 10), ("validate", 10), ("dispersion", 5),
                ("oracle-check", 3), ("compare", 2))
COMPARE_SPECIES = (51, 101)
CHECK_CASES = 8
# the CLI's default eta grid and the oracle-check momentum grid
DISPERSION_ETAS = np.logspace(-2, 1, 60)
COMPARE_MOMENTA = np.logspace(-2, 1, 20)

# Per-request deadline. A correlator row in range costs at most about 0.5 s;
# rows at s <= 0.5 cost 1-160 s and must fail, not stall the run.
DEADLINE_S = {"corr-near": 5.0, "corr-wideN": 5.0, ORACLE: 2.0}

# Requests in the fixed list of a traced run: whole blocks, a few seconds.
TRACE_REQUESTS = {"corr-near": 2 * STRATA, "corr-wideN": 2 * STRATA,
                  ORACLE: 6 * sum(count for _, count in ORACLE_BLOCK)}

# Tolerances of the checks, relative unless named otherwise.
TOL_CLOSED_FORM = 1e-12
TOL_K1 = 1e-9
TOL_QUAD = 1e-9  # relative to sum_j |w_j I_j|, since the mode sum cancels
TOL_EIG = 1e-9  # relative to the largest E^2 at the same momentum
TOL_ORACLE = 1e-9  # what oracle-check itself requires


@dataclass(frozen=True)
class Request:
    """One command or call; ``argv`` is empty for a library call."""

    kind: str
    argv: tuple[str, ...]
    n_sp: int
    ratio: float
    index: int = -1  # pool entry of a correlator row
    delta: int = 0


@dataclass
class Outcome:
    code: int
    text: str = ""
    value: tuple | None = None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def pool_separations(name: str) -> np.ndarray:
    spec = CORRELATION[name]
    rng = np.random.Generator(np.random.PCG64(POOL_SEED))
    lo, hi = math.log(spec["s_lo"]), math.log(spec["s_hi"])
    frac = (np.arange(POOL_SIZE) + rng.uniform(size=POOL_SIZE)) / POOL_SIZE
    return np.exp(lo + frac * (hi - lo))


def _correlation_request(name: str, s: float, index: int, delta: int) -> Request:
    spec = CORRELATION[name]
    argv = ("correlation", "--normalized-omega", repr(spec["ratio"]),
            "--species", str(spec["n_sp"]), "--s-min", repr(s), "--s-max", repr(s),
            "--s-points", "1", "--delta", str(delta))
    return Request("correlation", argv, spec["n_sp"], spec["ratio"], index, delta)


def _oracle_request(kind: str, ratio: float, n_sp: int) -> Request:
    if kind == "compare":
        return Request(kind, (), n_sp, ratio)
    if kind == "oracle-check":
        # the CLI's default seed, as users run it
        return Request(kind, ("oracle-check", "--cases", str(CHECK_CASES)), 0, 0.0)
    argv = (kind, "--normalized-omega", repr(ratio), "--species", str(n_sp))
    return Request(kind, argv, n_sp, ratio)


def requests(name: str, seed: int):
    """Endless request stream of a workload, a function of the seed only."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if name in CORRELATION:
        return _correlation_stream(name, rng)
    return _oracle_stream(rng)


def _correlation_stream(name: str, rng: np.random.Generator):
    pool = pool_separations(name)
    per = POOL_SIZE // STRATA
    n_sp = CORRELATION[name]["n_sp"]
    while True:
        for stratum in rng.permutation(STRATA):
            index = int(stratum * per + rng.integers(per))
            yield _correlation_request(name, float(pool[index]), index,
                                       int(rng.integers(n_sp)))


def _oracle_stream(rng: np.random.Generator):
    per = len(ORACLE_SPECIES) // SPECIES_STRATA
    while True:
        block = []
        for kind, count in ORACLE_BLOCK:
            strata = rng.permutation(SPECIES_STRATA)
            for k in range(count):
                ratio = ORACLE_RATIOS[int(rng.integers(len(ORACLE_RATIOS)))]
                if kind == "compare":
                    n_sp = COMPARE_SPECIES[k % len(COMPARE_SPECIES)]
                else:
                    stratum = int(strata[k % SPECIES_STRATA])
                    n_sp = ORACLE_SPECIES[stratum * per + int(rng.integers(per))]
                block.append(_oracle_request(kind, ratio, n_sp))
        for i in rng.permutation(len(block)):
            yield block[int(i)]


def warmup_request(name: str) -> Request:
    """A fixed, checked request made once before ready and never counted.

    For oracle-cli it is the N = 101 BdG check, whose eigensolves start the
    BLAS thread pool.
    """
    if name in CORRELATION:
        pool = pool_separations(name)
        return _correlation_request(name, float(pool[-1]), POOL_SIZE - 1, 1)
    return _oracle_request("compare", ORACLE_RATIOS[-1], COMPARE_SPECIES[-1])


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def refs_path(root: Path, name: str) -> Path:
    """Cache file of a workload's references, keyed by the code that makes them."""
    digest = hashlib.sha256()
    for source in ("refgen.py", "workloads.py"):
        digest.update((Path(__file__).parent / source).read_bytes())
    return root / ".bench_cache" / f"refs-{name}-{digest.hexdigest()[:12]}.npz"


def build_refs(name: str) -> dict[str, np.ndarray]:
    import refgen  # scipy is needed only here

    if name in CORRELATION:
        spec = CORRELATION[name]
        rows = [refgen.correlator_row(spec["ratio"], spec["n_sp"], float(s), J_TR)
                for s in pool_separations(name)]
        return {
            "s": np.array([row["s"] for row in rows]),
            "integrals": np.array([row["integrals"] for row in rows]),
            "k1_terms": np.array([row["k1_terms"] for row in rows]),
        }
    out = {}
    for ri, ratio in enumerate(ORACLE_RATIOS):
        for n_sp in ORACLE_SPECIES:
            out[f"gaps_{ri}_{n_sp}"] = refgen.energies_sq(ratio, n_sp, 0.0)
            out[f"disp_{ri}_{n_sp}"] = np.array(
                refgen.dispersion_table(ratio, n_sp, DISPERSION_ETAS))
        for n_sp in COMPARE_SPECIES:
            out[f"cmp_{ri}_{n_sp}"] = np.array(
                [refgen.energies_sq(ratio, n_sp, float(p)) for p in COMPARE_MOMENTA])
    return out


def ensure_refs(root: Path, name: str) -> Path:
    """Build the workload's reference file unless the checkout already has it."""
    path = refs_path(root, name)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp.npz")
        np.savez(tmp, **build_refs(name))
        os.replace(tmp, path)
    return path


def load_refs(path: Path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


# ---------------------------------------------------------------------------
# Execution and checks
# ---------------------------------------------------------------------------

def execute(req: Request, kkbec) -> Outcome:
    """Run one request against the package object ``kkbec``.

    Attributes are looked up at call time, so traced wrappers apply.
    """
    if req.kind == "compare":
        return _compare(req, kkbec)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = kkbec.cli.main(list(req.argv))
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 2
    return Outcome(code, out.getvalue())


def _compare(req: Request, kkbec) -> Outcome:
    """BdG check of the closed forms, with the oracle spectra it solved.

    ``oracle.oracle_energies`` is wrapped for the call so that the spectra
    the check computed can be held against the references: a check that
    skipped momenta or solved the wrong system fails.
    """
    params = kkbec.model.normalized_params(req.ratio, req.n_sp)
    oracle = kkbec.oracle
    energies = oracle.oracle_energies
    spectra = []

    def recorded(system):
        e_sq, stable = energies(system)
        spectra.append((system.momentum, e_sq))
        return e_sq, stable

    oracle.oracle_energies = recorded
    try:
        worst, stable = oracle.compare_with_closed_forms(params, COMPARE_MOMENTA)
    finally:
        oracle.oracle_energies = energies
    return Outcome(0, value=(worst, stable, spectra))


def _close(value: float, ref: float, tol: float, scale: float | None = None) -> bool:
    limit = tol * (abs(ref) if scale is None else scale)
    return math.isfinite(value) and abs(value - ref) <= limit


def _table(text: str, header: list[str]) -> list[list[float]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"unexpected header {rows[:1]}")
    return [[float(cell) if cell else math.nan for cell in row] for row in rows[1:]]


def length_ratio(ratio: float) -> float:
    """Lattice spacing over healing length, a/xi = sqrt((nU - 2 Omega)/|Omega|)."""
    return math.sqrt((1.0 + 2.0 * ratio) / ratio)


def _check_correlation(req: Request, text: str, refs) -> str | None:
    header = ["s", "delta", "D_analytic", "D_numeric", "D_numeric_err", "D_truncated"]
    rows = _table(text, header)
    if len(rows) != 1:
        return f"expected one row, got {len(rows)}"
    s_out, delta, analytic, numeric, err, truncated = rows[0]
    s = float(refs["s"][req.index])
    n_sp = req.n_sp
    fold = min(req.delta, n_sp - req.delta)
    if not _close(s_out, s, TOL_CLOSED_FORM) or delta != req.delta:
        return f"row is for (s={s_out}, delta={delta})"
    ratio = length_ratio(req.ratio)
    ref = ratio / (2.0 * math.sqrt(2.0) * math.pi**2 * (s * s + (ratio * fold) ** 2) ** 1.5)
    if not _close(analytic, ref, TOL_CLOSED_FORM):
        return f"D_analytic {analytic!r} vs {ref!r}"
    integrals = refs["integrals"][req.index]
    modes = np.minimum(np.arange(n_sp), n_sp - np.arange(n_sp))
    terms = np.cos(2.0 * np.pi * np.arange(n_sp) * fold / n_sp) * integrals[modes]
    norm = 2.0 * math.pi**2 * s
    ref = float(np.sum(terms)) / norm
    if not _close(numeric, ref, TOL_QUAD, float(np.sum(np.abs(terms))) / norm):
        return f"D_numeric {numeric!r} vs {ref!r}"
    if not (math.isfinite(err) and err >= 0.0):
        return f"D_numeric_err {err!r}"
    total = 1.0 / s + sum(
        2.0 * math.cos(2.0 * math.pi * j * fold / n_sp) * float(refs["k1_terms"][req.index][j - 1])
        for j in range(1, J_TR + 1))
    ref = total / (n_sp * math.sqrt(2.0) * math.pi**2 * s)
    if not _close(truncated, ref, TOL_K1):
        return f"D_truncated {truncated!r} vs {ref!r}"
    return None


def _check_spectrum(found: np.ndarray, ref: np.ndarray, what: str) -> str | None:
    if found.shape != ref.shape or not np.all(np.isfinite(found)):
        return f"{what}: shape {found.shape} or non-finite values"
    worst = float(np.max(np.abs(np.sort(found) - ref)))
    if worst > TOL_EIG * max(float(np.max(np.abs(ref))), 1e-300):
        return f"{what}: E^2 off by {worst:.3g}"
    return None


def _check_tower(req: Request, text: str, refs) -> str | None:
    header = ["j", "n", "alpha", "Erj_sq_exact", "Erj_sq_continuum", "csj_sq",
              "p5", "constraint_value", "degeneracy"]
    rows = np.array(_table(text, header))
    if rows.shape != (req.n_sp, len(header)):
        return f"tower has shape {rows.shape}"
    ri = ORACLE_RATIOS.index(req.ratio)
    bad = _check_spectrum(rows[:, 3], refs[f"gaps_{ri}_{req.n_sp}"], "tower gaps")
    if bad:
        return bad
    if not np.allclose(rows[:, 5], 1.0 + 2.0 * req.ratio, rtol=TOL_CLOSED_FORM, atol=0.0):
        return "csj_sq differs from the mono-metric nU - 2 Omega"
    return None


def _check_dispersion(req: Request, text: str, refs) -> str | None:
    rows = np.array(_table(text, ["j", "eta", "p", "E", "E_over_csp"]))
    n_eta = len(DISPERSION_ETAS)
    if rows.shape != (req.n_sp * n_eta, 5):
        return f"dispersion has shape {rows.shape}"
    blocks = rows.reshape(req.n_sp, n_eta, 5)
    if not np.allclose(blocks[:, :, 1], DISPERSION_ETAS, rtol=TOL_CLOSED_FORM, atol=0.0):
        return "eta grid differs from the default"
    energies = blocks[:, :, 3]
    cs = math.sqrt(1.0 + 2.0 * req.ratio)
    if not np.allclose(blocks[:, :, 4] * cs * blocks[:, :, 2], energies,
                       rtol=TOL_CLOSED_FORM, atol=0.0):
        return "E_over_csp inconsistent with E / (c_s p)"
    table = refs[f"disp_{ORACLE_RATIOS.index(req.ratio)}_{req.n_sp}"]
    for k in range(n_eta):
        bad = _check_spectrum(energies[:, k] ** 2, table[k], f"eta={DISPERSION_ETAS[k]:.4g}")
        if bad:
            return bad
    return None


def _check_validate(req: Request, text: str) -> str | None:
    doc = json.loads(text)
    if not (doc["ok"] and doc["mono_metricity_holds"] and doc["violations"] == []):
        return f"validate reports {doc['ok']=}, {doc['violations']=}"
    values = [entry["constraint_value"] for entry in doc["mode_constraints"]]
    scale = math.sqrt(req.ratio / (1.0 + 2.0 * req.ratio))
    ref = [2.0 * math.pi * j / req.n_sp * scale for j in range((req.n_sp + 1) // 2)]
    if not np.allclose(values, ref, rtol=TOL_CLOSED_FORM, atol=0.0):
        return "validity constraints differ from 2 pi |n| xi / (N a)"
    return None


def _check_compare(req: Request, value: tuple, refs) -> str | None:
    worst, stable, spectra = value
    if not (stable and 0.0 <= worst <= TOL_ORACLE):
        return f"BdG check at N={req.n_sp}: worst={worst!r}, stable={stable}"
    momenta = [p for p, _ in spectra]
    if momenta != COMPARE_MOMENTA.tolist():
        return f"BdG check at N={req.n_sp} solved momenta {momenta}"
    table = refs[f"cmp_{ORACLE_RATIOS.index(req.ratio)}_{req.n_sp}"]
    for (p, e_sq), ref in zip(spectra, table):
        bad = _check_spectrum(np.asarray(e_sq), ref, f"BdG at N={req.n_sp}, p={p:.4g}")
        if bad:
            return bad
    return None


def _check_oracle(req: Request, text: str) -> str | None:
    doc = json.loads(text)
    if doc["pass"] is not True or doc["cases"] != CHECK_CASES:
        return f"oracle-check reports pass={doc['pass']} over {doc['cases']} cases"
    if not doc["max_rel_err"] <= TOL_ORACLE:
        return f"oracle-check max_rel_err {doc['max_rel_err']}"
    return None


def check(req: Request, outcome: Outcome, refs) -> str | None:
    """None if the output matches the references, else the reason it does not."""
    if outcome.code != 0:
        return f"exit code {outcome.code}"
    try:
        if req.kind == "compare":
            return _check_compare(req, outcome.value, refs)
        if req.kind == "correlation":
            return _check_correlation(req, outcome.text, refs)
        if req.kind == "tower":
            return _check_tower(req, outcome.text, refs)
        if req.kind == "dispersion":
            return _check_dispersion(req, outcome.text, refs)
        if req.kind == "validate":
            return _check_validate(req, outcome.text)
        return _check_oracle(req, outcome.text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
