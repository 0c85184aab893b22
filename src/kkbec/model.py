"""Physical parameters, derived scales and regime validation.

Conventions used throughout the package: natural units with hbar = 1, an odd
number N of internal components coupled on a ring, uniform mean fields
psi_i = sqrt(n), and a signed Rabi coupling Omega (negative in the
relativistic-analog regime). All quantities are plain floats; nothing here
carries units beyond the documented powers of energy/length.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import StabilityError

RELATIVISTIC = "relativistic"
NONRELATIVISTIC = "nonrelativistic"
UNRESTRICTED = "unrestricted"
REGIMES = (RELATIVISTIC, NONRELATIVISTIC, UNRESTRICTED)

# Soft-inequality thresholds for the "<<" constraints (the regime ratios here and
# the CLI's per-mode validity constraint): warn when a ratio that should be
# small exceeds WARN_RATIO, treat as an error when it reaches REJECT_RATIO.
WARN_RATIO = 0.25
REJECT_RATIO = 1.0

# Guards for relative comparisons against exact zeros (normalized units).
EPS_FLOOR = 1e-300
ABS_ZERO_TOL = 1e-14

MONO_METRIC_TOL = 1e-9  # relative tolerance of n*U' = -Omega in check_mono_metricity
MONO_METRIC_ERROR = "mono_metric scales requested but n*U' != -Omega (nU'={:.6g}, Omega={:.6g})"

_DOCUMENT_KEYS = {"N", "m", "n", "U", "Uprime", "Omega", "L", "mono_metric"}


@dataclass(frozen=True, slots=True)
class ModelParams:
    """Microscopic knobs of the N-component ring-coupled condensate.

    Attributes
    ----------
    species_count : number of internal components N (odd, >= 3 for a valid model)
    atom_mass : atomic mass m
    density : uniform mean-field number density n
    self_interaction : intra-component coupling U (energy x volume)
    cross_interaction : nearest-neighbour density coupling U' (energy x volume)
    rabi : signed Rabi coupling Omega (energy)
    system_length : optional box size L, used only for the validity bound
    """

    species_count: int
    atom_mass: float
    density: float
    self_interaction: float
    cross_interaction: float
    rabi: float
    system_length: float | None = None

    @property
    def nU(self) -> float:
        return self.density * self.self_interaction

    @property
    def nUprime(self) -> float:
        return self.density * self.cross_interaction

    @property
    def alphas(self) -> np.ndarray:
        """Internal Fourier angles alpha_j = 2*pi*j/N for j = 0..N-1."""
        return 2.0 * np.pi * np.arange(self.species_count) / self.species_count


_FIELDS = operator.attrgetter(*(field.name for field in dataclasses.fields(ModelParams)))
_FIELD_COUNT = len(dataclasses.fields(ModelParams))


def _memo(maxsize: int):
    """A bounded ``functools.lru_cache`` of a builder of a ModelParams (and more arguments),
    keyed on every field and argument and the type of each, and built from a ModelParams of
    those fields. A set with a zero field is built on every call.

    Equal sets can build different values: an int density 2**600, squared,
    overflows a conversion to float where the equal float gives inf, and a
    message prints -0.0 where the equal 0.0, of the same hash, prints 0.0.
    No builder takes more than two arguments: a key of 20 items (7 fields and 3
    arguments, and their types) would hold 400 kB on CPython 3.11, which keeps
    up to 2,000 freed 20-item tuples on a free list that it never takes from.
    """
    def memoize(build):
        cached = functools.lru_cache(maxsize, typed=True)(
            lambda *key: build(ModelParams(*key[:_FIELD_COUNT]), *key[_FIELD_COUNT:]))

        @functools.wraps(build)
        def memo(params, *args):
            fields = _FIELDS(params)
            return build(params, *args) if 0 in fields else cached(*fields, *args)

        memo.cache_info, memo.cache_clear = cached.cache_info, cached.cache_clear
        return memo

    return memoize


@dataclass(frozen=True, slots=True)
class DerivedScales:
    """Length and energy scales derived from :class:`ModelParams`."""

    sound_speed: float
    healing_length: float
    lattice_spacing: float
    length_ratio: float
    synthetic_radius: float
    cutoff_energy: float
    chemical_potential: float


def kk_label(j: int | np.ndarray, species_count: int) -> int | np.ndarray:
    """Signed KK label n of mode j mod N (an int, or an array for an array j).

    j up to (N-1)/2 keeps its value and j - N is taken above, so modes j and
    N - j fold onto one degenerate level |n| = min(j, N - j).
    """
    j = j % species_count
    return j - species_count * (j > (species_count - 1) // 2)


@dataclass(frozen=True, slots=True)
class Violation:
    constraint: str
    message: str
    severity: str  # "error" | "warning"


@dataclass(frozen=True, slots=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not any(v.severity == "error" for v in self.violations)

    @property
    def empty(self) -> bool:
        return len(self.violations) == 0

    def errors(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == "error"]

    def warnings(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == "warning"]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def validate(params: ModelParams, regime: str = RELATIVISTIC) -> ValidationReport:
    """Check regime constraints; violations are returned as data, never raised."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    out: list[Violation] = []

    def err(name, msg):
        out.append(Violation(name, msg, "error"))

    def warn(name, msg):
        out.append(Violation(name, msg, "warning"))

    N = params.species_count
    if not isinstance(N, int) or N < 3:
        err("species_count_min", f"N must be an integer >= 3, got {N!r}")
    elif N % 2 == 0:
        err("species_count_parity", f"N must be odd, got {N}")

    for name, value in (
        ("atom_mass", params.atom_mass),
        ("density", params.density),
        ("self_interaction", params.self_interaction),
    ):
        if not _finite(value):
            err(f"{name}_finite", f"{name} must be finite, got {value!r}")
        elif value <= 0:
            err(f"{name}_positive", f"{name} must be > 0, got {value}")
    for name, value in (
        ("cross_interaction", params.cross_interaction),
        ("rabi", params.rabi),
    ):
        if not _finite(value):
            err(f"{name}_finite", f"{name} must be finite, got {value!r}")
    if params.rabi == 0:
        err("rabi_nonzero", "Omega must be nonzero: the lattice spacing diverges at Omega = 0")
    if params.system_length is not None and not _finite(params.system_length):
        err("system_length_finite", f"L must be finite or null, got {params.system_length!r}")
    elif params.system_length is not None and params.system_length < 0:
        err("system_length_sign", f"L must not be negative, got {params.system_length}")

    # Regime-specific constraints only make sense on top of finite positives.
    if any(v.severity == "error" for v in out):
        return ValidationReport(tuple(out))

    nU = params.nU
    om = params.rabi
    if regime == RELATIVISTIC:
        if om >= 0:
            err("rabi_sign", f"Omega must be negative in the relativistic analog regime, got {om}")
        else:
            # n*U underflows to 0 for tiny positive n and U
            ratio = abs(om) / nU if nU > 0 else math.inf
            if ratio >= REJECT_RATIO:
                err("rabi_small", f"|Omega| must stay below nU, got |Omega|/nU = {ratio:.6g}")
            elif ratio > WARN_RATIO:
                warn("rabi_small", f"|Omega|/nU = {ratio:.6g} strains |Omega| << nU")
            if params.system_length is not None:
                # L*L overflows to inf where L**2 would raise
                ir_scale = 2.0 * params.atom_mass * (params.system_length * params.system_length)
                ir_bound = 1.0 / ir_scale if ir_scale > 0 else math.inf
                if ir_bound >= abs(om):
                    err(
                        "system_length_bound",
                        f"(2mL^2)^-1 = {ir_bound:.6g} must lie below |Omega| = {abs(om):.6g}",
                    )
    elif regime == NONRELATIVISTIC:
        for label, scale in (("nU", nU), ("nU'", abs(params.nUprime))):
            if scale <= 0:
                continue
            ratio = scale / abs(om)
            if ratio >= REJECT_RATIO:
                err("rabi_large", f"|Omega| must exceed {label}, got {label}/|Omega| = {ratio:.6g}")
            elif ratio > WARN_RATIO:
                warn("rabi_large", f"{label}/|Omega| = {ratio:.6g} strains |Omega| >> {label}")

    return ValidationReport(tuple(out))


def check_mono_metricity(params: ModelParams) -> bool:
    """True iff n*U' = -Omega within the relative tolerance MONO_METRIC_TOL.

    Couplings that are both zero to within ABS_ZERO_TOL satisfy the relation
    trivially; otherwise the comparison is relative with an underflow guard.
    A residual that is not finite, as where n*U' overflows, fails it.
    """
    if max(abs(params.nUprime), abs(params.rabi)) <= ABS_ZERO_TOL:
        return True
    residual = abs(params.nUprime + params.rabi)
    scale = max(abs(params.nUprime), abs(params.rabi), EPS_FLOOR)
    return math.isfinite(residual) and residual <= MONO_METRIC_TOL * scale


def derive_scales(params: ModelParams, mono_metric: bool = False) -> DerivedScales:
    """Compute healing length, lattice spacing, synthetic radius and friends.

    With ``mono_metric`` the sound speed is the common mono-metric value
    sqrt((nU - 2*Omega)/m) and the parameters must satisfy n*U' = -Omega; the
    caller is expected to have checked that (:func:`check_mono_metricity`
    gates it here). Otherwise the reported sound speed is the j = 0 mode value
    sqrt((nU + 2nU')/m).
    """
    m = params.atom_mass
    if params.rabi == 0:
        raise StabilityError("lattice spacing diverges: Omega must be nonzero")
    if mono_metric and not check_mono_metricity(params):
        raise ValueError(MONO_METRIC_ERROR.format(params.nUprime, params.rabi))
    if mono_metric:
        cs_sq = (params.nU - 2.0 * params.rabi) / m
    else:
        cs_sq = (params.nU + 2.0 * params.nUprime) / m
    if cs_sq <= 0:
        raise StabilityError(f"no stable sound cone: c_s^2 = {cs_sq:.6g} <= 0")
    cs = math.sqrt(cs_sq)
    xi = 1.0 / (math.sqrt(2.0) * m * cs)
    a = 1.0 / math.sqrt(2.0 * m * abs(params.rabi))
    return DerivedScales(
        sound_speed=cs,
        healing_length=xi,
        lattice_spacing=a,
        length_ratio=a / xi,
        synthetic_radius=params.species_count * a / (2.0 * math.pi),
        cutoff_energy=m * cs_sq,
        chemical_potential=params.nU + 2.0 * params.nUprime + 2.0 * params.rabi,
    )


def params_from_document(doc: dict) -> tuple[ModelParams, bool]:
    """Parse the JSON parameter document used by the CLI.

    Keys: {"N", "m", "n", "U", "Uprime", "Omega", "L", "mono_metric"}; L and
    mono_metric are optional (null / false). Unknown keys are rejected.
    """
    if not isinstance(doc, dict):
        raise ValueError("parameter document must be a JSON object")
    unknown = set(doc) - _DOCUMENT_KEYS
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    missing = {"N", "m", "n", "U", "Uprime", "Omega"} - set(doc)
    if missing:
        raise ValueError(f"missing parameter keys: {sorted(missing)}")
    if not isinstance(doc["N"], int) or isinstance(doc["N"], bool):
        raise ValueError("N must be an integer")
    length = doc.get("L")
    if length is not None and (isinstance(length, bool) or not isinstance(length, (int, float))):
        raise ValueError("L must be a number or null")
    mono = doc.get("mono_metric", False)
    if not isinstance(mono, bool):
        raise ValueError("mono_metric must be a boolean")
    numbers = {}
    for key in ("m", "n", "U", "Uprime", "Omega"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], (int, float)):
            raise ValueError(f"{key} must be a number")
        numbers[key] = float(doc[key])
    params = ModelParams(
        species_count=doc["N"],
        atom_mass=numbers["m"],
        density=numbers["n"],
        self_interaction=numbers["U"],
        cross_interaction=numbers["Uprime"],
        rabi=numbers["Omega"],
        system_length=None if length is None else float(length),
    )
    return params, mono


def params_to_document(params: ModelParams, mono_metric: bool = False) -> dict:
    """Inverse of :func:`params_from_document`."""
    return {
        "N": params.species_count,
        "m": params.atom_mass,
        "n": params.density,
        "U": params.self_interaction,
        "Uprime": params.cross_interaction,
        "Omega": params.rabi,
        "L": params.system_length,
        "mono_metric": mono_metric,
    }


def normalized_params(omega_ratio: float, species_count: int = 9) -> ModelParams:
    """Figure-style normalized mono-metric set: m = n = U = 1, Omega = -|ratio|, U' = -Omega.

    ``omega_ratio`` is the dimensionless |Omega|/nU used throughout the
    figures.
    """
    om = -abs(omega_ratio)
    return ModelParams(
        species_count=species_count,
        atom_mass=1.0,
        density=1.0,
        self_interaction=1.0,
        cross_interaction=-om,
        rabi=om,
    )
