"""Quasiparticle physics of ring-coupled condensates with a synthetic compact dimension."""

from .errors import (
    DegenerateModeError,
    DomainError,
    KkbecError,
    OracleError,
    QuadratureError,
    StabilityError,
    ValidityError,
)
from .model import (
    DerivedScales,
    ModelParams,
    ValidationReport,
    Violation,
    check_mono_metricity,
    derive_scales,
    kk_label,
    normalized_params,
    params_from_document,
    params_to_document,
    validate,
)
from .spectrum import (
    BogoliubovAmplitudes,
    bogoliubov_amplitudes,
    continuum_mass_sq,
    dispersion,
    energy_sq,
    kk_tower,
    nonrel_dispersion,
    p5,
    rest_energy_sq,
    rest_energy_sq_mono,
    sound_speed_sq,
    validity_constraint,
)
from .oracle import (
    BdGSystem,
    build_bdg,
    compare_with_closed_forms,
    oracle_amplitudes,
    oracle_energies,
    sample_parameter_sets,
)
from .correlation import (
    CorrelationQuery,
    analytic_corr,
    bessel_k1,
    correlation_table,
    numeric_corr,
    truncated_corr,
)

__version__ = "0.1.0"
