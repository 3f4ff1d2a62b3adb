"""Named experiment presets: parameter grids bound to state constructors.

A preset is pure data — a state recipe name, one parameter mapping per
run, and an optional thermal-loss sweep — so it reruns identically.
:func:`run_preset` instantiates every state, evaluates the measure
(after each loss point when a sweep is attached) and returns one flat
row per parameter tuple in deterministic order.

The GKP family is parameterized in squeezing decibels with the
convention dB = -20 log10(delta), so larger dB means tighter peaks;
delta = 10^(-dB/20) recovers the peak width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import math

from .channels import ThermalLossSpec, thermal_loss_fock
from .fock import (
    FockVector,
    apply_qubit_state,
    as_density,
    cat,
    gkp_logical,
    random_qudit,
)
from .measure import ngm
from .numerics import PhaseSpaceGrid, _ordered_map

__all__ = [
    "ExperimentPreset",
    "build_state",
    "named_preset",
    "preset_names",
    "preset_qubit_hemisphere",
    "preset_cat_family",
    "preset_gkp_family",
    "preset_random_qudits",
    "run_preset",
]

#: occupancy of the default thermal environment for qudit loss sweeps
QUDIT_LOSS_OCCUPANCY = 1e-3


@dataclass(frozen=True)
class ExperimentPreset:
    """Immutable description of a parameter sweep over one state family.

    ``parameters`` holds one mapping per run, each a complete keyword
    set for the recipe's builder.  A nonempty ``loss_taus`` attaches a
    thermal-loss sweep: every state is pushed through the channel at
    each transmissivity (occupancy ``loss_nbar``) before measuring.
    """

    name: str
    recipe: str
    parameters: tuple = field(default_factory=tuple)
    loss_taus: tuple = field(default_factory=tuple)
    loss_nbar: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "parameters", tuple(dict(p) for p in self.parameters)
        )
        object.__setattr__(
            self, "loss_taus", tuple(float(t) for t in self.loss_taus)
        )


def _build_fock(n):
    amps = np.zeros(int(n) + 1)
    amps[int(n)] = 1.0
    return FockVector(amps).to_density()


def _build_qubit(r, theta, phi, levels):
    return apply_qubit_state(r, theta, phi, logical_levels=tuple(levels))


def _build_cat(alpha, parity, n_c=40):
    return as_density(cat(alpha, parity=parity, n_c=n_c))


def _build_gkp(logical, delta_db, t_max, n_c):
    delta = 10.0 ** (-float(delta_db) / 20.0)
    return as_density(gkp_logical(logical, delta, t_max=t_max, n_c=n_c))


def _build_qudit(d, seed, index=0, levels=None):
    return random_qudit(d, logical_fock_levels=levels, seed=seed)


_BUILDERS = {
    "fock": _build_fock,
    "qubit": _build_qubit,
    "cat": _build_cat,
    "gkp": _build_gkp,
    "qudit": _build_qudit,
}


def build_state(recipe, params):
    """Instantiate one density matrix from a recipe name and its bindings."""
    try:
        builder = _BUILDERS[recipe]
    except KeyError:
        raise ValueError(
            f"unknown recipe {recipe!r}; choose from {sorted(_BUILDERS)}"
        ) from None
    return builder(**params)


def preset_qubit_hemisphere(levels=(0, 1), r_list=(0.5, 0.75, 1.0),
                            theta_count=7):
    """Mixed-qubit slice: r in r_list, theta in [0, pi], phi = 0.

    The states r|0_L><0_L| + (1-r)|1_L><1_L| rotated by U(theta, 0) fill
    a hemispherical slice of the Bloch ball of the logical pair.
    """
    lo, hi = (int(levels[0]), int(levels[1]))
    if lo == hi:
        raise ValueError("logical levels must be distinct")
    params = tuple(
        {"r": float(r), "theta": float(t), "phi": 0.0, "levels": [lo, hi]}
        for r in r_list
        for t in np.linspace(0.0, np.pi, int(theta_count))
    )
    return ExperimentPreset(f"qubit-hemisphere-{lo}{hi}", "qubit", params)


def preset_cat_family(alphas=None, parities=("even", "odd")):
    """Even/odd cat grid over real amplitudes.

    The default amplitude grid starts just above zero because the odd
    combination |alpha> - |-alpha> degenerates at alpha = 0.
    """
    if alphas is None:
        alphas = np.linspace(0.1, 3.0, 30)
    params = tuple(
        {"alpha": float(a), "parity": str(p)}
        for p in parities
        for a in alphas
    )
    return ExperimentPreset("cat-family", "cat", params)


def preset_gkp_family(delta_db_list=(2, 4, 6, 8, 10, 12, 14),
                      logicals=(0, 1), t_max=4, n_c=60):
    """Finite-energy GKP logicals over a squeezing-dB grid."""
    params = tuple(
        {
            "logical": int(L),
            "delta_db": float(db),
            "t_max": int(t_max),
            "n_c": int(n_c),
        }
        for L in logicals
        for db in delta_db_list
    )
    return ExperimentPreset("gkp-family", "gkp", params)


def preset_random_qudits(d_list=(2, 3, 4), count=10, seed=7,
                         loss_taus=None, nbar=QUDIT_LOSS_OCCUPANCY,
                         levels=None):
    """Seeded qudit ensemble with an attached thermal-loss sweep.

    Logical levels default to the consecutive Fock states 0..d-1;
    ``levels`` overrides the embedding.  Each member gets its own
    deterministic sub-seed, so the ensemble is reproducible and
    insensitive to execution order.
    """
    if loss_taus is None:
        loss_taus = np.linspace(1.0, 0.1, 10)
    params = []
    for d in d_list:
        for index in range(int(count)):
            entry = {
                "d": int(d),
                "index": index,
                "seed": int(seed) + 1000 * int(d) + index,
            }
            if levels is not None:
                entry["levels"] = [int(x) for x in levels]
            params.append(entry)
    return ExperimentPreset(
        "random-qudits",
        "qudit",
        tuple(params),
        loss_taus=tuple(loss_taus),
        loss_nbar=float(nbar),
    )


def _preset_vacuum():
    return ExperimentPreset("vacuum", "fock", ({"n": 0},))


def _preset_one_photon():
    return ExperimentPreset("one-photon", "fock", ({"n": 1},))


_PRESETS = {
    "vacuum": _preset_vacuum,
    "one-photon": _preset_one_photon,
    "qubit-hemisphere": preset_qubit_hemisphere,
    "qubit-hemisphere-02": lambda: preset_qubit_hemisphere(levels=(0, 2)),
    "cat-family": preset_cat_family,
    "gkp-family": preset_gkp_family,
    "random-qudits": preset_random_qudits,
}


def preset_names():
    return sorted(_PRESETS)


def named_preset(name):
    """Look up a registered preset by CLI name."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {preset_names()}"
        ) from None
    return factory()


def _flatten(value):
    if isinstance(value, (list, tuple)):
        return "+".join(str(v) for v in value)
    return value


def _recipe_grid(recipe, params, points):
    """Recipe-specific grid override; None keeps the moment-adapted default.

    GKP combs defeat moment-based sizing: the aggregate covariance sees
    mostly the central peaks, so low-weight outer peaks get clipped and
    the field loses mass.  The whole truncated state lives inside the
    classical turning radius of its top Fock level, so a square grid a
    few units past sqrt(2(n_c+1)) always covers it.
    """
    if recipe == "gkp":
        extent = math.sqrt(2.0 * (int(params["n_c"]) + 1)) + 3.0
        return PhaseSpaceGrid(-extent, extent, -extent, extent,
                              points, points)
    return None


def _measure_rows(preset, params, points):
    rho = build_state(preset.recipe, params)
    grid = _recipe_grid(preset.recipe, params, points)
    base = {k: _flatten(v) for k, v in params.items()}
    if not preset.loss_taus:
        value = ngm(rho, grid=grid, points=points)
        return [dict(base, re_mu=value.re_mu, im_mu=value.im_mu)]
    rows = []
    for tau in preset.loss_taus:
        spec = ThermalLossSpec(tau, preset.loss_nbar)
        value = ngm(thermal_loss_fock(rho, spec), grid=grid, points=points)
        rows.append(
            dict(base, tau=tau, nbar=preset.loss_nbar,
                 re_mu=value.re_mu, im_mu=value.im_mu)
        )
    return rows


def run_preset(preset, points=513):
    """Evaluate the measure over the whole grid; one row per run.

    Rows are ordered as the parameter tuples are (loss sweeps expand in
    decreasing-tau order within each tuple) regardless of how the
    thread pool schedules them.
    """
    chunks = _ordered_map(
        lambda params: _measure_rows(preset, params, points),
        preset.parameters,
    )
    return [row for chunk in chunks for row in chunk]
