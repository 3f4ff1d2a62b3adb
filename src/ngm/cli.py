"""Command-line front end: measure, sweep, fisher, and channel commands.

Every number the CLI prints or writes comes from the same library call a
script would make with the same arguments, so CLI output and library
output agree exactly.  Documents carry no timestamps and use stable key
and row ordering, which makes reruns with an identical configuration
byte-identical.  Runtime warnings raised during a computation (Kraus
order escalation, negative real part beyond quadrature noise, band
extrapolation gaps) are recorded in the output document rather than
silenced.

Exit codes: 0 success (warnings allowed), 2 configuration error,
3 numerical precondition failure, 4 cross-engine inconsistency.
"""

import argparse
import csv
import json
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .catalog import build_state, named_preset, preset_names, run_preset
from .channels import (
    ThermalLossSpec,
    thermal_loss_fock,
    thermal_loss_phase_space,
)
from .errors import NumericalError
from .fisher import (
    _smoothing_reports,
    cramer_rao_check,
    fisher_from_field,
    fock_fisher_sweep,
    write_fisher_csv,
)
from .fock import as_density, cat, load_state
from .measure import _physical_quadrature, measure_from_field, ngm
from .wigner import default_grid, wigner_from_fock, wigner_gradient

__all__ = [
    "ENGINE_AGREEMENT_TOL",
    "EXIT_CONFIG",
    "EXIT_ENGINE",
    "EXIT_NUMERICAL",
    "EXIT_OK",
    "ConfigError",
    "RunConfig",
    "build_parser",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ENGINE = 4

# Largest per-component gap tolerated between the Fock-basis and the
# phase-space channel engines before the run is flagged inconsistent.
ENGINE_AGREEMENT_TOL = 2e-3

MIN_GRID_POINTS = 65


class ConfigError(ValueError):
    """Invalid command-line configuration; nothing has been computed."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; computation starts only after this."""

    command: str
    points: int = 513
    sigmas: float = 5.5
    cutoff: int = 40
    seed: int = 0
    out: str = None
    preset: str = None
    fock_file: str = None
    cat_alpha: float = None
    parity: str = "even"
    tau: float = None
    nbar: float = 0.0
    engine: str = "fock"
    fock_sweep: int = None
    debruijn: bool = False
    derivative: bool = False

    @classmethod
    def from_args(cls, ns):
        kwargs = {
            "command": ns.command,
            "points": ns.grid_points,
            "sigmas": ns.extent_sigmas,
            "cutoff": ns.cutoff,
            "seed": ns.seed,
            "out": ns.out,
        }
        for attr in ("preset", "fock_file", "parity", "tau", "nbar",
                     "engine", "fock_sweep", "debruijn", "derivative"):
            if hasattr(ns, attr):
                kwargs[attr] = getattr(ns, attr)
        if hasattr(ns, "cat"):
            kwargs["cat_alpha"] = ns.cat
        config = cls(**kwargs)
        config.validate()
        return config

    def validate(self):
        if self.points < MIN_GRID_POINTS:
            raise ConfigError(
                f"--grid-points must be at least {MIN_GRID_POINTS}, "
                f"got {self.points}"
            )
        if not self.sigmas > 0.0:
            raise ConfigError("--extent-sigmas must be positive")
        if self.cutoff < 1:
            raise ConfigError("--cutoff must be at least 1")
        if self.tau is not None and not 0.0 < self.tau <= 1.0:
            raise ConfigError("--tau must lie in (0, 1]")
        if self.nbar < 0.0:
            raise ConfigError("--nbar must be non-negative")
        if self.fock_sweep is not None and self.fock_sweep < 0:
            raise ConfigError("--fock-sweep must be non-negative")
        sources = sum(
            x is not None
            for x in (self.preset, self.fock_file, self.cat_alpha)
        )
        if self.command == "fisher" and self.fock_sweep is not None:
            if sources:
                raise ConfigError(
                    "--fock-sweep does not combine with a state source"
                )
        elif self.command in ("measure", "fisher", "channel"):
            if sources != 1:
                raise ConfigError(
                    "choose exactly one state source: "
                    "--preset, --fock-file, or --cat"
                )
        return self


def _resolve_state(config):
    """Build the requested state; returns (label, density matrix)."""
    try:
        if config.preset is not None:
            preset = named_preset(config.preset)
            if len(preset.parameters) != 1:
                raise ConfigError(
                    f"preset '{preset.name}' enumerates "
                    f"{len(preset.parameters)} states; use the sweep command"
                )
            rho = build_state(preset.recipe, preset.parameters[0])
            return f"preset:{preset.name}", rho
        if config.fock_file is not None:
            rho = as_density(load_state(config.fock_file))
            return f"file:{config.fock_file}", rho
        rho = as_density(
            cat(config.cat_alpha, config.parity, n_c=config.cutoff)
        )
        return f"cat:{config.cat_alpha}:{config.parity}", rho
    except ConfigError:
        raise
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(str(exc)) from exc


def _collect(fn):
    """Run fn; return (result, messages of warnings raised during it)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, [str(w.message) for w in caught]


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    return value


def _emit_json(doc, out):
    text = json.dumps(_jsonable(doc), indent=2) + "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_error(exc, code):
    doc = {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _write_rows_csv(path, rows, metadata):
    with open(path, "w", newline="") as handle:
        for key, value in metadata:
            handle.write(f"# {key}={value}\n")
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _print_value(prefix, value):
    print(f"{prefix}re_mu = {value.re_mu!r}")
    print(f"{prefix}im_mu = {value.im_mu!r}")
    print(f"{prefix}neg_volume = {value.neg_volume!r}")


def cmd_measure(config):
    label, rho = _resolve_state(config)
    grid = default_grid(rho, points=config.points, sigmas=config.sigmas)
    value, warns = _collect(lambda: ngm(rho, grid=grid))
    doc = {"command": "measure", "source": label}
    doc.update(value.to_json())
    doc["warnings"] = warns
    _print_value("", value)
    _emit_json(doc, config.out)
    return EXIT_OK


def cmd_sweep(config):
    try:
        preset = named_preset(config.preset)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows, warns = _collect(lambda: run_preset(preset, points=config.points))
    metadata = [
        ("preset", preset.name),
        ("recipe", preset.recipe),
        ("points", config.points),
        ("seed", config.seed),
    ]
    if preset.loss_taus:
        metadata.append(("nbar", preset.loss_nbar))
    metadata.extend(("warning", text) for text in warns)
    path = config.out or f"{preset.name}.csv"
    _write_rows_csv(path, rows, metadata)
    print(f"wrote {len(rows)} rows to {path}")
    return EXIT_OK


def _fisher_report(config):
    label, rho = _resolve_state(config)
    grid = default_grid(rho, points=config.points, sigmas=config.sigmas)

    def compute():
        field = wigner_gradient(rho, grid=grid)
        return field, fisher_from_field(field)

    (field, fisher), warns = _collect(compute)
    base = _physical_quadrature(field)  # V and the smoothing checks
    V = base[0].V
    doc = {
        "command": "fisher",
        "source": label,
        "points": config.points,
        "J": fisher.J.tolist(),
        "trace_J": fisher.trace,
        "trace_Vinv": float(np.trace(np.linalg.inv(V))),
        "band": fisher.band,
        "rel_gap": fisher.rel_gap,
        "excluded_fraction": fisher.excluded_fraction,
        "converged": fisher.converged,
        "cramer_rao": cramer_rao_check(V, fisher.J),
    }
    if not fisher.converged:
        warns.append(
            f"band extrapolation relative gap {fisher.rel_gap:.3e} "
            "exceeds the convergence limit"
        )
    if config.debruijn or config.derivative:
        # the library checks on this field and its Fisher matrix, smoothed
        # once for both
        reports, extra = _collect(
            lambda: _smoothing_reports(field, fisher, np.eye(2), base=base)
        )
        for key, report, wanted in zip(
            ("debruijn", "measure_derivative"), reports,
            (config.debruijn, config.derivative),
        ):
            if wanted:
                report.pop("fisher")
                doc[key] = report
        warns.extend(extra)
    doc["warnings"] = warns
    print(f"trace_J = {doc['trace_J']!r}")
    print(f"trace_Vinv = {doc['trace_Vinv']!r}")
    _emit_json(doc, config.out)
    return EXIT_OK


def cmd_fisher(config):
    if config.fock_sweep is None:
        return _fisher_report(config)
    rows, warns = _collect(
        lambda: fock_fisher_sweep(n_max=config.fock_sweep,
                                  points=config.points)
    )
    path = config.out or "fock_fisher_sweep.csv"
    write_fisher_csv(rows, path)
    for text in warns:
        print(f"warning: {text}")
    print(f"wrote {len(rows)} rows to {path}")
    return EXIT_OK


def cmd_channel(config):
    label, rho = _resolve_state(config)
    spec = ThermalLossSpec(config.tau, config.nbar)
    grid = default_grid(rho, points=config.points, sigmas=config.sigmas)
    before, warns = _collect(lambda: ngm(rho, grid=grid))
    doc = {
        "command": "channel",
        "source": label,
        "tau": spec.tau,
        "nbar": spec.n_bar,
        "engine": config.engine,
        "before": before.to_json(),
    }
    _print_value("before: ", before)
    after = {}
    if config.engine in ("fock", "both"):
        def run_fock():
            out = thermal_loss_fock(rho, spec)
            out_grid = default_grid(out, points=config.points,
                                    sigmas=config.sigmas)
            return ngm(out, grid=out_grid)

        value, extra = _collect(run_fock)
        after["fock"] = value
        doc["after_fock"] = value.to_json()
        warns.extend(extra)
        _print_value("after[fock]: ", value)
    if config.engine in ("phasespace", "both"):
        def run_phase_space():
            field = wigner_from_fock(rho, grid=grid)
            return measure_from_field(thermal_loss_phase_space(field, spec))

        value, extra = _collect(run_phase_space)
        after["phasespace"] = value
        doc["after_phasespace"] = value.to_json()
        warns.extend(extra)
        _print_value("after[phasespace]: ", value)
    code = EXIT_OK
    if config.engine == "both":
        delta = {
            key: abs(getattr(after["fock"], key)
                     - getattr(after["phasespace"], key))
            for key in ("re_mu", "im_mu", "neg_volume")
        }
        consistent = (delta["re_mu"] <= ENGINE_AGREEMENT_TOL
                      and delta["im_mu"] <= ENGINE_AGREEMENT_TOL)
        doc["engine_delta"] = delta
        doc["engine_tolerance"] = ENGINE_AGREEMENT_TOL
        doc["consistent"] = consistent
        if not consistent:
            warns.append(
                f"engines disagree beyond {ENGINE_AGREEMENT_TOL:.0e}: "
                f"delta re_mu {delta['re_mu']:.3e}, "
                f"delta im_mu {delta['im_mu']:.3e}"
            )
            code = EXIT_ENGINE
    doc["warnings"] = warns
    _emit_json(doc, config.out)
    return code


_HANDLERS = {
    "measure": cmd_measure,
    "sweep": cmd_sweep,
    "fisher": cmd_fisher,
    "channel": cmd_channel,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ngm",
        description=(
            "Complex-valued non-Gaussianity measure: evaluate states, "
            "sweep presets, run Fisher diagnostics, apply thermal loss."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid-points", type=int, default=513,
                        help="points per phase-space axis (default 513)")
    common.add_argument("--extent-sigmas", type=float, default=5.5,
                        help="grid half-extent in covariance sigmas")
    common.add_argument("--cutoff", type=int, default=40,
                        help="Fock cutoff for states built by the CLI")
    common.add_argument("--seed", type=int, default=0,
                        help="seed recorded in output metadata")
    common.add_argument("--out", default=None,
                        help="output path (JSON or CSV per command)")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--preset", default=None,
                        help=f"named preset: {', '.join(preset_names())}")
    source.add_argument("--fock-file", default=None,
                        help="JSON state file (see the fock module format)")
    source.add_argument("--cat", type=float, default=None, metavar="ALPHA",
                        help="cat state amplitude")
    source.add_argument("--parity", choices=("even", "odd"), default="even",
                        help="cat state parity (default even)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "measure", parents=[common, source],
        help="evaluate the measure of a single state",
    )
    sweep = sub.add_parser(
        "sweep", parents=[common],
        help="run a preset family and write one CSV dataset",
    )
    sweep.add_argument("--preset", required=True,
                       help=f"named preset: {', '.join(preset_names())}")
    fisher = sub.add_parser(
        "fisher", parents=[common, source],
        help="Fisher-information diagnostics for a state or Fock sweep",
    )
    fisher.add_argument("--fock-sweep", type=int, default=None, metavar="N",
                        help="sweep number states 0..N to CSV")
    fisher.add_argument("--debruijn", action="store_true",
                        help="include the entropy-growth agreement check")
    fisher.add_argument("--derivative", action="store_true",
                        help="include the measure-derivative agreement check")
    channel = sub.add_parser(
        "channel", parents=[common, source],
        help="apply a thermal-loss channel and measure before/after",
    )
    channel.add_argument("--tau", type=float, required=True,
                         help="channel transmissivity in (0, 1]")
    channel.add_argument("--nbar", type=float, default=0.0,
                         help="environment occupancy (default 0)")
    channel.add_argument("--engine", choices=("fock", "phasespace", "both"),
                         default="fock",
                         help="evolution engine (default fock)")
    return parser


def main(argv=None):
    ns = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_args(ns)
        return _HANDLERS[config.command](config)
    except ConfigError as exc:
        _emit_error(exc, EXIT_CONFIG)
        return EXIT_CONFIG
    except NumericalError as exc:
        _emit_error(exc, EXIT_NUMERICAL)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
