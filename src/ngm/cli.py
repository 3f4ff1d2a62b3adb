"""Command-line front end: measure, sweep, fisher, and channel commands.

Every number the CLI prints or writes comes from the same library call a
script would make with the same arguments, so CLI output and library
output agree exactly.  Documents carry no timestamps and use stable key
and row ordering, which makes reruns with an identical configuration
byte-identical.  Runtime warnings raised during a computation (negative
real part beyond quadrature noise, band extrapolation gaps) are recorded
in the output document rather than silenced.

Exit codes: 0 success (warnings allowed), 2 configuration error,
3 numerical precondition failure, 4 cross-engine inconsistency.

The parser is the one place options and their defaults are declared.
``main`` parses once, checks the namespace (``_validate``) before anything
is computed, and hands it to the command.  Each subcommand reads the
options it accepts, except that ``--cutoff`` and ``--parity`` are read
only with ``--cat``, and ``sweep`` does not read ``--extent-sigmas`` or
``--cutoff``.
"""

import argparse
import csv
import functools
import json
import os
import sys
import warnings

import numpy as np

from .catalog import build_state, named_preset, preset_names, run_preset
from .channels import ThermalLossSpec, thermal_loss_fock, thermal_loss_phase_space
from .errors import NumericalError
from .fisher import BAND_DEFAULT, _smoothing_reports, cramer_rao_check, fisher_from_field
from .fock import as_density, cat, load_state, state_moments
from .measure import measure_from_field, ngm
from .numerics import MIN_POINTS, PhaseSpaceGrid, _odd_points, _ordered_map, worker_count
from .wigner import default_grid, wigner_gradient

__all__ = [
    "ENGINE_AGREEMENT_TOL",
    "EXIT_CONFIG",
    "EXIT_ENGINE",
    "EXIT_NUMERICAL",
    "EXIT_OK",
    "ConfigError",
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


class ConfigError(ValueError):
    """Invalid command-line configuration; nothing has been computed."""


def _validate(ns):
    """ConfigError unless the parsed options make a valid run."""
    if ns.grid_points < MIN_POINTS:
        raise ConfigError(f"--grid-points must be at least {MIN_POINTS}, got {ns.grid_points}")
    if not 0.0 < ns.extent_sigmas < np.inf:
        raise ConfigError("--extent-sigmas must be positive and finite")
    if ns.cutoff < 1:
        raise ConfigError("--cutoff must be at least 1")
    if ns.out is not None and not os.path.isdir(os.path.dirname(ns.out) or "."):
        raise ConfigError(f"--out directory {os.path.dirname(ns.out)!r} does not exist")
    if ns.out is not None and os.path.isdir(ns.out):
        raise ConfigError(f"--out {ns.out!r} is a directory, not a file")
    # options that only some subcommands have
    tau, nbar, fock_sweep = (getattr(ns, key, None) for key in ("tau", "nbar", "fock_sweep"))
    if tau is not None and not 0.0 < tau <= 1.0:
        raise ConfigError("--tau must lie in (0, 1]")
    if nbar is not None and not 0.0 <= nbar < np.inf:
        raise ConfigError("--nbar must be finite and non-negative")
    if fock_sweep is not None and fock_sweep < 0:
        raise ConfigError("--fock-sweep must be non-negative")
    if ns.command == "sweep" or fock_sweep is not None:  # the thread-pool commands
        try:
            worker_count()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    sources = sum(getattr(ns, key, None) is not None for key in ("preset", "fock_file", "cat"))
    if fock_sweep is not None:
        if sources:
            raise ConfigError("--fock-sweep does not combine with a state source")
        if ns.debruijn or ns.derivative:
            raise ConfigError("--fock-sweep does not combine with --debruijn or --derivative")
    elif sources != 1:  # sweep's required --preset is its one source
        raise ConfigError("choose exactly one state source: --preset, --fock-file, or --cat")


def _resolve_state(ns):
    """Build the requested state; returns (label, density matrix)."""
    try:
        if ns.preset is not None:
            preset = named_preset(ns.preset)
            if len(preset.parameters) != 1:
                raise ConfigError(
                    f"preset '{preset.name}' enumerates "
                    f"{len(preset.parameters)} states; use the sweep command"
                )
            rho = build_state(preset.recipe, preset.parameters[0])
            return f"preset:{preset.name}", rho
        if ns.fock_file is not None:
            rho = as_density(load_state(ns.fock_file))
            return f"file:{ns.fock_file}", rho
        rho = as_density(cat(ns.cat, ns.parity, n_c=ns.cutoff))
        return f"cat:{ns.cat}:{ns.parity}", rho
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
    doc = {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
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


def cmd_measure(ns):
    label, rho = _resolve_state(ns)
    grid = default_grid(rho, points=ns.grid_points, sigmas=ns.extent_sigmas)
    value, warns = _collect(lambda: ngm(rho, grid=grid))
    doc = {"command": "measure", "source": label}
    doc.update(value.to_json())
    doc["warnings"] = warns
    _print_value("", value)
    _emit_json(doc, ns.out)
    return EXIT_OK


def cmd_sweep(ns):
    try:
        preset = named_preset(ns.preset)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows, warns = _collect(lambda: run_preset(preset, points=ns.grid_points))
    metadata = [
        ("preset", preset.name),
        ("recipe", preset.recipe),
        # the count every grid of the preset is built with
        ("points", _odd_points(ns.grid_points)),
    ]
    if preset.loss_taus:
        metadata.append(("nbar", preset.loss_nbar))
    metadata.extend(("warning", text) for text in warns)
    path = ns.out or f"{preset.name}.csv"
    _write_rows_csv(path, rows, metadata)
    print(f"wrote {len(rows)} rows to {path}")
    return EXIT_OK


def _fisher_fields(rho, ns):
    """The gradient field of ``rho`` on the options' grid and its Fisher
    matrix, whose pass also gives V and the smoothing checks' base."""
    grid = default_grid(rho, points=ns.grid_points, sigmas=ns.extent_sigmas)
    field = wigner_gradient(rho, grid=grid)
    return field, fisher_from_field(field)


def _band_warning(rel_gap):
    return f"band extrapolation relative gap {rel_gap:.3e} exceeds the convergence limit"


def _fisher_report(ns):
    label, rho = _resolve_state(ns)
    (field, fisher), warns = _collect(lambda: _fisher_fields(rho, ns))
    V = fisher.moments.V
    doc = {
        "command": "fisher",
        "source": label,
        "points": field.grid.n_q,
        "J": fisher.J.tolist(),
        "trace_J": fisher.trace,
        "trace_Vinv": float(np.trace(np.linalg.inv(V))),
        "band": BAND_DEFAULT,
        "rel_gap": fisher.rel_gap,
        "excluded_fraction": fisher.excluded_fraction,
        "converged": fisher.converged,
        "cramer_rao": cramer_rao_check(V, fisher.J),
    }
    if not fisher.converged:
        warns.append(_band_warning(fisher.rel_gap))
    if ns.debruijn or ns.derivative:
        # the library checks on this field and its Fisher matrix, smoothed
        # once for both
        reports, extra = _collect(lambda: _smoothing_reports(field, fisher, np.eye(2)))
        for key, report, wanted in zip(
            ("debruijn", "measure_derivative"), reports,
            (ns.debruijn, ns.derivative),
        ):
            if wanted:
                report.pop("fisher")
                doc[key] = report
        warns.extend(extra)
    doc["warnings"] = warns
    print(f"trace_J = {doc['trace_J']!r}")
    print(f"trace_Vinv = {doc['trace_Vinv']!r}")
    _emit_json(doc, ns.out)
    return EXIT_OK


def cmd_fisher(ns):
    if ns.fock_sweep is None:
        return _fisher_report(ns)

    def row(n):
        """Tr J against Tr V^-1 for the number state |n>."""
        _, fisher = _fisher_fields(build_state("fock", {"n": n}), ns)
        return {"n": n, "trace_J": fisher.trace,
                "trace_Vinv": float(np.trace(np.linalg.inv(fisher.moments.V))),
                "excluded_fraction": fisher.excluded_fraction, "rel_gap": fisher.rel_gap,
                "converged": fisher.converged, "band": BAND_DEFAULT}

    # on a thread pool sized by NGM_WORKERS, rows in order of n
    rows, warns = _collect(lambda: _ordered_map(row, range(ns.fock_sweep + 1)))
    warns.extend(f"n = {row['n']}: {_band_warning(row['rel_gap'])}"
                 for row in rows if not row["converged"])
    path = ns.out or "fock_fisher_sweep.csv"
    _write_rows_csv(path, rows, [("warning", text) for text in warns])
    for text in warns:
        print(f"warning: {text}")
    print(f"wrote {len(rows)} rows to {path}")
    return EXIT_OK


def cmd_channel(ns):
    label, rho = _resolve_state(ns)
    spec = ThermalLossSpec(ns.tau, ns.nbar)
    grid = default_grid(rho, points=ns.grid_points, sigmas=ns.extent_sigmas)
    before, warns = _collect(lambda: ngm(rho, grid=grid))
    doc = {
        "command": "channel",
        "source": label,
        "tau": spec.tau,
        "nbar": spec.n_bar,
        "engine": ns.engine,
        "before": before.to_json(),
    }
    _print_value("before: ", before)
    after = {}
    if ns.engine in ("fock", "both"):
        def run_fock():
            out = thermal_loss_fock(rho, spec)
            out_grid = default_grid(out, points=ns.grid_points, sigmas=ns.extent_sigmas)
            return ngm(out, grid=out_grid)

        value, extra = _collect(run_fock)
        after["fock"] = value
        doc["after_fock"] = value.to_json()
        warns.extend(extra)
        _print_value("after[fock]: ", value)
    if ns.engine in ("phasespace", "both"):
        def run_phase_space():
            # the grid is sized for the output's moments
            out_grid = PhaseSpaceGrid.for_moments(*spec.output_moments(*state_moments(rho)),
                                                  points=ns.grid_points, sigmas=ns.extent_sigmas)
            return measure_from_field(thermal_loss_phase_space(rho, spec, out_grid))

        value, extra = _collect(run_phase_space)
        after["phasespace"] = value
        doc["after_phasespace"] = value.to_json()
        warns.extend(extra)
        _print_value("after[phasespace]: ", value)
    code = EXIT_OK
    if ns.engine == "both":
        delta = {key: abs(getattr(after["fock"], key) - getattr(after["phasespace"], key))
                 for key in ("re_mu", "im_mu", "neg_volume")}
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
    _emit_json(doc, ns.out)
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
                        help="points per phase-space axis (default %(default)s)")
    common.add_argument("--extent-sigmas", type=float, default=5.5,
                        help="grid half-extent in covariance sigmas")
    common.add_argument("--cutoff", type=int, default=40,
                        help="Fock cutoff for states built by the CLI")
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
                        help="cat state parity (default %(default)s)")

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
                         help="environment occupancy (default %(default)s)")
    channel.add_argument("--engine", choices=("fock", "phasespace", "both"),
                         default="fock",
                         help="evolution engine (default %(default)s)")
    return parser


@functools.cache
def _parser():
    """The parser ``main`` parses every call with, built on the first."""
    return build_parser()


def main(argv=None):
    ns = _parser().parse_args(argv)
    try:
        _validate(ns)
        return _HANDLERS[ns.command](ns)
    except ConfigError as exc:
        _emit_error(exc, EXIT_CONFIG)
        return EXIT_CONFIG
    except NumericalError as exc:
        _emit_error(exc, EXIT_NUMERICAL)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
