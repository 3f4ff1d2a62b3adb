"""Seeded workloads driving ngm through its public API.

A workload is an endless stream of groups of items, drawn from the seed.
The runner times each item's ``compute`` and then gates its output with
``check``, which returns the recorded values, a status and a note:

- ``ok``: every oracle holds;
- ``failed``: no usable answer (an exception, a non-zero exit code, or a
  non-finite value);
- ``wrong``: a finite answer that breaks an oracle.

A group is the unit the runner stops at, so a run never ends mid-group:
one pass of all item kinds (``pure-highcut``, ``cli-commands``) or one
qudit's loss sweep (``mixed-loss``, whose group ``finish`` checks loss
monotonicity).  ``WORKLOADS`` maps each name to its group stream and to
the number of groups in one pass, which a traced run replays.
"""

import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os

import numpy as np

import ngm as N
import ngm.cli  # noqa: F401  (binds N.cli)

OK, FAILED, WRONG = "ok", "failed", "wrong"

# the cli-commands items, one per command, in pass order
CLI_COMMANDS = ("measure", "fisher", "channel", "sweep")

# criterion 1: displaced-squeezed states are Gaussian, so mu vanishes
FAITHFUL_RE, FAITHFUL_IM = 1e-3, 1e-6
# criterion 8: mu may not rise under loss beyond this quadrature slack
LOSS_SLACK = 1e-3


class Item:
    def __init__(self, ident, kind, compute, check):
        self.ident = ident
        self.kind = kind
        self.compute = compute
        self.check = check


class Group:
    def __init__(self, items, finish=None):
        self.items = items
        self.finish = finish


def _finite(*numbers):
    return all(math.isfinite(x) for x in numbers)


def _check_value(value, label="mu", oracle=None):
    """Gate a MeasureValue: finite, self-consistent, then the item's oracle."""
    values = [(f"{label}.re", value.re_mu), (f"{label}.im", value.im_mu)]
    if not _finite(value.re_mu, value.im_mu, value.neg_volume):
        return values, FAILED, "non-finite mu"
    try:
        value.validate()
    except N.ConsistencyError as exc:
        return values, WRONG, str(exc)
    note = oracle(value) if oracle else None
    return values, (WRONG if note else OK), note or ""


def _gaussian_oracle(value):
    if abs(value.re_mu) >= FAITHFUL_RE or value.im_mu >= FAITHFUL_IM:
        return f"Gaussian state has mu = {value.re_mu!r} + {value.im_mu!r}i"
    return None


def _negative_oracle(value):
    return None if value.im_mu > 0.0 else "state with Wigner negativity has im_mu = 0"


def _check_gkp(rows):
    row = rows[0]
    values = [("mu.re", row["re_mu"]), ("mu.im", row["im_mu"])]
    if not _finite(row["re_mu"], row["im_mu"]):
        return values, FAILED, "non-finite mu"
    if not (row["re_mu"] > 0.0 and row["im_mu"] > 0.0):
        return values, WRONG, "grid state must be non-Gaussian with negativity"
    return values, OK, ""


# ------------------------------------------------------------ pure-highcut

def pure_highcut(seed, quick=False):
    """Pure states: Gaussians at two cutoffs, a cat, a grid state, |n>.

    Full size: displaced-squeezed at n_c = 60 and 160 on the default
    513-point grid, cat(1.5) at n_c = 40, a 10 dB GKP logical at n_c = 60
    through ``run_preset`` on a 1025-point grid, and |140>, which returns
    nan at the time of writing.
    """
    if quick:
        points, cutoffs, cat_cut, gkp_cut, gkp_points, fock_n = 65, (30, 40), 20, 12, 65, 3
    else:
        points, cutoffs, cat_cut, gkp_cut, gkp_points, fock_n = 513, (60, 160), 40, 60, 1025, 140
    rng = np.random.default_rng(seed)
    for k in itertools.count():
        items = []
        for n_c in cutoffs:
            # |alpha| = 2 and |xi| = (n_c - 60) / 100 are criterion 1's
            # bounds; smaller draws would zero Fock diagonals the synthesis
            # then skips, making the cost depend on the seed
            alpha = 2.0 * np.exp(2j * np.pi * rng.random())
            xi = rng.choice((-1.0, 1.0)) * (n_c - cutoffs[0]) / 100.0
            items.append(Item(
                f"{k}.ds{n_c}", f"ds{n_c}",
                functools.partial(_measure_gaussian, alpha, xi, n_c, points),
                functools.partial(_check_value, oracle=_gaussian_oracle),
            ))
        items.append(Item(
            f"{k}.cat", "cat",
            functools.partial(_measure_cat, 1.5, cat_cut, points),
            functools.partial(_check_value, oracle=_negative_oracle),
        ))
        preset = N.ExperimentPreset("gkp-10db", "gkp", ({
            "logical": int(rng.integers(2)), "delta_db": 10.0, "t_max": 4,
            "n_c": gkp_cut,
        },))
        items.append(Item(
            f"{k}.gkp", "gkp",
            functools.partial(_run_preset, preset, gkp_points),
            _check_gkp,
        ))
        items.append(Item(
            f"{k}.fock{fock_n}", f"fock{fock_n}",
            functools.partial(_measure_fock, fock_n, points),
            _check_value,
        ))
        yield Group(items)


def _measure_gaussian(alpha, xi, n_c, points):
    return N.ngm(N.displaced_squeezed(alpha, xi, n_c=n_c), points=points)


def _measure_cat(alpha, n_c, points):
    return N.ngm(N.cat(alpha, n_c=n_c), points=points)


def _run_preset(preset, points):
    return N.run_preset(preset, points=points)


def _measure_fock(n, points):
    return N.ngm(N.build_state("fock", {"n": n}), points=points)


# -------------------------------------------------------------- mixed-loss

class _Qudit:
    """One preset entry; built on first use, as run_preset builds it once."""

    def __init__(self, params, nbar, points):
        self.params = params
        self.nbar = nbar
        self.points = points
        self.rho = None

    def measure(self, tau):
        if self.rho is None:
            self.rho = N.build_state("qudit", self.params)
        lossy = N.thermal_loss_fock(self.rho, N.ThermalLossSpec(tau, self.nbar))
        return N.ngm(lossy, points=self.points)


def _monotone(records):
    """Mark an item wrong where mu rises from the previous transmissivity."""
    for earlier, later in zip(records, records[1:]):
        if earlier["status"] != OK or later["status"] != OK:
            continue
        before, after = dict(earlier["values"]), dict(later["values"])
        for part in ("mu.re", "mu.im"):
            rise = after[part] - before[part]
            if rise > LOSS_SLACK:
                later["status"] = WRONG
                later["note"] = f"{part} rises {rise:.3e} under more loss"


def mixed_loss(seed, quick=False):
    """The (qudit, tau) pairs of preset_random_qudits, one qudit per group.

    Dimensions are interleaved (d = 2, 3, 4, 2, ...) so that a run that
    stops early still sees the preset's mix.  Pass k uses preset seed
    100000 * seed + 10000 * k, whose member sub-seeds do not overlap.
    """
    options = {"count": 1, "loss_taus": (1.0, 0.6, 0.2)} if quick else {}
    points = 65 if quick else 513
    for k in itertools.count():
        preset = N.catalog.preset_random_qudits(seed=100000 * seed + 10000 * k, **options)
        by_d = {}
        for params in preset.parameters:
            by_d.setdefault(params["d"], []).append(params)
        for params in itertools.chain.from_iterable(zip(*by_d.values())):
            qudit = _Qudit(params, preset.loss_nbar, points)
            tag = f"{k}.d{params['d']}s{params['seed']}"
            items = [
                Item(f"{tag}.t{tau:.2f}", f"d{params['d']}",
                     functools.partial(qudit.measure, tau), _check_value)
                for tau in preset.loss_taus
            ]
            yield Group(items, _monotone)


def mixed_pass_groups(quick=False):
    preset = N.catalog.preset_random_qudits(**({"count": 1} if quick else {}))
    return len(preset.parameters)


# ------------------------------------------------------------ cli-commands

def _cli_pair(argvs):
    """Run one command on both inputs of an antithetic pair; exit codes."""
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            codes.append(N.cli.main(argv))
    return codes


class _Failed(Exception):
    pass


def _load_json(code, path):
    if code != 0:
        raise _Failed(f"exit code {code}")
    with open(path) as handle:
        return json.load(handle)


def _doc_value(doc):
    return N.MeasureValue(doc["re_mu"], doc["im_mu"], doc["re_entropy"],
                          doc["gaussian_entropy"], doc["neg_volume"])


def _parse_measure(code, path):
    return _check_value(_doc_value(_load_json(code, path)))


def _parse_fisher(code, path):
    doc = _load_json(code, path)
    values = [
        ("trace_J", doc["trace_J"]),
        ("trace_Vinv", doc["trace_Vinv"]),
        ("debruijn.slope", doc["debruijn"]["slope"]),
        ("derivative", doc["measure_derivative"]["derivative"]),
        ("base_re_mu", doc["measure_derivative"]["base_re_mu"]),
    ]
    if not _finite(*(x for _, x in values)):
        return values, FAILED, "non-finite Fisher report"
    return values, OK, ""


def _parse_channel(code, path):
    doc = _load_json(code, path)
    values, status, note = [], OK, ""
    before = _doc_value(doc["before"])
    for label in ("before", "after_fock", "after_phasespace"):
        value = _doc_value(doc[label])
        part, part_status, part_note = _check_value(value, label=label)
        values += part
        if part_status != OK and status == OK:
            status, note = part_status, part_note
        rise = max(value.re_mu - before.re_mu, value.im_mu - before.im_mu)
        if status == OK and rise > LOSS_SLACK:
            status, note = WRONG, f"{label} rises {rise:.3e} under loss"
    if status == OK and doc["consistent"] is not True:
        status, note = WRONG, "engines reported inconsistent"
    return values, status, note


def _parse_sweep(code, path, expected_rows):
    if code != 0:
        raise _Failed(f"exit code {code}")
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
    if len(rows) != expected_rows:
        raise ValueError(f"{len(rows)} rows, expected {expected_rows}")
    values = []
    for i, row in enumerate(rows):
        values += [(f"row{i}.re", float(row["re_mu"])), (f"row{i}.im", float(row["im_mu"]))]
    if not _finite(*(x for _, x in values)):
        return values, FAILED, "non-finite mu in sweep"
    if any(x < 0.0 for label, x in values if label.endswith(".im")):
        return values, WRONG, "negative im_mu in sweep"
    return values, OK, ""


def _check_pair(parse, paths):
    """Gate each run of a pair: exit code, then parse, then oracles."""

    def check(codes):
        values, status, note = [], OK, ""
        for tag, code, path in zip("AB", codes, paths):
            try:
                part, part_status, part_note = parse(code, path)
            except _Failed as exc:
                part, part_status, part_note = [], FAILED, str(exc)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                part, part_status, part_note = [], WRONG, f"unparseable output: {exc!r}"
            values += [(f"{tag}.{label}", x) for label, x in part]
            if part_status != OK and status != WRONG:
                status, note = part_status, f"{tag}: {part_note}"
        return values, status, note

    return check


def cli_commands(seed, quick=False, workdir="."):
    """measure, fisher, channel and sweep through ngm.cli.main, in-process.

    Per pass a cat amplitude A in [1, 2] and transmissivity T in
    [0.5, 0.9] are drawn from the seed.  Cost grows with A (fewer Fock
    diagonals vanish), so each of measure, fisher and channel is one item
    run on the antithetic pair (A, T) and (3 - A, 1.4 - T): the pair's
    cost barely depends on the draw.  The sweep item runs once.
    """
    # the quick channel runs at full size: on coarser grids its two engines
    # disagree beyond the command's tolerance and it exits with code 4
    small = ["--grid-points", "65", "--cutoff", "20"] if quick else []
    rows = len(N.catalog.named_preset("qubit-hemisphere").parameters)
    rng = np.random.default_rng(seed)
    for k in itertools.count():
        amp = float(rng.uniform(1.0, 2.0))
        tau = float(rng.uniform(0.5, 0.9))
        pairs = ((repr(amp), repr(tau)), (repr(3.0 - amp), repr(1.4 - tau)))
        argvs = {
            "measure": [["measure", "--cat", a] for a, _ in pairs],
            "fisher": [["fisher", "--cat", a, "--debruijn", "--derivative"] for a, _ in pairs],
            "channel": [["channel", "--cat", a, "--tau", t, "--engine", "both"] for a, t in pairs],
            "sweep": [["sweep", "--preset", "qubit-hemisphere"]],
        }
        parsers = {"measure": _parse_measure, "fisher": _parse_fisher,
                   "channel": _parse_channel,
                   "sweep": functools.partial(_parse_sweep, expected_rows=rows)}
        items = []
        for name in CLI_COMMANDS:
            commands = argvs[name]
            ext = "csv" if name == "sweep" else "json"
            paths = [os.path.join(workdir, f"{k}-{name}-{tag}.{ext}") for tag in "AB"[:len(commands)]]
            size = [] if name == "channel" else small
            runs = [argv + size + ["--out", path] for argv, path in zip(commands, paths)]
            items.append(Item(f"{k}.{name}", name, functools.partial(_cli_pair, runs),
                              _check_pair(parsers[name], paths)))
        yield Group(items)


WORKLOADS = {
    "pure-highcut": (pure_highcut, lambda quick: 1),
    "mixed-loss": (mixed_loss, mixed_pass_groups),
    "cli-commands": (cli_commands, lambda quick: 1),
}
