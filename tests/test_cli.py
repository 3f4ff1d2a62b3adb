"""Command-line interface tests.

The contract under test: every CLI number equals the corresponding
library call on the same arguments, reruns with identical configuration
are byte-identical, and the exit-code scheme is 0 success, 2 config
error, 3 numerical precondition failure, 4 cross-engine inconsistency.
"""

import ast
import csv
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from test_synthesis import spy_on_coefficients

import ngm as ngm_package
from ngm import catalog, channels, cli, fisher, measure, wigner
from ngm.catalog import build_state, preset_random_qudits
from ngm.cli import _jsonable, main
from ngm.fock import FockVector, as_density, cat, save_state
from ngm.measure import ngm
from ngm.wigner import default_grid

# Im mu of the one-photon state: pi times its negative Wigner volume.
ONE_PHOTON_IM = math.pi * (2.0 * math.exp(-0.5) - 1.0)


def read_rows(path):
    with open(path) as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_metadata(path):
    pairs = {}
    with open(path) as handle:
        for line in handle:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].strip().partition("=")
            pairs[key] = value
    return pairs


def one_photon_file(tmp_path):
    path = tmp_path / "one_photon.json"
    save_state(FockVector([0.0, 1.0]), path)
    return str(path)


def test_measure_vacuum_near_zero(tmp_path):
    out = tmp_path / "vac.json"
    assert main(["measure", "--preset", "vacuum", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["re_mu"]) < 1e-3
    assert abs(doc["im_mu"]) < 1e-6
    assert doc["neg_volume"] == 0.0
    assert doc["warnings"] == []
    assert doc["grid"]["n_q"] == 513


def test_measure_one_photon_file_and_byte_identical_rerun(tmp_path):
    state = one_photon_file(tmp_path)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["measure", "--fock-file", state, "--out", str(first)]) == 0
    assert main(["measure", "--fock-file", state, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert abs(doc["im_mu"] - ONE_PHOTON_IM) < 1e-4
    assert doc["source"] == f"file:{state}"


def test_measure_cat_matches_library_call_exactly(tmp_path):
    out = tmp_path / "cat.json"
    code = main(["measure", "--cat", "1.5", "--parity", "even",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    rho = as_density(cat(1.5, "even", n_c=40))
    value = ngm(rho, grid=default_grid(rho, points=513, sigmas=5.5))
    assert doc["re_mu"] == value.re_mu
    assert doc["im_mu"] == value.im_mu
    assert doc["neg_volume"] == value.neg_volume
    assert doc["re_entropy"] == value.re_entropy
    assert doc["gaussian_entropy"] == value.gaussian_entropy


def test_measure_without_out_prints_summary_then_json(capsys):
    assert main(["measure", "--preset", "vacuum"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("re_mu = ")
    doc = json.loads(text[text.index("{"):])
    assert doc["command"] == "measure"
    assert doc["source"] == "preset:vacuum"


def test_measure_requires_exactly_one_source(capsys):
    assert main(["measure"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["exit_code"] == 2
    assert main(["measure", "--preset", "vacuum", "--cat", "1.0"]) == 2


def test_measure_rejects_multi_state_preset(capsys):
    assert main(["measure", "--preset", "cat-family"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert "sweep" in doc["error"]["message"]


def test_unknown_preset_reports_choices(capsys):
    assert main(["measure", "--preset", "nope"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ConfigError"
    assert "vacuum" in doc["error"]["message"]


def test_missing_fock_file_is_config_error(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["measure", "--fock-file", missing]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", ["abc", "2.5"])
@pytest.mark.parametrize("argv", [["sweep", "--preset", "vacuum"],
                                  ["fisher", "--fock-sweep", "1"]], ids=["sweep", "fock-sweep"])
def test_malformed_worker_count_is_a_config_error(tmp_path, monkeypatch, capsys, argv, value):
    # it once ended in int()'s traceback, exit 1
    monkeypatch.setenv("NGM_WORKERS", value)
    out = tmp_path / "rows.csv"
    assert main([*argv, "--grid-points", "65", "--out", str(out)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ConfigError"
    assert doc["error"]["message"] == f"NGM_WORKERS must be an integer, got {value!r}"
    assert not out.exists()


def test_numerical_precondition_failure_exits_three(capsys):
    # a cat state far too large for the requested Fock cutoff
    assert main(["measure", "--cat", "8.0", "--cutoff", "40"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["exit_code"] == 3
    # a grid too small to hold the state's mass
    assert main(["measure", "--cat", "3.0", "--extent-sigmas", "1.5"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "NormalizationError"


@pytest.mark.parametrize("sigmas", ["inf", "nan", "0", "-1"])
def test_extent_sigmas_must_be_positive_and_finite(capsys, sigmas):
    # inf passed the old "positive" check and died inside the grid
    assert main(["measure", "--cat", "1.5", "--extent-sigmas", sigmas]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ConfigError"
    assert "--extent-sigmas" in doc["error"]["message"]


def test_grid_points_floor_enforced(capsys):
    assert main(["measure", "--preset", "vacuum", "--grid-points", "10"]) == 2
    capsys.readouterr()


def test_sweep_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["sweep", "--preset", "one-photon", "--out", str(first)]) == 0
    assert main(["sweep", "--preset", "one-photon", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    meta = read_metadata(first)
    assert meta["preset"] == "one-photon"
    assert meta["recipe"] == "fock"
    assert meta["points"] == "513"
    rows = read_rows(first)
    assert len(rows) == 1
    assert abs(float(rows[0]["im_mu"]) - ONE_PHOTON_IM) < 1e-4
    capsys.readouterr()


def test_sweep_qudit_loss_tau_one_row_matches_direct_measure(
        tmp_path, monkeypatch, capsys):
    preset = preset_random_qudits(d_list=(2,), count=1, seed=3,
                                  loss_taus=(1.0, 0.4))
    monkeypatch.setitem(catalog._PRESETS, "tiny-qudit", lambda: preset)
    out = tmp_path / "tiny.csv"
    assert main(["sweep", "--preset", "tiny-qudit", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert [float(row["tau"]) for row in rows] == [1.0, 0.4]
    direct = ngm(build_state("qudit", preset.parameters[0]), points=513)
    assert float(rows[0]["re_mu"]) == direct.re_mu
    assert float(rows[0]["im_mu"]) == direct.im_mu
    capsys.readouterr()


def test_sweep_requires_preset_flag():
    with pytest.raises(SystemExit) as err:
        main(["sweep"])
    assert err.value.code == 2


def test_sweep_has_no_seed_option():
    # no computation read it; it only wrote a "# seed=0" metadata line
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--preset", "one-photon", "--seed", "3"])
    assert err.value.code == 2


def perfbench_workloads():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
def test_benchmark_argvs_parse_and_validate(tmp_path, monkeypatch, quick):
    # every argv the cli-commands workload sends is a valid run: a CLI
    # change that drops an option it passes fails here, not in the benchmark
    sent = []
    monkeypatch.setattr(cli, "main", lambda argv: sent.append(argv) or 0)
    group = next(perfbench_workloads().cli_commands(1, quick=quick, workdir=str(tmp_path)))
    for item in group.items:
        item.compute()
    assert sorted({argv[0] for argv in sent}) == ["channel", "fisher", "measure", "sweep"]
    for argv in sent:
        cli._validate(cli.build_parser().parse_args(argv))
    sweep = ["sweep", "--preset", "qubit-hemisphere"]
    if quick:
        sweep += ["--grid-points", "65", "--cutoff", "20"]
    assert any(argv[:-2] == sweep and argv[-2] == "--out" for argv in sent)


def test_fisher_vacuum_traces_and_cramer_rao(tmp_path, capsys):
    out = tmp_path / "fisher.json"
    assert main(["fisher", "--preset", "vacuum", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["trace_J"] - 4.0) < 2e-3
    assert abs(doc["trace_Vinv"] - 4.0) < 2e-3
    assert doc["converged"] is True
    assert doc["cramer_rao"]["passes"] is True
    assert doc["warnings"] == []
    capsys.readouterr()


def test_fisher_fock_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["fisher", "--fock-sweep", "2", "--grid-points", "257",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "n,trace_J,trace_Vinv,excluded_fraction,rel_gap,converged,band"
    # the one CSV writer: metadata lines, here warnings only, come first
    assert all(line.startswith("# warning=") for line in lines[: len(lines) - len(body)])
    rows = read_rows(out)
    assert [row["n"] for row in rows] == ["0", "1", "2"]
    for row in rows:
        assert float(row["trace_J"]) >= float(row["trace_Vinv"]) - 1e-4
    capsys.readouterr()


def test_fisher_fock_sweep_csv_records_warnings(tmp_path, monkeypatch, capsys):
    # a warning raised in any row's single-state path lands in the CSV
    fields = cli._fisher_fields

    def warning_fields(rho, ns):
        if rho.dim == 2:
            warnings.warn("band gap above the limit", RuntimeWarning)
        return fields(rho, ns)

    monkeypatch.setattr(cli, "_fisher_fields", warning_fields)
    out = tmp_path / "sweep.csv"
    assert main(["fisher", "--fock-sweep", "1", "--grid-points", "257",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[:2] == ["# warning=band gap above the limit",
                         "n,trace_J,trace_Vinv,excluded_fraction,rel_gap,converged,band"]
    assert read_metadata(out) == {"warning": "band gap above the limit"}


def test_fisher_fock_sweep_rejects_state_source(capsys):
    assert main(["fisher", "--fock-sweep", "2", "--preset", "vacuum"]) == 2
    capsys.readouterr()


def test_fisher_fock_sweep_reads_extent_sigmas(tmp_path, capsys):
    paths = [tmp_path / "default.csv", tmp_path / "wide.csv"]
    for path, extra in zip(paths, ([], ["--extent-sigmas", "9"])):
        assert main(["fisher", "--fock-sweep", "1", "--grid-points", "129", *extra,
                     "--out", str(path)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() != paths[1].read_bytes()
    # each row is the single-state report's on the same grid
    for path, extra in zip(paths, ([], ["--extent-sigmas", "9"])):
        single = tmp_path / "single.json"
        assert main(["fisher", "--preset", "one-photon", "--grid-points", "129", *extra,
                     "--out", str(single)]) == 0
        capsys.readouterr()
        doc = json.loads(single.read_text())
        row = read_rows(path)[1]
        assert float(row["trace_J"]) == doc["trace_J"]
        assert float(row["trace_Vinv"]) == doc["trace_Vinv"]


def test_out_into_a_missing_directory_is_config_error(tmp_path, monkeypatch, capsys):
    # rejected before the state is measured, not after with a traceback
    monkeypatch.setattr(cli, "ngm", lambda *args, **kwargs: pytest.fail("computed"))
    out = tmp_path / "absent" / "x.json"
    assert main(["measure", "--cat", "1", "--grid-points", "65", "--out", str(out)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ConfigError"
    assert "--out" in doc["error"]["message"]
    assert not out.parent.exists()


def test_out_naming_a_directory_is_config_error(tmp_path, monkeypatch, capsys):
    # rejected before anything is computed, not with an IsADirectoryError
    monkeypatch.setattr(cli, "ngm", lambda *args, **kwargs: pytest.fail("computed"))
    monkeypatch.setattr(cli, "run_preset", lambda *args, **kwargs: pytest.fail("computed"))
    for argv in (["measure", "--cat", "1", "--grid-points", "65"],
                 ["sweep", "--preset", "vacuum", "--grid-points", "65"]):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["type"] == "ConfigError"
        assert "--out" in doc["error"]["message"]
    assert list(tmp_path.iterdir()) == []


def test_fisher_fock_sweep_warns_on_unconverged_rows(tmp_path, capsys):
    # each unconverged row carries its gap and is named in the metadata and
    # on stdout, as the single-state report warns
    out = tmp_path / "sweep.csv"
    assert main(["fisher", "--fock-sweep", "3", "--grid-points", "65",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    rows = read_rows(out)
    lines = out.read_text().splitlines()
    warned = [line for line in lines if line.startswith("# warning=")]
    unconverged = [row for row in rows if row["converged"] == "False"]
    assert unconverged and rows[0]["converged"] == "True"
    for row in rows:
        assert (float(row["rel_gap"]) <= 0.1) == (row["converged"] == "True")
    want = [f"n = {row['n']}: band extrapolation relative gap "
            f"{float(row['rel_gap']):.3e} exceeds the convergence limit" for row in unconverged]
    assert warned == [f"# warning={text}" for text in want]
    for text in want:
        assert f"warning: {text}" in stdout


#: (argv, option, value, effect) on 65-point grids: a non-default value of
#: an option a command accepts changes the written document ("read") or
#: exits 2 ("rejected"); the documented unread options leave the document
#: byte-identical ("unread"), and making one of them read moves its row
OPTION_CASES = [
    *((argv, option, value, "read")
      for argv in (["measure", "--cat", "1.5"], ["fisher", "--cat", "1.5"],
                   ["channel", "--cat", "1.5", "--tau", "0.7"])
      for option, value in (("--extent-sigmas", "7"), ("--cutoff", "30"),
                            ("--parity", "odd"))),
    (["fisher", "--fock-sweep", "1"], "--grid-points", "129", "read"),
    (["fisher", "--fock-sweep", "1"], "--extent-sigmas", "7", "read"),
    # the sweep writes no smoothing report, so asking for one is an error
    (["fisher", "--fock-sweep", "1"], "--debruijn", None, "rejected"),
    (["fisher", "--fock-sweep", "1"], "--derivative", None, "rejected"),
    # sweep accepts the common options: perfbench sends it --cutoff 20
    (["sweep", "--preset", "one-photon"], "--extent-sigmas", "7", "unread"),
    (["sweep", "--preset", "one-photon"], "--cutoff", "30", "unread"),
    # --cutoff and --parity shape only the --cat state
    (["fisher", "--fock-sweep", "1"], "--cutoff", "30", "unread"),
    (["fisher", "--fock-sweep", "1"], "--parity", "odd", "unread"),
    *((argv, option, value, "unread")
      for argv in (["measure", "--preset", "one-photon"], ["fisher", "--preset", "one-photon"],
                   ["channel", "--preset", "one-photon", "--tau", "0.7"])
      for option, value in (("--cutoff", "30"), ("--parity", "odd"))),
]


@pytest.mark.parametrize(
    "argv, option, value, effect", OPTION_CASES,
    ids=[f"{argv[0]}-{argv[1][2:]}-{option[2:]}" for argv, option, _, _ in OPTION_CASES],
)
def test_every_accepted_option_is_read_or_rejected(tmp_path, capsys, argv, option, value, effect):
    base = argv + ["--grid-points", "65"]
    default, changed = tmp_path / "default.out", tmp_path / "changed.out"
    assert main(base + ["--out", str(default)]) == 0
    capsys.readouterr()
    extra = [option] if value is None else [option, value]
    code = main(base + extra + ["--out", str(changed)])
    if effect == "rejected":
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 2 and error["type"] == "ConfigError" and option in error["message"]
        assert not changed.exists()
        return
    assert code == 0
    assert (changed.read_bytes() != default.read_bytes()) == (effect == "read")


def test_fisher_debruijn_agreement_one_photon(tmp_path, capsys):
    state = one_photon_file(tmp_path)
    out = tmp_path / "fisher.json"
    code = main(["fisher", "--fock-file", state, "--debruijn",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["debruijn"]["rel_error"] < 0.02
    capsys.readouterr()


def test_channel_identity_leaves_measure_unchanged(tmp_path, capsys):
    out = tmp_path / "chan.json"
    code = main(["channel", "--preset", "one-photon", "--tau", "1.0",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["after_fock"] == doc["before"]
    capsys.readouterr()


def test_channel_one_photon_engines_agree(tmp_path, capsys):
    out = tmp_path / "chan.json"
    code = main(["channel", "--preset", "one-photon", "--tau", "0.5",
                 "--engine", "both", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    # the half-transmissivity one-photon state is an equal vacuum/photon
    # mixture, which is Wigner-positive
    assert doc["after_fock"]["im_mu"] == 0.0
    assert doc["after_fock"]["im_mu"] < doc["before"]["im_mu"]
    assert doc["consistent"] is True
    assert doc["engine_delta"]["re_mu"] < 2e-3
    assert doc["engine_delta"]["im_mu"] < 2e-3
    capsys.readouterr()


def test_channel_cat_engines_agree(tmp_path, capsys):
    out = tmp_path / "chan.json"
    code = main(["channel", "--cat", "1.5", "--tau", "0.7",
                 "--engine", "both", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["consistent"] is True
    assert doc["engine_delta"]["re_mu"] < 2e-3
    capsys.readouterr()


def test_channel_engine_disagreement_exits_four(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.setattr(cli, "ENGINE_AGREEMENT_TOL", 1e-18)
    out = tmp_path / "chan.json"
    code = main(["channel", "--preset", "one-photon", "--tau", "0.5",
                 "--engine", "both", "--out", str(out)])
    assert code == 4
    doc = json.loads(out.read_text())
    assert doc["consistent"] is False
    assert any("disagree" in text for text in doc["warnings"])
    capsys.readouterr()


def test_channel_tau_validation(capsys):
    assert main(["channel", "--preset", "one-photon", "--tau", "1.5"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["channel", "--preset", "one-photon"])
    assert err.value.code == 2


def test_channel_phase_space_mass_loss_exits_three(capsys):
    # the output's (1 - tau)(nbar + 1/2) spread has sigma 4.4: a grid of
    # one sigma (the 6.0 floor of its half-extent) keeps 68% of its mass
    argv = ["channel", "--cat", "1.5", "--tau", "0.05", "--nbar", "20",
            "--engine", "phasespace"]
    assert main(argv + ["--extent-sigmas", "1"]) == 3
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["error"]["type"] == "TruncationRiskError"
    assert "--extent-sigmas" in doc["error"]["message"]
    assert main(argv) == 0
    capsys.readouterr()


def test_channel_strong_noise_engines_agree(tmp_path, capsys):
    # gain 20: the Kraus orders come from the closed-form tails, and the
    # exact phase-space engine holds the output at 513 points
    path = tmp_path / "channel.json"
    argv = ["channel", "--cat", "1.5", "--tau", "0.05", "--nbar", "20",
            "--engine", "both", "--out", str(path)]
    assert main(argv) == 0
    doc = json.loads(path.read_text())
    assert doc["consistent"] is True and doc["warnings"] == []
    assert doc["engine_delta"]["re_mu"] < 1e-6
    capsys.readouterr()


def test_channel_phase_space_grid_holds_the_output(tmp_path):
    # the input's own grid would lose 1.9e-4 of the output's mass past its
    # edge; the output's own moments size the grid
    path = tmp_path / "channel.json"
    argv = ["channel", "--cat", "1.5", "--tau", "0.3", "--nbar", "3",
            "--engine", "phasespace", "--out", str(path)]
    assert main(argv) == 0
    doc = json.loads(path.read_text())
    assert doc["after_phasespace"]["re_mu"] < doc["before"]["re_mu"]


@pytest.mark.parametrize("engine", ["fock", "phasespace", "both"])
@pytest.mark.parametrize("nbar", ["nan", "inf"])
def test_channel_rejects_non_finite_nbar(capsys, nbar, engine):
    argv = ["channel", "--cat", "1.5", "--tau", "0.5", "--nbar", nbar, "--engine", engine]
    assert main(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ConfigError"
    assert "--nbar" in doc["error"]["message"]


@pytest.mark.parametrize("nbar", ["1e30", "1e160"])
def test_channel_output_of_huge_occupancy_is_gaussian(tmp_path, capsys, nbar):
    # a floor on |W| once zeroed the entropy integrand of the wide output
    # (Re mu 71.2 at 1e30), and det V overflowed (Re mu inf at 1e160)
    path = tmp_path / "channel.json"
    argv = ["channel", "--cat", "1.5", "--tau", "0.5", "--nbar", nbar,
            "--engine", "phasespace", "--out", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert 0.0 <= doc["after_phasespace"]["re_mu"] < 1e-7
    assert doc["warnings"] == []


def test_channel_moments_past_the_float_range_exit_three(capsys):
    # n_bar = 1e250: the output's variances overflow the moment integrals
    argv = ["channel", "--cat", "1.5", "--tau", "0.5", "--nbar", "1e250",
            "--engine", "phasespace"]
    assert main(argv) == 3
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["error"]["type"] == "NumericalError"


def child_env():
    """This environment with the tested ngm's sources first on PYTHONPATH.

    pytest's ``pythonpath`` setting reaches this process, not its children.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(ngm_package.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ngm.cli", "measure", "--preset", "vacuum"],
        capture_output=True, text=True, env=child_env(),
    )
    assert result.returncode == 0
    assert result.stdout.startswith("re_mu = ")


NO_SCIPY_CHILD = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
import ngm, ngm.cli
print(json.dumps(loaded()))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [ngm.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, loaded()]))
"""


def test_import_loads_no_scipy():
    # a fresh interpreter, as this one has scipy loaded by other tests:
    # importing ngm, then the phase-space engine and the Gaussian smoothing
    argvs = [
        ["channel", "--cat", "1.5", "--tau", "0.5", "--engine", "both"],
        ["fisher", "--cat", "1.4", "--debruijn", "--derivative"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHILD, json.dumps(argvs)],
        capture_output=True, text=True, env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    after_import, after_run = result.stdout.splitlines()
    assert json.loads(after_import) == []
    assert json.loads(after_run) == [[0, 0], []]


def test_sources_import_no_scipy():
    src = pathlib.Path(ngm_package.__file__).parent
    paths = sorted(src.rglob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), path


def test_measure_nan_fock_file_is_numerical_error(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"dim": 2, "re": [NaN, 1.0], "im": [0.0, 0.0]}')
    assert main(["measure", "--fock-file", str(path)]) == 3
    assert "NormalizationError" in capsys.readouterr().out


def test_fisher_rounding_level_cat_exits_ok(tmp_path, capsys):
    # the gradient check once rejected this amplitude's correct gradient
    out = tmp_path / "fisher.json"
    assert main(["fisher", "--cat", "1.3164898774786777", "--out", str(out)]) == 0
    capsys.readouterr()


def test_fisher_checks_equal_library_wrappers(tmp_path, capsys):
    out = tmp_path / "fisher.json"
    assert main(["fisher", "--cat", "1.5", "--debruijn", "--derivative",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    rho = as_density(cat(1.5))
    grid = default_grid(rho)
    for key, check in (("debruijn", fisher.debruijn_check),
                       ("measure_derivative", fisher.measure_derivative_check)):
        report = check(rho, [[1.0, 0.0], [0.0, 1.0]], grid=grid)
        report.pop("fisher")
        assert doc[key] == json.loads(json.dumps(_jsonable(report)))


@pytest.mark.parametrize("argv, builds", [
    (["fisher", "--cat", "1.3", "--debruijn", "--derivative"], 1),
    (["measure", "--cat", "1.5"], 1),
    # the state twice (its measure, and the phase-space engine), the Kraus output once
    (["channel", "--cat", "1.5", "--tau", "0.7", "--engine", "both", "--cutoff", "20"], 3),
], ids=["fisher", "measure", "channel"])
def test_each_state_is_expanded_once(tmp_path, monkeypatch, capsys, argv, builds):
    # the gradient check and the smoothed fields draw on the gradient
    # field's expansion: 5 builds of the same D before
    calls = spy_on_coefficients(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
    capsys.readouterr()
    assert len(calls) == builds


def test_fisher_checks_share_one_field(tmp_path, monkeypatch, capsys):
    counts = {"gradient_synth": 0, "fisher_from_field": 0}
    synthesize = wigner._synthesize
    from_field = fisher.fisher_from_field

    def count_synth(c, grid, with_grad):
        counts["gradient_synth"] += with_grad
        return synthesize(c, grid, with_grad)

    def count_fisher(*args, **kwargs):
        counts["fisher_from_field"] += 1
        return from_field(*args, **kwargs)

    monkeypatch.setattr(wigner, "_synthesize", count_synth)
    monkeypatch.setattr(fisher, "fisher_from_field", count_fisher)
    monkeypatch.setattr(cli, "fisher_from_field", count_fisher)
    out = tmp_path / "fisher.json"
    assert main(["fisher", "--cat", "1.5", "--debruijn", "--derivative",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert counts == {"gradient_synth": 1, "fisher_from_field": 1}


@pytest.mark.parametrize("checks", [[], ["--debruijn", "--derivative"]],
                         ids=["plain", "smoothing-checks"])
def test_fisher_integrates_each_field_once(tmp_path, monkeypatch, capsys, checks):
    # the base field once, in its Fisher pass (J, V and both checks' base),
    # then each smoothed field
    calls = []
    quadrature = wigner._quadrature

    def spy(field, finish=None):
        calls.append(field)
        return quadrature(field, finish)

    for module in (wigner, measure, fisher):
        monkeypatch.setattr(module, "_quadrature", spy)
    out = tmp_path / "fisher.json"
    assert main(["fisher", "--cat", "1.4", *checks, "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(calls) == (1 + len(fisher.SMOOTHING_EPSILONS) if checks else 1)
    # V from the shared pass is the library's moments, to the bit
    field = calls[0]
    V = wigner.moments(field).V
    doc = json.loads(out.read_text())
    assert doc["trace_Vinv"] == float(np.trace(np.linalg.inv(V)))
    want = fisher.cramer_rao_check(V, fisher.fisher_from_field(field).J)
    assert doc["cramer_rao"] == json.loads(json.dumps(_jsonable(want)))


@pytest.mark.parametrize("run, fields, parities", [
    (lambda: ngm(cat(1.5, "even", 40)).validate(), 1, {(0, 0)}),
    (["fisher", "--cat", "1.3", "--debruijn", "--derivative"], 1 + len(fisher.SMOOTHING_EPSILONS),
     {(0, 0)}),
    (["channel", "--cat", "1.5", "--tau", "0.7", "--engine", "both", "--cutoff", "20"], 3,
     {(0, 0)}),
    # real states: even in p, and in q too where diagonal
    (["sweep", "--preset", "qubit-hemisphere", "--grid-points", "65"],
     len(catalog.named_preset("qubit-hemisphere").parameters), {(0, 0), (None, 0)}),
    (lambda: measure.product_measure_check(cat(1.5, "even", 40), cat(1.2, "odd", 40)), 2,
     {(0, 0)}),
    (lambda: measure.entropy_upper_bound_check(
        wigner.wigner_from_fock(cat(1.5, "even", 40).to_density()), re_form=True), 1, {(0, 0)}),
], ids=["ngm", "fisher", "channel", "sweep", "product-check", "entropy-check"])
def test_cat_commands_unfold_no_field(tmp_path, monkeypatch, capsys, run, fields, parities):
    # every field is held on its block, every pass reads it there, and no
    # field builds its whole copy
    made = []
    synthesize = wigner._synthesize_mapped

    def spy(*args):
        made.append(synthesize(*args))
        return made[-1]

    for module in (wigner, fisher, channels):
        monkeypatch.setattr(module, "_synthesize_mapped", spy)
    if callable(run):
        run()
    else:
        assert main([*run, "--out", str(tmp_path / "out.json")]) == 0
        capsys.readouterr()
    assert len(made) == fields
    assert {f._parity for f in made} <= parities
    assert [f._whole for f in made] == [[None] * 3] * fields


def test_main_builds_one_parser(tmp_path, monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        common = ["--grid-points", "65", "--cutoff", "20"]
        runs = [["measure", "--cat", "1.2", *common],
                ["fisher", "--cat", "1.2", "--debruijn", *common],
                ["fisher", "--cat", "1.2", *common],
                ["channel", "--cat", "1.2", "--tau", "0.8", *common],
                ["sweep", "--preset", "vacuum", "--grid-points", "65"]]
        docs = []
        for i, argv in enumerate(runs):
            out = tmp_path / f"{i}.out"
            assert main([*argv, "--out", str(out)]) == 0
            docs.append(out.read_bytes())
        capsys.readouterr()
        assert builds == [1]
        # the second fisher run keeps none of the first one's options
        assert "debruijn" in json.loads(docs[1]) and "debruijn" not in json.loads(docs[2])
        # and writes what a fresh parser's run writes
        cli._parser.cache_clear()
        out = tmp_path / "fresh.out"
        assert main([*runs[2], "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == docs[2]
        assert builds == [1, 1]
    finally:
        cli._parser.cache_clear()


def test_reported_point_count_is_the_grids(tmp_path, capsys):
    # PhaseSpaceGrid rounds the count up to odd; the documents report that
    out = tmp_path / "fisher.json"
    assert main(["fisher", "--cat", "1.2", "--grid-points", "128", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["points"] == 129
    grid = default_grid(as_density(cat(1.2, "even", 40)), points=128, sigmas=5.5)
    assert grid.n_q == grid.n_p == 129
    path = tmp_path / "sweep.csv"
    assert main(["sweep", "--preset", "qubit-hemisphere", "--grid-points", "100",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert read_metadata(path)["points"] == "101"
    rows = catalog.run_preset(catalog.named_preset("qubit-hemisphere"), points=100)
    assert [float(r["re_mu"]) for r in read_rows(path)] == [r["re_mu"] for r in rows]
