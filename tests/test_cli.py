"""Command-line interface tests.

The contract under test: every CLI number equals the corresponding
library call on the same arguments, reruns with identical configuration
are byte-identical, and the exit-code scheme is 0 success, 2 config
error, 3 numerical precondition failure, 4 cross-engine inconsistency.
"""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ngm import catalog, cli, fisher, measure, wigner
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


def test_numerical_precondition_failure_exits_three(capsys):
    # a cat state far too large for the requested Fock cutoff
    assert main(["measure", "--cat", "8.0", "--cutoff", "40"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["exit_code"] == 3
    # a grid too small to hold the state's mass
    assert main(["measure", "--cat", "3.0", "--extent-sigmas", "1.5"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "NormalizationError"


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
    header = out.read_text().splitlines()[0]
    assert header == "n,trace_J,trace_Vinv,excluded_fraction,band"
    rows = read_rows(out)
    assert [row["n"] for row in rows] == ["0", "1", "2"]
    for row in rows:
        assert float(row["trace_J"]) >= float(row["trace_Vinv"]) - 1e-4
    capsys.readouterr()


def test_fisher_fock_sweep_rejects_state_source(capsys):
    assert main(["fisher", "--fock-sweep", "2", "--preset", "vacuum"]) == 2
    capsys.readouterr()


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


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ngm.cli", "measure", "--preset", "vacuum"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("re_mu = ")


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
    # the base field once (V and both checks), then each smoothed field
    calls = []
    quadrature = wigner._quadrature

    def spy(field):
        calls.append(field)
        return quadrature(field)

    monkeypatch.setattr(wigner, "_quadrature", spy)
    monkeypatch.setattr(measure, "_quadrature", spy)
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
