"""Acceptance gate: one test per numbered criterion, tolerances pinned.

Each test prints one ``criterion NN [name]: PASS/FAIL`` line with the
measured numbers, then asserts.  The criteria cover faithfulness and
invariance of the measure, closed-form anchors, the cat and grid-state
families, the Gaussian-associate minimizer property, dual-engine channel
equivalence, loss monotonicity, and the Fisher-information identities.

Criterion 5 is expected to fail on its plateau clause and is asserted
as stated anyway: even for exact (untruncated) grid states the
imaginary part reaches 2% of pi/2 only around a 14 dB squeezing budget
(measured against a lattice-sum oracle: 9.6% short at 10 dB, 2.5% at
12 dB, 0.34% at 14 dB), and the pinned Fock cutoff n_c=60 cannot even
represent the outer lattice peaks of a >=12 dB state, whose mean photon
number exceeds the cutoff.  The monotonicity clause of the criterion
passes.  The printed detail line carries the per-point plateau gaps so
the failure documents itself.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from expm_unitaries import displace_state, squeeze_state

from ngm.catalog import build_state, named_preset, preset_gkp_family, run_preset
from ngm.channels import (
    ThermalLossSpec,
    thermal_loss_fock,
    thermal_loss_phase_space,
)
from ngm.cli import main as cli_main
from ngm.fisher import (
    cramer_rao_check,
    debruijn_check,
    fisher_from_field,
    measure_derivative_check,
)
from ngm.fock import (
    FockDensityMatrix,
    FockVector,
    as_density,
    cat,
    coherent,
    displaced_squeezed,
    random_qudit,
    save_state,
    state_moments,
)
from ngm.measure import (
    entropy_upper_bound_check,
    measure_from_field,
    minimizer_scan,
    ngm,
    product_measure_check,
)
from ngm.numerics import PhaseSpaceGrid
from ngm.wigner import moments, wigner_from_fock, wigner_gradient

WORKERS = 4

ONE_PHOTON_IM = math.pi * (2.0 * math.exp(-0.5) - 1.0)


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{name}]: {status} - {detail}")
    assert ok, f"criterion {number:02d} [{name}] failed: {detail}"


def one_photon():
    return FockVector([0.0, 1.0])


def thermal_density(n_bar, n_max=40):
    k = np.arange(n_max + 1)
    p = (n_bar / (1.0 + n_bar)) ** k / (1.0 + n_bar)
    return FockDensityMatrix(np.diag(p / p.sum()).astype(complex))


def mixture(states, weights, dim):
    out = np.zeros((dim, dim), dtype=complex)
    for weight, state in zip(weights, states):
        rho = as_density(state).entries
        out[:rho.shape[0], :rho.shape[0]] += weight * rho
    return FockDensityMatrix(out / np.trace(out).real)


def test_criterion_01_gaussian_faithfulness():
    # 20 randomized pure Gaussians, |alpha| <= 2 and |xi| <= 1.  The Fock
    # cutoff scales with the squeezing so that truncation ripple stays
    # below the imaginary-part tolerance.
    rng = np.random.default_rng(101)
    draws = []
    for _ in range(20):
        alpha = 2.0 * rng.random() * np.exp(2j * np.pi * rng.random())
        xi = rng.uniform(-1.0, 1.0)
        draws.append((alpha, xi, 60 + int(math.ceil(100.0 * abs(xi)))))

    def run(draw):
        alpha, xi, n_c = draw
        value = ngm(displaced_squeezed(alpha, xi, n_c=n_c))
        return abs(value.re_mu), value.im_mu

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        gaps = list(pool.map(run, draws))
    worst_re = max(g[0] for g in gaps)
    worst_im = max(g[1] for g in gaps)
    report(1, "gaussian-faithfulness",
           worst_re < 1e-3 and worst_im < 1e-6,
           f"20 states, worst |re_mu|={worst_re:.2e} (tol 1e-3), "
           f"worst im_mu={worst_im:.2e} (tol 1e-6)")


def test_criterion_02_gaussian_unitary_invariance():
    parts = []
    worst = 0.0
    for name, state in (("one-photon", one_photon()),
                        ("cat(1.5)", cat(1.5, "even", n_c=40))):
        base = ngm(as_density(state))
        for tag, moved in (("D(1+0.5i)", displace_state(state, 1.0 + 0.5j)),
                           ("S(0.5)", squeeze_state(state, 0.5))):
            after = ngm(moved)
            delta = max(abs(after.re_mu - base.re_mu),
                        abs(after.im_mu - base.im_mu))
            worst = max(worst, delta)
            parts.append(f"{name} {tag}: {delta:.2e}")
    report(2, "gaussian-unitary-invariance", worst < 5e-3,
           f"worst component shift {worst:.2e} (tol 5e-3); " + "; ".join(parts))


def test_criterion_03_one_photon_negative_volume():
    value = ngm(as_density(one_photon()))
    gap = abs(value.im_mu - ONE_PHOTON_IM)
    report(3, "one-photon-negative-volume", gap < 1e-4,
           f"im_mu={value.im_mu:.8f} vs pi(2e^-1/2 - 1)={ONE_PHOTON_IM:.8f}, "
           f"gap={gap:.2e} (tol 1e-4)")


def test_criterion_04_cat_endpoints():
    even0 = ngm(as_density(cat(0.0, "even", n_c=40)))
    odd_small = ngm(as_density(cat(0.01, "odd", n_c=40)))
    one = ngm(as_density(one_photon()))
    even3 = ngm(as_density(cat(3.0, "even", n_c=40)))
    odd3 = ngm(as_density(cat(3.0, "odd", n_c=40)))
    vac_ok = abs(even0.re_mu) < 1e-3 and even0.im_mu < 1e-6
    small_re = abs(odd_small.re_mu - one.re_mu)
    small_im = abs(odd_small.im_mu - one.im_mu)
    small_ok = small_re < 1e-3 and small_im < 1e-3
    merge_re = abs(even3.re_mu - odd3.re_mu)
    merge_im = abs(even3.im_mu - odd3.im_mu)
    merge_ok = merge_re < 0.05 and merge_im < 0.05
    report(4, "cat-endpoints", vac_ok and small_ok and merge_ok,
           f"even(0): ({abs(even0.re_mu):.1e}, {even0.im_mu:.1e}) "
           f"(tol 1e-3, 1e-6); odd(0.01) vs one-photon: "
           f"({small_re:.1e}, {small_im:.1e}) (tol 1e-3); parity gap at "
           f"alpha=3: ({merge_re:.1e}, {merge_im:.1e}) (tol 0.05)")


def test_criterion_05_gkp_plateau_and_monotonicity(monkeypatch):
    # Expected to fail on the plateau clause; see the module docstring.
    monkeypatch.setenv("NGM_WORKERS", str(WORKERS))
    rows = run_preset(preset_gkp_family(), points=1025)
    series = {0: [], 1: []}
    for row in rows:
        series[int(row["logical"])].append(row)
    monotone = all(
        later["re_mu"] > earlier["re_mu"]
        for logical in series.values()
        for earlier, later in zip(logical, logical[1:])
    )
    half_pi = math.pi / 2.0
    gaps = {
        (int(row["delta_db"]), int(row["logical"])):
            abs(row["im_mu"] - half_pi) / half_pi
        for row in rows
        if row["delta_db"] >= 10
    }
    plateau = all(gap <= 0.02 for gap in gaps.values())
    gap_text = ", ".join(
        f"{db}dB/L{logical}={gap:.1%}"
        for (db, logical), gap in sorted(gaps.items())
    )
    report(5, "gkp-plateau-and-monotonicity", plateau and monotone,
           f"re_mu monotone over 2..14 dB: {monotone}; "
           f"im_mu gaps from pi/2 (tol 2%): {gap_text}")


def test_criterion_06_gaussian_associate_minimizes():
    parts = []
    worst = 0.0
    for name, state in (("vacuum", FockVector([1.0])),
                        ("one-photon", one_photon()),
                        ("cat(1.5)", cat(1.5, "even", n_c=40))):
        field = wigner_from_fock(as_density(state), points=513)
        scan = minimizer_scan(field, count=100, seed=0)
        worst = min(worst, scan["worst_drop"])
        parts.append(f"{name}: worst drop {scan['worst_drop']:.2e}")
    report(6, "gaussian-associate-minimizes", worst >= -1e-9,
           f"100 randomized arguments per state (tol -1e-9); "
           + "; ".join(parts))


def test_criterion_07_dual_engine_equivalence():
    states = [("one-photon", as_density(one_photon())),
              ("cat(1.5)", as_density(cat(1.5, "even", n_c=40)))]
    states += [(f"qubit(seed={seed})", random_qudit(2, seed=seed))
               for seed in (101, 102, 103)]
    channel_points = [(tau, n_bar)
                      for tau in (0.9, 0.5, 0.2)
                      for n_bar in (0.0, 0.1, 0.5)]
    jobs = [(name, rho, tau, n_bar)
            for name, rho in states for tau, n_bar in channel_points]

    def run(job):
        name, rho, tau, n_bar = job
        spec = ThermalLossSpec(tau, n_bar)
        kraus = ngm(thermal_loss_fock(rho, spec))
        # the phase-space output on a grid for its own moments
        mean, cov = state_moments(rho)
        noise = (1.0 - tau) * (n_bar + 0.5)
        grid = PhaseSpaceGrid.for_moments(np.sqrt(tau) * mean, tau * cov + noise * np.eye(2))
        phase = measure_from_field(thermal_loss_phase_space(rho, spec, grid))
        return (abs(kraus.re_mu - phase.re_mu),
                abs(kraus.im_mu - phase.im_mu))

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        deltas = list(pool.map(run, jobs))
    worst_re = max(d[0] for d in deltas)
    worst_im = max(d[1] for d in deltas)
    report(7, "dual-engine-equivalence",
           worst_re < 2e-3 and worst_im < 2e-3,
           f"5 states x 9 channel points: worst |d re_mu|={worst_re:.2e}, "
           f"worst |d im_mu|={worst_im:.2e} (tol 2e-3)")


def test_criterion_08_loss_monotonicity_random_qudits(monkeypatch):
    monkeypatch.setenv("NGM_WORKERS", str(WORKERS))
    rows = run_preset(named_preset("random-qudits"), points=513)
    groups = {}
    for row in rows:
        groups.setdefault((row["d"], row["seed"]), []).append(row)
    assert len(groups) == 30, f"expected 30 qudits, got {len(groups)}"
    slack = 1e-3
    worst = -np.inf
    violations = []
    for key, group in groups.items():
        taus = [row["tau"] for row in group]
        assert taus == sorted(taus, reverse=True)
        for earlier, later in zip(group, group[1:]):
            for component in ("re_mu", "im_mu"):
                rise = later[component] - earlier[component]
                worst = max(worst, rise)
                if rise > slack:
                    violations.append(
                        f"d={key[0]} seed={key[1]} {component} rises "
                        f"{rise:.2e} at tau {later['tau']:.2f}"
                    )
    report(8, "loss-monotonicity-random-qudits", not violations,
           f"30 qudits x 10 transmissivities at n_bar=0.001, worst "
           f"component rise {worst:.2e} (slack 1e-3)"
           + ("; " + "; ".join(violations[:4]) if violations else ""))


def test_criterion_09_fisher_gaussian_equality_and_cramer_rao():
    rng = np.random.default_rng(31)
    worst_gap = 0.0
    for _ in range(10):
        alpha = 2.0 * rng.random() * np.exp(2j * np.pi * rng.random())
        xi = rng.uniform(-0.5, 0.5)
        field = wigner_gradient(displaced_squeezed(alpha, xi, n_c=80),
                                points=513)
        fisher = fisher_from_field(field)
        gap = np.abs(fisher.J - np.linalg.inv(moments(field).V)).max()
        worst_gap = max(worst_gap, gap)
    gauss_ok = worst_gap < 1e-3
    # Five Wigner-positive mixtures.  All non-Gaussian except the
    # thermal one, so the Cramer-Rao margin is physical, not noise.
    mixtures = (
        ("coherent(+/-1) mix",
         mixture([coherent(1.0, n_c=40), coherent(-1.0, n_c=40)],
                 [0.5, 0.5], 41)),
        ("lossy one-photon",
         thermal_loss_fock(as_density(one_photon()),
                           ThermalLossSpec(0.45, 0.0))),
        ("thermal(1.0)", thermal_density(1.0, n_max=20)),
        ("squeezed(+/-0.3) mix",
         mixture([displaced_squeezed(0.0, 0.3, n_c=40),
                  displaced_squeezed(0.0, -0.3, n_c=40)],
                 [0.5, 0.5], 41)),
        ("coherent ring",
         mixture([coherent(1.2 * np.exp(0.5j * np.pi * k), n_c=40)
                  for k in range(4)], [0.25] * 4, 41)),
    )
    failures = []
    for name, rho in mixtures:
        field = wigner_gradient(rho, points=513)
        fisher = fisher_from_field(field)
        check = cramer_rao_check(moments(field).V, fisher.J)
        if not check["passes"]:
            failures.append(f"{name}: min eig "
                            f"{check['min_eigenvalue']:.2e}")
    report(9, "fisher-gaussian-equality-and-cramer-rao",
           gauss_ok and not failures,
           f"10 random Gaussians: worst max|J - Vinv|={worst_gap:.2e} "
           f"(tol 1e-3); positive-mixture Cramer-Rao: "
           + ("all 5 pass" if not failures else "; ".join(failures)))


def test_criterion_10_fisher_fock_sweep():
    def run(n):
        amps = np.zeros(n + 1)
        amps[n] = 1.0
        field = wigner_gradient(as_density(FockVector(amps)), points=2049)
        fisher = fisher_from_field(field)
        trace_vinv = float(np.trace(np.linalg.inv(moments(field).V)))
        return n, fisher.trace, trace_vinv, fisher.rel_gap

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        rows = list(pool.map(run, range(11)))
    trend_ok = all(trace_j >= trace_vinv - 1e-6
                   for _, trace_j, trace_vinv, _ in rows)
    worst_gap = max(rel_gap for *_, rel_gap in rows)
    report(10, "fisher-fock-sweep", trend_ok and worst_gap < 0.05,
           f"n=0..10 at 2049 points: Tr J >= Tr Vinv {trend_ok} "
           f"(slack 1e-6), worst band-convergence gap {worst_gap:.1%} "
           f"(tol 5%)")


def test_criterion_11_debruijn_identity():
    identity = np.eye(2)
    parts = []
    worst = 0.0
    for name, state, points in (("vacuum", FockVector([1.0]), 513),
                                ("one-photon", one_photon(), 513),
                                ("cat(1.5)", cat(1.5, "even", n_c=40), 1025)):
        check = debruijn_check(as_density(state), identity, points=points)
        worst = max(worst, check["rel_error"])
        parts.append(f"{name}: {check['rel_error']:.2%}")
    report(11, "debruijn-identity", worst < 0.02,
           f"entropy growth vs (1/2)Tr[GJ], G=I (tol 2%); "
           + "; ".join(parts))


def test_criterion_12_measure_derivative_formula():
    identity = np.eye(2)
    parts = []
    ok = True
    for name, state, points in (("vacuum", FockVector([1.0]), 513),
                                ("one-photon", one_photon(), 513),
                                ("cat(1.5)", cat(1.5, "even", n_c=40), 1025)):
        check = measure_derivative_check(as_density(state), identity,
                                         points=points)
        if check["rel_error"] is None:
            # Gaussian input: both sides vanish, so compare absolutely.
            good = check["abs_error"] < 1e-3
            parts.append(f"{name}: |d - ref|={check['abs_error']:.2e} "
                         "(abs tol 1e-3, reference 0)")
        else:
            good = check["rel_error"] < 0.03
            parts.append(f"{name}: {check['rel_error']:.2%}")
        ok = ok and good
    report(12, "measure-derivative-formula", ok,
           "d(re_mu)/d eps vs (1/2)Tr[G(Vinv - J)] (tol 3%); "
           + "; ".join(parts))


def test_criterion_13_product_additivity():
    parts = []
    worst = 0.0
    for name, pair in (("cat(1.5) x vacuum",
                        (cat(1.5, "even", n_c=40), FockVector([1.0]))),
                       ("one-photon x vacuum",
                        (one_photon(), FockVector([1.0])))):
        check = product_measure_check(pair[0], pair[1], points=97)
        worst = max(worst, abs(check["re_gap"]))
        parts.append(f"{name}: re gap {check['re_gap']:.2e}")
    report(13, "product-additivity", worst < 1e-2,
           "joint (factored from the per-factor passes, 97 points) vs sum of parts "
           "(tol 1e-2); "
           + "; ".join(parts))


def test_criterion_14_wigner_entropy_bound():
    positive_states = (
        ("vacuum", as_density(FockVector([1.0]))),
        ("coherent(1.2+0.8i)",
         as_density(displaced_squeezed(1.2 + 0.8j, 0.0, n_c=40))),
        ("thermal(0.5)", thermal_density(0.5)),
        ("squeezed(0.4)",
         as_density(displaced_squeezed(0.6 + 0.2j, 0.4, n_c=60))),
        ("lossy one-photon",
         thermal_loss_fock(as_density(one_photon()),
                           ThermalLossSpec(0.45, 0.0))),
    )
    parts = []
    ok = True
    for name, rho in positive_states:
        check = entropy_upper_bound_check(wigner_from_fock(rho, points=513))
        ok = ok and check["holds"]
        parts.append(f"{name}: slack {check['slack']:.3f}")
    re_check = entropy_upper_bound_check(
        wigner_from_fock(as_density(one_photon()), points=513), re_form=True)
    ok = ok and re_check["holds"]
    parts.append(f"one-photon (re form): slack {re_check['slack']:.3f}")
    report(14, "wigner-entropy-bound", ok,
           "S_W <= ln(2 pi e sqrt(det V)) + 1e-6; " + "; ".join(parts))


def test_criterion_15_state_file_ingestion_roundtrip(tmp_path):
    state = cat(1.2, "odd", n_c=40)
    state_path = tmp_path / "state.json"
    save_state(state, state_path)
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli_main(["measure", "--fock-file", str(state_path),
                     "--out", str(first)]) == 0
    assert cli_main(["measure", "--fock-file", str(state_path),
                     "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    direct = ngm(as_density(state))
    exact = (doc["re_mu"] == direct.re_mu
             and doc["im_mu"] == direct.im_mu
             and doc["neg_volume"] == direct.neg_volume)
    report(15, "state-file-ingestion-roundtrip", identical and exact,
           f"rerun byte-identical: {identical}; file-fed CLI equals "
           f"direct library call exactly: {exact}")
