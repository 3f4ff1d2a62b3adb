"""Truncated Fock-basis states and operators.

States live in a hard-truncated space of dimension dim = cutoff + 1.
Constructors that truncate a physical state check the dropped weight and
renormalize; the checks raise :class:`~ngm.errors.CutoffError` when the
cutoff is genuinely too small rather than papering over it.

Ladder convention: ⟨n-1|â|n⟩ = √n.  Quadratures q = (â + â†)/√2,
p = (â - â†)/(i√2), so a coherent state |α⟩ sits at (√2 Re α, √2 Im α).
"""

import json

import numpy as np

from .errors import CutoffError, NormalizationError
from .numerics import _log_factorial, _three_term

__all__ = [
    "FockVector",
    "FockDensityMatrix",
    "as_density",
    "coherent",
    "cat",
    "displaced_squeezed",
    "gkp_logical",
    "qubit_rotation",
    "random_qudit",
    "apply_qubit_state",
    "state_moments",
    "fidelity",
    "trim_density",
    "state_to_json",
    "state_from_json",
    "save_state",
    "load_state",
]


class FockVector:
    """Pure state as a complex amplitude vector over |0⟩..|dim-1⟩."""

    def __init__(self, amplitudes, normalize=False):
        amp = np.asarray(amplitudes, dtype=complex).ravel()
        if amp.size < 1:
            raise ValueError("empty amplitude vector")
        if normalize:
            norm = np.linalg.norm(amp)
            if not (np.isfinite(norm) and norm > 0.0):
                raise ValueError(f"cannot normalize: norm {norm}")
            amp = amp / norm
        self.amplitudes = amp

    @property
    def dim(self):
        return self.amplitudes.size

    def validate(self, tol=1e-10):
        norm = np.linalg.norm(self.amplitudes)
        if not abs(norm - 1.0) <= tol:
            raise NormalizationError(f"state norm {norm} deviates from 1 beyond {tol}")
        return self

    def to_density(self):
        return FockDensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other):
        n = max(self.dim, other.dim)
        a = np.zeros(n, dtype=complex)
        b = np.zeros(n, dtype=complex)
        a[: self.dim] = self.amplitudes
        b[: other.dim] = other.amplitudes
        return np.vdot(a, b)


class FockDensityMatrix:
    """Mixed state c_{nm} = ⟨n|ρ|m⟩ on the truncated Fock basis."""

    def __init__(self, entries, normalize=False):
        mat = np.asarray(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("density matrix must be square and non-empty")
        if normalize:
            tr = np.trace(mat).real
            if not (np.isfinite(tr) and tr > 0.0):
                raise ValueError(f"cannot normalize: trace {tr}")
            mat = mat / tr
        self.entries = mat

    @property
    def dim(self):
        return self.entries.shape[0]

    def validate(self, herm_tol=1e-12, trace_tol=1e-10, psd_tol=1e-9):
        m = self.entries
        herm = np.max(np.abs(m - m.conj().T))
        if not herm <= herm_tol:
            raise NormalizationError(f"Hermiticity residue {herm:.2e} > {herm_tol:.0e}")
        tr = np.trace(m).real
        if not abs(tr - 1.0) <= trace_tol:
            raise NormalizationError(f"trace {tr} deviates from 1 beyond {trace_tol:.0e}")
        lo = np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()
        if not lo >= -psd_tol:
            raise NormalizationError(f"minimum eigenvalue {lo:.2e} < -{psd_tol:.0e}")
        return self


def as_density(state):
    """Coerce FockVector / FockDensityMatrix / raw array to a density matrix."""
    if isinstance(state, FockDensityMatrix):
        return state
    if isinstance(state, FockVector):
        return state.to_density()
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return FockVector(arr).to_density()
    return FockDensityMatrix(arr)


def _coherent_amplitudes(alpha, n_c):
    if not np.isfinite(alpha):
        raise ValueError(f"coherent amplitude alpha must be finite, got {alpha}")
    # log-space magnitudes keep large |alpha| finite
    n = np.arange(n_c + 1)
    lf = _log_factorial(n_c)
    a = abs(alpha)
    if a == 0.0:
        amp = np.zeros(n_c + 1, dtype=complex)
        amp[0] = 1.0
        return amp
    logmag = n * np.log(a) - 0.5 * lf - 0.5 * (a * a)  # a**2 raises past 1e154
    # (alpha/|alpha|)^n is exactly (+-1)^n for a real alpha; e^{i n pi} is not
    return np.exp(logmag) * (alpha / a) ** n


def coherent(alpha, n_c=40):
    """Truncated coherent state |α⟩; raises when the cutoff leaks > 1e-8."""
    n_c = int(n_c)
    if n_c < 1:
        raise ValueError("coherent needs n_c >= 1")
    amp = _coherent_amplitudes(alpha, n_c)
    leak = 1.0 - float(np.sum(np.abs(amp) ** 2))
    if not leak <= 1e-8:
        raise CutoffError(f"coherent truncation leakage {leak:.3e} > 1e-8 at n_c={n_c}")
    return FockVector(amp, normalize=True)


def cat(alpha, parity="even", n_c=40):
    """Normalized (|α⟩ ± |−α⟩) superposition, α real.

    Even parity takes the + sign (vacuum at α = 0); the odd cat tends to
    |1⟩ as α → 0 and is undefined at exactly 0.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    n_c = int(n_c)
    if n_c < 1:
        raise ValueError("cat needs n_c >= 1")
    alpha = float(alpha)
    sign = 1.0 if parity == "even" else -1.0
    if alpha == 0.0 and parity == "odd":
        raise ValueError("odd cat is singular at alpha = 0; use a small alpha")
    plus = _coherent_amplitudes(alpha, n_c)
    leak = 1.0 - float(np.sum(np.abs(plus) ** 2))
    if not leak <= 1e-8:
        raise CutoffError(f"cat truncation leakage {leak:.3e} > 1e-8 at n_c={n_c}")
    # <n|-alpha> = (-1)^n <n|alpha> exactly: odd (even) entries cancel to 0.0
    amp = plus + sign * (-1.0) ** np.arange(n_c + 1) * plus
    return FockVector(amp, normalize=True)


def _displaced_squeezed_rows(alpha, xi, n_c):
    """Rows ⟨n|D(α_j)S(ξ)|0⟩ for n ≤ n_c, one per displacement α_j.

    D(α)S(ξ)|0⟩ = c_0 exp(β â† − (t/2) â†²)|0⟩ with t = tanh ξ, β = α + tα*
    and c_0 = exp(−|α|²/2 − tα*²/2)/√cosh ξ, so the amplitudes obey the
    Hermite three-term recurrence √(n+1) c_{n+1} = β c_n − t √n c_{n−1}
    (Yuen, PRA 13, 2226 (1976)), run over all rows at once by
    ``_three_term``.  c_0 underflows at far sites while the kept amplitudes
    need not, so there it enters as a mantissa and a binary exponent.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    t = np.tanh(xi)
    beta = alpha + t * alpha.conj()
    # Re log c_0, with log cosh ξ written so that it cannot overflow
    log_c0 = -0.5 * ((1.0 + t) * alpha.real**2 + (1.0 - t) * alpha.imag**2)
    log_c0 -= 0.5 * (abs(xi) + np.log1p(np.exp(-2.0 * abs(xi))) - np.log(2.0))
    log2_c0 = log_c0 / np.log(2.0)
    exp = np.where(log2_c0 < -1022.0, np.floor(log2_c0), 0.0)
    c0 = np.exp2(log2_c0 - exp) * np.exp(1j * t * alpha.real * alpha.imag)
    step = 1.0 / np.sqrt(np.arange(1.0, n_c + 1.0))
    back = t * np.sqrt(np.arange(n_c) / np.arange(1.0, n_c + 1.0))
    return _three_term(beta, c0, exp, step, back, n_c + 1).T


def displaced_squeezed(alpha, xi, n_c=40):
    """D(α)S(ξ)|0⟩ on n ≤ n_c, by the Hermite three-term recurrence.

    Positive ξ squeezes Var q below the vacuum 1/2.  The amplitudes are
    those of the untruncated state, so the norm they miss is the real
    truncation loss; more than 1e-6 of it raises.
    """
    n_c = int(n_c)
    if n_c < 1:
        raise ValueError("displaced_squeezed needs n_c >= 1")
    xi = float(xi)
    if not (np.isfinite(alpha) and np.isfinite(xi)):
        raise ValueError("displaced_squeezed needs finite alpha and xi")
    kept = _displaced_squeezed_rows(alpha, xi, n_c)[0]
    norm = np.linalg.norm(kept)
    if not norm >= 1.0 - 1e-6:
        raise CutoffError(
            f"displaced_squeezed keeps norm {norm:.8f} < 1 - 1e-6 at n_c={n_c}"
        )
    return FockVector(kept, normalize=True)


def gkp_logical(logical, delta, t_max=None, n_c=60):
    """Finite-energy square-lattice GKP logical state.

    Weighted sum of squeezed peaks displaced along q: logical 0 over even
    lattice sites 2t√π, logical 1 over odd sites (2t+1)√π, envelope weight
    exp(-(π/2)Δ²s²) at site s, squeezing ξ = −ln Δ.  Every peak's
    amplitudes come from one recurrence over the sites s ≥ 0 at once; as
    the peak at −s is (−1)^n times the one at s, the state is their weighted
    row sum (site 0 at half weight) times 1 + (−1)^n, renormalised.  When
    t_max is omitted it grows until the first dropped envelope weight is below 1e-10.
    """
    if logical not in (0, 1):
        raise ValueError("logical must be 0 or 1")
    delta = float(delta)
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError("delta must be positive and finite")
    xi = -np.log(delta)
    if t_max is None:
        t_max = 1
        while np.exp(-(np.pi / 2) * delta**2 * (2 * t_max) ** 2) >= 1e-10 and t_max < 40:
            t_max += 1
    t_max = int(t_max)
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    sites = 2 * np.arange(t_max + 1 - logical) + logical
    w = np.exp(-(np.pi / 2) * delta**2 * sites**2) / (1.0 + (sites == 0))
    rows = _displaced_squeezed_rows(sites * np.sqrt(np.pi), xi, int(n_c))
    pair = 1.0 + (-1.0) ** np.arange(rows.shape[1])
    return FockVector((w @ rows) * pair, normalize=True)


def qubit_rotation(theta, phi):
    """Rotation [[cos θ/2, e^{iφ} sin θ/2], [e^{-iφ} sin θ/2, -cos θ/2]]."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array(
        [[c, np.exp(1j * phi) * s], [np.exp(-1j * phi) * s, -c]], dtype=complex
    )


def _haar_from_rng(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    # without this phase correction QR is not Haar-distributed
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def _simplex_point(d, rng):
    # sorted uniform spacings give the flat Dirichlet
    cuts = np.sort(rng.uniform(size=d - 1))
    return np.diff(np.concatenate(([0.0], cuts, [1.0])))


def random_qudit(d, logical_fock_levels=None, seed=0):
    """Random d-level state embedded at the given Fock levels.

    Diagonal drawn uniformly on the probability simplex, conjugated by a
    Haar unitary from the same seeded stream.
    """
    d = int(d)
    if d < 1:
        raise ValueError("random_qudit needs d >= 1")
    levels = list(range(d)) if logical_fock_levels is None else [int(x) for x in logical_fock_levels]
    if len(levels) != d or len(set(levels)) != d:
        raise ValueError("need d distinct logical Fock levels")
    rng = np.random.default_rng(seed)
    if d == 1:
        small = np.ones((1, 1), dtype=complex)
    else:
        u = _haar_from_rng(d, rng)
        small = u @ np.diag(_simplex_point(d, rng)).astype(complex) @ u.conj().T
    return _embed_levels(small, levels)


def _embed_levels(small, levels):
    if min(levels) < 0:  # numpy would read a negative level from the top
        raise ValueError(f"Fock levels must be non-negative, got {levels}")
    dim = max(levels) + 1
    out = np.zeros((dim, dim), dtype=complex)
    idx = np.asarray(levels)
    out[np.ix_(idx, idx)] = small
    return FockDensityMatrix(out)


def apply_qubit_state(r, theta, phi, logical_levels=(0, 1)):
    """U(θ,φ) [r|0̄⟩⟨0̄| + (1−r)|1̄⟩⟨1̄|] U†, embedded at the logical levels."""
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError("mixing parameter r must lie in [0, 1]")
    levels = [int(x) for x in logical_levels]
    if len(levels) != 2 or levels[0] == levels[1]:
        raise ValueError("logical_levels must be two distinct Fock levels")
    u = qubit_rotation(theta, phi)
    small = u @ np.diag([r, 1.0 - r]).astype(complex) @ u.conj().T
    return _embed_levels(small, levels)


def state_moments(state):
    """Quadrature mean and covariance by operator traces.

    Independent of any phase-space grid: d_i = Tr(ρ r̂_i), V_ij from the
    symmetrized second moments.  Returns (mean[2], cov[2,2]).  The traces
    read three diagonals of ρ: Tr(ρ â^k) = Σ √(n!/(n-k)!) ρ[n, n-k],
    Tr(ρ â†^k) the same over ρ[n-k, n], and Tr(ρ â†â) = Σ n ρ[n, n],
    which hold for the truncated state as it is (ââ† = â†â + 1 exactly).
    """
    rho = as_density(state).entries
    n = np.arange(rho.shape[0], dtype=float)
    one = np.sqrt(n[1:])
    two = np.sqrt(n[2:] * n[1:-1])
    a, ad = one @ np.diagonal(rho, -1), one @ np.diagonal(rho, 1)
    a2, ad2 = two @ np.diagonal(rho, -2), two @ np.diagonal(rho, 2)
    sym = 2.0 * (n @ np.diagonal(rho)).real + 1.0
    dq = (a + ad).real / np.sqrt(2.0)
    dp = (a - ad).imag / np.sqrt(2.0)
    vqq = 0.5 * ((a2 + ad2).real + sym) - dq**2
    vpp = 0.5 * (sym - (a2 + ad2).real) - dp**2
    vqp = 0.5 * (a2 - ad2).imag - dq * dp
    return np.array([dq, dp]), np.array([[vqq, vqp], [vqp, vpp]])


def fidelity(a, b):
    """|⟨a|b⟩|² for pure states (vectors padded to a common dimension)."""
    return abs(a.overlap(b)) ** 2


def trim_density(rho, tol=1e-12):
    """Drop trailing Fock levels whose cumulative population is below tol."""
    rho = as_density(rho)
    pop = np.real(np.diag(rho.entries))
    tail = np.cumsum(pop[::-1])[::-1]
    keep = rho.dim
    while keep > 1 and tail[keep - 1] < tol:
        keep -= 1
    if keep == rho.dim:
        return rho
    return FockDensityMatrix(rho.entries[:keep, :keep], normalize=True)


# ------------------------------------------------------------ serialization


def state_to_json(state):
    """JSON document {dim, re, im}; nested lists for density matrices."""
    if isinstance(state, FockVector):
        return {
            "dim": state.dim,
            "re": state.amplitudes.real.tolist(),
            "im": state.amplitudes.imag.tolist(),
        }
    rho = as_density(state)
    return {
        "dim": rho.dim,
        "re": rho.entries.real.tolist(),
        "im": rho.entries.imag.tolist(),
    }


def state_from_json(doc):
    """Inverse of state_to_json; accepts vector (1-d) or matrix (2-d) docs."""
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc["im"], dtype=float)
    if re.shape != im.shape:
        raise ValueError("re/im shapes differ")
    if int(doc["dim"]) != re.shape[0]:
        raise ValueError("dim field does not match array shape")
    data = re + 1j * im
    if data.ndim == 1:
        return FockVector(data).validate()
    return FockDensityMatrix(data).validate()


def save_state(state, path):
    with open(path, "w") as fh:
        json.dump(state_to_json(state), fh)


def load_state(path):
    with open(path) as fh:
        return state_from_json(json.load(fh))
