"""Displacement, squeezing and rotation of Fock-basis states by matrix exponentials.

The test oracle for Gaussian unitaries: dense `expm` of the generators in a
padded Fock space, independent of the closed-form displacement elements
that `ngm.fock` builds its states from, and the dense ladder operator and
zero-padding they and the operator-trace oracles are built on.
"""

import numpy as np
from scipy.linalg import expm

from ngm.errors import CutoffError
from ngm.fock import FockDensityMatrix, as_density


def annihilation_matrix(dim):
    """Matrix of â with ⟨n-1|â|n⟩ = √n."""
    dim = int(dim)
    if dim < 2:
        raise ValueError("annihilation_matrix needs dim >= 2")
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def embed(state, dim):
    """The state's density matrix zero-padded to dim Fock levels."""
    rho = as_density(state)
    out = np.zeros((dim, dim), dtype=complex)
    out[: rho.dim, : rho.dim] = rho.entries
    return FockDensityMatrix(out)


def gaussian_unitary(generator_dim, alpha=None, xi=None):
    """D(α)S(ξ) on the first generator_dim Fock levels."""
    a = annihilation_matrix(generator_dim)
    ad = a.conj().T
    u = np.eye(generator_dim, dtype=complex)
    if xi:
        u = expm((xi / 2.0) * (a @ a - ad @ ad)) @ u
    if alpha:
        u = expm(alpha * ad - np.conj(alpha) * a) @ u
    return u


def _apply_unitary(state, u, trace_tol=1e-6):
    rho = as_density(state)
    out = u @ embed(rho, u.shape[0]).entries @ u.conj().T
    tr = np.trace(out).real
    if tr < 1.0 - trace_tol:
        raise CutoffError(f"unitary application lost trace ({tr:.8f}); raise headroom")
    return FockDensityMatrix(out / tr)


def displace_state(state, alpha, headroom=24):
    """D(α) ρ D(α)† in a padded Fock space, renormalized."""
    rho = as_density(state)
    return _apply_unitary(rho, gaussian_unitary(rho.dim + int(headroom), alpha=alpha))


def squeeze_state(state, xi, headroom=24):
    """S(ξ) ρ S(ξ)† in a padded Fock space, renormalized."""
    rho = as_density(state)
    return _apply_unitary(rho, gaussian_unitary(rho.dim + int(headroom), xi=xi))


def rotate_state(state, theta):
    """R(θ) ρ R(θ)† with R(θ) = exp(-iθ â†â), which keeps the Fock levels."""
    rho = as_density(state)
    a = annihilation_matrix(max(rho.dim, 2))
    return _apply_unitary(rho, expm(-1j * theta * (a.conj().T @ a)))
