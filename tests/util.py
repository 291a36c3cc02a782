"""Shared generators for the randomized test ensembles."""

import numpy as np
from scipy.linalg import expm

from gnp.matcore import structured


def random_symplectic(n_modes, rng, scale=0.3):
    """exp(J M) for random symmetric M lies in the symplectic group."""
    d = 2 * n_modes
    M = rng.standard_normal((d, d)) * scale
    M = 0.5 * (M + M.T)
    return expm(structured("J", n_modes) @ M)


def random_valid_g(n_modes, rng):
    """Random kernel in the Williamson class: G = S^T diag(omega, omega) S."""
    omegas = rng.uniform(0.4, 2.0, n_modes)
    S = random_symplectic(n_modes, rng)
    K = np.diag(np.concatenate([omegas, omegas]))
    G = S.T @ K @ S
    return 0.5 * (G + G.T)


def off_real_symmetric(part, delta):
    """The 2 x 2 identity moved off the real symmetric class by exactly delta:
    an asymmetric off-diagonal entry or an imaginary diagonal part."""
    M = np.eye(2, dtype=complex)
    if part == "asymmetric":
        M[0, 1] = delta
    else:
        M[0, 0] += 1j * delta
    return M


def random_symmetric(dim, rng, scale=1.0):
    M = rng.standard_normal((dim, dim)) * scale
    return 0.5 * (M + M.T)
