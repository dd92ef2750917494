"""Band theory of the translationally invariant coin-shift walk.

For a uniform coin angle theta the plane-wave eigenstates at momentum k
diagonalize the 2x2 Bloch matrix

    U(k) = [[cos(t) e^{ik},  sin(t) e^{ik}],
            [-sin(t) e^{-ik}, cos(t) e^{-ik}]]

with quasi-energies +/-E given by the dispersion cos E = cos(theta) cos(k).
U(k) = exp(-i H(k)) with H(k) = E(k) n(k).sigma, where

    n(k) = -(sin t sin k, sin t cos k, cos t sin k) / sin E

is a unit vector confined to the plane orthogonal to the chiral axis
A(theta) = sgn(sin t) (cos t, 0, -sin t).  Rotating that plane onto the
x-y plane leaves only the off-diagonal amplitude

    h(k) = sin k - i sin(t) cos(k),

whose winding around the origin over one Brillouin zone is the integer
invariant m = sgn(sin theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import _check_angle, _chiral_frame, _integers

GAP_TOL = 1e-9

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class GapClosedError(ValueError):
    """Raised when an operation is undefined because the band gap is closed."""


def pauli_vector(v) -> np.ndarray:
    """v . sigma for a real or complex 3-vector v."""
    v = np.asarray(v)
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def dispersion(theta: float, k):
    """Positive-branch quasi-energy E = arccos(cos(theta) cos(k)) in [0, pi]; an array of k gives an array."""
    _check_angle(theta)
    energy = np.arccos(np.clip(np.cos(theta) * np.cos(k), -1.0, 1.0))
    return energy if np.ndim(energy) else float(energy)


def eigenspinor_raw(theta: float, k: complex, energy: float) -> np.ndarray:
    """Unnormalized eigenspinor (i sin(t) e^{ik}, sin E + cos(t) sin(k)).

    ``k`` may be complex (evanescent momenta i*kappa, pi + i*kappa); the pair
    (energy, k) must satisfy the dispersion cos E = cos(theta) cos(k).
    Never divides by sin E, so it stays usable at E = 0 and E = pi.
    """
    _check_angle(theta)
    k = complex(k)
    if abs(np.cos(energy) - np.cos(theta) * np.cos(k)) > 1e-10:
        raise ValueError("(energy, k) violate the dispersion relation")
    return np.array(
        [1j * np.sin(theta) * np.exp(1j * k), np.sin(energy) + np.cos(theta) * np.sin(k)],
        dtype=complex,
    )


def eigenspinor(theta: float, k: float, branch: int = +1) -> np.ndarray:
    """Normalized band eigenspinor at real momentum k for branch +1 or -1.

    Satisfies bloch_unitary(theta, k) @ spinor = exp(-i branch E) spinor.
    Raises when sin E vanishes (band edge: the normalization is singular).
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    energy = dispersion(theta, k)
    if abs(np.sin(energy)) < GAP_TOL:
        raise GapClosedError("eigenspinor normalization is singular at sin E = 0")
    raw = eigenspinor_raw(theta, k, branch * energy)
    norm = np.linalg.norm(raw)
    if norm < 1e-12:
        raise ValueError("eigenspinor degenerates at sin(theta) = 0")
    return raw / norm


def bloch_unitary(theta: float, k: float) -> np.ndarray:
    """One-step evolution restricted to momentum k."""
    _check_angle(theta)
    c, s = np.cos(theta), np.sin(theta)
    ek = np.exp(1j * k)
    return np.array([[c * ek, s * ek], [-s / ek, c / ek]], dtype=complex)


def bloch_vector(theta: float, k) -> np.ndarray:
    """Unit vector n(k) with H(k) = E(k) n(k).sigma; an array of k gives shape (3, len(k)).

    Raises ``GapClosedError`` when sin E vanishes at any of the momenta.
    """
    sin_e = np.sin(dispersion(theta, k))
    if np.any(np.abs(sin_e) < GAP_TOL):
        raise GapClosedError("Bloch vector undefined where the gap closes (sin E = 0)")
    c, s = np.cos(theta), np.sin(theta)
    return -np.array([s * np.sin(k), s * np.cos(k), c * np.sin(k)]) / sin_e


def effective_hamiltonian(theta: float, k: float) -> np.ndarray:
    """H(k) = E(k) [n(k).sigma]; exp(-i H(k)) reproduces bloch_unitary."""
    return dispersion(theta, k) * pauli_vector(bloch_vector(theta, k))


def chiral_axis(theta: float) -> np.ndarray:
    """Chiral axis A(theta) = sgn(sin t) (cos t, 0, -sin t); needs sin(theta) != 0."""
    _check_angle(theta)
    s = np.sin(theta)
    if abs(s) < GAP_TOL:
        raise GapClosedError("chiral axis undefined at sin(theta) = 0 (gap closed)")
    return np.sign(s) * np.array([np.cos(theta), 0.0, -s])


def chiral_operator(theta: float) -> np.ndarray:
    """Pi = exp(i pi/2 A.sigma) = i A.sigma; anticommutes with H(k) for every k."""
    return 1j * pauli_vector(chiral_axis(theta))


def frame_rotation(theta: float) -> np.ndarray:
    """Rotation about y by (pi/2 - theta)/2 that off-diagonalizes H(k).

    Its columns are the chiral frame's (-w_-, w_+) from ``lattice._chiral_frame``.
    With L = frame_rotation(theta), L^{-1} H(k) L has zero diagonal and its
    upper-right entry is proportional to h(k) = offdiagonal_h(theta, k)
    (overall scalar E/sin E and a k-independent phase).
    """
    return (_chiral_frame(np.array([_check_angle(theta)]))[0][:, ::-1] * [-1, 1]).astype(complex)


def offdiagonal_h(theta: float, k) -> complex | np.ndarray:
    """Off-diagonal amplitude h(k) = sin(k) - i sin(theta) cos(k)."""
    _check_angle(theta)
    return np.sin(k) - 1j * np.sin(theta) * np.cos(k)


@dataclass(frozen=True, eq=False)
class WindingResult:
    """Quantized winding ``m`` together with the raw phase integral."""

    m: int
    integral_value: float


def winding_number(theta: float, grid_points: int = 1024) -> WindingResult:
    """Winding of h(k) around the origin as k sweeps the Brillouin zone.

    Accumulates principal-value phase increments of h on a uniform k-grid,
    refining the grid if any single increment exceeds pi/2.  The rounded
    integral equals sgn(sin theta); at sin(theta) = 0 the gap closes and the
    invariant is undefined.  ``grid_points`` is an integer >= 64 by ``lattice._integers``.
    """
    _check_angle(theta)
    pts = _integers(grid_points, "grid points")
    if pts < 64:
        raise ValueError("grid_points must be at least 64")
    if abs(np.sin(theta)) < GAP_TOL:
        raise GapClosedError("winding undefined: band gap closes at sin(theta) = 0")
    while True:
        k = np.linspace(-np.pi, np.pi, pts + 1)
        h = offdiagonal_h(theta, k)
        increments = np.angle(h[1:] / h[:-1])
        if np.max(np.abs(increments)) <= np.pi / 2:
            break
        pts *= 2
        if pts > 1 << 21:
            raise RuntimeError("winding phase steps did not resolve under refinement")
    total = float(increments.sum() / (2 * np.pi))
    m = int(round(total))
    if abs(total - m) > 1e-6 or m not in (-1, 1):
        raise RuntimeError(f"winding integral {total!r} did not quantize to +/-1")
    return WindingResult(m=m, integral_value=total)


def particle_hole_check(theta: float, k: float) -> float:
    """Max-norm residual of conj(H(k)) + H(-k); vanishes for real coins."""
    h_plus = effective_hamiltonian(theta, k)
    h_minus = effective_hamiltonian(theta, -k)
    return float(np.max(np.abs(np.conj(h_plus) + h_minus)))
