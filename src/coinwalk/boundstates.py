"""Closed-form boundary modes and finite-block energy conditions.

Where two ring regions with opposite sgn(sin theta) meet, the walk hosts a
pair of bound states pinned to quasi-energies E = 0 and E = pi.  Their
tails are evanescent plane waves: the real momentum k of the bulk spinor
is continued to i*kappa (or pi + i*kappa when cos E and cos theta have
opposite signs), with the decay constant tied to the energy by

    cos E = cos(theta_1) cosh(kappa_1) = cos(theta_2) cosh(kappa_2).

Every closed form takes kappa = arcsinh(sqrt((|s| - sin E)(|s| + sin E)) / |c|)
from ``_decay``, with s, c as ``lattice._coin_entries`` stores them, so a coin
whose cos it stores as 0 is a hard wall (kappa = infinity) here as in U.

For a finite block of N+1 sites with angle theta2 between exteriors of
angle theta1 (equal on both sides), the two end modes hybridize and the
energies move off 0 and pi; with s_i = sin(theta_i) the quantization
condition is tanh[k2 (N+1)] A = B, where A = sin^2 E - s1 s2 and

    B = |cos t1| sinh k1 |cos t2| sinh k2 = sqrt((s1^2 - sin^2 E)(s2^2 - sin^2 E)),

for either sign of cos(theta1) and cos(theta2) and for reflecting ends
theta1 = +/- pi/2.
With theta_3 = -theta_1 on one exterior instead (one net jump), the
condition is satisfied identically at sin E = 0 and the E = 0, pi modes
survive at any block length.

Both materialized layouts follow one rule: in each uniform region the mode is
a single evanescent Bloch tail weight * z^(n - anchor) * xi(theta, z) with real
z = e^{ik}, and the weights match the tails where the regions meet.  The ring
layout and its placement (``offset``, by default a quarter of the ring into it)
come from ``lattice.build_profile`` and ``lattice.ring_coordinates``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bulk
from .lattice import (
    CoinProfile,
    WalkerState,
    _check_angle,
    _coin_entries,
    build_profile,
    ring_coordinates,
)

REASON_OPPOSITE = "opposite-sign-ok"
REASON_SAME_SIGN = "same-sign-no-bound-state"
REASON_GAP_CLOSED = "gap-closed"

_TAIL_CEILING = 1e-10


@dataclass(frozen=True)
class ExistenceVerdict:
    exists: bool
    reason: str


@dataclass(frozen=True, eq=False)
class BoundStateSolution:
    """A materialized boundary mode on a ring.

    ``coefficients`` holds the ansatz weights: (r, t) for a single boundary,
    (A, B, C, D) for a two-boundary block.  ``seam`` is the ring bond where
    the layout wraps; the eigenvector property holds to machine precision
    everywhere farther than one site from it.
    """

    energy: float
    kappa1: float
    kappa2: float
    coefficients: tuple[complex, ...]
    configuration: str
    wavefunction: WalkerState
    profile: CoinProfile
    seam: tuple[int, int]


def _energy_family(energy: float) -> float:
    if abs(energy) <= 1e-12:
        return 0.0
    if abs(energy - np.pi) <= 1e-12:
        return float(np.pi)
    raise ValueError("closed-form boundary modes exist only at quasi-energy 0 or pi")


def _decay(theta: float):
    """kappa(sin E) = arcsinh(sqrt((|s| - sin E)(|s| + sin E)) / |c|) of theta, elementwise in sin E.

    s and c are theta's ``_coin_entries``, taken once, here; a c stored as 0 is a hard wall.
    """
    entries = _coin_entries(np.array([theta]))
    c, s = abs(entries[0, 0]), abs(entries[1, 0])
    if c == 0:
        raise ValueError("theta = +/- pi/2 is a hard wall (kappa = infinity)")

    def kappa(sin_e):
        gap = (s - sin_e) * (s + sin_e)
        if gap.flat[gap.argmin()] < 0:  # on a few entries, a fraction of min's cost
            raise ValueError("quasi-energy outside the bound-state window (cosh kappa < 1)")
        return np.arcsinh(np.sqrt(gap) / c)

    return kappa


def decay_constant(theta: float, energy: float) -> float:
    """Decay constant of a boundary-mode tail at quasi-energy 0 or pi.

    Solves |cos E| = |cos theta| cosh(kappa), sin E = 0, by ``_decay``:
    kappa = arcsinh(|tan theta|).  A coin whose cos ``lattice._coin_entries``
    stores as 0 raises ``ValueError`` as a hard wall.
    """
    theta = _check_angle(theta)
    _energy_family(energy)
    if abs(np.sin(theta)) < bulk.GAP_TOL:
        raise bulk.GapClosedError("decay constant diverges from kappa = 0 at sin(theta) = 0")
    return float(_decay(theta)(0.0))


def single_boundary_existence(theta1: float, theta2: float) -> ExistenceVerdict:
    """Bound states exist at a boundary iff sin(theta1) and sin(theta2) differ in sign."""
    _check_angle(theta1)
    _check_angle(theta2)
    s1, s2 = np.sin(theta1), np.sin(theta2)
    if abs(s1) < bulk.GAP_TOL or abs(s2) < bulk.GAP_TOL:
        return ExistenceVerdict(False, REASON_GAP_CLOSED)
    if np.sign(s1) != np.sign(s2):
        return ExistenceVerdict(True, REASON_OPPOSITE)
    return ExistenceVerdict(False, REASON_SAME_SIGN)


def single_boundary_condition_residual(
    theta1: float, theta2: float, energy: float, kappa1: float, kappa2: float
) -> complex:
    """Determinant condition for a nontrivial (r, t) at a single boundary.

    Returns i sin E - [sin t2 cos t1 sinh k1 + sin t1 cos t2 sinh k2] /
    (sin t1 - sin t2); zero exactly when the two matching equations admit a
    nonzero solution.
    """
    _check_angle(theta1)
    _check_angle(theta2)
    if kappa1 <= 0 or kappa2 <= 0:
        raise ValueError("decay constants must be positive")
    s1, s2 = np.sin(theta1), np.sin(theta2)
    if abs(s1 - s2) < 1e-14:
        raise ValueError("condition undefined at sin(theta1) = sin(theta2)")
    bracket = s2 * np.cos(theta1) * np.sinh(kappa1) + s1 * np.cos(theta2) * np.sinh(kappa2)
    return 1j * np.sin(energy) - bracket / (s1 - s2)


def _require_boundary_modes(theta1: float, theta2: float) -> None:
    """Raise unless a boundary between theta1 and theta2 hosts E = 0, pi modes."""
    verdict = single_boundary_existence(theta1, theta2)
    if verdict.reason == REASON_GAP_CLOSED:
        raise bulk.GapClosedError("no bound state: band gap closed")
    if not verdict.exists:
        raise ValueError("no bound state: sin(theta1) and sin(theta2) share a sign")


def _wire_window(theta1: float, theta2: float) -> float:
    """Upper edge of the near-zero bound-state window in |E|, below every band."""
    return min(abs(theta1), np.pi - abs(theta1), abs(theta2), np.pi - abs(theta2))


def _wire_terms(theta1: float, theta2: float, block_length):
    """E -> (sin E, A, B, x = k2 (N+1)) of the equal-exterior condition, elementwise; E-free work done once.

    B comes from (|cos t_i| sinh k_i)^2 = s_i^2 - sin^2 E = (|s_i| - sin E)(|s_i| + sin E).
    """
    s1, s2, kappa2 = np.sin(theta1), np.sin(theta2), _decay(theta2)
    abs1, abs2, product, span = abs(s1), abs(s2), s1 * s2, np.asarray(block_length) + 1

    def terms(energy):
        sin_e = np.sin(energy)
        gap1 = (abs1 - sin_e) * (abs1 + sin_e)
        gap2 = (abs2 - sin_e) * (abs2 + sin_e)
        return sin_e, sin_e * sin_e - product, np.sqrt(gap1 * gap2), kappa2(sin_e) * span

    return terms


def wire_condition_residual(
    theta1: float, theta2: float, energy: float, block_length: int
) -> float:
    """sinh(x) A - cosh(x) B of the equal-exterior condition; roots are bound-state energies.

    Defined in the window |E| <= min(|theta_i|, pi - |theta_i|) below every band.
    """
    _check_angle(theta1)
    _check_angle(theta2)
    if abs(energy) > _wire_window(theta1, theta2):
        raise ValueError("quasi-energy outside the window |E| <= min(|theta_i|, pi - |theta_i|)")
    _, a, b, x = _wire_terms(theta1, theta2, block_length)(energy)
    return float(np.sinh(x) * a - np.cosh(x) * b)


def antisymmetric_condition_residual(
    theta1: float, theta2: float, energy: float, block_length: int
) -> float:
    """Flipped-exterior condition: sin E (cos t1 sinh k1 tanh[k2(N+1)] + cos t2 sinh k2).

    Vanishes identically at E = 0 and E = pi, where sin E = 0.
    """
    _check_angle(theta1)
    _check_angle(theta2)
    # float(pi) stands for exact pi here, where the factor vanishes identically
    sin_e = 0.0 if min(abs(energy), abs(energy - np.pi), abs(energy + np.pi)) < 1e-12 else np.sin(energy)
    k1, k2 = _decay(theta1)(sin_e), _decay(theta2)(sin_e)
    span = k2 * (int(block_length) + 1)
    bracket = np.cos(theta1) * np.sinh(k1) * np.tanh(span) + np.cos(theta2) * np.sinh(k2)
    return float(sin_e * bracket)


def infinite_wire_limit(theta1: float, theta2: float) -> tuple[float, float]:
    """Decay constants of the E = 0, pi modes when the block length goes to infinity.

    Each is ``decay_constant`` at E = 0, so sinh(kappa_i) = |tan theta_i|;
    defined only for opposite-sign angle pairs, and a reflecting coin
    raises ``ValueError`` as a hard wall, as in ``decay_constant``.
    """
    _require_boundary_modes(theta1, theta2)
    return decay_constant(theta1, 0.0), decay_constant(theta2, 0.0)


def splitting_decay_rate(theta2: float) -> float:
    """Rate kappa_2 of the exp(-kappa_2 N) end-mode splitting: the E = 0 decay constant of theta2."""
    return decay_constant(theta2, 0.0)


# --- evanescent tails of the materialized modes -------------------------------


def _tail(theta: float, energy: float, decaying: bool) -> tuple[float, float, np.ndarray]:
    """(z, kappa, xi) of theta's evanescent Bloch tail at E = 0 or pi.

    z = e^{ik} is real: e^{-kappa} decays toward n = +infinity, e^{kappa} grows,
    and z is negative for the pi-shifted class k = pi + i kappa, where cos E and
    cos theta differ in sign.  xi is real with ``bulk.eigenspinor_raw`` = i xi:
    there sin k = i (1/z - z) / 2, so the raw spinor (i sin(t) z, cos(t) sin k)
    is i (sin(t) z, cos(t) (1/z - z) / 2); built in real arithmetic, it carries
    none of the rounding noise of a complex log and exp at k = pi + i kappa.
    """
    kappa, cos_t = float(_decay(theta)(0.0)), np.cos(theta)  # sin E = 0 at both energies
    sign = 1.0 if np.cos(energy) * cos_t > 0 else -1.0
    z = float(sign * np.exp(-kappa if decaying else kappa))
    return z, kappa, np.array([np.sin(theta) * z, cos_t * (1 / z - z) / 2])


def _mode_from_tails(profile: CoinProfile, offset, regions, **fields) -> BoundStateSolution:
    """Materialize weight * z^(n - anchor) * xi on each region first <= n <= last, normalized once.

    ``regions`` holds (first, last, anchor, weight, z, xi) per uniform region of
    the layout placed at ``offset``.  The seam joins the sites of the largest and
    smallest coordinate; the mode must decay there below ``_TAIL_CEILING`` of its peak.
    """
    coords = ring_coordinates(profile.length, offset, centered=True)
    amp = np.zeros((profile.length, 2))
    for first, last, anchor, weight, z, xi in regions:
        mask = (coords >= first) & (coords <= last)
        amp[mask] = (weight * z ** (coords[mask] - anchor))[:, None] * xi
    seam = (int(np.argmax(coords)), int(np.argmin(coords)))
    peak = np.max(np.abs(amp))
    if peak == 0:
        raise ValueError("mode construction produced the zero vector")
    if np.max(np.abs(amp[list(seam)])) / peak > _TAIL_CEILING:
        raise ValueError(
            "ring too small: mode tails do not decay below "
            f"{_TAIL_CEILING} before the layout seam"
        )
    amp /= np.linalg.norm(amp)
    return BoundStateSolution(wavefunction=WalkerState(amp.reshape(-1)), profile=profile, seam=seam, **fields)


def single_boundary_mode(
    theta1: float,
    theta2: float,
    energy: float,
    length: int,
    offset: int | None = None,
) -> BoundStateSolution:
    """Bound state at a single boundary (theta1 at n <= 0, theta2 at n >= 1).

    Materializes the two-tail ansatz psi(n) = r z1^n chi1 (n <= 0),
    t z2^n chi2 (n >= 1) on a ring, normalized once.  For the sign case
    theta1 > 0 > theta2 at E = 0 this reduces to the geometric form
    x^(n-1) (x, -1) with x = (1 + sin theta)/cos theta per region; the
    opposite orientation comes out of the same construction.  The spinors
    chi_i and the weights r, t are each i times a real number, so the mode
    is materialized in real arithmetic and its imaginary part is exactly 0.
    """
    energy = _energy_family(energy)
    _require_boundary_modes(theta1, theta2)
    profile = build_profile("single", length, theta1, theta2, offset=offset)
    z1, kappa1, xi1 = _tail(theta1, energy, decaying=False)
    z2, kappa2, xi2 = _tail(theta2, energy, decaying=True)
    # Left-component matching at n = 0 fixes (r, t) = i (xi2[0], xi1[0]); the
    # right-component matching at n = 1 then holds because the existence
    # condition is met.  r z1^n chi1 = -xi2[0] z1^n xi1, and likewise for t.
    r, t = xi2[0], xi1[0]
    regions = ((-np.inf, 0, 0, -r, z1, xi1), (1, np.inf, 0, -t, z2, xi2))
    return _mode_from_tails(
        profile, offset, regions, energy=energy, kappa1=kappa1, kappa2=kappa2,
        coefficients=(complex(0, r), complex(0, t)), configuration="single",
    )


def antisymmetric_mode(
    theta1: float,
    theta2: float,
    energy: float,
    block_length: int,
    length: int,
    offset: int | None = None,
) -> BoundStateSolution:
    """E = 0 or pi mode of the flipped-exterior block layout.

    Ansatz weights A = sin(theta1), B = 0, D = sin(theta2) and
    C = -sin(theta2) (z2/z3)^(N+1) = -sin(theta2) (s1 s2)^(N+1) e^{(kappa1-kappa2)(N+1)},
    where s_i are the momentum-class signs (theta3 = -theta1 shares kappa1 and s1);
    with B = 0 the mode sits at the n = 0 jump.
    The weights are real and every spinor is i times a real one, so the
    wavefunction is materialized as the ansatz divided by i: a real vector.
    """
    energy = _energy_family(energy)
    _require_boundary_modes(theta1, theta2)
    n_block = int(block_length)
    profile = build_profile("antisymmetric", length, theta1, theta2, wire_length=n_block, offset=offset)
    z1, kappa1, xi1 = _tail(theta1, energy, decaying=False)
    z2, kappa2, xi2 = _tail(theta2, energy, decaying=True)
    z3, _, xi3 = _tail(-theta1, energy, decaying=True)
    coeff_a, coeff_d = np.sin(theta1), np.sin(theta2)
    coeff_c = -coeff_d * np.power(z2 / z3, n_block + 1)
    regions = (
        (-np.inf, -1, 0, coeff_d, z1, xi1),
        (0, n_block, 0, coeff_a, z2, xi2),
        # C z3^n folded as -sin(theta2) z2^(N+1) z3^(n-N-1), safe against a large (z2/z3)^(N+1)
        (n_block + 1, np.inf, n_block + 1, -coeff_d * z2 ** (n_block + 1), z3, xi3),
    )
    return _mode_from_tails(
        profile, offset, regions, energy=energy, kappa1=kappa1, kappa2=kappa2,
        coefficients=(complex(coeff_a), 0j, complex(coeff_c), complex(coeff_d)),
        configuration="antisymmetric",
    )
