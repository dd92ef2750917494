"""Ring lattice model and one-step evolution of a two-component walker.

The walker carries a two-dimensional internal (left/right) state at each of
L ring sites.  One time step applies a site-dependent coin rotation

    C(theta) = [[cos theta,  sin theta],
                [-sin theta, cos theta]]

to every internal doublet and then a conditional shift that moves left
components one site leftward and right components one site rightward, with
periodic wrap.  Composite step: U = S C (coin first, shift second).

Amplitudes are stored as one flat interleaved complex vector
(a0, b0, a1, b1, ...) so that the step is exactly the 2L x 2L matrix
assembled by ``spectral.build_unitary``: both take their coin entries from
``_coin_entries``, so a reflecting coin cuts the same bonds in each.  The
step moves every component by one site, so the walk is bipartite: on an
even ring the sites of parity (x + t) mod 2 form a sublattice class that
never mixes with the other.  ``evolve`` steps the state per class and skips
a class that is exactly zero (a delta start occupies one); an odd ring is
stepped on its double cover, where one class holds every site once.  The
step is real, so ``evolve`` runs a state with zero imaginary part in real
arithmetic: a delta start, or an E = 0, pi boundary mode, which is
self-conjugate and materialized as a real vector.

Named coin layouts are mapped onto the ring through an integer ``offset``:
the site carrying layout coordinate n sits at ring index (offset + n) % L.
Layouts with two unequal exterior angles close the ring with a seam on the
far side of the boundary, placed so both exponential tails of a boundary
mode have maximal room.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

PROFILE_KINDS = ("uniform", "single", "symmetric", "antisymmetric", "wire")

_NORM_GUARD = 1e-9
_EPS = np.finfo(float).eps


def _in_angle_range(angles) -> np.ndarray:
    """Whether each coin angle is finite and lies in [-pi, pi], to 1e-12; NaN compares false."""
    return np.abs(angles) <= np.pi + 1e-12


def _integers(value, name: str, minimum: int | None = None):
    """``value`` as int64, not truncated: a bool, a float (3.0 too) or an entry below ``minimum`` raises ``ValueError``."""
    values = np.asarray(value)
    if values.dtype.kind not in "iu" or (minimum is not None and np.any(values < minimum)):
        raise ValueError(f"{name} must be integers{'' if minimum is None else f' >= {minimum}'}, not {value!r}")
    return values.astype(np.int64)[()]


def _check_angle(theta: float) -> float:
    theta = float(theta)
    if not _in_angle_range(theta):
        raise ValueError(f"coin angle must lie in [-pi, pi], got {theta!r}")
    return theta


@dataclass(frozen=True, eq=False)
class CoinProfile:
    """Assignment of one coin angle to every site of the ring.

    ``angles`` is copied into a read-only float array; every entry must be
    finite and lie in [-pi, pi].
    """

    angles: np.ndarray

    def __post_init__(self):
        arr = np.array(self.angles, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("profile needs a one-dimensional, non-empty angle array")
        if not np.all(_in_angle_range(arr)):
            raise ValueError("all coin angles must be finite and lie in [-pi, pi]")
        arr.setflags(write=False)
        object.__setattr__(self, "angles", arr)

    @property
    def length(self) -> int:
        return int(self.angles.size)


def ring_coordinates(length: int, offset: int | None, centered: bool) -> np.ndarray:
    """Layout coordinate n of every ring site; site (offset + n) % L has coordinate n.

    ``offset`` is an integer by ``_integers``; None places n = 0 at site L // 4, the one default
    placement of every layout.  ``centered`` selects n in [-L//2, L - L//2); otherwise n in [0, L).
    """
    offset = length // 4 if offset is None else _integers(offset, "offsets") % length
    sites = np.arange(length)
    if centered:
        return ((sites - offset + length // 2) % length) - length // 2
    return (sites - offset) % length


def build_profile(
    kind: str,
    length: int,
    theta1: float,
    theta2: float | None = None,
    wire_length: int | None = None,
    offset: int | None = None,
) -> CoinProfile:
    """Assemble one of the named coin layouts on a ring of ``length`` sites.

    Parameters
    ----------
    kind:
        "uniform"        theta1 everywhere.
        "single"         theta1 at coordinates n <= 0, theta2 at n >= 1.
        "symmetric"      theta2 on the block n = 0..N (N = ``wire_length``),
                         theta1 on every other site (both exteriors equal).
        "antisymmetric"  theta2 on n = 0..N, -theta1 for n > N, theta1 for
                         n < 0; the compensating seam sits diametrically
                         opposite the n = 0 boundary.
        "wire"           symmetric layout with reflecting end coins, cos(theta1)
                         stored as 0 by ``_coin_entries``: a hard-walled wire.
    offset:
        Ring index of coordinate n = 0; None leaves it to ``ring_coordinates``.

    ``length``, ``wire_length`` >= 0 and ``offset`` are integers by ``_integers``; 2.5 raises.
    """
    if kind not in PROFILE_KINDS:
        raise ValueError(f"unknown profile kind {kind!r}; expected one of {PROFILE_KINDS}")
    length = _integers(length, "ring lengths")
    if length < 2:
        raise ValueError("ring needs at least 2 sites")
    theta1 = _check_angle(theta1)

    if kind == "uniform":
        return CoinProfile(np.full(length, theta1))

    if theta2 is None:
        raise ValueError(f"profile kind {kind!r} needs theta2")
    theta2 = _check_angle(theta2)

    if kind == "single":
        n = ring_coordinates(length, offset, centered=True)
        return CoinProfile(np.where(n <= 0, theta1, theta2))

    if wire_length is None:
        raise ValueError(f"profile kind {kind!r} needs wire_length")
    n_block = _integers(wire_length, "block lengths", 0)
    if n_block + 1 >= length:
        raise ValueError("block of wire_length+1 sites leaves no exterior on the ring")

    if kind == "wire" and _coin_entries(np.array([theta1]))[0, 0] != 0:
        raise ValueError("wire layout requires theta1 = +/- pi/2")

    if kind in ("symmetric", "wire"):
        n = ring_coordinates(length, offset, centered=False)
        return CoinProfile(np.where(n <= n_block, theta2, theta1))

    # antisymmetric: exterior split between theta1 (n < 0) and -theta1
    # (n > N); the split point must stay clear of the block.
    if n_block > length // 2 - 2:
        raise ValueError("antisymmetric layout needs wire_length <= length//2 - 2")
    n = ring_coordinates(length, offset, centered=True)
    angles = np.where(
        n < 0, theta1, np.where(n <= n_block, theta2, _check_angle(-theta1))
    )
    return CoinProfile(angles)


@dataclass(frozen=True, eq=False)
class WalkerState:
    """Unit-norm two-component wavefunction, interleaved as (a0, b0, a1, b1, ...)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=complex, copy=True)
        if arr.ndim != 1 or arr.size == 0 or arr.size % 2:
            raise ValueError("amplitudes must be a flat interleaved array of even length")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > _NORM_GUARD:
            raise ValueError(f"state norm {norm!r} is not 1 within {_NORM_GUARD}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def length(self) -> int:
        return self.amplitudes.size // 2

    def spinors(self) -> np.ndarray:
        """Per-site view of shape (L, 2); column 0 is the left component."""
        return self.amplitudes.reshape(self.length, 2)


def delta_state(length: int, site: int, component: str = "left") -> WalkerState:
    """State at integer ``site`` mod integer ``length`` >= 1 (``_integers``), in the left or right component."""
    if component not in ("left", "right"):
        raise ValueError("component must be 'left' or 'right'")
    length = _integers(length, "ring lengths", 1)
    amp = np.zeros(2 * length, dtype=complex)
    amp[2 * (_integers(site, "sites") % length) + (component == "right")] = 1.0
    return WalkerState(amp)


def _split(state: WalkerState) -> tuple[np.ndarray, np.ndarray]:
    spin = state.spinors()
    return spin[:, 0], spin[:, 1]


def _join(a: np.ndarray, b: np.ndarray) -> WalkerState:
    out = np.empty(2 * a.size, dtype=complex)
    out[0::2] = a
    out[1::2] = b
    return WalkerState(out)


def _check_same_length(state: WalkerState, profile: CoinProfile) -> None:
    if state.length != profile.length:
        raise ValueError(
            f"state has {state.length} sites but profile has {profile.length}"
        )


def _aligned_buffers(count: int, shape: tuple, dtype) -> list[np.ndarray]:
    """``count`` uninitialized arrays of ``shape``, each starting on a 64-byte boundary.

    numpy's SIMD loops load 64 bytes at a time on AVX-512; from a buffer that
    malloc aligned to 16 bytes only, every such load splits a cache line,
    which cost up to 40% of a step at L = 4096 on a 2-CPU AVX-512 Xeon.
    """
    dtype = np.dtype(dtype)
    size = math.prod(shape) * dtype.itemsize
    stride = -(-size // 64) * 64
    raw = np.empty(count * stride + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return [raw[start + i * stride :][:size].view(dtype).reshape(shape) for i in range(count)]


def _coin_entries(angles: np.ndarray) -> np.ndarray:
    """Rows cos and sin of an array of coin angles; sub-epsilon residue is stored as exact zero.

    Without the zeros a reflecting coin (cos theta ~ 6e-17 at theta = pi/2)
    would leak amplitude through the wall it stands for.  The closed forms
    take their hard walls from the same zeros.
    """
    entries = np.array([np.cos(angles), np.sin(angles)])
    entries[np.abs(entries) < _EPS] = 0.0
    return entries


def _chiral_frame(angles: np.ndarray) -> np.ndarray:
    """Eigenvectors of every coin's chiral reflection, shape (len(angles), 2, 2).

    The reflection Gamma_n = [[-sin, cos], [cos, sin]] of theta_n satisfies
    Gamma U Gamma = U^T.  Column 0 of site n holds its +1 eigenvector
    (cos b, sin b), column 1 its -1 eigenvector (-sin b, cos b), with
    b = theta/2 + pi/4, taken by half-angle formulas from ``_coin_entries``
    so that reflecting coins give exactly (0, 1) or (1, 0) and theta = +/-pi,
    one coin, gives one frame.
    """
    c, s = _coin_entries(angles)
    low = s <= 0
    cos_b, sin_b = np.sqrt((1 - s) / 2), np.sqrt((1 + s) / 2)
    cos_b[~low] = c[~low] / (2 * sin_b[~low])
    sin_b[low] = c[low] / (2 * cos_b[low])
    return np.stack([np.stack([cos_b, -sin_b], axis=1), np.stack([sin_b, cos_b], axis=1)], axis=1)


def apply_coin(state: WalkerState, profile: CoinProfile) -> WalkerState:
    """Rotate every internal doublet by the local coin angle."""
    _check_same_length(state, profile)
    c, s = _coin_entries(profile.angles)
    a, b = _split(state)
    return _join(c * a + s * b, -s * a + c * b)


def apply_shift(state: WalkerState) -> WalkerState:
    """Conditional translation: a'_n = a_{n+1}, b'_n = b_{n-1} (indices mod L)."""
    a, b = _split(state)
    return _join(np.roll(a, -1), np.roll(b, 1))


def step(state: WalkerState, profile: CoinProfile) -> WalkerState:
    """One full evolution step, coin followed by shift."""
    return evolve(state, profile, 1)


def evolve(state: WalkerState, profile: CoinProfile, t: int) -> WalkerState:
    """Apply ``t`` steps; t = 0 returns the input state unchanged.

    ``t`` must be an integer; a float raises TypeError.  The result equals
    ``t`` applications of ``apply_shift(apply_coin(.))`` bit for bit, up to
    the sign of zeros: every nonzero amplitude gets the same products and
    sums.  The state is stepped per sublattice class: as (2, L/2) half-rings
    on an even ring, skipping a class that is exactly zero (the other class
    of a delta start), and as one class of L half-sites on an odd ring's
    double cover (2L sites, profile tiled twice), whose even sites hold
    every ring site once.  U = S C is real, so a state whose imaginary part
    is exactly zero (a delta start, or an E = 0, pi mode, which
    ``boundstates`` materializes real) is stepped in real arithmetic.
    """
    t = operator.index(t)
    if t < 0:
        raise ValueError("step count must be non-negative")
    _check_same_length(state, profile)
    if t == 0:
        return state
    length = profile.length
    spin = state.spinors()
    spin = spin if spin.imag.any() else spin.real
    reps = 1 + length % 2  # cover site m is ring site m % L
    size, half = reps * length, reps * length // 2
    # at time p = t mod 2, class q sits on cover sites p + q + 2j; keep classes lo .. hi - 1
    if reps == 2:  # the cover's even sites hold every ring site once
        lo, hi = 0, 1
    else:  # skip a class that is exactly zero
        lo, hi = int(not spin[0::2].any()), 1 + bool(spin[1::2].any())
    sites = np.concatenate([spin] * reps).reshape(half, 2, 2)  # (j, q, a/b)
    coin = _coin_entries(profile.angles)
    coin = np.concatenate([coin] * reps + [coin[:, :1]], axis=1)  # cover sites 0 .. size
    # (a/b, class, j); at parity p, coins[2p] holds (c, c) and coins[2p + 1] (s, s), so cos_part = (c a, c b)
    # and sin_part = (s a, s b): every full-size operand of a step is one flat, contiguous, aligned run
    psi, cos_part, sin_part, *coins = _aligned_buffers(3 + 2 * min(t, 2), (2, hi - lo, half), spin.dtype)
    psi[...] = sites[:, lo:hi].transpose(2, 1, 0)
    (a, b), (ca, cb), (sa, sb) = psi, cos_part, sin_part
    # flat shifts run across the class boundary; the wrap call after each rewrites those entries
    flat_a, flat_b, flat_ca, flat_cb, flat_sb, flat_sa = (x.reshape(-1) for x in (a, b, ca, cb, sb, sa))
    steps = []
    for p, (cc, ss) in enumerate(zip(coins[0::2], coins[1::2])):
        cc[...], ss[...] = coin[:, p : p + size].reshape(2, half, 2)[:, :, lo:hi].transpose(0, 2, 1)
        steps += [(np.multiply, cc, psi, cos_part), (np.multiply, ss, psi, sin_part)]
        if p == 0:  # a'[j] = (c a + s b)[j + 1],  b'[j] = (c b - s a)[j]
            steps += [
                (np.add, flat_ca[1:], flat_sb[1:], flat_a[:-1]),
                (np.add, ca[:, :1], sb[:, :1], a[:, -1:]),
                (np.subtract, cb, sa, b),
            ]
        else:  # a'[j] = (c a + s b)[j],  b'[j] = (c b - s a)[j - 1]
            steps += [
                (np.add, ca, sb, a),
                (np.subtract, flat_cb[:-1], flat_sa[:-1], flat_b[1:]),
                (np.subtract, cb[:, -1:], sa[:, -1:], b[:, :1]),
            ]
    for ufunc, x, y, out in itertools.islice(itertools.cycle(steps), 5 * t):
        ufunc(x, y, out=out)
    # each ring site has one cover image holding its class; the others are exact zeros
    cover = np.zeros(((reps + 1) * length, 2), dtype=complex)
    start = t % 2 + lo
    cover[start : start + size].reshape(half, 2, 2)[:, : hi - lo] = psi.transpose(2, 1, 0)
    return WalkerState(cover.reshape(reps + 1, length, 2).sum(0).ravel())


def position_distribution(state: WalkerState) -> np.ndarray:
    """Site-resolved probability p_n = |a_n|^2 + |b_n|^2."""
    return np.abs(state.spinors()) ** 2 @ np.ones(2)
