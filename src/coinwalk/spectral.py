"""Numerical machinery: exact diagonalization oracle and energy-equation roots.

The one-step operator U = S C of any coin layout is a real orthogonal
2L x 2L matrix with two entries per row, held as index and value arrays;
coin entries below machine epsilon (cos theta at theta = +/- pi/2) are
stored as exact zeros.  Its eigenvalues exp(-iE) are found in real
arithmetic, with numpy alone:

1. The matrices below are split into the connected components of the
   graphs of their nonzero entries.  Reflecting coins cut the ring into
   independent blocks, so the flat band at E = +/- pi/2 of a reflecting
   exterior becomes many small blocks instead of one large degenerate
   cluster.
2. The symmetric part (U + U^T)/2, whose eigenvalues are cos E, is split
   by the walk's chiral symmetry: the site-local reflection Gamma_n =
   [[-sin, cos], [cos, sin]] of each coin satisfies Gamma U Gamma = U^T, so
   in the frame of each site's two Gamma_n eigenvectors (the sectors) the
   symmetric part has no entries between sectors.  Each sector's
   periodic tridiagonal block is built from U's entries alone, and the
   components of both are diagonalized by ``np.linalg.eigh``, components
   of one size in one batched call; the eigenvectors are rotated back into
   U's rows as they are written.  On an even ring, where U's nonzero
   entries all join sites of opposite parity, U^2 splits over the two
   sublattices: steps 1-4 then act on its even-site block M = U_eo U_oe,
   half the size of U, with eigenvalues exp(-2iE) and Gamma_e M Gamma_e =
   M^T for the even sites' reflections, and each eigenpair of M gives two
   eigenpairs of U, at E and E + pi.
3. Eigenvalues of equal cos E (gap below ``_CLUSTER_GAP``) form a
   cluster spanning an invariant subspace of U; a generic +/-E pair is a
   cluster of two, one member from each sector, so cos E is sorted within
   groups: U's components, joined over every site whose frame mixes them.
   Clusters of equal size are resolved together by a batched small
   Hermitian ``eigh`` of U restricted to them.
4. E is read from the angle of the Rayleigh quotient v^H U v, which is
   accurate at E = 0 and pi where arccos(cos E) is not.

A largest eigen-residual ||Uv - e^{-iE} v|| above 1e-10, taken through
the action of U's entries on the returned vectors, is treated as a
solver failure.  Localized states are separated from band states by the
inverse participation ratio sum_n p_n^2, which scales like 1/L for
extended states but stays O(tanh kappa) for bound states.

Bound-state energies of a finite block are obtained independently by
bisecting the block quantization condition in ln E, for many block lengths
at once, giving a dual route that cross-checks the closed-form modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boundstates
from .lattice import CoinProfile, _coin_entries, step
from .boundstates import BoundStateSolution

SIZE_CAP = 512

# Eigenvector error of eigh across a cluster boundary is ~ eps ||U|| / gap,
# which this gap keeps near 2e-12, well below the residual guard.  It applies
# to the sector blocks' eigenvalues taken together, sorted within a group;
# on an even ring these are the eigenvalues cos 2E of U^2's block.
_CLUSTER_GAP = 1e-4
_RESIDUAL_GUARD = 1e-10


def _coin_shift(profile: CoinProfile) -> tuple[np.ndarray, np.ndarray]:
    """One-step matrix as entries U[i, cols[i, j]] = vals[i, j], two per row.

    The values come from ``_coin_entries``; the exact zeros of reflecting
    coins are kept, so every row has two entries.
    """
    length = profile.length
    c, s = _coin_entries(profile)
    sites = np.arange(length)
    src_a = (sites + 1) % length  # left component arrives from the right neighbor
    src_b = (sites - 1) % length
    cols = np.stack([2 * src_a, 2 * src_a + 1, 2 * src_b, 2 * src_b + 1], axis=1).reshape(-1, 2)
    vals = np.stack([c[src_a], s[src_a], -s[src_b], c[src_b]], axis=1).reshape(-1, 2)
    return cols, vals


def build_unitary(profile: CoinProfile) -> np.ndarray:
    """Assemble the real 2L x 2L one-step matrix; its action equals ``lattice.step``."""
    cols, vals = _coin_shift(profile)
    mat = np.zeros((len(cols), len(cols)))
    np.put_along_axis(mat, cols, vals, axis=1)
    return mat


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Eigen-decomposition of a one-step unitary, sorted by quasi-energy.

    ``vectors`` holds normalized eigenvectors as columns aligned with
    ``quasi_energies``; ``ipr`` is the inverse participation ratio of each
    eigenvector's position distribution.  ``indices`` point back into the
    ordering of the decomposition a subset was taken from.
    """

    quasi_energies: np.ndarray
    vectors: np.ndarray
    ipr: np.ndarray
    length: int
    indices: np.ndarray

    @property
    def count(self) -> int:
        return int(self.quasi_energies.size)


def _apply(cols: np.ndarray, vals: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """U applied to every row of ``rows``, for U[i, cols[i, j]] = vals[i, j]."""
    out = np.empty(rows.shape, dtype=rows.dtype)
    for top in range(0, len(rows), 64):  # a few rows at a time stay in cache
        chunk, total = rows[top : top + 64], out[top : top + 64]
        np.multiply(np.take(chunk, cols[:, 0], axis=1), vals[:, 0], out=total)
        for j in range(1, cols.shape[1]):
            term = np.take(chunk, cols[:, j], axis=1)
            term *= vals[:, j]
            total += term
    return out


def _components(cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Connected-component labels 0, 1, ... of the graph of U's nonzero entries, per row.

    Each round hooks every tree root onto the smallest root across the
    nonzero entries that touch its tree, then jumps pointers until every
    row points at its root; a component's label orders it by its first row.
    """
    linked = vals != 0
    tail = np.nonzero(linked)[0]
    head = cols[linked]
    root = np.arange(len(cols))
    while not np.array_equal(root[tail], root[head]):
        low = np.minimum(root[tail], root[head])
        np.minimum.at(root, root[tail], low)
        np.minimum.at(root, root[head], low)
        while not np.array_equal(root[root], root):
            root = root[root]
    return np.unique(root, return_inverse=True)[1]


def _chiral_frame(profile: CoinProfile) -> np.ndarray:
    """Eigenvectors of every site's chiral reflection, shape (L, 2, 2).

    The reflection Gamma_n = [[-sin, cos], [cos, sin]] of theta_n satisfies
    Gamma U Gamma = U^T.  Column 0 of site n holds its +1 eigenvector
    (cos b, sin b), column 1 its -1 eigenvector (-sin b, cos b), with
    b = theta/2 + pi/4, taken by half-angle formulas from ``_coin_entries``
    so that reflecting coins give exactly (0, 1) or (1, 0).
    """
    c, s = _coin_entries(profile)
    low = s <= 0
    cos_b, sin_b = np.sqrt((1 - s) / 2), np.sqrt((1 + s) / 2)
    cos_b[~low] = c[~low] / (2 * sin_b[~low])
    sin_b[low] = c[low] / (2 * cos_b[low])
    return np.stack([np.stack([cos_b, -sin_b], axis=1), np.stack([sin_b, cos_b], axis=1)], axis=1)


def _block_eigh(
    cols: np.ndarray, vals: np.ndarray, members: np.ndarray, sizes: np.ndarray, frame: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of (X + X^T)/2 for the sector blocks X, written back in the frame's rows.

    X is given by its entries X[i, cols[i, j]] = vals[i, j] on nodes
    s * sites + p, sector s of site p of ``frame`` (sites, d, d); taken in
    the order ``members``, its rows and columns form diagonal blocks of the
    sizes listed in ``sizes``, equal sizes adjacent.  Entries of one row
    that share a column are summed.  Each run of equal blocks takes one
    batched ``np.linalg.eigh``.  Returns the eigenvalues, sorted within
    each block, and the eigenvectors as rows over the frame's rows, row
    p * d + c weighted by frame[p, c, s].
    """
    size = len(cols)
    sites, d = frame.shape[:2]
    weight = frame.reshape(size, d)
    place = np.argsort(members)
    cols, vals = place[cols[members]], vals[members]
    values, basis = np.empty(size), np.zeros((size, size))  # basis[row, eigenvalue]
    top = 0
    for block, count in zip(*np.unique(sizes, return_counts=True)):
        end = top + block * count
        linked = vals[top:end] != 0  # a zero entry may point into another block
        row = np.nonzero(linked)[0]
        col = cols[top:end][linked] - top
        entry = vals[top:end][linked]
        stack = np.zeros((count, block, block))
        np.add.at(stack, (row // block, row % block, col % block), entry)
        np.add.at(stack, (row // block, col % block, row % block), entry)
        stack *= 0.5
        eigenvalues, vectors = np.linalg.eigh(stack)
        del stack
        values[top:end] = eigenvalues.ravel()
        # node a of block k is written to the rows of its site, a contiguous run of eigenvalues each
        sector, site = np.divmod(members[top:end].reshape(count, block), sites)
        run = basis[:, top:end].reshape(size, count, block)
        for part in range(d):
            rows = site * d + part
            run[rows, np.arange(count)[:, None]] = vectors * weight[rows, sector][:, :, None]
        top = end
    return values, basis.T


def _resolve_clusters(cols, vals, q, cos_e):
    """Eigenpairs of U restricted to k clusters of m members each.

    U is given by its entries U[i, cols[i, j]] = vals[i, j]; ``q`` holds
    the clusters' eigenvectors of (U + U^T)/2 as rows, shape (k, m, n), and
    ``cos_e`` their eigenvalues with shape (k, m).  In a cluster's basis Q,
    G = Q^T U Q = diag(cos E) + A with A = Q^T K Q and K = (U - U^T)/2.
    A is antisymmetric and equals G off the diagonal, so it is built from
    the strict upper triangle of G, for which U acts only on members
    1..m-1 of each cluster.  Each cluster is solved by eigh of the Hermitian
    part of e^{i phi} G, whose eigenvalues mu = cos(E - phi) separate every
    distinct lambda of the cluster for phi = pi/2 (|cos E| > 1/2) or pi/4;
    a +/-E pair is the 2 x 2 case.  For a unit eigenvector y, lambda =
    y^H G y has real part sum_i |y_i|^2 cos E_i and, since mu = Re(e^{i phi}
    lambda), imaginary part (cos(phi) Re lambda - mu) / sin(phi).  Returns
    E = -arg(lambda) and the coefficients y in the basis Q.
    """
    herm = np.zeros(cos_e.shape + cos_e.shape[1:], dtype=complex)
    upper = herm.real  # G's strict upper triangle, until A is formed from it
    for top in range(1, q.shape[1], 256):  # few temporaries for a large cluster
        part = np.ascontiguousarray(q[:, top : top + 256])
        image = _apply(cols, vals, part.reshape(-1, q.shape[2])).reshape(part.shape)
        upper[:, :, top : top + 256] = np.triu(q @ image.transpose(0, 2, 1), 1 - top)
        del part, image
    phase = np.where(np.abs(cos_e[:, 0]) > 0.5, np.pi / 2, np.pi / 4)
    np.subtract(upper, upper.transpose(0, 2, 1), out=herm.imag)
    upper[...] = 0
    herm.imag *= np.sin(phase)[:, None, None]
    diagonal = np.einsum("kii->ki", herm)
    diagonal += np.cos(phase)[:, None] * cos_e
    mu, coeffs = np.linalg.eigh(herm)
    del herm, diagonal
    re = np.einsum("ki,kij,kij->kj", cos_e, coeffs.real, coeffs.real)
    re += np.einsum("ki,kij,kij->kj", cos_e, coeffs.imag, coeffs.imag)
    im = (np.cos(phase)[:, None] * re - mu) / np.sin(phase)[:, None]
    return np.arctan2(-im, re), coeffs


def _two_step(cols: np.ndarray, vals: np.ndarray):
    """Entries of M = U_eo U_oe and of U_oe, for a U that joins only sites of opposite parity.

    U is given by its entries U[i, cols[i, j]] = vals[i, j]; row i lies on
    site i // 2, and U_eo, U_oe are its blocks from odd-site rows to
    even-site rows and back.  Each sublattice's rows are numbered in order,
    row i as (i // 4) * 2 + i % 2.  Returns M's index arrays, four entries
    per row (two share a column on a 2-site ring), then U_oe's.
    """
    rows = np.arange(len(cols))
    index = rows // 4 * 2 + rows % 2
    even, odd = rows[rows // 2 % 2 == 0], rows[rows // 2 % 2 == 1]
    via = cols[even]
    two_cols = index[cols[via]].reshape(len(even), -1)
    two_vals = (vals[even][:, :, None] * vals[via]).reshape(len(even), -1)
    return two_cols, two_vals, index[cols[odd]], vals[odd]


def _sectors(cols: np.ndarray, vals: np.ndarray, frame: np.ndarray):
    """Entries of the sector blocks W_s^T U W_s, every sector s in one block-diagonal matrix.

    Row i of U[i, cols[i, j]] = vals[i, j] lies on site i // d, component
    i % d, of ``frame`` (sites, d, d), and w_s[i] = frame[i // d, i % d, s].
    Entry (r, c, v) adds w_s[r] v w_s[c] at (site r, site c) of sector s,
    node s * sites + site of the returned matrix; entries between sectors
    are never formed.
    """
    sites, d = frame.shape[:2]
    weight = frame.reshape(len(cols), d)
    site_cols = (cols // d).reshape(sites, -1)
    sector_vals = [weight[:, [sector]] * vals * weight[cols, sector] for sector in range(d)]
    return (
        np.concatenate([site_cols + sector * sites for sector in range(d)]),
        np.concatenate([entries.reshape(sites, -1) for entries in sector_vals]),
    )


def _eigenpairs(cols: np.ndarray, vals: np.ndarray, frame: np.ndarray):
    """Unsorted eigenpairs of a real orthogonal matrix, U[i, cols[i, j]] = vals[i, j].

    Row i lies on site i // d, component i % d, of ``frame`` (sites, d, d),
    whose columns at every site are an orthonormal basis of sectors over
    which (U + U^T)/2 is block-diagonal.  Each sector's block is built from
    U's entries alone and solved on its own.  Returns E = -arg(lambda), one
    per row, and the solved clusters as a list of (span, q, coeffs): the
    eigenvector of E[span[k, i]] is sum_j coeffs[k, j, i] q[k, j].
    """
    sites, d = frame.shape[:2]
    weight = frame.reshape(len(cols), d)
    sector_cols, sector_vals = _sectors(cols, vals, frame)
    labels = _components(sector_cols, sector_vals)
    sizes = np.bincount(labels)
    # Eigenvalues are kept in a node order sorted by component size, then
    # component, where the components of one size are a run of equal
    # diagonal blocks; the eigenvectors are rows over U's rows.
    members = np.lexsort((labels, sizes[labels]))
    cos_e, basis = _block_eigh(sector_cols, sector_vals, members, np.sort(sizes), frame)
    # A cluster pairs eigenvalues of different sectors, so cos E is sorted within
    # groups: U's components joined with the rows of every site whose frame mixes them.
    rows = np.arange(len(cols))
    partner = rows - rows % d + (rows + 1) % d
    mixed = (weight * weight[partner]).any(axis=1)
    group = _components(np.column_stack([cols, partner]), np.column_stack([vals, mixed]))
    sector, site = np.divmod(members, sites)
    group = group[site * d + np.abs(frame).argmax(axis=1)[site, sector]]
    order = np.lexsort((cos_e, group))
    size = cos_e.size
    starts = np.flatnonzero(
        np.concatenate([[True], (np.diff(cos_e[order]) > _CLUSTER_GAP) | (np.diff(group[order]) != 0)])
    )
    counts = np.diff(np.append(starts, size))
    # Clusters of one size are solved together; each batch takes a copy of
    # its basis vectors, so the basis is freed before the first solve.
    # (np.unique would import numpy.ma, at the cost of every process's first request.)
    spans = [
        order[starts[counts == count][:, None] + np.arange(count)]
        for count in np.flatnonzero(np.bincount(counts))
    ]
    batches = [(span, basis[span]) for span in spans]
    del basis
    energies = np.empty(size)
    solved = []
    for span, q in batches:
        energies[span], coeffs = _resolve_clusters(cols, vals, q, cos_e[span])
        solved.append((span, q, coeffs))
    return energies, solved


def _eig_orthogonal(
    cols: np.ndarray, vals: np.ndarray, frame: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigen-decomposition of a real orthogonal matrix, sorted by quasi-energy.

    The matrix is given by its entries U[i, cols[i, j]] = vals[i, j], and
    ``frame`` holds every site's sector basis (see ``_eigenpairs``): the
    chiral frame for U's two rows per site, or one sector of one row per
    site, which splits nothing.  Returns E = -arg(lambda) in (-pi, pi], the
    unit eigenvectors as columns and the largest eigen-residual
    ||Uv - lambda v||.

    Row i lies on site i // 2.  When every nonzero entry joins sites of
    opposite parity, as on an even ring, U^2 is block-diagonal over the two
    sublattices, and U is solved through its even-site block M = U_eo U_oe,
    in the frame of the even sites.  An eigenpair M x = e^{-i phi} x gives
    the two eigenpairs E = phi/2 and phi/2 + pi of U, with vectors
    (x; +/- e^{i phi/2} U_oe x)/sqrt(2).
    """
    size = len(cols)
    # The largest array is allocated before the solve's temporaries, so it can
    # take memory that earlier work freed instead of growing the heap past them.
    rows = np.empty((size, size), dtype=complex)
    parity = np.arange(size) // 2 % 2
    bipartite = not np.any((parity[cols] == parity[:, None]) & (vals != 0))
    if bipartite:
        two_cols, two_vals, oe_cols, oe_vals = _two_step(cols, vals)
        phi, solved = _eigenpairs(two_cols, two_vals, frame[::2])
        energies = np.concatenate([phi / 2, phi / 2 + np.where(phi > 0, -np.pi, np.pi)])
    else:
        energies, solved = _eigenpairs(cols, vals, frame)
    energies[energies == -np.pi] = np.pi
    order = np.argsort(energies)
    energies = energies[order]
    position = np.empty(size, dtype=int)
    position[order] = np.arange(size)
    # Eigenvectors are written as contiguous rows, straight into sorted
    # order; a large cluster is written a few hundred vectors at a time.
    for span, q, coeffs in solved:
        for top in range(0, span.shape[1], 256):
            slots = span[:, top : top + 256].ravel()
            # U's own vectors go straight to their rows; M's are lifted below.
            x = np.empty((slots.size, q.shape[2]), dtype=complex) if bipartite else rows
            at = slice(None) if bipartite else position[slots]
            for part, out in ((coeffs.real, x.real), (coeffs.imag, x.imag)):
                block = np.ascontiguousarray(part[:, :, top : top + 256].transpose(0, 2, 1))
                out[at] = (block @ q).reshape(-1, q.shape[2])
            if not bipartite:
                continue
            y = _apply(oe_cols, oe_vals, x)
            y *= np.sqrt(0.5) * np.exp(0.5j * phi[slots])[:, None]
            x *= np.sqrt(0.5)
            x, y = x.reshape(len(slots), -1, 2), y.reshape(len(slots), -1, 2)
            sites = rows.reshape(size, -1, 2, 2)  # (vector, site pair, parity, component)
            low, high = position[slots], position[slots + size // 2]
            sites[low, :, 0] = sites[high, :, 0] = x
            sites[low, :, 1] = y
            sites[high, :, 1] = -y
    del solved, q, coeffs

    # A few rows at a time, the residual is taken through the action of U.
    residual = 0.0
    for top in range(0, size, 64):
        chunk = rows[top : top + 64]
        moved = _apply(cols, vals, chunk)
        moved -= chunk * np.exp(-1j * energies[top : top + 64, None])
        moved = moved.view(float)
        residual = max(residual, float(np.sqrt(np.einsum("ij,ij->i", moved, moved).max())))
    if residual > _RESIDUAL_GUARD:
        raise RuntimeError(f"eigensolver failure: eigen-residual {residual:.2e} exceeds {_RESIDUAL_GUARD}")
    return energies, rows.T, residual


def diagonalize(profile: CoinProfile) -> SpectralResult:
    """Full eigen-decomposition of the one-step unitary for ``profile``.

    Solved in real arithmetic (see the module docstring); E = -arg(lambda)
    lies in (-pi, pi].  Rings above ``SIZE_CAP`` sites raise ``ValueError``;
    an eigen-residual above 1e-10 raises ``RuntimeError``.
    """
    if profile.length > SIZE_CAP:
        raise ValueError(f"ring size {profile.length} exceeds the dense-solver cap {SIZE_CAP}")
    energies, vectors, _ = _eig_orthogonal(*_coin_shift(profile), _chiral_frame(profile))
    prob = np.square(vectors.real)
    prob += np.square(vectors.imag)
    site_prob = prob[0::2] + prob[1::2]
    del prob
    ipr = np.einsum("ij,ij->j", site_prob, site_prob)
    return SpectralResult(
        quasi_energies=energies,
        vectors=vectors,
        ipr=ipr,
        length=profile.length,
        indices=np.arange(energies.size),
    )


def circle_distance(energy, target: float):
    """Distance between quasi-energies on the 2-pi circle."""
    return np.abs(np.mod(np.asarray(energy) - target + np.pi, 2 * np.pi) - np.pi)


def find_bound_states(
    result: SpectralResult, target: float, ipr_threshold: float | None = None
) -> SpectralResult:
    """Localized eigenpairs nearest the target quasi-energy (0 or pi).

    Keeps states with IPR above the threshold (default 4/L) by more than a
    few ulps, so a state at the threshold up to rounding (the two-site
    states of an all-reflecting ring of 8 sites) is never kept, whatever its
    last bits; among those, the cluster at minimal circle distance from the
    target, so both members of a split pair are returned.  No localized
    states is an empty result, not an error.
    """
    threshold = 4.0 / result.length if ipr_threshold is None else float(ipr_threshold)
    localized = np.nonzero(result.ipr > threshold * (1 + 8 * np.finfo(float).eps))[0]
    if localized.size == 0:
        keep = localized
    else:
        dist = circle_distance(result.quasi_energies[localized], target)
        keep = localized[dist <= dist.min() + 1e-6]
    return SpectralResult(
        quasi_energies=result.quasi_energies[keep],
        vectors=result.vectors[:, keep],
        ipr=result.ipr[keep],
        length=result.length,
        indices=result.indices[keep],
    )


_ENERGY_FLOOR = 1e-300  # smaller roots would underflow


def solve_wire_energy(theta1: float, theta2: float, block_length):
    """Bound-state energy of a finite block from the quantization condition.

    Bisects a cancellation-free log form of ``wire_condition_residual`` in
    u = ln E over [ln 1e-300, ln E_max), E_max the window edge, to one ulp
    of u; the near-pi partner is pi - E by the spectral mirror symmetry.
    ``theta1`` may be +/- pi/2 (reflecting ends) or any gapped angle of
    opposite sign to ``theta2``.  An int ``block_length`` gives a float and
    an array of them an array, NaN where the window holds no root above
    1e-300; the int form raises ``RuntimeError`` there instead.
    """
    verdict = boundstates.single_boundary_existence(theta1, theta2)
    if not verdict.exists:
        raise ValueError(f"no bound states to solve for: {verdict.reason}")
    lengths = np.asarray(block_length)
    jump = abs(np.sin(theta1) - np.sin(theta2))

    def condition(u):
        # A^2 - B^2 = sin^2 E (s1 - s2)^2 turns tanh(x) A - B into the difference of
        # sin^2 E (s1 - s2)^2 / (A + B) and 2A / (1 + e^{2x}); this is the log of their ratio.
        sin_e, a, b, x = boundstates._wire_terms(theta1, theta2, np.exp(u), lengths)
        return 2 * np.log(sin_e * jump) + np.logaddexp(0.0, 2 * x) - np.log(2 * a * (a + b))

    top = boundstates._wire_window(theta1, theta2) * (1.0 - 1e-9)
    lo = np.full(lengths.shape, np.log(_ENERGY_FLOOR))
    width = np.log(top) - np.log(_ENERGY_FLOOR)
    found = (condition(lo) < 0) & (condition(lo + width) > 0)
    for _ in range(64):  # halves the bracket in ln E, under 700 wide, below one ulp
        width /= 2
        lo += width * (condition(lo + width) <= 0)
    energies = np.where(found, np.exp(lo), np.nan)
    if lengths.ndim == 0 and not found:
        raise RuntimeError(f"no bound-state root in [{_ENERGY_FLOOR}, {top:.6g}) at N = {block_length}")
    return energies if lengths.ndim else float(energies)


@dataclass(frozen=True)
class SplittingFit:
    """Least-squares fit of ln E versus block length."""

    slope: float
    intercept: float
    r_squared: float
    kappa2_predicted: float


def fit_splitting_decay(theta2: float, block_lengths) -> SplittingFit:
    """Fit the exponential decay of the end-mode splitting against block length.

    Solves the reflecting-end block (theta1 = -pi/2) for all N in
    ``block_lengths`` at once and fits ln E = intercept + slope * N; the
    slope estimates -kappa_2.
    """
    lengths = np.array([int(n) for n in block_lengths])
    if lengths.size < 4:
        raise ValueError("need at least 4 block lengths for a meaningful fit")
    energies = solve_wire_energy(-np.pi / 2, theta2, lengths)
    if np.isnan(energies).any():
        raise RuntimeError(f"no bound-state root at N = {lengths[np.isnan(energies)].tolist()}")
    return _splitting_fit(theta2, lengths, energies)


def _splitting_fit(theta2: float, lengths: np.ndarray, energies: np.ndarray) -> SplittingFit:
    """Least-squares line through (N, ln E) for roots already solved."""
    y = np.log(energies)
    slope, intercept = np.polyfit(lengths, y, 1)
    fitted = intercept + slope * lengths
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return SplittingFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        kappa2_predicted=boundstates.splitting_decay_rate(theta2),
    )


def oracle_compare(
    analytic: BoundStateSolution,
    profile: CoinProfile,
    result: SpectralResult | None = None,
) -> float:
    """Fidelity of a closed-form mode against the exact-diagonalization oracle.

    Projects the analytic wavefunction onto the (possibly degenerate)
    eigenspace within 1e-6 of its quasi-energy and returns the squared
    projection norm.  Raises when no eigenvector lies in that window.
    """
    if analytic.wavefunction.length != profile.length:
        raise ValueError("analytic solution and profile live on different rings")
    if result is None:
        result = diagonalize(profile)
    sel = np.nonzero(circle_distance(result.quasi_energies, analytic.energy) < 1e-6)[0]
    if sel.size == 0:
        raise RuntimeError("no eigenvector matches the analytic quasi-energy")
    basis, _ = np.linalg.qr(result.vectors[:, sel])
    overlaps = basis.conj().T @ analytic.wavefunction.amplitudes
    return float(np.real(np.vdot(overlaps, overlaps)))


def mode_residual(solution: BoundStateSolution) -> float:
    """Max-norm of U psi - e^{-iE} psi, skipping sites within 1 of the layout seam."""
    psi = solution.wavefunction
    residual = step(psi, solution.profile).amplitudes - np.exp(-1j * solution.energy) * psi.amplitudes
    length = solution.profile.length
    mask = np.ones(length, dtype=bool)
    for site in solution.seam:
        mask[[(site - 1) % length, site % length, (site + 1) % length]] = False
    return float(np.max(np.abs(residual.reshape(length, 2)[mask])))
