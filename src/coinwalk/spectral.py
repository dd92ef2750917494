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
   in the frame W of each site's two Gamma_n eigenvectors (the sectors)
   W^T U W = [[A0, C], [-C^T, A1]] with A0 and A1 symmetric, and the
   symmetric part is diag(A0, A1).  Both periodic tridiagonal blocks are
   built from U's entries alone, indexed by site; only A1's components are
   diagonalized, by ``np.linalg.eigh``, components of one size in one
   batched call, and A0's entries feed the Ritz solve of step 3.  Every
   vector is kept as coefficients over its sector's frame vectors, one per
   site.  On an even ring, where U's entries all join sites of opposite
   parity, U^2 splits over the two sublattices: steps 1-4 then act on its
   even-site block M = U_eo U_oe, half the size of U, with eigenvalues
   exp(-2iE) and Gamma_e M Gamma_e = M^T for the even sites' reflections,
   and each eigenpair of M gives two eigenpairs of U, at E and E + pi.
3. Orthogonality gives A0 C = C A1 and C^T C = 1 - A1^2, so an eigenvector
   q of A1 at cos E has a sector-0 part of U q of norm sigma = |sin E|, and
   p = P0 U q / sigma is A0's eigenvector at the same cos E: the pair's
   eigenvectors are (p +/- iq)/sqrt(2), exact even where cos E is
   degenerate.  Only pairs with sigma above ``_PAIR_FLOOR`` are formed this
   way, and a p of sigma below 0.1 is re-orthogonalized against the other
   p's.  The rest lie within the floor of sin E = 0, so within 5e-5 of
   cos E = +/-1: the unpaired q's, and as many of A0's eigenvectors
   orthogonal to every p, from pivoted Cholesky on the complement and a
   Rayleigh-Ritz ``eigh`` of A0 on it.  Those of one group (U's
   components, joined over every site whose frame mixes them) and one sign
   of cos E form a cluster, an invariant subspace of U on which U couples
   the sectors through one real block B, resolved by a batched SVD of B:
   each singular triple B v = s u, s > 0, rotates one member row per sector
   into a pair's p and q, and every other rotated row is an eigenvector
   alone, at E = 0 or pi.  A coupling within rounding is dropped, so the
   E = 0, pi modes of two far-apart boundaries, split below rounding, stay
   one mode per boundary.
4. A pair's E is -atan2(sigma, cos E), or -atan2(s, m) in a cluster, m the
   mean of cos E over its two rows, accurate at E = 0 and pi where
   arccos(cos E) is not.  Each site's frame is folded into the entries of
   U's first factor (U, or U_oe on an even ring), one entry per row, which
   then moves the coefficients; the IPR comes from the coefficients (on an
   even ring, with the first images on the odd sites).  Each eigenvector is
   one record, a pair's p and q or a lone row: no complex vector is formed
   until it is read.

A largest eigen-residual ||Uv - e^{-iE} v|| above 1e-10, taken over U's
rows through the action of U's entries (on an even ring, U_oe and then
U_eo) on every eigenvector, is treated as a solver failure, in
``diagonalize`` itself.
The complex eigenvectors of a result are built on first read, all of them
or only a kept few, and guarded again through U's entries.  Localized
states are separated from band states by the inverse participation ratio
sum_n p_n^2, which scales like 1/L for extended states but stays
O(tanh kappa) for bound states.

Bound-state energies of a finite block are obtained independently by
bisecting the block quantization condition in ln E, for many block lengths
at once, giving a dual route that cross-checks the closed-form modes.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import boundstates
from .lattice import CoinProfile, _chiral_frame, _coin_entries, _integers, step
from .boundstates import BoundStateSolution, circle_distance

# Worst case measured at the cap (2 CPUs, numpy 2.4.6): near-reflecting coins, |cos theta| <~ 1e-3
# on most sites, whose narrow band is one cluster of ~L members: 1.4-1.8 s and 150 MB at L = 2048,
# 1.4 s and 200 MB on the odd L = 2047.  Other layouts take 0.3-0.4 s (1.3-1.5 s odd) and 76 MB.
SIZE_CAP = 2048

# A sector-1 eigenvector q gives its sector-0 partner p = P0 X q / sigma,
# sigma = |sin E|, only above this floor: the pair's residual grows like
# eps / sigma and the orthonormality error of the p's like eps / sigma^2
# (2e-12 at this floor).  Vectors below it are left to the clusters, so every
# cluster lies within 5e-5 of cos E = +/-1.
_PAIR_FLOOR = 1e-2
_RESIDUAL_GUARD = 1e-10


def _coin_shift(profile: CoinProfile) -> tuple[np.ndarray, np.ndarray]:
    """One-step matrix as entries U[i, cols[i, j]] = vals[i, j], two per row.

    The values come from ``_coin_entries``; the exact zeros of reflecting
    coins are kept, so every row has two entries.
    """
    length = profile.length
    c, s = _coin_entries(profile.angles)
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

    A ``diagonalize`` result is given ``vectors=None`` and a builder of
    columns at given positions: its ``vectors`` are built, and guarded
    against the eigen-residual bound, on first read, and until then
    ``columns`` builds only the columns asked for.  A subset taken by
    ``find_bound_states`` builds its columns when it is taken.  Neither
    ``repr`` nor ``==`` reads ``vectors``: results compare by identity.
    """

    quasi_energies: np.ndarray
    vectors: np.ndarray | None = field(repr=False)
    ipr: np.ndarray
    length: int
    indices: np.ndarray
    _build: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.vectors is None and self._build is not None:  # built by __getattr__ on first read
            object.__delattr__(self, "vectors")

    def __getattr__(self, name):
        if name != "vectors" or "_build" not in self.__dict__:
            raise AttributeError(name)
        object.__setattr__(self, "vectors", self._build(np.arange(self.count)))
        return self.vectors

    @property
    def count(self) -> int:
        return int(self.quasi_energies.size)

    def columns(self, keep) -> np.ndarray:
        """Eigenvectors at positions ``keep`` as columns, built alone while ``vectors`` is unread."""
        if "vectors" in self.__dict__:
            return self.vectors[:, keep]
        positions, inverse = np.unique(keep, return_inverse=True)
        return self._build(positions)[:, inverse]


def _apply(cols: np.ndarray, vals: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """U applied to every row of ``rows``, for U[i, cols[i, j]] = vals[i, j]."""
    out = np.empty((len(rows), len(cols)), dtype=rows.dtype)
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


def _symmetric_blocks(cols: np.ndarray, vals: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Dense blocks of (X + X^T)/2 on the nodes of each row of ``nodes`` (count, w), in that order.

    X is given by its entries X[i, cols[i, j]] = vals[i, j]; every nonzero
    entry of a row in nodes[k] points to a node of nodes[k] (a zero entry
    may point anywhere), and entries of one row that share a column are
    summed.
    """
    count, w = nodes.shape
    place = np.zeros(len(cols), dtype=int)
    place[nodes] = np.arange(w)
    entry = vals[nodes]
    block, row, j = np.nonzero(entry)
    col = place[cols[nodes[block, row], j]]
    entry = entry[block, row, j]
    stack = np.zeros((count, w, w))
    np.add.at(stack, (block, row, col), entry)
    np.add.at(stack, (block, col, row), entry)
    stack *= 0.5
    return stack


def _block_eigh(cols: np.ndarray, vals: np.ndarray, basis: np.ndarray):
    """Eigenpairs of (X + X^T)/2 for a sector block X, written as coefficient rows over its sites.

    X is given by its entries X[i, cols[i, j]] = vals[i, j], one node per
    site.  Its connected components, ordered by size and then by label, form
    diagonal blocks, and each run of equal sizes takes one batched
    ``np.linalg.eigh``.  Returns the eigenvalues, sorted within each block,
    and the sites in that order; eigenvector k is written into row k of the
    zeroed (sites, sites) ``basis``.
    """
    sites = len(cols)
    labels = _components(cols, vals)
    sizes = np.bincount(labels)
    members = np.lexsort((labels, sizes[labels]))
    values = np.empty(sites)
    top = 0
    for block, count in zip(*np.unique(sizes, return_counts=True)):
        end = top + block * count
        nodes = members[top:end].reshape(count, block)
        eigenvalues, vectors = np.linalg.eigh(_symmetric_blocks(cols, vals, nodes))
        values[top:end] = eigenvalues.ravel()
        # rows top..end of basis as (block, site, eigenvalue), so that a node takes one strided run
        rows = basis[top:end].reshape(count, block, sites).transpose(0, 2, 1)
        rows[np.arange(count)[:, None], nodes] = vectors
        top = end
    return values, members


def _resolve_clusters(coupling, cos_0, cos_1):
    """Eigenpairs of X restricted to k clusters of n0 sector-0 and n1 sector-1 members each.

    The members, eigenvectors of (X + X^T)/2 with columns Q0 and Q1, lie at
    ``cos_0`` (k, n0) and ``cos_1`` (k, n1), all of one sign; ``coupling``
    (k, n0, n1), overwritten, holds B = (W0 Q0)^T X (W1 Q1).  Since
    Gamma X Gamma = X^T, Q^T X Q = diag(cos E) + [[0, B], [-B^T, 0]], so for
    B v = s u, W0 Q0 u + i W1 Q1 v has Rayleigh quotient m + i s, m the mean
    of cos E over u and v.  Returns B's SVD u, s, v^T and the E (k, n0 + n1)
    of the rotated rows U^T Q0^T, then V^T Q1^T: -atan2(s, m) at sector-0
    row j (the member p + iq) and +atan2(s, m) at sector-1 row j where
    s_j > 0, and atan2(0, cos E), 0 or pi, at every other row, alone.
    """
    # A coupling within rounding is dropped: each member is then an eigenvector to
    # eps, and a pair whose splitting is unresolved (the E = 0, pi modes of two
    # far-apart boundaries) keeps one boundary's mode per sector vector, at s = 0.
    coupling[np.abs(coupling) <= np.finfo(float).eps] = 0.0
    u, s, vh = np.linalg.svd(coupling)
    n0, n = cos_0.shape[1], s.shape[1]
    cosine = np.concatenate([np.einsum("kji,kj->ki", u * u, cos_0), np.einsum("kij,kj->ki", vh * vh, cos_1)], axis=1)
    cosine[:, :n] = cosine[:, n0 : n0 + n] = (cosine[:, :n] + cosine[:, n0 : n0 + n]) / 2
    sine = np.zeros_like(cosine)
    sine[:, :n], sine[:, n0 : n0 + n] = np.where(s > 0, -s, 0.0), s  # no -0.0: a lone row's E is 0 or pi
    return u, s, vh, np.arctan2(sine, cosine)


def _two_step(cols: np.ndarray, vals: np.ndarray):
    """Entries of M = U_eo U_oe, of U_oe and of U_eo, for a U that joins only sites of opposite parity.

    U is given by its entries U[i, cols[i, j]] = vals[i, j]; row i lies on
    site i // 2, and U_eo, U_oe are its blocks from odd-site rows to
    even-site rows and back.  Each sublattice's rows are numbered in order,
    row i as (i // 4) * 2 + i % 2.  Returns M's index arrays, four entries
    per row (two share a column on a 2-site ring), then U_oe's and U_eo's
    as (cols, vals) pairs.
    """
    rows = np.arange(len(cols))
    index = rows // 4 * 2 + rows % 2
    even, odd = rows[rows // 2 % 2 == 0], rows[rows // 2 % 2 == 1]
    via = cols[even]
    two_cols = index[cols[via]].reshape(len(even), -1)
    two_vals = (vals[even][:, :, None] * vals[via]).reshape(len(even), -1)
    return two_cols, two_vals, (index[cols[odd]], vals[odd]), (index[via], vals[even])


def _sectors(cols: np.ndarray, vals: np.ndarray, frame: np.ndarray):
    """Entries (cols, vals) of each sector block W_s^T U W_s, indexed by site.

    Row i of U[i, cols[i, j]] = vals[i, j] lies on site i // d, component
    i % d, of ``frame`` (sites, d, d), and w_s[i] = frame[i // d, i % d, s].
    Entry (r, c, v) adds w_s[r] v w_s[c] at (site r, site c) of sector s;
    entries between sectors are never formed.
    """
    sites, d = frame.shape[:2]
    weight = frame.reshape(len(cols), d)
    site_cols = (cols // d).reshape(sites, -1)
    return [(site_cols, (weight[:, [s]] * vals * weight[cols, s]).reshape(sites, -1)) for s in range(d)]


def _fold(cols: np.ndarray, vals: np.ndarray, frame: np.ndarray) -> list:
    """Entries of F W_s for each sector s, for F[i, cols[i, j]] = vals[i, j] whose columns are the frame's rows.

    Entry j of row i becomes vals[i, j] frame[c // d, c % d, s] at column
    c // d, c = cols[i, j]; where every row's entries lie on one site, as a
    coin-shift row's two do, they are summed into one.
    """
    d = frame.shape[1]
    weight, site_cols = frame.reshape(-1, d), cols // d
    folded = [vals * weight[cols, s] for s in range(d)]
    if np.all(site_cols == site_cols[:, :1]):
        return [(site_cols[:, :1], entries.sum(axis=1, keepdims=True)) for entries in folded]
    return [(site_cols, entries) for entries in folded]


def _images(factors, rows: np.ndarray) -> list:
    """Images F1 x, F2 F1 x, ... of the rows x, for the entries (cols, vals) of F1, F2, ... in ``factors``."""
    images = []
    for cols, vals in factors:
        images.append(rows := _apply(cols, vals, rows))
    return images


def _rows(coef: np.ndarray, frame: np.ndarray, sector) -> np.ndarray:
    """Vectors W_s c over the frame's rows, for coefficient rows c in ``sector`` s (one, or one per row)."""
    rows = np.empty(coef.shape + frame.shape[1:2])
    for part in range(rows.shape[-1]):  # a component at a time: numpy is slow over a last axis of 2
        np.multiply(coef, frame[:, part].T[sector], out=rows[..., part])
    return rows.reshape(coef.shape[:-1] + (-1,))


def _measure(frame: np.ndarray, energies: np.ndarray, parts: list):
    """IPR and eigen-residual of vectors x = sum_s i^s W_s c_s of X = ... F2 F1 at E.

    ``parts`` holds (s, c_s, images) for sector s, one (a lone row) or both
    (a pair's p + iq), sector 0 first: c_s has one unit coefficient row per
    vector over the sites of ``frame``, and ``images`` its ``_images`` under
    F1 W_s, F2, ..., the last X W_s c_s.  x and its images under all
    factors but the last share x's weight: x's probability at a site is the
    sum of c_s^2 (each site's frame is orthonormal); on an even ring x and
    U_oe x are the halves of U's eigenvector lifted from M = U_eo U_oe.  The
    residual ||X x - e^{-iE} x|| at the ``energies`` E, over X's rows,
    overwrites the last images.  Both are x's own, not its unit vector's.
    """
    count, d, stages = len(energies), frame.shape[1], len(parts[0][2])
    ipr = np.zeros(count)
    for stage, arrays in enumerate(zip(*([c, *images[:-1]] for _, c, images in parts))):
        prob = sum(np.square(a) for a in arrays)  # x's coefficients, then its images but the last
        prob = sum(prob[:, part::d] for part in range(d)) if stage else prob
        ipr += np.einsum("ks,ks->k", prob, prob)
    ipr /= stages**2
    cos_e, sin_e = np.cos(energies)[:, None], np.sin(energies)[:, None]
    moved = [images[-1] for _, _, images in parts]
    for (s, c, _), moved_s in zip(parts, moved):
        moved_s -= _rows(cos_e * c, frame, s)
    if len(parts) == 1:  # X x - e^{-iE} x = (X - cos E) x + i sin E x, up to the phase i^s
        c = parts[0][1]
        return ipr, np.sqrt(np.einsum("ki,ki->k", moved[0], moved[0]) + sin_e[:, 0] ** 2 * np.einsum("ki,ki->k", c, c))
    # X x - e^{-iE} x = (X W0 c0 - cos E W0 c0 - sin E W1 c1) + i (X W1 c1 - cos E W1 c1 + sin E W0 c0)
    moved[0] -= _rows(sin_e * parts[1][1], frame, 1)
    moved[1] += _rows(sin_e * parts[0][1], frame, 0)
    return ipr, np.sqrt(np.einsum("ki,ki->k", moved[0], moved[0]) + np.einsum("ki,ki->k", moved[1], moved[1]))


def _complement(coef: np.ndarray, owner: np.ndarray, group: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """Eigenpairs of A = (X + X^T)/2 orthogonal to given eigenvectors, one group of sites at a time.

    X is given by its entries X[i, cols[i, j]] = vals[i, j] over ``sites``
    nodes, each in the group ``group[i]``; A has no entries between
    groups.  The rows of ``coef`` (n, sites) are orthonormal eigenvectors
    of A, each within its group ``owner``.  A group of w sites holding m of
    them has a complement of r = w - m dimensions, spanned from the columns
    of I - G G^T (G the group's given vectors, as columns) chosen by
    pivoted Cholesky, which picks the largest remaining diagonal at each
    step.  The r columns are projected off G twice, orthonormalized, and
    rotated by a Rayleigh-Ritz ``eigh`` of A on them.  Groups of equal
    (w, m) are solved together.  In exact arithmetic a remaining diagonal
    of sum r - k has a largest entry of at least 1/w, so a pivot below
    1/(2w), or a diagonal left above it after r steps, means the given
    vectors are not orthonormal, and raises.  Returns the Ritz values, the
    vectors as rows over sites, and their groups.
    """
    sites = len(group)
    width = np.bincount(group)
    taken = np.bincount(owner, minlength=width.size)
    if np.any(taken > width):
        raise RuntimeError("sector partners outnumber their sites")
    by_site, by_row = np.argsort(group, kind="stable"), np.argsort(owner, kind="stable")
    site_start, row_start = np.cumsum(width) - width, np.cumsum(taken) - taken
    values, vectors, labels = [np.empty(0)], [np.empty((0, sites))], [np.empty(0, dtype=int)]
    short = np.flatnonzero(taken < width)
    # the plain np.unique would import numpy.ma, tens of ms on a first request
    keys, inverse = np.unique(width[short] * (sites + 1) + taken[short], return_inverse=True)
    for key, (w, m) in enumerate(zip(*np.divmod(keys, sites + 1))):
        batch = short[inverse == key]
        count, r, each = batch.size, w - m, np.arange(batch.size)
        at = by_site[site_start[batch][:, None] + np.arange(w)]
        g = coef[by_row[row_start[batch][:, None] + np.arange(m)][:, :, None], at[:, None, :]]
        diag = 1.0 - np.einsum("kmi,kmi->ki", g, g)
        start = np.zeros((count, r, w))
        for k in range(r):
            pick = diag.argmax(axis=1)
            pivot = diag[each, pick]
            if np.any(pivot < 0.5 / w):
                raise RuntimeError(f"complement of rank below {r} in a group of {w} sites")
            column = -np.einsum("kmi,km->ki", g, g[each, :, pick])
            column[each, pick] += 1.0
            column -= np.einsum("kti,kt->ki", start[:, :k], start[each, :k, pick])
            start[:, k] = column / np.sqrt(pivot)[:, None]
            diag -= start[:, k] ** 2
        if np.any(diag > 0.5 / w):
            raise RuntimeError(f"complement of rank above {r} in a group of {w} sites")
        for _ in range(2):
            start -= (start @ g.transpose(0, 2, 1)) @ g
        start = np.linalg.qr(start.transpose(0, 2, 1))[0].transpose(0, 2, 1)
        ritz = start @ _symmetric_blocks(cols, vals, at) @ start.transpose(0, 2, 1)
        ritz_values, rotation = np.linalg.eigh(ritz)
        rows = np.zeros((count * r, sites))
        rows[np.arange(count * r)[:, None], np.repeat(at, r, axis=0)] = (rotation.transpose(0, 2, 1) @ start).reshape(-1, w)
        values.append(ritz_values.ravel())
        vectors.append(rows)
        labels.append(np.repeat(batch, r))
    return np.concatenate(values), np.concatenate(vectors), np.concatenate(labels)


def _partner(image: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Sector-0 parts P0 X q of rows X q, as coefficients over the sector-0 frame vectors."""
    d = frame.shape[1]
    return sum(image[:, part::d] * frame[:, part, 0] for part in range(d))


def _eigenpairs(cols: np.ndarray, vals: np.ndarray, frame: np.ndarray, factors):
    """Unsorted eigenpairs of a real orthogonal matrix X, X[i, cols[i, j]] = vals[i, j].

    Row i lies on site i // d, component i % d, of ``frame`` (sites, d, d),
    d = 2, whose columns at every site are the +1 and -1 eigenvectors of a
    site's reflection Gamma with Gamma X Gamma = X^T: the two sectors.  In
    their frame W, W^T X W = [[A0, C], [-C^T, A1]] with A0, A1 symmetric,
    and orthogonality gives A0 C = C A1 and C^T C = 1 - A1^2.  Both blocks
    are built from X's entries alone (``_sectors``), but only A1 is
    diagonalized (``_block_eigh``): for its unit eigenvector q at cos E,
    sigma = ||P0 X q|| = |sin E| (P0 the sector-0 part, a per-site frame
    dot), and p = P0 X q / sigma is A0's eigenvector at the same cos E,
    exact even within a degenerate cluster.  Vectors are coefficients
    over their sector's frame vectors, one per site; ``factors`` holds the
    entries of F1, F2, ... with product X, and F1 W_s (``_fold``) takes
    coefficient rows.  For sigma above ``_PAIR_FLOOR`` the pair's vectors
    (p +/- iq)/sqrt(2) are measured (``_measure``), never formed; p's with
    sigma below ten times the floor, whose overlaps grow like eps / sigma^2,
    go last and are projected off the p's before them.  The rest, near
    E = 0 and pi, are the q's with sigma at most the floor and A0's
    eigenvectors orthogonal to every p (``_complement``, a Rayleigh-Ritz
    solve on A0's entries), grouped by X's components joined over every
    site whose frame mixes them: one cluster per group and sign of cos E,
    each solved by ``_resolve_clusters``, whose SVD rotates the members' rows
    in place into pairs and lone rows.
    Returns E = -arg(lambda), the IPR, the largest eigen-residual, the
    coefficient ``basis`` whose rows are the q's (sector 1), then the p's
    and A0's other eigenvectors (sector 0), and one record (index, weight)
    per eigenpair: the eigenvector of E[k] is
    weight[k, 0] W_0 basis[index[k, 0]] + i weight[k, 1] W_1 basis[index[k, 1]].
    """
    sites, d = frame.shape[:2]
    size = len(cols)
    blocks = _sectors(cols, vals, frame)
    basis = np.zeros((2 * sites, sites))
    cos_e, members = _block_eigh(*blocks[1], basis[:sites])
    chains = [(first, *factors[1:]) for first in _fold(*factors[0], frame)]  # F1 W_s, F2, ... for each sector s
    energies, ipr, index, weight = np.empty(size), np.empty(size), np.empty((size, 2), dtype=int), np.empty((size, 2))

    def add_pairs(slots, rows, pair_e, p, q, images_q) -> float:
        """Records and measures (p +/- iq)/sqrt(2) at +/-pair_e in ``slots`` (n, 2), p, q the basis ``rows`` (n, 2)."""
        pair_ipr, gap = _measure(frame, pair_e, [(0, p, _images(chains[0], p)), (1, q, images_q)])
        energies[slots], ipr[slots] = pair_e[:, None] * [1, -1], pair_ipr[:, None] / 4  # for p + iq, of norm sqrt(2)
        index[slots], weight[slots] = rows[:, None], np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]])
        return gap.max() * np.sqrt(0.5)

    # sigma^2 = q^T C^T C q = 1 - cos^2 E, so the vectors q left unpaired, and the
    # p's to re-orthogonalize, which go last, are known before X is applied.  Pair
    # member 0 is (p + iq)/sqrt(2) at E and member 1 is (p - iq)/sqrt(2) at -E.
    sine2 = (1 - cos_e) * (1 + cos_e)
    unpaired, paired = np.flatnonzero(sine2 <= _PAIR_FLOOR**2), np.flatnonzero(sine2 > _PAIR_FLOOR**2)
    small = sine2[paired] < (10 * _PAIR_FLOOR) ** 2
    keep, first_small = paired[np.argsort(small, kind="stable")], paired.size - np.count_nonzero(small)
    tops, residual = [*range(0, first_small, 32), *range(first_small, keep.size, 32)], 0.0
    for top, end in zip(tops, tops[1:] + [keep.size]):
        q = basis[keep[top:end]]
        images_q = _images(chains[1], q)
        p = _partner(images_q[-1], frame)
        sigma = np.sqrt(np.einsum("kp,kp->k", p, p))
        p /= sigma[:, None]
        if top >= first_small:  # off the p's before it, and orthonormal to first order within the chunk
            p -= (p @ basis[sites : sites + top].T) @ basis[sites : sites + top]
            p -= 0.5 * (p @ p.T - np.eye(len(p))) @ p
        basis[sites + top : sites + end] = p
        pair_e = -np.arctan2(sigma, cos_e[keep[top:end]])  # (p + iq)/sqrt(2) has eigenvalue cos E + i sigma
        rows = np.column_stack([sites + np.arange(top, end), keep[top:end]])
        residual = max(residual, add_pairs(np.arange(2 * top, 2 * end).reshape(-1, 2), rows, pair_e, p, q, images_q))
    # Groups: X's components joined with the rows of every site whose frame mixes them.
    rows = np.arange(size)
    partner = rows - rows % d + (rows + 1) % d
    mixed = (frame.reshape(size, d) * frame.reshape(size, d)[partner]).any(axis=1)
    group = _components(np.column_stack([cols, partner]), np.column_stack([vals, mixed]))
    # (site, sector): the group of the row each node is grouped by, its frame vector's largest component
    node_group = group[np.arange(sites)[:, None] * d + np.abs(frame).argmax(axis=1)]
    q_group = node_group[members, 1]
    # The rest, within the pair floor of sin E = 0: A0's complement and the unpaired
    # q's, one cluster per group and sign of cos E, sector-0 members first.
    rest_e, basis[sites + keep.size :], rest_group = _complement(
        basis[sites : sites + keep.size], q_group[keep], node_group[:, 0], *blocks[0]
    )
    rest_rows, rest_e = np.append(np.arange(sites + keep.size, 2 * sites), unpaired), np.append(rest_e, cos_e[unpaired])
    side = (rest_rows < sites).astype(int)
    key = 2 * np.concatenate([rest_group, q_group[unpaired]]) + (rest_e < 0)
    order = np.lexsort((rest_e, side, key))
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    ones = np.add.reduceat(side[order], starts) if starts.size else starts
    zeros = np.diff(np.append(starts, order.size)) - ones
    # Each cluster's SVD rotates its members' rows in place.  Every row is a lone
    # record, of weight 1 in its sector, unless it is linked into a pair.
    for n0, n1 in sorted(set(zip(zeros.tolist(), ones.tolist()))):
        at = order[starts[(zeros == n0) & (ones == n1)][:, None] + np.arange(n0 + n1)]
        rows, slots = rest_rows[at], 2 * keep.size + at
        coupling, step = np.zeros((len(at), n0, n1)), max(1, 32 // max(n1, 1))  # at most 32 rows moved, or one cluster
        for top in range(0, len(at) if n0 and n1 else 0, step):
            part = rows[top : top + step]
            moved = _partner(_images(chains[1], basis[part[:, n0:]].reshape(-1, sites))[-1], frame)
            coupling[top : top + step] = basis[part[:, :n0]] @ moved.reshape(len(part), n1, sites).transpose(0, 2, 1)
        u, s, vh, energies[slots] = _resolve_clusters(coupling, rest_e[at[:, :n0]], rest_e[at[:, n0:]])
        if n0 and n1:  # else the SVD's one nonempty factor is the identity
            basis[rows[:, :n0]], basis[rows[:, n0:]] = u.transpose(0, 2, 1) @ basis[rows[:, :n0]], vh @ basis[rows[:, n0:]]
        index[slots], weight[slots] = rows[:, :, None], np.eye(2)[side[at]]
        n, link = s.shape[1], s > 0  # sector-0 row j and sector-1 row j of a cluster form a pair
        links = np.column_stack([table[:, cut][link] for table in (slots, rows) for cut in (slice(n), slice(n0, n0 + n))])
        for pair in np.split(links, range(32, len(links), 32)) if len(links) else []:  # E is at the sector-0 slot
            p, q = basis[pair[:, 2]], basis[pair[:, 3]]
            residual = max(residual, add_pairs(pair[:, :2], pair[:, 2:], energies[pair[:, 0]], p, q, _images(chains[1], q)))
    for sector in (0, 1):  # the lone rows: weight 1 in their sector, where a pair's are sqrt(1/2)
        alone = np.flatnonzero(weight[:, sector] == 1)
        for at in np.split(alone, range(32, alone.size, 32)) if alone.size else []:
            c = basis[index[at, sector]]
            ipr[at], gap = _measure(frame, energies[at], [(sector, c, _images(chains[sector], c))])
            residual = max(residual, gap.max())
    return energies, ipr, residual, basis, (index, weight)


def _guard(residual: float) -> None:
    if residual > _RESIDUAL_GUARD:
        raise RuntimeError(f"eigensolver failure: eigen-residual {residual:.2e} exceeds {_RESIDUAL_GUARD}")


def _eig_orthogonal(cols: np.ndarray, vals: np.ndarray, frame: np.ndarray):
    """Eigen-decomposition of a real orthogonal matrix, sorted by quasi-energy.

    The matrix is given by its entries U[i, cols[i, j]] = vals[i, j], and
    ``frame`` holds every site's chiral frame for U's two rows per site
    (see ``_eigenpairs``).  Returns E = -arg(lambda) in (-pi, pi], the
    IPR of each eigenvector over the frame's sites, the largest
    eigen-residual ||Uv - lambda v||, and a function of sorted positions
    that builds those unit eigenvectors as columns from their records
    (``_assemble``); a residual above ``_RESIDUAL_GUARD`` raises here,
    before any is built.

    Row i lies on site i // 2.  When every nonzero entry joins sites of
    opposite parity, as on an even ring, U^2 is block-diagonal over the two
    sublattices, and U is solved through its even-site block M = U_eo U_oe,
    in the frame of the even sites.  An eigenpair M x = e^{-i phi} x gives
    the two eigenpairs E = phi/2 and phi/2 + pi of U, with vectors
    (x; +/- e^{i phi/2} U_oe x)/sqrt(2): both have the site distribution of
    x and U_oe x, each at half weight, and the residual
    ||Mx - e^{-i phi} x|| / sqrt(2).
    """
    size = len(cols)
    parity = np.arange(size) // 2 % 2
    bipartite = not np.any((parity[cols] == parity[:, None]) & (vals != 0))
    if bipartite:
        two_cols, two_vals, oe, eo = _two_step(cols, vals)
        frame = frame[::2]
        phi, ipr, residual, basis, records = _eigenpairs(two_cols, two_vals, frame, (oe, eo))
        energies = np.concatenate([phi / 2, phi / 2 + np.where(phi > 0, -np.pi, np.pi)])
        ipr, residual, lift = np.concatenate([ipr, ipr]), residual / np.sqrt(2), (oe, phi)
    else:
        energies, ipr, residual, basis, records = _eigenpairs(cols, vals, frame, ((cols, vals),))
        lift = None
    _guard(residual)
    energies[energies == -np.pi] = np.pi
    order = np.argsort(energies)
    energies = energies[order]
    columns = functools.partial(_assemble, cols, vals, energies, order, basis, frame, records, lift)
    return energies, ipr[order], residual, columns


def _assemble(cols, vals, energies, order, basis, frame, records, lift, keep: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of U at sorted positions ``keep``, as columns, guarded through U's entries.

    U[i, cols[i, j]] = vals[i, j] has the sorted ``energies``; ``order``
    maps them to the eigenpairs of X whose ``records`` (index, weight)
    ``_eigenpairs`` gave over the coefficient rows of its real ``basis``
    and the sites of ``frame``.  Each kept vector gathers its two rows,
    64 vectors at a time, and is guarded as it is built.  With ``lift`` =
    (U_oe's entries, phi), X is M = U_eo U_oe, whose eigenpair k gives U's
    eigenpairs k and k + len(records[0]), M x = e^{-i phi} x lifted to
    (x; +/- e^{i phi/2} U_oe x)/sqrt(2) (see ``_eig_orthogonal``).
    """
    index, weight = records
    rows = np.empty((keep.size, len(cols)), dtype=complex)
    residual = 0.0
    for top in range(0, keep.size, 64):  # a few rows at a time stay in cache
        chunk, at = rows[top : top + 64], order[keep[top : top + 64]]
        pick = at % len(index)
        x = np.empty((len(at), 2 * len(frame)), dtype=complex) if lift else chunk
        x.real = _rows(weight[pick, :1] * basis[index[pick, 0]], frame, 0)
        x.imag = _rows(weight[pick, 1:] * basis[index[pick, 1]], frame, 1)
        if lift:
            y = _apply(*lift[0], x)
            y *= np.sqrt(0.5) * np.exp(0.5j * lift[1][pick])[:, None] * np.where(at < len(index), 1, -1)[:, None]
            x *= np.sqrt(0.5)
            pairs = chunk.reshape(len(at), -1, 2, 2)  # (vector, site pair, parity, component)
            pairs[:, :, 0], pairs[:, :, 1] = x.reshape(len(at), -1, 2), y.reshape(len(at), -1, 2)
        moved = _apply(cols, vals, chunk)
        moved -= chunk * np.exp(-1j * energies[keep[top : top + 64], None])
        moved = moved.view(float)
        residual = max(residual, float(np.sqrt(np.einsum("ij,ij->i", moved, moved).max())))
    _guard(residual)
    return rows.T


def diagonalize(profile: CoinProfile) -> SpectralResult:
    """Full eigen-decomposition of the one-step unitary for ``profile``.

    Solved in real arithmetic (see the module docstring); E = -arg(lambda)
    lies in (-pi, pi].  Rings above ``SIZE_CAP`` sites raise ``ValueError``;
    an eigen-residual above 1e-10 raises ``RuntimeError``.  The eigenvectors
    are built on first read of ``vectors``, or a few by ``columns``.
    """
    if profile.length > SIZE_CAP:
        raise ValueError(f"ring size {profile.length} exceeds the dense-solver cap {SIZE_CAP}")
    energies, ipr, _, columns = _eig_orthogonal(*_coin_shift(profile), _chiral_frame(profile.angles))
    return SpectralResult(
        quasi_energies=energies,
        vectors=None,
        ipr=ipr,
        length=profile.length,
        indices=np.arange(energies.size),
        _build=columns,
    )


def _ipr_threshold(length: int, ipr_threshold: float | None) -> float:
    """The IPR a bound state must exceed on a ring of ``length`` sites: ``ipr_threshold``, by default 4/L.

    A threshold that is not finite and non-negative raises ``ValueError``.
    """
    if ipr_threshold is None:
        return 4.0 / length
    if not 0 <= ipr_threshold < np.inf:
        raise ValueError(f"ipr_threshold must be finite and non-negative, not {ipr_threshold}")
    return float(ipr_threshold)


def _bound_positions(result: SpectralResult, target: float, ipr_threshold: float | None = None) -> np.ndarray:
    """Positions in ``result`` of the states ``find_bound_states`` keeps, without building any vector."""
    threshold = _ipr_threshold(result.length, ipr_threshold)
    localized = np.nonzero(result.ipr > threshold * (1 + 8 * np.finfo(float).eps))[0]
    dist = circle_distance(result.quasi_energies[localized], target)
    localized, dist = localized[dist < np.pi / 2 - 1e-6], dist[dist < np.pi / 2 - 1e-6]
    return localized[dist <= dist.min(initial=np.inf) + 1e-6]


def find_bound_states(
    result: SpectralResult, target: float, ipr_threshold: float | None = None
) -> SpectralResult:
    """Localized eigenpairs nearest the target quasi-energy (0 or pi).

    Keeps states with IPR above the threshold (default 4/L) by more than a
    few ulps, so a state at the threshold up to rounding (the two-site
    states of an all-reflecting ring of 8 sites) is never kept, whatever its
    last bits, and nearer the target than the other one: a circle distance
    below pi/2 - 1e-6, so the E = +/-pi/2 states of a reflecting exterior
    are near neither.  A threshold that is not finite and non-negative
    raises ``ValueError``.  Among those, the cluster at minimal circle distance
    from the target is returned, so both members of a split pair are.  No
    such states is an empty result, not an error.
    """
    keep = _bound_positions(result, target, ipr_threshold)
    return SpectralResult(
        quasi_energies=result.quasi_energies[keep],
        vectors=result.columns(keep),
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
    opposite sign to ``theta2``.  An int ``block_length`` >= 0 gives a float
    and an array of them an array, NaN where the window holds no root above
    1e-300 (the int form raises ``RuntimeError``); others raise ``ValueError``.
    """
    verdict = boundstates.single_boundary_existence(theta1, theta2)
    if not verdict.exists:
        raise ValueError(f"no bound states to solve for: {verdict.reason}")
    lengths = _integers(block_length, "block lengths", 0)
    jump = abs(np.sin(theta1) - np.sin(theta2))
    terms = boundstates._wire_terms(theta1, theta2, lengths)

    def condition(u):
        # A^2 - B^2 = sin^2 E (s1 - s2)^2 turns tanh(x) A - B into the difference of
        # sin^2 E (s1 - s2)^2 / (A + B) and 2A / (1 + e^{2x}); this is the log of their ratio.
        sin_e, a, b, x = terms(np.exp(u))
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
    slope estimates -kappa_2.  Fewer than 4 distinct lengths, or a length
    that is not an integer >= 0, raise ``ValueError``.
    """
    lengths = _integers([*block_lengths], "block lengths", 0)
    if len(set(lengths.tolist())) < 4:
        raise ValueError("need at least 4 distinct block lengths for a meaningful fit")
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
    projection norm.  Raises ``RuntimeError`` when no eigenvector lies in
    that window, and ``ValueError`` when the solution, the profile or a given
    ``result`` lie on rings of different lengths.
    """
    if analytic.wavefunction.length != profile.length:
        raise ValueError("analytic solution and profile live on different rings")
    if result is None:
        result = diagonalize(profile)
    elif result.length != profile.length:
        raise ValueError(f"result has {result.length} sites but profile has {profile.length}")
    sel = np.nonzero(circle_distance(result.quasi_energies, analytic.energy) < 1e-6)[0]
    if sel.size == 0:
        raise RuntimeError("no eigenvector matches the analytic quasi-energy")
    basis, _ = np.linalg.qr(result.columns(sel))
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
