import cProfile
import dataclasses
import json
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from coinwalk import (
    CoinProfile,
    SpectralResult,
    WalkerState,
    antisymmetric_mode,
    build_profile,
    build_unitary,
    circle_distance,
    diagonalize,
    find_bound_states,
    fit_splitting_decay,
    mode_residual,
    oracle_compare,
    single_boundary_mode,
    solve_wire_energy,
    splitting_decay_rate,
    step,
)
from coinwalk import cli, spectral

# finite-block reference energies E/pi (reflecting ends, three block angles)
REFERENCE_ENERGIES = {
    np.pi / 3: [2.13e-2, 5.69e-3, 1.52e-3, 4.08e-4, 1.09e-4,
                2.93e-5, 7.85e-6, 2.10e-6, 5.64e-7, 1.51e-7],
    np.pi / 4: [4.68e-2, 1.89e-2, 7.77e-3, 3.21e-3, 1.33e-3,
                5.52e-4, 2.29e-4, 9.47e-5, 3.92e-5, 1.62e-5],
    np.pi / 6: [8.04e-2, 4.31e-2, 2.41e-2, 1.37e-2, 7.89e-3,
                4.54e-3, 2.62e-3, 1.51e-3, 8.73e-4, 5.04e-4],
}


def random_state(rng, length):
    raw = rng.normal(size=2 * length) + 1j * rng.normal(size=2 * length)
    return WalkerState(raw / np.linalg.norm(raw))


class TestBuildUnitary:
    def test_free_coin_is_permutation(self):
        mat = build_unitary(build_profile("uniform", 2, 0.0))
        assert np.allclose(np.abs(mat), np.abs(mat).astype(int))
        assert np.allclose(mat @ mat.conj().T, np.eye(4))

    def test_unitarity_random_profile(self):
        rng = np.random.default_rng(50)
        mat = build_unitary(CoinProfile(rng.uniform(-np.pi, np.pi, 40)))
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(80))) < 1e-12

    def test_matches_step(self):
        rng = np.random.default_rng(51)
        prof = CoinProfile(rng.uniform(-np.pi, np.pi, 24))
        mat = build_unitary(prof)
        for _ in range(5):
            state = random_state(rng, 24)
            gap = mat @ state.amplitudes - step(state, prof).amplitudes
            assert np.max(np.abs(gap)) < 1e-13

    def test_real_with_exact_zeros_for_reflecting_coins(self):
        mat = build_unitary(build_profile("uniform", 8, np.pi / 2))
        assert mat.dtype == np.float64
        assert np.count_nonzero(mat) == 16
        assert np.array_equal(mat @ mat.T, np.eye(16))

    def test_matrix_power_matches_evolution(self):
        rng = np.random.default_rng(52)
        prof = CoinProfile(rng.uniform(-np.pi, np.pi, 10))
        state = random_state(rng, 10)
        mat = build_unitary(prof)
        evolved = state
        for _ in range(7):
            evolved = step(evolved, prof)
        assert np.allclose(
            np.linalg.matrix_power(mat, 7) @ state.amplitudes,
            evolved.amplitudes,
            atol=1e-12,
        )


class TestDiagonalize:
    def test_uniform_profile_recovers_dispersion(self):
        length, theta = 64, np.pi / 4
        result = diagonalize(build_profile("uniform", length, theta))
        ks = 2 * np.pi * np.arange(length) / length
        expected = np.sort(np.concatenate([np.cos(theta) * np.cos(ks)] * 2))
        assert np.allclose(np.sort(np.cos(result.quasi_energies)), expected, atol=1e-10)

    def test_eigenvalues_on_unit_circle(self):
        rng = np.random.default_rng(53)
        prof = CoinProfile(rng.uniform(-np.pi, np.pi, 48))
        mat = build_unitary(prof)
        result = diagonalize(prof)
        recovered = np.exp(-1j * result.quasi_energies)
        for lam in recovered:
            assert abs(np.min(np.abs(np.linalg.eigvals(mat) - lam))) < 1e-8

    def test_quasi_energies_pair_up(self):
        rng = np.random.default_rng(54)
        result = diagonalize(CoinProfile(rng.uniform(-np.pi, np.pi, 40)))
        energies = np.sort(result.quasi_energies)
        folded = np.sort(-result.quasi_energies)
        folded[folded == -np.pi] = np.pi
        assert np.allclose(np.sort(folded), energies, atol=1e-10)

    def test_antisymmetric_block_pins_zero_and_pi(self):
        result = diagonalize(
            build_profile("antisymmetric", 64, -np.pi / 4, np.pi / 4, wire_length=20)
        )
        for target in (0.0, np.pi):
            sub = find_bound_states(result, target)
            assert sub.count > 0
            assert np.all(circle_distance(sub.quasi_energies, target) < 1e-8)
            assert np.all(sub.ipr > 4.0 / 64)

    def test_symmetric_block_splits_away_from_zero(self):
        result = diagonalize(
            build_profile("symmetric", 64, -np.pi / 4, np.pi / 4, wire_length=20)
        )
        assert np.min(np.abs(result.quasi_energies)) > 1e-9
        assert np.min(circle_distance(result.quasi_energies, np.pi)) > 1e-9

    def test_size_cap(self):
        with pytest.raises(ValueError):
            diagonalize(build_profile("uniform", spectral.SIZE_CAP + 1, 0.3))

    def test_misplaced_cluster_split_raises(self, monkeypatch):
        # the block's E = +/-0.0012 pairs (|sin 2E| below the pair floor) are
        # clustered; with the coupling within each cluster zeroed, every member
        # is taken for a real eigenvector, and the eigen-residual guard must
        # reject that in diagonalize itself, before any vector is read
        profile = build_profile("symmetric", 16, -np.pi / 4, np.pi / 4, wire_length=6)
        assert np.min(np.abs(diagonalize(profile).quasi_energies)) > 1e-3
        resolve = spectral._resolve_clusters

        def uncoupled_resolve(coupling, cos_0, cos_1):
            coupling[...] = 0.0
            return resolve(coupling, cos_0, cos_1)

        monkeypatch.setattr(spectral, "_resolve_clusters", uncoupled_resolve)
        with pytest.raises(RuntimeError, match="eigen-residual"):
            diagonalize(profile)


def eig_reference(profile):
    """Dense complex eigen-decomposition with np.linalg.eig, the oracle's reference."""
    values, vectors = np.linalg.eig(build_unitary(profile).astype(complex))
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    site_prob = (np.abs(vectors) ** 2).reshape(profile.length, 2, -1).sum(axis=1)
    return SpectralResult(
        quasi_energies=-np.angle(values),
        vectors=vectors,
        ipr=(site_prob**2).sum(axis=0),
        length=profile.length,
        indices=np.arange(values.size),
    )


def match_energies(energies, reference):
    """Pairing of two quasi-energy multisets that minimizes circle distances."""
    cost = circle_distance(energies[:, None], reference[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cols[np.argsort(rows)], cost[rows, cols].max()


# theta2 in each (sgn sin, sgn cos) quadrant; exterior angles per layout, with
# reflecting (+/- pi/2) ends on the single and wire layouts
QUADRANT_THETA2 = (0.3 * np.pi, 0.7 * np.pi, -0.3 * np.pi, -0.7 * np.pi)
LAYOUT_THETA1 = {
    "uniform": None,
    "single": 0.5 * np.pi,
    "symmetric": 0.6 * np.pi,
    "antisymmetric": 0.35 * np.pi,
    "wire": 0.5 * np.pi,
}


def assert_matches_dense_eig(profile):
    """Energies, eigenpairs, IPRs and bound-state counts against ``eig_reference``."""
    result = diagonalize(profile)
    reference = eig_reference(profile)
    partner, energy_gap = match_energies(result.quasi_energies, reference.quasi_energies)
    assert energy_gap < 1e-12

    mat = build_unitary(profile)
    vecs = result.vectors
    residual = mat @ vecs - vecs * np.exp(-1j * result.quasi_energies)
    assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-10
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(2 * profile.length))) <= 1e-12

    # a degenerate eigenspace has no preferred basis, so neither do its IPRs
    spacing = circle_distance(result.quasi_energies[:, None], result.quasi_energies[None, :])
    np.fill_diagonal(spacing, np.inf)
    isolated = spacing.min(axis=1) > 1e-6
    assert np.allclose(result.ipr[isolated], reference.ipr[partner[isolated]], atol=1e-8)
    for target in (0.0, np.pi):
        assert find_bound_states(result, target).count == find_bound_states(reference, target).count
    assert np.all((result.quasi_energies > -np.pi) & (result.quasi_energies <= np.pi))


@pytest.mark.parametrize("length", [64, 65, 128])
@pytest.mark.parametrize("theta2", QUADRANT_THETA2, ids=["+sin+cos", "+sin-cos", "-sin+cos", "-sin-cos"])
@pytest.mark.parametrize("kind", sorted(LAYOUT_THETA1))
def test_diagonalize_matches_dense_eig(kind, theta2, length):
    if kind == "uniform":
        profile = build_profile(kind, length, theta2)
    else:
        theta1 = -np.sign(np.sin(theta2)) * LAYOUT_THETA1[kind]
        profile = build_profile(kind, length, theta1, theta2, wire_length=6)
    assert_matches_dense_eig(profile)


@pytest.mark.parametrize(
    "profile",
    [
        build_profile("uniform", 128, 0.499 * np.pi),
        build_profile("symmetric", 128, 0.501 * np.pi, -0.475 * np.pi, wire_length=5),
        build_profile("symmetric", 129, 0.501 * np.pi, -0.475 * np.pi, wire_length=5),
        build_profile("symmetric", 256, 0.501 * np.pi, -0.475 * np.pi, wire_length=5),
    ],
    ids=["uniform", "symmetric", "symmetric-odd", "symmetric-256"],
)
def test_near_reflecting_coins_match_dense_eig(profile):
    # coins close to +/- pi/2 give a narrow band near E = +/-pi/2; on an even
    # ring, M = U_eo U_oe folds it to within the pair floor of cos 2E = -1,
    # one cluster per group of tens to hundreds of members
    assert_matches_dense_eig(profile)


@pytest.mark.parametrize(
    "profile",
    [
        build_profile("uniform", length, theta)
        for length in (2, 4, 64)
        for theta in (0.0, np.pi, np.pi / 2, -np.pi / 2, 0.3 * np.pi, -0.7 * np.pi)
    ]
    + [build_profile("uniform", 8, theta) for theta in (np.pi / 2, -np.pi / 2)]
    + [CoinProfile(np.random.default_rng(length).uniform(-np.pi, np.pi, length)) for length in (2, 4)],
)
def test_small_and_degenerate_even_rings_match_dense_eig(profile):
    # on 2 sites two entries of U^2 share a column; at sin theta = 0 U^2 has
    # no same-site entries, and its two chains are separate components that
    # every site's chiral frame mixes; at cos theta = 0 every coin reflects,
    # and on 8 sites every state's IPR equals the threshold 4/L
    assert_matches_dense_eig(profile)


@pytest.mark.parametrize(
    "profile",
    [
        build_profile("uniform", length, theta)
        for length in (3, 65)
        for theta in (0.0, np.pi, np.pi / 2, -np.pi / 2)
    ],
)
def test_degenerate_odd_rings_match_dense_eig(profile):
    # an odd ring's U at sin theta = 0 is two separate chains that the chiral frame mixes
    assert_matches_dense_eig(profile)


def same_partition(labels, reference):
    """Whether two labelings group the same rows together, whatever the label values."""
    pairs = set(zip(labels.tolist(), reference.tolist()))
    return len(pairs) == len(set(labels.tolist())) == len(set(reference.tolist()))


def _planted_zero_profiles(lengths=(24, 57)):
    rng = np.random.default_rng(61)
    for length in lengths:
        angles = rng.uniform(-np.pi, np.pi, length)
        # exact zeros of cos (+/- pi/2) and of sin (0, pi) at random sites
        planted = rng.choice(length, size=length // 3, replace=False)
        angles[planted] = rng.choice([np.pi / 2, -np.pi / 2, 0.0, np.pi], size=planted.size)
        yield CoinProfile(angles)


@pytest.mark.parametrize(
    "profile",
    [build_profile("uniform", 40, theta) for theta in (0.0, np.pi / 2, -np.pi / 2, np.pi)]
    + [
        build_profile(kind, 40, -np.sign(np.sin(theta2)) * LAYOUT_THETA1[kind], theta2, wire_length=6)
        for kind in sorted(set(LAYOUT_THETA1) - {"uniform"})
        for theta2 in QUADRANT_THETA2
    ]
    + [build_profile("uniform", 40, theta2) for theta2 in QUADRANT_THETA2]
    + list(_planted_zero_profiles()),
)
def test_components_match_csgraph(profile):
    cols, vals = spectral._coin_shift(profile)
    linked = vals != 0
    graph = csr_array((vals[linked], (np.nonzero(linked)[0], cols[linked])), shape=(len(cols),) * 2)
    count, reference = connected_components(graph, directed=False)
    labels = spectral._components(cols, vals)
    assert labels.max() + 1 == count
    assert same_partition(labels, reference)


def chiral_reflection(profile):
    """Gamma = diag over sites of [[-sin, cos], [cos, sin]], from the coin angles."""
    c, s = np.cos(profile.angles), np.sin(profile.angles)
    blocks = np.stack([np.stack([-s, c], axis=1), np.stack([c, s], axis=1)], axis=1)
    gamma = np.zeros((2 * profile.length,) * 2)
    for site, block in enumerate(blocks):
        gamma[2 * site : 2 * site + 2, 2 * site : 2 * site + 2] = block
    return gamma


CHIRAL_PROFILES = (
    [
        build_profile(kind, length, -np.sign(np.sin(theta2)) * LAYOUT_THETA1[kind], theta2, wire_length=6)
        for kind in sorted(set(LAYOUT_THETA1) - {"uniform"})
        for theta2 in QUADRANT_THETA2
        for length in (32, 33)
    ]
    + [
        build_profile("uniform", length, theta)
        for theta in QUADRANT_THETA2 + (0.0, np.pi, np.pi / 2, -np.pi / 2)
        for length in (2, 32, 33)
    ]
    + [build_profile("symmetric", 32, 0.501 * np.pi, -0.475 * np.pi, wire_length=5)]
    + list(_planted_zero_profiles((24, 57)))
)


@pytest.mark.parametrize("profile", CHIRAL_PROFILES)
def test_chiral_reflection_transposes_one_step(profile):
    # Gamma U Gamma = U^T on every ring, and on even rings the even-site block
    # of Gamma does the same to M = U_eo U_oe, the even-site block of U^2
    mat, gamma = build_unitary(profile), chiral_reflection(profile)
    assert np.max(np.abs(gamma @ mat @ gamma - mat.T)) <= 1e-15
    if profile.length % 2 == 0:
        even = np.arange(len(mat)) // 2 % 2 == 0
        two = mat[even][:, ~even] @ mat[~even][:, even]
        half = gamma[even][:, even]
        assert np.max(np.abs(half @ two @ half - two.T)) <= 1e-15
    # the frame's columns are Gamma_n's eigenvectors for +1 and -1, orthonormal
    frame = spectral._chiral_frame(profile.angles)
    sites = np.arange(profile.length)
    blocks = gamma.reshape(profile.length, 2, profile.length, 2)[sites, :, sites]
    assert np.max(np.abs(blocks @ frame - frame * [1.0, -1.0])) <= 1e-15
    assert np.max(np.abs(frame.transpose(0, 2, 1) @ frame - np.eye(2))) <= 1e-15


def test_chiral_frame_of_reflecting_coins_is_exact():
    frame = spectral._chiral_frame(np.array([np.pi / 2, -np.pi / 2]))
    assert np.array_equal(frame, [[[0.0, -1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])


def block_eigh(profile, two_step=False):
    """``spectral._block_eigh`` of both sectors of U, or of M = U_eo U_oe, as vectors over U's rows."""
    cols, vals = spectral._coin_shift(profile)
    frame = spectral._chiral_frame(profile.angles)
    if two_step:
        cols, vals = spectral._two_step(cols, vals)[:2]
        frame = frame[::2]
    values, rows = [], []
    for sector, block in enumerate(spectral._sectors(cols, vals, frame)):
        coef = np.zeros((len(frame),) * 2)
        values.append(spectral._block_eigh(*block, coef)[0])
        rows.append((coef[:, :, None] * frame[:, :, sector]).reshape(len(frame), -1))
    return np.concatenate(values), np.concatenate(rows)


@pytest.mark.parametrize(
    "profile",
    [
        build_profile(kind, 48, -np.sign(np.sin(theta2)) * LAYOUT_THETA1[kind], theta2, wire_length=6)
        for kind in sorted(set(LAYOUT_THETA1) - {"uniform"})
        for theta2 in QUADRANT_THETA2
    ]
    + [build_profile("uniform", 48, theta) for theta in QUADRANT_THETA2 + (np.pi / 2, -np.pi / 2)]
    + list(_planted_zero_profiles((24, 56))),
)
def test_even_ring_solves_two_step_operator(profile, monkeypatch):
    # an even ring's U joins only sites of opposite parity, so U^2 splits over
    # the sublattices and only the L x L even-site block M = U_eo U_oe is
    # diagonalized, split again into the two sectors of the chiral frame:
    # no eigh or SVD sees more than L/2 rows
    mat = build_unitary(profile)
    even = np.arange(len(mat)) // 2 % 2 == 0
    two = mat[even][:, ~even] @ mat[~even][:, even]
    sym = (two + two.T) / 2
    reference = np.linalg.eigvalsh(sym)
    eigh = np.linalg.eigh

    svd = np.linalg.svd

    def half_size_eigh(stack):
        assert stack.shape[-1] <= profile.length // 2
        return eigh(stack)

    def half_size_svd(stack):
        assert max(stack.shape[-2:]) <= profile.length // 2
        return svd(stack)

    monkeypatch.setattr(np.linalg, "eigh", half_size_eigh)
    monkeypatch.setattr(np.linalg, "svd", half_size_svd)
    diagonalize(profile)
    values, rows = block_eigh(profile, two_step=True)
    assert np.max(np.abs(np.sort(values) - reference)) <= 1e-13
    assert np.max(np.linalg.norm(sym @ rows.T - rows.T * values, axis=0)) <= 1e-13
    assert np.max(np.abs(rows @ rows.T - np.eye(len(values)))) <= 1e-13


@pytest.mark.parametrize(
    "profile",
    [build_profile("single", 33, -0.5 * np.pi, 0.3 * np.pi), build_profile("uniform", 33, 0.3 * np.pi)],
)
def test_odd_ring_takes_eigh(profile, monkeypatch):
    # the seam of an odd ring joins two even sites, so U itself is solved,
    # split into the two sectors of the chiral frame: no eigh or SVD sees more than L rows
    eigh, svd = np.linalg.eigh, np.linalg.svd

    def sector_eigh(stack):
        assert stack.shape[-1] <= profile.length
        return eigh(stack)

    def sector_svd(stack):
        assert max(stack.shape[-2:]) <= profile.length
        return svd(stack)

    monkeypatch.setattr(np.linalg, "eigh", sector_eigh)
    monkeypatch.setattr(np.linalg, "svd", sector_svd)
    diagonalize(profile)
    values, _ = block_eigh(profile)
    mat = build_unitary(profile)
    assert np.max(np.abs(np.sort(values) - np.linalg.eigvalsh((mat + mat.T) / 2))) <= 1e-13


# even and odd rings; clusters of tens of members (near-reflecting coins),
# reflecting walls, same-sector clusters (theta = 0) and unresolved pairs
# (the antisymmetric ring's E = 0, pi modes)
ASSEMBLY_LAYOUTS = [  # kind, L, theta1 / pi, theta2 / pi, N
    ("symmetric", 64, -0.6, 0.3, 6),
    ("symmetric", 65, -0.6, 0.3, 6),
    ("symmetric", 128, 0.501, -0.475, 5),
    ("symmetric", 129, 0.501, -0.475, 5),
    ("wire", 64, -0.5, 0.3, 6),
    ("antisymmetric", 256, -0.3, 0.35, 8),
    ("uniform", 64, 0.0, None, None),
    ("uniform", 33, 0.0, None, None),
]
ASSEMBLY_PROFILES = [
    build_profile(kind, length, theta1 * np.pi, None if theta2 is None else theta2 * np.pi, wire_length=block)
    for kind, length, theta1, theta2, block in ASSEMBLY_LAYOUTS
]


@pytest.mark.parametrize("profile", ASSEMBLY_PROFILES)
def test_column_subsets_match_full_vectors(profile):
    # a subset is built from its own clusters alone, before and without the
    # full matrix, and equals the full matrix's columns; every column passes
    # the residual guard through U's entries
    rng = np.random.default_rng(profile.length)
    keep = rng.choice(2 * profile.length, size=9, replace=False)
    subset = diagonalize(profile).columns(keep)
    bound = find_bound_states(diagonalize(profile), 0.0)
    result = diagonalize(profile)
    full = result.vectors
    assert np.max(np.abs(subset - full[:, keep])) <= 1e-15
    assert np.max(np.abs(bound.vectors - full[:, bound.indices]), initial=0.0) <= 1e-15
    cols, vals = spectral._coin_shift(profile)
    moved = spectral._apply(cols, vals, full.T) - full.T * np.exp(-1j * result.quasi_energies)[:, None]
    assert np.max(np.linalg.norm(moved, axis=1)) <= spectral._RESIDUAL_GUARD
    assert np.max(np.abs(np.linalg.norm(full, axis=0) - 1)) <= 1e-13


@pytest.mark.parametrize(
    "layout, profile", zip(ASSEMBLY_LAYOUTS, ASSEMBLY_PROFILES), ids=[f"profile{i}" for i in range(len(ASSEMBLY_LAYOUTS))]
)
def test_cli_flags_bound_states_without_vectors(layout, profile, capsys, monkeypatch):
    # the CLI prints energies, IPRs and flags only: it flags the positions that
    # find_bound_states keeps, and builds no eigenvector
    kind, length, theta1, theta2, block = layout
    argv = ["diagonalize", "--kind", kind, f"--theta1={theta1}", "--n-sites", str(length)]
    if theta2 is not None:
        argv += [f"--theta2={theta2}", "--wire-length", str(block)]
    result = diagonalize(profile)
    near = {label: find_bound_states(result, target).indices for label, target in (("0", 0.0), ("pi", np.pi))}

    def no_assemble(*args):
        raise AssertionError("an eigenvector was built")

    monkeypatch.setattr(spectral, "_assemble", no_assemble)
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    flags = np.array([row["localized_near"] for row in payload["data"]])
    for label in ("0", "pi"):
        assert np.array_equal(np.flatnonzero(flags == label), near[label])
        assert payload["extras"][f"localized_near_{'zero' if label == '0' else 'pi'}"] == near[label].size


def test_lazy_result_stays_a_frozen_dataclass():
    # vectors of a diagonalize result are built on first read, and the result
    # keeps its dataclass behavior; a position kept twice is built once
    result = diagonalize(build_profile("uniform", 16, 0.3 * np.pi))
    keep = np.array([5, 3, 3])
    subset = result.columns(keep)
    assert np.array_equal(subset[:, 1], subset[:, 2])
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.length = 8
    assert "vectors" in [f.name for f in dataclasses.fields(result)]
    assert np.max(np.abs(result.vectors[:, keep] - subset)) <= 1e-15
    assert dataclasses.replace(result).vectors is result.vectors
    assert result.columns([3]).shape == (32, 1)


def test_lazy_result_lacks_other_attributes():
    # the lazy lookup builds "vectors" only; any other missing name is an AttributeError
    result = diagonalize(build_profile("uniform", 16, 0.3 * np.pi))
    assert not hasattr(result, "nope")
    assert "vectors" not in result.__dict__


def test_result_repr_and_equality_build_no_vector():
    # repr leaves the lazy vectors unbuilt, and == is identity, not an array comparison
    profile = build_profile("uniform", 16, 0.3 * np.pi)
    result, other = diagonalize(profile), diagonalize(profile)
    assert "quasi_energies=" in repr(result) and "vectors" not in repr(result)
    assert "vectors" not in result.__dict__
    assert result == result and result != other


def test_unresolved_pair_keeps_boundary_modes_apart():
    # the antisymmetric ring's E = 0 modes at the jump and at the seam (and its
    # E = pi modes) are split far below rounding, so each sector's vector is one
    # boundary's mode: combined as (p +/- iq)/sqrt(2) they would spread over
    # both boundaries, with half the IPR
    length = 256
    result = diagonalize(build_profile("antisymmetric", length, -0.3 * np.pi, 0.35 * np.pi, wire_length=8))
    for target in (0.0, np.pi):
        sub = find_bound_states(result, target)
        assert sub.count == 2
        assert np.all(sub.ipr > 0.3)
        prob = (np.abs(sub.vectors) ** 2).reshape(length, 2, -1).sum(axis=1)
        offset = (np.arange(length)[:, None] - prob.argmax(axis=0) + length // 2) % length - length // 2
        assert np.all((prob * (np.abs(offset) <= 64)).sum(axis=0) >= 0.99)


@pytest.mark.parametrize(
    "profile",
    [
        build_profile("antisymmetric", 256, -0.3 * np.pi, 0.35 * np.pi, wire_length=8),
        build_profile("symmetric", 65, 0.501 * np.pi, -0.475 * np.pi, wire_length=5),
        build_profile("wire", 64, -0.5 * np.pi, 0.3 * np.pi, wire_length=6),
        build_profile("single", 33, -0.5 * np.pi, 0.3 * np.pi),
        build_profile("uniform", 64, 0.0),
    ],
    ids=["antisymmetric", "symmetric", "wire", "single", "uniform"],
)
def test_diagonalize_under_trace_and_profile_hooks(profile):
    # a trace or profile hook holds references to the solver's frames and
    # arrays, so a solve that needs its arrays unreferenced (ndarray.resize)
    # fails under coverage, pdb and profilers: the hooked solves return what
    # the plain one does, bit for bit
    plain = diagonalize(profile)
    previous = sys.gettrace()
    sys.settrace(lambda *args: None)
    try:
        traced = diagonalize(profile)
    finally:
        sys.settrace(previous)
    profiled = cProfile.Profile().runcall(diagonalize, profile)
    for hooked in (traced, profiled):
        assert np.array_equal(hooked.quasi_energies, plain.quasi_energies)
        assert np.array_equal(hooked.ipr, plain.ipr)


@pytest.mark.parametrize(
    "kind, length",
    [pytest.param(kind, length, id=kind if length == 512 else f"{kind}-{length}")
     for length in (512, 511) for kind in ("symmetric", "antisymmetric", "wire", "single")],
)
def test_diagonalize_peak_memory_below_one_complex_matrix(kind, length):
    # the eigenvectors are built only when read, so the solve never holds a
    # complex (2L)^2 array: 16 MiB at L = 512; an odd ring solves U itself,
    # and its real basis is held once
    profile = build_profile(kind, length, -0.5 * np.pi, 0.3 * np.pi, wire_length=8)
    tracemalloc.start()
    try:
        diagonalize(profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * (2 * length) ** 2


@pytest.mark.parametrize("theta1", [-0.52, -0.525, -0.55])
def test_near_flat_band_stays_out_of_clusters(theta1, monkeypatch):
    # a near-reflecting exterior gives a band whose cos 2E chain into one
    # cluster of up to 372 of M's 384 eigenvalues; the partner map pairs them
    # exactly, and only the few near E = 0, pi are clustered
    profile = build_profile("symmetric", 384, theta1 * np.pi, 0.7445 * np.pi, wire_length=10)
    widths = []
    resolve = spectral._resolve_clusters

    def recording_resolve(coupling, cos_0, cos_1):
        widths.append(cos_0.shape[1] + cos_1.shape[1])
        return resolve(coupling, cos_0, cos_1)

    monkeypatch.setattr(spectral, "_resolve_clusters", recording_resolve)
    result = diagonalize(profile)
    assert max(widths) <= 32
    reference = eig_reference(profile)
    partner, energy_gap = match_energies(result.quasi_energies, reference.quasi_energies)
    assert energy_gap <= 1e-12
    spacing = circle_distance(result.quasi_energies[:, None], result.quasi_energies[None, :])
    np.fill_diagonal(spacing, np.inf)
    distinct = spacing.min(axis=1) > 0  # an exactly degenerate level has no preferred basis
    assert np.max(np.abs(result.ipr[distinct] - reference.ipr[partner[distinct]])) <= 1e-10
    for target in (0.0, np.pi):
        assert find_bound_states(result, target).count == find_bound_states(reference, target).count


@pytest.mark.parametrize(
    "profile",
    [*CHIRAL_PROFILES, *ASSEMBLY_PROFILES]
    + [build_profile("symmetric", 384, theta1 * np.pi, 0.7445 * np.pi, wire_length=10) for theta1 in (-0.52, -0.525, -0.55)],
)
def test_clusters_hold_one_sign_of_cos_e(profile, monkeypatch):
    # a level is left to the clusters only with sin^2 E at most the pair floor
    # squared, so each cluster (one per group and sign of cos E) has
    # |cos E| >= sqrt(1 - floor^2); that bound stays above 1/sqrt(2), where
    # the singular values s = |sin E| of a cluster's coupling part its eigenvalues
    # by at least 1/sqrt(2) of their distance
    bound = np.sqrt(1 - spectral._PAIR_FLOOR**2)
    assert bound > np.sqrt(0.5)
    clusters = []
    resolve = spectral._resolve_clusters

    def recording_resolve(coupling, cos_0, cos_1):
        clusters.extend(np.concatenate([cos_0, cos_1], axis=1))
        return resolve(coupling, cos_0, cos_1)

    monkeypatch.setattr(spectral, "_resolve_clusters", recording_resolve)
    diagonalize(profile)
    for cos_e in clusters:
        assert np.all(np.signbit(cos_e) == np.signbit(cos_e[0]))
        assert np.all(np.abs(cos_e) >= bound)


def test_one_sector_eigh_on_even_ring(monkeypatch):
    # only sector 1 of M = U_eo U_oe is diagonalized: one L/2-row eigh, and
    # every other eigh (the complement's Ritz step) is small
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(stack):
        shapes.append(stack.shape)
        return eigh(stack)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    for profile in (
        build_profile("symmetric", 128, -0.3 * np.pi, 0.6 * np.pi, wire_length=8),
        build_profile("antisymmetric", 128, -0.3 * np.pi, 0.35 * np.pi, wire_length=8),
        build_profile("uniform", 128, 0.3 * np.pi),
    ):
        shapes.clear()
        diagonalize(profile)
        large = [shape for shape in shapes if shape[-1] > 32]
        assert large == [(1, 64, 64)]


@pytest.mark.parametrize("mutation", ["wrong sector", "flipped sign"])
def test_partner_map_is_guarded(mutation, monkeypatch):
    # p must be the sector-0 part of X q, with its sign: (p + iq)/sqrt(2) is
    # given E = -atan2(sigma, cos E), so the sector-1 part (A1 q = cos E q,
    # whose unit multiples are orthonormal, so the complement still builds) or
    # -p makes a vector whose residual the guard rejects inside diagonalize,
    # before any vector is read
    profile = build_profile("symmetric", 64, -0.6 * np.pi, 0.3 * np.pi, wire_length=6)
    diagonalize(profile)
    partner = spectral._partner

    def mutated(image, frame):
        return partner(image, frame[:, :, ::-1]) if mutation == "wrong sector" else -partner(image, frame)

    monkeypatch.setattr(spectral, "_partner", mutated)
    with pytest.raises(RuntimeError, match="eigen-residual"):
        diagonalize(profile)


@pytest.mark.parametrize("length", [64, 65])
def test_non_chiral_frame_is_guarded(length):
    # the frame is folded into U's first factor, so an orthonormal frame that is
    # not made of the chiral reflections' eigenvectors (each site's rotated by
    # 0.1 rad) gives sector blocks whose eigenvectors are not U's; the guard,
    # measured over U's rows, rejects them
    profile = build_profile("symmetric", length, -0.6 * np.pi, 0.3 * np.pi, wire_length=6)
    frame = spectral._chiral_frame(profile.angles)
    turn = np.array([[np.cos(0.1), -np.sin(0.1)], [np.sin(0.1), np.cos(0.1)]])
    rotated = turn @ frame
    assert np.max(np.abs(rotated.transpose(0, 2, 1) @ rotated - np.eye(2))) <= 1e-15
    with pytest.raises(RuntimeError):
        spectral._eig_orthogonal(*spectral._coin_shift(profile), rotated)


def test_partner_map_vectors_are_orthonormal():
    # p = P0 X q / sigma carries q's eigen-residual divided by sigma, so two
    # pairs with |sin E| near the pair floor overlap by ~eps / (sigma_i sigma_j);
    # the p's of small sigma are re-orthogonalized, and every profile's
    # eigenvectors are orthonormal to 1e-13 (1.8e-12 without that step)
    rng = np.random.default_rng(7)
    for _ in range(150):
        length = int(rng.integers(16, 130))
        vectors = diagonalize(CoinProfile(rng.uniform(-np.pi, np.pi, length))).vectors
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(2 * length))) <= 1e-13


def test_planted_spectrum_across_cluster_threshold():
    # eigenvalue pairs whose cos E differ by half and twice gap = 1e-4, near
    # E = 0, pi/2 and pi and in between, plus exact degeneracies and real
    # eigenvalues +1 and -1; pi/2 -/+ gap/4 share sin E
    gap = 1e-4
    angles = []
    for base in (1e-3, 0.02, 0.4, np.pi / 2 - gap / 4, np.pi / 2, 2.0, np.pi - 0.02):
        for step_size in (0.5 * gap, 2.0 * gap):
            angles += [base, np.arccos(np.clip(np.cos(base) - step_size, -1.0, 1.0))]
    angles += [0.9, 0.9, 0.9, 1.3]
    blocks = [np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]]) for a in angles]
    size = 2 * len(angles) + 4
    rotation = np.zeros((size, size))
    for i, block in enumerate(blocks):
        rotation[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = block
    rotation[-4:, -4:] = np.diag([1.0, 1.0, -1.0, -1.0])
    # Gamma = diag(1, -1, 1, -1, ...) has Gamma R Gamma = R^T for every block;
    # a random rotation of each of its eigenspaces keeps that and mixes all rows
    rng = np.random.default_rng(60)
    mix = np.zeros((size, size))
    for sector in (0, 1):
        mix[sector::2, sector::2] = np.linalg.qr(rng.normal(size=(size // 2, size // 2)))[0]
    mat = mix @ rotation @ mix.T

    cols = np.broadcast_to(np.arange(size), mat.shape)
    # the chiral frame of Gamma: every pair of rows is a site, its rows the two sectors
    frame = np.tile(np.eye(2), (size // 2, 1, 1))
    energies, _, residual, columns = spectral._eig_orthogonal(cols, mat, frame)
    vectors = columns(np.arange(size))
    planted = np.concatenate([angles, -np.asarray(angles), [0.0, 0.0, np.pi, np.pi]])
    assert match_energies(energies, planted)[1] < 1e-12
    assert np.all(np.diff(energies) >= 0)
    assert residual <= 1e-10
    gaps = np.linalg.norm(mat @ vectors - vectors * np.exp(-1j * energies), axis=0)
    assert np.max(gaps) <= 1e-10
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(size))) <= 1e-12


class TestAtTheSizeCap:
    """Rings of ``SIZE_CAP`` sites, and the odd ring below it, against the closed forms."""

    @pytest.mark.parametrize(
        "build,length,theta2",
        [
            ("single", spectral.SIZE_CAP, 0.35),
            ("single", spectral.SIZE_CAP, 0.65),
            ("antisymmetric", spectral.SIZE_CAP, 0.35),
            ("antisymmetric", spectral.SIZE_CAP, 0.65),
            ("antisymmetric", spectral.SIZE_CAP - 1, 0.65),
        ],
        ids=["single-acute", "single-obtuse", "antisymmetric-acute", "antisymmetric-obtuse", "antisymmetric-odd"],
    )
    def test_closed_form_modes_match_the_oracle(self, build, length, theta2):
        # one column per bound state is built; the full vectors would hold a (2L x 2L) complex array
        def mode(energy):
            if build == "single":
                return single_boundary_mode(-0.3 * np.pi, theta2 * np.pi, energy, length)
            return antisymmetric_mode(-0.3 * np.pi, theta2 * np.pi, energy, 8, length)

        profile = mode(0.0).profile
        result = diagonalize(profile)
        assert result.count == 2 * length
        for energy in (0.0, np.pi):
            assert find_bound_states(result, energy).count == 2
            assert oracle_compare(mode(energy), profile, result=result) > 1 - 1e-10


class TestFindBoundStates:
    def test_uniform_profile_has_none(self):
        result = diagonalize(build_profile("uniform", 64, np.pi / 4))
        assert find_bound_states(result, 0.0).count == 0

    def test_ring_antisymmetric_hosts_jump_and_seam_pair(self):
        # closing an antisymmetric layout into a ring adds a compensating
        # sign jump at the seam, so each special energy carries two modes
        result = diagonalize(
            build_profile("antisymmetric", 64, -np.pi / 4, np.pi / 4, wire_length=14)
        )
        for target in (0.0, np.pi):
            assert find_bound_states(result, target).count == 2

    def test_symmetric_block_keeps_split_pair(self):
        result = diagonalize(
            build_profile("symmetric", 96, -np.pi / 4, np.pi / 4, wire_length=8)
        )
        sub = find_bound_states(result, 0.0)
        assert sub.count == 2
        assert np.allclose(sorted(sub.quasi_energies), [-max(sub.quasi_energies), max(sub.quasi_energies)], atol=1e-12)

    def test_threshold_override(self):
        result = diagonalize(build_profile("uniform", 64, np.pi / 4))
        assert find_bound_states(result, 0.0, ipr_threshold=0.0).count > 0

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, -0.5])
    def test_threshold_out_of_range(self, threshold):
        # the rule the CLI's --ipr-threshold applies, so no value silently keeps nothing
        result = diagonalize(build_profile("antisymmetric", 64, -np.pi / 4, np.pi / 4, wire_length=14))
        with pytest.raises(ValueError, match="finite and non-negative"):
            find_bound_states(result, 0.0, ipr_threshold=threshold)

    def test_reflecting_ends_localize_modes_at_positive_end(self):
        # +pi/2 exterior left of the block, -pi/2 right of it: the E=0, pi
        # modes live at the +pi/2 block end (and the ring seam), never at
        # the -pi/2 end
        length, offset, n_block = 64, 16, 10
        prof = build_profile(
            "antisymmetric", length, np.pi / 2, -np.pi / 4,
            wire_length=n_block, offset=offset,
        )
        result = diagonalize(prof)
        jump_zone = {(offset + d) % length for d in (-2, -1, 0, 1)}
        seam_zone = {(offset + length // 2 + d) % length for d in (-2, -1, 0, 1)}
        far_end_zone = {(offset + n_block + d) % length for d in (-1, 0, 1, 2)}
        for target in (0.0, np.pi):
            sub = find_bound_states(result, target)
            assert sub.count == 2
            for i in range(sub.count):
                prob = (np.abs(sub.vectors[:, i]) ** 2).reshape(length, 2).sum(axis=1)
                peak = int(np.argmax(prob))
                assert peak in jump_zone | seam_zone
                assert peak not in far_end_zone


def _oracle_splitting(theta1, theta2, n_block):
    """Smallest |E| of the block's spectrum by dense diagonalization."""
    kind = "wire" if abs(abs(theta1) - np.pi / 2) < 1e-12 else "symmetric"
    result = diagonalize(build_profile(kind, 64, theta1, theta2, wire_length=n_block))
    return float(np.min(np.abs(result.quasi_energies)))


def _closed_form_splitting(theta1, theta2, n_block):
    """Long-block limit 2|s1 s2| / |s1 - s2| e^{-kappa2 (N+1)} of the splitting."""
    s1, s2 = np.sin(theta1), np.sin(theta2)
    return 2 * abs(s1 * s2) / abs(s1 - s2) * np.exp(-splitting_decay_rate(theta2) * (n_block + 1))


class TestSolveWireEnergy:
    @pytest.mark.parametrize(
        "theta2,n_block,expected",
        [(np.pi / 3, 1, 2.13e-2), (np.pi / 6, 10, 5.04e-4), (np.pi / 4, 5, 1.33e-3)],
    )
    def test_reference_cells(self, theta2, n_block, expected):
        root = solve_wire_energy(-np.pi / 2, theta2, n_block) / np.pi
        assert abs(root - expected) / expected < 5e-3

    def test_near_pi_pair_mirrors_root(self):
        # the oracle's near-pi end-mode pair sits at +/-(pi - E)
        for theta2, n_block in [(np.pi / 4, 3), (np.pi / 3, 5), (np.pi / 6, 8)]:
            root = solve_wire_energy(-np.pi / 2, theta2, n_block)
            profile = build_profile("wire", 64, -np.pi / 2, theta2, wire_length=n_block)
            pair = np.sort(find_bound_states(diagonalize(profile), np.pi).quasi_energies)
            assert np.max(np.abs(pair - [-(np.pi - root), np.pi - root])) < 1e-10

    def test_same_sign_rejected(self):
        with pytest.raises(ValueError):
            solve_wire_energy(np.pi / 2, np.pi / 4, 3)

    def test_general_exterior_angle(self):
        # splitting of a soft-walled block agrees with diagonalization, for
        # an acute exterior and for obtuse ones (cos theta1 < 0)
        for t1, t2, n_block in [(-0.3, 0.25, 6), (-0.7, 0.3, 4), (0.65, -0.3, 5)]:
            t1, t2 = t1 * np.pi, t2 * np.pi
            root = solve_wire_energy(t1, t2, n_block)
            result = diagonalize(build_profile("symmetric", 128, t1, t2, wire_length=n_block))
            assert abs(np.min(np.abs(result.quasi_energies)) - root) < 1e-10

    def test_splitting_ratio_approaches_decay_rate(self):
        # energies shrink by e^{-kappa2} per added block site
        for theta2 in (np.pi / 4, np.pi / 3):
            kappa2 = splitting_decay_rate(theta2)
            e_a = solve_wire_energy(-np.pi / 2, theta2, 11)
            e_b = solve_wire_energy(-np.pi / 2, theta2, 12)
            assert abs(np.log(e_a / e_b) - kappa2) < 0.02 * kappa2

    @pytest.mark.parametrize(
        "t1,t2,n_block",
        [
            (-0.5, 0.7, 5),  # obtuse block angles
            (0.5, -0.65, 4),
            (-0.5, 0.4, 6),
            (-0.3, 0.35, 10),
            (-0.382854, 0.312333, 11),
        ],
    )
    def test_regressions_match_oracle(self, t1, t2, n_block):
        t1, t2 = t1 * np.pi, t2 * np.pi
        assert abs(solve_wire_energy(t1, t2, n_block) - _oracle_splitting(t1, t2, n_block)) <= 1e-13

    # every (sgn sin, sgn cos) quadrant of theta1 and theta2, plus reflecting ends
    @pytest.mark.parametrize(
        "t1,t2",
        [(t1, t2) for t1 in (0.5, -0.5, 0.3, 0.7, -0.3, -0.7)
         for t2 in (0.35, 0.65, -0.35, -0.65) if np.sign(t1) != np.sign(t2)],
    )
    def test_angle_square_grid(self, t1, t2):
        t1, t2 = t1 * np.pi, t2 * np.pi
        lengths = np.arange(1, 15)
        energies = solve_wire_energy(t1, t2, lengths)
        for n_block, energy in zip(lengths.tolist(), energies.tolist()):
            assert solve_wire_energy(t1, t2, n_block) == energy
            oracle = _oracle_splitting(t1, t2, n_block)
            if oracle > 1e-13:
                assert abs(energy - oracle) <= 1e-13, n_block

    @pytest.mark.parametrize("t1,t2", [(-0.5, 1 / 3), (-0.5, 0.7), (0.5, -0.65), (-0.3, 0.35), (0.7, -0.25)])
    def test_long_blocks_follow_closed_form(self, t1, t2):
        t1, t2 = t1 * np.pi, t2 * np.pi
        lengths = np.arange(20, 161)
        relative = solve_wire_energy(t1, t2, lengths) / _closed_form_splitting(t1, t2, lengths) - 1
        assert np.max(np.abs(relative)) <= 1e-9

    @pytest.mark.parametrize("theta2", [np.pi / 3, np.pi / 4, 0.7 * np.pi])
    def test_long_block_fit_slope(self, theta2):
        fit = fit_splitting_decay(theta2, range(20, 161))
        assert abs(fit.slope + splitting_decay_rate(theta2)) <= 1e-6

    def test_no_root_in_window(self):
        # a block of angle 0.05 pi needs N > 1/sin(theta2) - 2 sites to hold
        # end modes inside the gap; a root below 1e-300 is not returned either
        theta2 = 0.05 * np.pi
        energies = solve_wire_energy(-np.pi / 2, theta2, np.arange(1, 7))
        assert np.isnan(energies[:4]).all() and (energies[4:] > 0).all()
        with pytest.raises(RuntimeError):
            solve_wire_energy(-np.pi / 2, theta2, 1)
        with pytest.raises(RuntimeError):
            fit_splitting_decay(theta2, range(1, 7))
        assert solve_wire_energy(-np.pi / 2, np.pi / 3, 500) > 1e-300
        with pytest.raises(RuntimeError):
            solve_wire_energy(-np.pi / 2, np.pi / 3, 600)

    @pytest.mark.parametrize("block_length", [2.5, -1, True, np.array([2.0, 3.0]), np.array([3, -2])])
    def test_block_length_must_be_a_non_negative_integer(self, block_length):
        # a fractional length is not truncated, and a negative one is a usage
        # error, not a missing root
        with pytest.raises(ValueError, match="block lengths"):
            solve_wire_energy(-np.pi / 2, 0.3 * np.pi, block_length)

    def test_integer_types_agree(self):
        energies = solve_wire_energy(-np.pi / 2, 0.3 * np.pi, np.arange(2, 6, dtype=np.int32))
        assert [solve_wire_energy(-np.pi / 2, 0.3 * np.pi, n) for n in (2, np.int64(3), np.uint8(4), 5)] == energies.tolist()


class TestReferenceTableViaOracle:
    def test_reflecting_ring_matches_root_solver(self):
        for n_block in (2, 5, 9, 12):
            length = max(4 * (n_block + 2), 32)
            root = solve_wire_energy(-np.pi / 2, np.pi / 4, n_block)
            result = diagonalize(
                build_profile("wire", length, -np.pi / 2, np.pi / 4, wire_length=n_block)
            )
            assert abs(np.min(np.abs(result.quasi_energies)) - root) < 1e-7

    def test_four_state_structure(self):
        result = diagonalize(
            build_profile("symmetric", 96, -0.35 * np.pi, 0.3 * np.pi, wire_length=5)
        )
        split = np.min(np.abs(result.quasi_energies))
        for target in (split, -split, np.pi - split, -(np.pi - split)):
            assert np.min(np.abs(result.quasi_energies - target)) < 1e-9


class TestFitSplittingDecay:
    @pytest.mark.parametrize(
        "theta2,rate",
        [
            (np.pi / 4, np.log(1 + np.sqrt(2.0))),
            (np.pi / 3, np.log(2 + np.sqrt(3.0))),
            (np.pi / 6, np.log(np.sqrt(3.0))),
        ],
    )
    def test_slope_matches_decay_rate(self, theta2, rate):
        fit = fit_splitting_decay(theta2, range(5, 11))
        assert abs(fit.slope + rate) / rate < 0.02
        assert fit.r_squared > 0.999
        assert abs(fit.kappa2_predicted - rate) < 1e-12

    def test_requires_four_points(self):
        with pytest.raises(ValueError):
            fit_splitting_decay(np.pi / 4, [5, 6, 7])

    def test_requires_four_distinct_integer_lengths(self):
        # one length repeated fits no slope; a fractional length is not truncated
        with pytest.raises(ValueError, match="distinct"):
            fit_splitting_decay(0.3 * np.pi, [3, 3, 3, 3])
        with pytest.raises(ValueError, match="distinct"):
            fit_splitting_decay(0.3 * np.pi, [3, 4, 5, 5])
        with pytest.raises(ValueError, match="block lengths"):
            fit_splitting_decay(0.3 * np.pi, [3, 4, 5, 6.5])


class TestOracleCompare:
    def test_antisymmetric_mode_high_fidelity(self):
        sol = antisymmetric_mode(-np.pi / 4, np.pi / 4, 0.0, 30, 128)
        assert oracle_compare(sol, sol.profile) > 1 - 1e-8

    def test_single_boundary_matches_antisymmetric_ring(self):
        # one net jump on the ring: the single-boundary mode lives in the
        # same eigenspace as the block-layout modes; its boundary bond
        # (0|1 in its own frame) aligns with the block jump when the
        # offset is shifted one site left
        t1, t2, length = -0.3 * np.pi, 0.25 * np.pi, 128
        single = single_boundary_mode(t1, t2, np.pi, length, offset=length // 4 - 1)
        block = build_profile("antisymmetric", length, t1, t2, wire_length=40)
        assert oracle_compare(single, block) > 1 - 1e-6

    def test_mismatched_configuration_low_fidelity(self):
        sol = antisymmetric_mode(-np.pi / 4, np.pi / 4, 0.0, 10, 128, offset=8)
        other = build_profile("antisymmetric", 128, -np.pi / 3, np.pi / 5, wire_length=10, offset=72)
        assert oracle_compare(sol, other) < 0.5

    def test_no_match_raises(self):
        sol = antisymmetric_mode(-np.pi / 4, np.pi / 4, 0.0, 10, 64)
        shifted = type(sol)(
            energy=0.37,
            kappa1=sol.kappa1,
            kappa2=sol.kappa2,
            coefficients=sol.coefficients,
            configuration=sol.configuration,
            wavefunction=sol.wavefunction,
            profile=sol.profile,
            seam=sol.seam,
        )
        with pytest.raises(RuntimeError):
            oracle_compare(shifted, sol.profile)

    def test_length_mismatch_rejected(self):
        sol = antisymmetric_mode(-np.pi / 4, np.pi / 4, 0.0, 10, 64)
        with pytest.raises(ValueError):
            oracle_compare(sol, build_profile("uniform", 32, 0.3))

    def test_result_of_another_ring_rejected(self):
        # the other ring's spectrum holds E = 0 too, so only the length check stops it
        sol = antisymmetric_mode(-np.pi / 4, np.pi / 4, 0.0, 10, 64)
        other = diagonalize(build_profile("antisymmetric", 32, -np.pi / 4, np.pi / 4, wire_length=10))
        assert find_bound_states(other, 0.0).count > 0
        with pytest.raises(ValueError, match="sites"):
            oracle_compare(sol, sol.profile, result=other)


class TestModeResidual:
    @pytest.mark.parametrize("energy", [0.0, np.pi])
    def test_matches_dense_matrix_action(self, energy):
        for sol in (
            antisymmetric_mode(-0.3 * np.pi, 0.7 * np.pi, energy, 10, 96),
            single_boundary_mode(0.25 * np.pi, -0.4 * np.pi, energy, 96),
        ):
            psi = sol.wavefunction.amplitudes
            dense = build_unitary(sol.profile) @ psi - np.exp(-1j * energy) * psi
            keep = np.ones(96, dtype=bool)
            for site in sol.seam:
                keep[[(site + d) % 96 for d in (-1, 0, 1)]] = False
            expected = np.max(np.abs(dense.reshape(96, 2)[keep]))
            assert abs(mode_residual(sol) - expected) < 1e-15


class TestConditionConsistency:
    def test_block_roots_converge_like_single_boundary(self):
        # as the block grows the quantization roots collapse onto the
        # single-boundary energies E = 0 with rate e^{-kappa2 N}
        theta2 = 0.28 * np.pi
        kappa2 = splitting_decay_rate(theta2)
        energies = [solve_wire_energy(-np.pi / 2, theta2, n) for n in range(8, 13)]
        ratios = [np.log(energies[i] / energies[i + 1]) for i in range(4)]
        assert all(abs(r - kappa2) < 0.02 * kappa2 for r in ratios)
