import numpy as np
import pytest

from coinwalk import (
    GapClosedError,
    bloch_unitary,
    bloch_vector,
    chiral_axis,
    chiral_operator,
    dispersion,
    effective_hamiltonian,
    eigenspinor,
    eigenspinor_raw,
    frame_rotation,
    offdiagonal_h,
    particle_hole_check,
    winding_number,
)
from coinwalk import bulk
from coinwalk.bulk import pauli_vector

SQ2 = np.sqrt(2.0) / 2.0


def gapped_grid(rng, count):
    thetas = rng.uniform(0.05, 0.95, count) * np.pi * rng.choice([-1, 1], count)
    ks = rng.uniform(-np.pi, np.pi, count)
    return zip(thetas, ks)


class TestDispersion:
    def test_quarter_pi_at_zero_momentum(self):
        assert abs(dispersion(np.pi / 4, 0.0) - np.pi / 4) < 1e-15

    def test_half_pi_momentum_gives_half_pi_energy(self):
        for theta in (0.1, -1.2, 2.9):
            assert abs(dispersion(theta, np.pi / 2) - np.pi / 2) < 1e-15

    def test_free_coin_linear(self):
        assert abs(dispersion(0.0, 0.3) - 0.3) < 1e-15

    def test_consistency_sweep(self):
        rng = np.random.default_rng(21)
        for theta, k in gapped_grid(rng, 200):
            energy = dispersion(theta, k)
            assert abs(np.cos(energy) - np.cos(theta) * np.cos(k)) < 1e-14


class TestEigenspinor:
    def test_eigenvector_relation_both_branches(self):
        rng = np.random.default_rng(22)
        for theta, k in gapped_grid(rng, 60):
            mat = bloch_unitary(theta, k)
            energy = dispersion(theta, k)
            for branch in (+1, -1):
                chi = eigenspinor(theta, k, branch)
                assert np.allclose(mat @ chi, np.exp(-1j * branch * energy) * chi, atol=1e-12)

    def test_branches_orthogonal(self):
        rng = np.random.default_rng(23)
        for theta, k in gapped_grid(rng, 60):
            plus = eigenspinor(theta, k, +1)
            minus = eigenspinor(theta, k, -1)
            assert abs(np.vdot(plus, minus)) < 1e-12

    def test_reflecting_coin_energy_half_pi(self):
        k = 0.37
        chi = eigenspinor(np.pi / 2, k, +1)
        mat = bloch_unitary(np.pi / 2, k)
        assert np.allclose(mat @ chi, np.exp(-1j * np.pi / 2) * chi, atol=1e-12)

    def test_band_edge_rejected(self):
        with pytest.raises(GapClosedError):
            eigenspinor(0.0, 0.0)


class TestEigenspinorRaw:
    def test_parallel_to_normalized_at_real_momentum(self):
        rng = np.random.default_rng(24)
        for theta, k in gapped_grid(rng, 40):
            energy = dispersion(theta, k)
            raw = eigenspinor_raw(theta, k, energy)
            chi = eigenspinor(theta, k, +1)
            cross = raw[0] * chi[1] - raw[1] * chi[0]
            assert abs(cross) < 1e-12

    def test_zero_energy_left_tail_direction(self):
        # At E=0 with momentum k = -i ln(1+sqrt(2)) the spinor is parallel
        # to (x, -1), x = (1+sin)/cos = 1+sqrt(2); computed by substituting
        # the evanescent momentum into the unnormalized spinor by hand.
        x = 1 + np.sqrt(2.0)
        raw = eigenspinor_raw(np.pi / 4, -1j * np.log(x), 0.0)
        cross = raw[0] * (-1.0) - raw[1] * x
        assert abs(cross) < 1e-12

    def test_zero_energy_decaying_tail_finite(self):
        theta = np.pi / 3
        x = (1 + np.sin(theta)) / np.cos(theta)
        raw = eigenspinor_raw(theta, 1j * np.log(x), 0.0)
        assert 0.1 < np.linalg.norm(raw) < 10.0

    def test_dispersion_violation_rejected(self):
        with pytest.raises(ValueError):
            eigenspinor_raw(np.pi / 4, 0.3, 0.9)


class TestBlochUnitary:
    def test_free_coin_diagonal(self):
        k = 0.61
        assert np.allclose(
            bloch_unitary(0.0, k), np.diag([np.exp(1j * k), np.exp(-1j * k)])
        )

    def test_reflecting_coin_form(self):
        k = 1.1
        want = np.array([[0, np.exp(1j * k)], [-np.exp(-1j * k), 0]])
        assert np.allclose(bloch_unitary(np.pi / 2, k), want, atol=1e-15)

    def test_unitary_unit_determinant(self):
        rng = np.random.default_rng(25)
        for theta, k in gapped_grid(rng, 50):
            mat = bloch_unitary(theta, k)
            assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-14)
            assert abs(np.linalg.det(mat) - 1.0) < 1e-14

    def test_exponential_map_identity(self):
        rng = np.random.default_rng(26)
        for theta, k in gapped_grid(rng, 50):
            energy = dispersion(theta, k)
            n_vec = bloch_vector(theta, k)
            rebuilt = np.cos(energy) * np.eye(2) - 1j * np.sin(energy) * pauli_vector(n_vec)
            assert np.allclose(bloch_unitary(theta, k), rebuilt, atol=1e-12)


class TestBlochVector:
    def test_reflecting_coin_points_minus_y(self):
        assert np.allclose(bloch_vector(np.pi / 2, 0.0), [0, -1, 0], atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(27)
        for theta, k in gapped_grid(rng, 100):
            assert abs(np.linalg.norm(bloch_vector(theta, k)) - 1.0) < 1e-12

    def test_free_coin_limit(self):
        assert np.allclose(bloch_vector(0.0, 0.3), [0, 0, -1], atol=1e-12)
        assert np.allclose(bloch_vector(0.0, -0.3), [0, 0, 1], atol=1e-12)

    def test_gap_closing_rejected(self):
        with pytest.raises(GapClosedError):
            bloch_vector(0.0, 0.0)
        with pytest.raises(GapClosedError):
            bloch_vector(0.0, np.array([0.3, 0.0]))

    def test_array_of_momenta_matches_scalar_calls(self):
        rng = np.random.default_rng(29)
        for theta, _ in gapped_grid(rng, 8):
            ks = rng.uniform(-np.pi, np.pi, 33)
            assert np.array_equal(dispersion(theta, ks), [dispersion(theta, k) for k in ks])
            assert np.array_equal(bloch_vector(theta, ks), np.transpose([bloch_vector(theta, k) for k in ks]))

    def test_band_symmetry_of_hamiltonian(self):
        rng = np.random.default_rng(28)
        for theta, k in gapped_grid(rng, 40):
            energy = dispersion(theta, k)
            eigs = np.sort(np.linalg.eigvalsh(effective_hamiltonian(theta, k)))
            assert np.allclose(eigs, [-energy, energy], atol=1e-12)


class TestChiralSymmetry:
    def test_axis_values(self):
        assert np.allclose(chiral_axis(np.pi / 4), [SQ2, 0, -SQ2])
        # sgn(sin)(cos, 0, -sin) at -pi/4; equals n(0) x n(pi/2) normalized
        assert np.allclose(chiral_axis(-np.pi / 4), [-SQ2, 0, -SQ2])

    def test_axis_matches_cross_product_construction(self):
        for theta in (0.3, -0.3, 1.2, -2.5):
            cross = np.cross(bloch_vector(theta, 0.0), bloch_vector(theta, np.pi / 2))
            cross /= np.linalg.norm(cross)
            assert np.allclose(chiral_axis(theta), cross, atol=1e-12)

    def test_axis_orthogonal_to_bloch_vector(self):
        rng = np.random.default_rng(29)
        for theta, k in gapped_grid(rng, 60):
            assert abs(chiral_axis(theta) @ bloch_vector(theta, k)) < 1e-12

    def test_operator_anticommutes_with_hamiltonian(self):
        rng = np.random.default_rng(30)
        for theta, k in gapped_grid(rng, 60):
            op = chiral_operator(theta)
            ham = effective_hamiltonian(theta, k)
            assert np.allclose(np.linalg.inv(op) @ ham @ op, -ham, atol=1e-12)

    def test_orientation_product_gives_invariant(self):
        for theta in (0.4, -0.4, 2.0, -2.8):
            orientation = np.array([np.cos(theta), 0.0, -np.sin(theta)])
            m = chiral_axis(theta) @ orientation
            assert abs(m - np.sign(np.sin(theta))) < 1e-12

    def test_gap_closing_rejected(self):
        with pytest.raises(GapClosedError):
            chiral_axis(0.0)


class TestOffdiagonal:
    def test_point_values(self):
        assert abs(offdiagonal_h(np.pi / 2, 0.0) + 1j) < 1e-15
        assert abs(offdiagonal_h(1.234, np.pi / 2) - 1.0) < 1e-12

    def test_modulus_equals_sin_energy(self):
        rng = np.random.default_rng(31)
        for theta, k in gapped_grid(rng, 100):
            assert abs(abs(offdiagonal_h(theta, k)) - np.sin(dispersion(theta, k))) < 1e-12

    def test_frame_rotation_offdiagonalizes(self):
        rng = np.random.default_rng(32)
        for theta, k in gapped_grid(rng, 60):
            lam = frame_rotation(theta)
            rotated = np.linalg.inv(lam) @ effective_hamiltonian(theta, k) @ lam
            assert abs(rotated[0, 0]) < 1e-12
            assert abs(rotated[1, 1]) < 1e-12

    def test_frame_rotation_is_one_frame_per_coin(self):
        # theta = pi and -pi are one coin; reflecting coins get exact frames
        assert np.array_equal(frame_rotation(np.pi), frame_rotation(-np.pi))
        assert np.array_equal(frame_rotation(np.pi / 2), np.eye(2))
        assert np.array_equal(frame_rotation(-np.pi / 2), [[0.0, 1.0], [-1.0, 0.0]])


class TestWinding:
    def test_positive_angle(self):
        result = winding_number(np.pi / 4)
        assert result.m == 1
        assert abs(result.integral_value - 1.0) < 1e-6

    def test_negative_angle(self):
        result = winding_number(-np.pi / 4)
        assert result.m == -1

    def test_gap_closing_rejected(self):
        with pytest.raises(GapClosedError):
            winding_number(0.0)
        with pytest.raises(GapClosedError):
            winding_number(np.pi)

    def test_quantization_matches_sign(self):
        for frac in np.concatenate([np.linspace(-0.95, -0.02, 30), np.linspace(0.02, 0.95, 30)]):
            result = winding_number(frac * np.pi)
            assert result.m == np.sign(np.sin(frac * np.pi))
            assert abs(result.integral_value - result.m) < 1e-6

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            winding_number(0.5, grid_points=32)

    @pytest.mark.parametrize("bad", [100.5, np.float64(3.0), np.float64(100.0), True], ids=repr)
    def test_grid_points_must_be_integers(self, bad):
        # never truncated: 100.5 does not run on 100 points
        with pytest.raises(ValueError, match="grid points must be integers"):
            winding_number(0.3, grid_points=bad)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16])
    def test_numpy_integer_grid_points_match_python_ints(self, dtype):
        for theta in (0.002 * np.pi, 0.3, -0.7 * np.pi):
            typed, plain = winding_number(theta, grid_points=dtype(65)), winding_number(theta, grid_points=65)
            assert (typed.m, typed.integral_value) == (plain.m, plain.integral_value)

    def test_near_closing_refines(self):
        result = winding_number(0.002 * np.pi, grid_points=64)
        assert result.m == 1

    @pytest.mark.parametrize("frac", [1e-3, -1e-3, 0.999, -0.999])
    def test_odd_grid_refines_near_closing(self, monkeypatch, frac):
        # an odd grid steps over k = 0 and k = +/- pi, where h(k) passes close to the origin
        sizes = []

        def recording_h(theta, k):
            sizes.append(len(k))
            return offdiagonal_h(theta, k)

        monkeypatch.setattr(bulk, "offdiagonal_h", recording_h)
        result = winding_number(frac * np.pi, grid_points=65)
        assert sizes == [66, 131]
        assert result.m == np.sign(np.sin(frac * np.pi))
        assert abs(result.integral_value - result.m) < 1e-6


class TestParticleHole:
    def test_point_values(self):
        assert particle_hole_check(np.pi / 3, 0.7) < 1e-12
        assert particle_hole_check(np.pi / 3, 0.0) < 1e-12

    def test_random_sweep(self):
        rng = np.random.default_rng(33)
        worst = max(particle_hole_check(theta, k) for theta, k in gapped_grid(rng, 1000))
        assert worst < 1e-11
