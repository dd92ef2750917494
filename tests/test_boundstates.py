import numpy as np
import pytest

from coinwalk import (
    GapClosedError,
    antisymmetric_condition_residual,
    antisymmetric_mode,
    build_profile,
    decay_constant,
    eigenspinor_raw,
    infinite_wire_limit,
    mode_residual,
    oracle_compare,
    position_distribution,
    single_boundary_condition_residual,
    single_boundary_existence,
    single_boundary_mode,
    splitting_decay_rate,
    wire_condition_residual,
)
from coinwalk.lattice import _coin_entries

LOG_SILVER = np.log(1 + np.sqrt(2.0))        # decay constant at theta = pi/4
LOG_BRONZE = np.log(2 + np.sqrt(3.0))        # theta = pi/3
LOG_ROOT3 = np.log(np.sqrt(3.0))             # theta = pi/6
PI_TAIL = 1.2246467991473532e-16             # pi - float(pi)


def near_gap_kappa(theta):
    """kappa at E = 0, pi as 2 artanh(tan(phi / 2)), phi = min(|theta|, pi - |theta|) taken exactly."""
    phi = min(abs(theta), np.pi - abs(theta) + PI_TAIL)
    return 2 * np.arctanh(np.tan(phi / 2))


# theta = pi/2 - d: a hard wall exactly where _coin_entries stores cos(theta) as 0
WALL_OFFSETS = [0.0, 2.3e-16, 1e-15, 1e-13, 1e-12]


def stored_as_wall(theta):
    return _coin_entries(np.array([theta]))[0, 0] == 0


class TestDecayConstant:
    def test_quarter_pi(self):
        assert abs(decay_constant(np.pi / 4, 0.0) - LOG_SILVER) < 1e-14

    def test_sign_symmetric(self):
        assert abs(decay_constant(-np.pi / 4, 0.0) - LOG_SILVER) < 1e-14

    def test_sixth_pi(self):
        assert abs(decay_constant(np.pi / 6, 0.0) - LOG_ROOT3) < 1e-14

    def test_pi_energy_same_magnitude(self):
        assert abs(decay_constant(np.pi / 3, np.pi) - LOG_BRONZE) < 1e-14

    def test_degenerate_angles_rejected(self):
        with pytest.raises(GapClosedError):
            decay_constant(0.0, 0.0)
        with pytest.raises(ValueError):
            decay_constant(np.pi / 2, 0.0)
        with pytest.raises(GapClosedError):
            decay_constant(np.pi, 0.0)

    def test_energy_restricted_to_special_points(self):
        with pytest.raises(ValueError):
            decay_constant(np.pi / 4, 0.3)

    @pytest.mark.parametrize("energy,family", [(-np.pi, np.pi), (2 * np.pi, 0.0), (3 * np.pi, np.pi)])
    def test_energy_taken_on_the_circle(self, energy, family):
        assert decay_constant(0.3, energy) == decay_constant(0.3, family)

    @pytest.mark.parametrize("energy", [0.0, np.pi], ids=["0", "pi"])
    @pytest.mark.parametrize("theta", [1e-4, -1e-4, 0.01, -0.01, np.pi - 1e-4, 1e-4 - np.pi])
    def test_full_precision_next_to_gap_lines(self, theta, energy):
        reference = near_gap_kappa(theta)
        assert abs(decay_constant(theta, energy) - reference) <= 1e-15 * reference


class TestExistence:
    def test_opposite_signs_exist(self):
        verdict = single_boundary_existence(np.pi / 4, -np.pi / 4)
        assert verdict.exists and verdict.reason == "opposite-sign-ok"

    def test_same_sign_do_not(self):
        verdict = single_boundary_existence(np.pi / 4, np.pi / 3)
        assert not verdict.exists and verdict.reason == "same-sign-no-bound-state"

    def test_gap_closed(self):
        verdict = single_boundary_existence(0.0, np.pi / 3)
        assert not verdict.exists and verdict.reason == "gap-closed"


class TestSingleBoundaryCondition:
    def test_vanishes_for_opposite_signs(self):
        kappa = decay_constant(np.pi / 4, 0.0)
        res = single_boundary_condition_residual(np.pi / 4, -np.pi / 4, 0.0, kappa, kappa)
        assert abs(res) < 1e-12

    def test_nonzero_for_same_sign(self):
        k1 = decay_constant(np.pi / 4, 0.0)
        k2 = decay_constant(np.pi / 3, 0.0)
        res = single_boundary_condition_residual(np.pi / 4, np.pi / 3, 0.0, k1, k2)
        assert abs(res) > 0.1

    def test_midgap_energy_keeps_imaginary_part(self):
        res = single_boundary_condition_residual(np.pi / 4, -np.pi / 3, np.pi / 2, 0.7, 0.9)
        assert abs(res.imag - 1.0) < 1e-15

    def test_equal_sines_rejected(self):
        with pytest.raises(ValueError):
            single_boundary_condition_residual(np.pi / 3, np.pi - np.pi / 3, 0.0, 0.5, 0.5)


class TestBlockConditions:
    @pytest.mark.parametrize("block_length", [2.5, -5, np.array(3.0)])
    def test_block_length_must_be_a_non_negative_integer(self, block_length):
        # neither truncated (2.5 to 2) nor extrapolated (N + 1 < 0)
        with pytest.raises(ValueError, match="block lengths"):
            wire_condition_residual(-np.pi / 2, 0.3 * np.pi, 0.01, block_length)
        with pytest.raises(ValueError, match="block lengths"):
            antisymmetric_condition_residual(-0.3 * np.pi, 0.35 * np.pi, 0.01, block_length)
        with pytest.raises(ValueError, match="block lengths"):
            antisymmetric_mode(-0.3 * np.pi, 0.35 * np.pi, 0.0, block_length, 64)

    def test_integer_block_lengths_of_any_type_agree(self):
        for residual, theta1 in ((wire_condition_residual, -np.pi / 2), (antisymmetric_condition_residual, -0.3 * np.pi)):
            values = {residual(theta1, 0.3 * np.pi, 0.01, n) for n in (5, np.int64(5), np.uint16(5), np.array(5))}
            assert len(values) == 1

    def test_symmetric_has_no_zero_energy_root(self):
        res = wire_condition_residual(2 * np.pi / 5, -2 * np.pi / 5, 0.0, 5)
        assert abs(res) > 1e-6

    def test_symmetric_sign_definite_for_same_sign_angles(self):
        signs = set()
        for energy in np.linspace(0.01, 0.19, 25) * np.pi:
            signs.add(np.sign(wire_condition_residual(0.3 * np.pi, 0.2 * np.pi, energy, 4)))
        assert signs == {-1.0}

    def test_wire_root_brackets_reference_energy(self):
        # reference bound-state energy E/pi = 4.68e-2 for N=1, theta2=pi/4
        lo = wire_condition_residual(-np.pi / 2, np.pi / 4, 0.0466 * np.pi, 1)
        hi = wire_condition_residual(-np.pi / 2, np.pi / 4, 0.0470 * np.pi, 1)
        assert np.sign(lo) != np.sign(hi)

    def test_wire_root_brackets_obtuse_block(self):
        # the oracle's splitting at theta2 = 0.7 pi, N = 5 is 1.052454e-3
        lo = wire_condition_residual(-np.pi / 2, 0.7 * np.pi, 1.0524e-3, 5)
        hi = wire_condition_residual(-np.pi / 2, 0.7 * np.pi, 1.0525e-3, 5)
        assert np.sign(lo) != np.sign(hi)

    def test_wire_no_root_at_exactly_zero(self):
        assert abs(wire_condition_residual(-np.pi / 2, np.pi / 4, 0.0, 4)) > 1e-6

    def test_wire_window_enforced(self):
        with pytest.raises(ValueError):
            wire_condition_residual(0.3 * np.pi, -0.25 * np.pi, 0.45 * np.pi, 3)

    @pytest.mark.parametrize("energy", [0.0, np.pi, -np.pi, 2 * np.pi, np.pi + 5e-13])
    def test_antisymmetric_vanishes_at_special_energies(self, energy):
        assert antisymmetric_condition_residual(-np.pi / 4, np.pi / 4, energy, 7) == 0.0

    def test_antisymmetric_nonzero_inside_gap(self):
        assert abs(antisymmetric_condition_residual(-np.pi / 3, np.pi / 3, 0.1, 5)) > 1e-3


class TestExistenceMatchesTopology:
    def test_verdict_tracks_winding_difference(self):
        from coinwalk import winding_number

        fractions = (-0.8, -0.45, -0.15, 0.2, 0.55, 0.9)
        for f1 in fractions:
            for f2 in fractions:
                verdict = single_boundary_existence(f1 * np.pi, f2 * np.pi)
                windings_differ = (
                    winding_number(f1 * np.pi).m != winding_number(f2 * np.pi).m
                )
                assert verdict.exists == windings_differ


class TestInfiniteLimitAndSplitting:
    def test_limit_values(self):
        k1, k2 = infinite_wire_limit(-np.pi / 3, np.pi / 4)
        assert abs(np.sinh(k1) - np.sqrt(3.0)) < 1e-14
        assert abs(np.sinh(k2) - 1.0) < 1e-14

    def test_limit_agrees_with_decay_constant(self):
        _, k2 = infinite_wire_limit(-np.pi / 3, np.pi / 4)
        assert abs(k2 - decay_constant(np.pi / 4, 0.0)) < 1e-14

    def test_same_sign_rejected(self):
        with pytest.raises(ValueError):
            infinite_wire_limit(np.pi / 4, np.pi / 4)

    @pytest.mark.parametrize("theta1,theta2", [(-np.pi / 2, np.pi / 4), (np.pi / 3, -np.pi / 2)])
    def test_reflecting_coin_is_hard_wall(self, theta1, theta2):
        # a reflecting coin has no finite decay constant, as in decay_constant
        with pytest.raises(ValueError, match="hard wall"):
            infinite_wire_limit(theta1, theta2)

    @pytest.mark.parametrize("offset", WALL_OFFSETS)
    def test_wall_rule_is_the_lattice_rule(self, offset):
        # decay_constant, infinite_wire_limit, single_boundary_mode and the wire
        # layout treat a coin as a hard wall exactly when U does
        theta, theta2 = np.pi / 2 - offset, -0.3 * np.pi
        if stored_as_wall(theta):
            for call in (
                lambda: decay_constant(theta, 0.0),
                lambda: infinite_wire_limit(theta, theta2),
                lambda: single_boundary_mode(theta, theta2, 0.0, 64),
            ):
                with pytest.raises(ValueError, match="hard wall"):
                    call()
            build_profile("wire", 64, theta, theta2, wire_length=9)
        else:
            kappa = decay_constant(theta, 0.0)
            assert np.isfinite(kappa) and infinite_wire_limit(theta, theta2)[0] == kappa
            assert single_boundary_mode(theta, theta2, 0.0, 64).kappa1 == kappa
            with pytest.raises(ValueError, match="wire layout requires"):
                build_profile("wire", 64, theta, theta2, wire_length=9)

    def test_splitting_rates(self):
        assert abs(splitting_decay_rate(np.pi / 4) - LOG_SILVER) < 1e-14
        assert abs(splitting_decay_rate(np.pi / 3) - LOG_BRONZE) < 1e-14
        assert abs(splitting_decay_rate(np.pi / 6) - LOG_ROOT3) < 1e-14

    def test_splitting_rate_is_zero_energy_decay_constant(self):
        for theta in (0.2 * np.pi, -0.37 * np.pi, 0.44 * np.pi):
            assert abs(splitting_decay_rate(theta) - decay_constant(theta, 0.0)) < 1e-13


def layout_site(n, length, offset=None):
    offset = length // 4 if offset is None else offset
    return (offset + n) % length


class TestSingleBoundaryMode:
    def test_geometric_ratio_laws_zero_energy(self):
        length = 64
        sol = single_boundary_mode(np.pi / 4, -np.pi / 4, 0.0, length)
        mags = np.linalg.norm(sol.wavefunction.spinors(), axis=1)
        x1 = 1 + np.sqrt(2.0)
        x2 = np.sqrt(2.0) - 1
        for n in range(-12, 1):
            ratio = mags[layout_site(n, length)] / mags[layout_site(n - 1, length)]
            assert abs(ratio - x1) < 1e-10 * x1
        for n in range(1, 13):
            ratio = mags[layout_site(n + 1, length)] / mags[layout_site(n, length)]
            assert abs(ratio - abs(x2)) < 1e-10

    def test_zero_energy_spinor_direction(self):
        # left region spinor parallel to (x1, -1)
        length = 64
        sol = single_boundary_mode(np.pi / 4, -np.pi / 4, 0.0, length)
        a, b = sol.wavefunction.spinors()[layout_site(-3, length)]
        x1 = 1 + np.sqrt(2.0)
        assert abs(a * (-1.0) - b * x1) < 1e-12

    def test_eigenvector_property_both_energies(self):
        for energy in (0.0, np.pi):
            sol = single_boundary_mode(np.pi / 4, -np.pi / 4, energy, 64)
            assert mode_residual(sol) < 1e-10

    def test_pi_energy_alternates_sign(self):
        length = 64
        sol = single_boundary_mode(np.pi / 4, -np.pi / 4, np.pi, length)
        spin = sol.wavefunction.spinors()
        a3 = spin[layout_site(-3, length)][0]
        a4 = spin[layout_site(-4, length)][0]
        # successive left-tail amplitudes keep opposite signs: ratio is -x1
        assert (a3 / a4).real < 0

    def test_mirrored_orientation(self):
        for energy in (0.0, np.pi):
            sol = single_boundary_mode(-0.3 * np.pi, 0.25 * np.pi, energy, 96)
            assert mode_residual(sol) < 1e-10

    def test_same_sign_rejected(self):
        with pytest.raises(ValueError):
            single_boundary_mode(np.pi / 4, np.pi / 3, 0.0, 64)

    def test_gap_closed_rejected(self):
        with pytest.raises(GapClosedError):
            single_boundary_mode(0.0, -np.pi / 4, 0.0, 64)

    @pytest.mark.parametrize("energy", [0.0, np.pi], ids=["0", "pi"])
    @pytest.mark.parametrize("theta1,theta2", [(-0.01, 0.3 * np.pi), (0.01, -0.3 * np.pi)])
    def test_near_gap_decay_constant_at_full_precision(self, theta1, theta2, energy):
        reference = near_gap_kappa(theta1)
        kappa1 = single_boundary_mode(theta1, theta2, energy, 8192).kappa1
        assert abs(kappa1 - reference) <= 1e-15 * reference

    def test_ring_too_small(self):
        with pytest.raises(ValueError, match="ring too small"):
            single_boundary_mode(0.05 * np.pi, -0.05 * np.pi, 0.0, 32)

    def test_regions_only_depend_on_their_side(self):
        # relabeling-symmetry check: moduli of the E=0 mode of (t1, t2) equal
        # the moduli of the E=pi mode of (-t1, -t2) site by site
        a = single_boundary_mode(0.3 * np.pi, -0.2 * np.pi, 0.0, 96)
        b = single_boundary_mode(-0.3 * np.pi, 0.2 * np.pi, np.pi, 96)
        assert np.allclose(
            np.abs(a.wavefunction.amplitudes), np.abs(b.wavefunction.amplitudes), atol=1e-12
        )


class TestAntisymmetricMode:
    def test_b_coefficient_identically_zero(self):
        sol = antisymmetric_mode(-np.pi / 4, np.pi / 4, 0.0, 10, 64)
        assert sol.coefficients[1] == 0

    def test_localized_at_topological_jump(self):
        length = 64
        for energy in (0.0, np.pi):
            sol = antisymmetric_mode(-np.pi / 4, np.pi / 4, energy, 10, length)
            peak = int(np.argmax(position_distribution(sol.wavefunction)))
            boundary = layout_site(0, length)
            assert min(abs(peak - boundary), length - abs(peak - boundary)) <= 1

    def test_eigenvector_property(self):
        for t1, t2 in [(-np.pi / 4, np.pi / 4), (0.35 * np.pi, -0.25 * np.pi)]:
            for energy in (0.0, np.pi):
                sol = antisymmetric_mode(t1, t2, energy, 10, 64)
                assert mode_residual(sol) < 1e-10

    def test_same_sign_rejected(self):
        with pytest.raises(ValueError):
            antisymmetric_mode(np.pi / 4, np.pi / 3, 0.0, 8, 64)

    def test_overflowing_weight_raises(self):
        # (kappa1 - kappa2)(N+1) ~ 2490 puts C = -sin(theta2) e^{(kappa1 - kappa2)(N+1)}
        # beyond float64: an explicit error, not C = -inf after an overflow warning
        with pytest.raises(ValueError, match="overflows float64"):
            antisymmetric_mode(-1.5707, 0.02, 0.0, 250, 512)

    def test_coefficients_span_boundary_condition_nullspace(self):
        # Independent route: build the 4x4 matching system of the block
        # ansatz by hand and compare its SVD nullspace with the closed-form
        # coefficient vector.
        t1, t2, energy, n_block = -np.pi / 3, np.pi / 5, 0.0, 4
        t3 = -t1
        k1 = decay_constant(t1, energy)
        k2 = decay_constant(t2, energy)

        def z_of(theta, kappa, decaying):
            sign = 1.0 if np.cos(energy) * np.cos(theta) > 0 else -1.0
            return sign * np.exp(-kappa if decaying else kappa)

        z2d, z2g = z_of(t2, k2, True), z_of(t2, k2, False)
        z1g, z3d = z_of(t1, k1, False), z_of(t3, k1, True)

        def spinor(theta, z):
            return eigenspinor_raw(theta, -1j * np.log(complex(z)), energy)

        a2d, b2d = spinor(t2, z2d)
        a2g, b2g = spinor(t2, z2g)
        a1g, b1g = spinor(t1, z1g)
        a3d, b3d = spinor(t3, z3d)
        span = n_block + 1
        system = np.array(
            [
                [b2d, b2g, 0, -b1g],
                [a2d / z2d, a2g / z2g, 0, -a1g / z1g],
                [z2d**span * b2d, z2g**span * b2g, -z3d**span * b3d, 0],
                [z2d**n_block * a2d, z2g**n_block * a2g, -z3d**n_block * a3d, 0],
            ],
            dtype=complex,
        )
        singular_values = np.linalg.svd(system, compute_uv=False)
        assert singular_values[-1] < 1e-12 * singular_values[0]

        _, _, vh = np.linalg.svd(system)
        null_vec = vh[-1].conj()
        coeffs = np.array(antisymmetric_mode(t1, t2, energy, n_block, 96).coefficients)
        overlap = abs(np.vdot(null_vec, coeffs)) / np.linalg.norm(coeffs)
        assert overlap > 1 - 1e-10

    def test_matches_single_boundary_near_jump(self):
        # the block layout starts its theta2 region at coordinate 0 while the
        # single-boundary layout starts at 1, so the modes sit one site apart
        length, n_block = 128, 24
        t1, t2 = -0.3 * np.pi, 0.25 * np.pi
        anti = antisymmetric_mode(t1, t2, 0.0, n_block, length)
        single = single_boundary_mode(t1, t2, 0.0, length)
        anti_idx = np.array(
            [(2 * layout_site(n, length), 2 * layout_site(n, length) + 1) for n in range(-8, 9)]
        ).reshape(-1)
        single_idx = np.array(
            [(2 * layout_site(n, length), 2 * layout_site(n, length) + 1) for n in range(-7, 10)]
        ).reshape(-1)
        u = anti.wavefunction.amplitudes[anti_idx]
        v = single.wavefunction.amplitudes[single_idx]
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        phase = np.vdot(v, u)
        phase /= abs(phase)
        assert np.linalg.norm(u - phase * v) < 1e-8

    def test_pairing_zero_and_pi(self):
        rng = np.random.default_rng(42)
        for _ in range(4):
            mag1, mag2 = rng.uniform(0.22 * np.pi, 0.42 * np.pi, 2)
            for t1, t2 in [(-mag1, mag2), (mag1, -mag2)]:
                for energy in (0.0, np.pi):
                    sol = antisymmetric_mode(t1, t2, energy, 8, 96)
                    assert mode_residual(sol) < 1e-10


# (theta1, theta2) in units of pi: theta2 in each (sgn sin, sgn cos) quadrant,
# each against a theta1 of the opposite sin sign with either sign of cos
MAJORANA_ANGLES = [
    (-sign * mag1, sign * mag2) for sign in (1, -1) for mag2 in (0.35, 0.65) for mag1 in (0.3, 0.7)
]


@pytest.mark.parametrize("energy,family", [(-np.pi, np.pi), (2 * np.pi, 0.0), (-2 * np.pi, 0.0)])
@pytest.mark.parametrize(
    "build",
    [
        lambda energy: single_boundary_mode(0.25 * np.pi, -0.25 * np.pi, energy, 64),
        lambda energy: antisymmetric_mode(-0.3 * np.pi, 0.35 * np.pi, energy, 8, 64),
    ],
    ids=["single", "antisymmetric"],
)
def test_modes_take_energy_on_the_circle(build, energy, family):
    # E = -pi is the pi mode and E = 2 pi the E = 0 one, as in diagonalize
    mode, reference = build(energy), build(family)
    assert mode.energy == family
    assert np.array_equal(mode.wavefunction.amplitudes, reference.wavefunction.amplitudes)
    assert mode_residual(mode) < 1e-10


# each closed-form mode with one count left open, and the quantity its error names
MODE_COUNTS = {
    "single-length": ("ring lengths", lambda n: single_boundary_mode(-0.3 * np.pi, 0.35 * np.pi, 0.0, n)),
    "single-offset": ("offsets", lambda n: single_boundary_mode(-0.3 * np.pi, 0.35 * np.pi, 0.0, 64, offset=n)),
    "antisymmetric-block": ("block lengths", lambda n: antisymmetric_mode(-0.3 * np.pi, 0.35 * np.pi, 0.0, n, 64)),
    "antisymmetric-length": ("ring lengths", lambda n: antisymmetric_mode(-0.3 * np.pi, 0.35 * np.pi, 0.0, 8, n)),
    "antisymmetric-offset": (
        "offsets", lambda n: antisymmetric_mode(-0.3 * np.pi, 0.35 * np.pi, 0.0, 8, 64, offset=n)
    ),
}


class TestModeCountsAreIntegers:
    """A mode's ring length, block length and offset pass ``lattice``'s one integer rule."""

    @pytest.mark.parametrize("bad", [2.5, 64.5, np.float64(3.0), True], ids=repr)
    @pytest.mark.parametrize("call", MODE_COUNTS)
    def test_non_integer_count_raises(self, call, bad):
        quantity, build = MODE_COUNTS[call]
        with pytest.raises(ValueError, match=f"{quantity} must be integers"):
            build(bad)

    @pytest.mark.parametrize("energy", [0.0, np.pi], ids=["0", "pi"])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16])
    def test_numpy_integers_match_python_ints(self, dtype, energy):
        t1, t2 = -0.3 * np.pi, 0.65 * np.pi
        pairs = [
            (single_boundary_mode(t1, t2, energy, dtype(64), offset=dtype(5)),
             single_boundary_mode(t1, t2, energy, 64, offset=5)),
            (antisymmetric_mode(t1, t2, energy, dtype(8), dtype(64), offset=dtype(5)),
             antisymmetric_mode(t1, t2, energy, 8, 64, offset=5)),
        ]
        for typed, plain in pairs:
            assert np.array_equal(typed.wavefunction.amplitudes, plain.wavefunction.amplitudes)
            assert np.array_equal(typed.profile.angles, plain.profile.angles)
            assert (typed.seam, typed.coefficients, typed.kappa1, typed.kappa2) == (
                plain.seam, plain.coefficients, plain.kappa1, plain.kappa2
            )


class TestMajoranaModesAreReal:
    """The E = 0, pi modes are self-conjugate, and are materialized as real vectors."""

    @pytest.mark.parametrize("energy", [0.0, np.pi], ids=["0", "pi"])
    @pytest.mark.parametrize("theta1,theta2", MAJORANA_ANGLES)
    @pytest.mark.parametrize("configuration", ["single", "antisymmetric"])
    def test_imaginary_part_exactly_zero(self, configuration, theta1, theta2, energy):
        theta1, theta2 = theta1 * np.pi, theta2 * np.pi
        if configuration == "single":
            sol = single_boundary_mode(theta1, theta2, energy, 96)
        else:
            sol = antisymmetric_mode(theta1, theta2, energy, 10, 96)
        assert not sol.wavefunction.amplitudes.imag.any()
        assert mode_residual(sol) < 1e-10
        assert oracle_compare(sol, sol.profile) > 1 - 1e-8

