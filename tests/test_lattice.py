import numpy as np
import pytest

from coinwalk import (
    CoinProfile,
    WalkerState,
    apply_coin,
    apply_shift,
    build_profile,
    delta_state,
    evolve,
    position_distribution,
    ring_coordinates,
    step,
)

SQ2 = np.sqrt(2.0) / 2.0


def random_state(rng, length):
    raw = rng.normal(size=2 * length) + 1j * rng.normal(size=2 * length)
    return WalkerState(raw / np.linalg.norm(raw))


def random_profile(rng, length):
    return CoinProfile(rng.uniform(-np.pi, np.pi, length))


class TestApplyCoin:
    def test_identity_profile_leaves_state(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, 8)
        out = apply_coin(state, build_profile("uniform", 8, 0.0))
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_delta_quarter_pi(self):
        state = delta_state(8, 0, "left")
        prof = build_profile("uniform", 8, np.pi / 4)
        out = apply_coin(state, prof).spinors()
        assert np.allclose(out[0], [SQ2, -SQ2])

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        state = random_state(rng, 32)
        out = apply_coin(state, random_profile(rng, 32))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-14

    def test_length_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            apply_coin(random_state(rng, 8), random_profile(rng, 9))


class TestApplyShift:
    def test_left_component_moves_left(self):
        state = delta_state(3, 0, "left")
        out = apply_shift(state).spinors()
        assert np.allclose(out[:, 0], [0, 0, 1])
        assert np.allclose(out[:, 1], 0)

    def test_right_component_moves_right(self):
        state = delta_state(3, 0, "right")
        out = apply_shift(state).spinors()
        assert np.allclose(out[:, 1], [0, 1, 0])
        assert np.allclose(out[:, 0], 0)

    def test_l_shifts_return_identity(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, 5)
        out = state
        for _ in range(5):
            out = apply_shift(out)
        assert np.allclose(out.amplitudes, state.amplitudes)


class TestStepEvolve:
    def test_free_walk_moves_delta_left(self):
        prof = build_profile("uniform", 11, 0.0)
        out = step(delta_state(11, 5, "left"), prof)
        assert np.allclose(position_distribution(out)[4], 1.0)

    def test_step_is_coin_then_shift(self):
        rng = np.random.default_rng(5)
        state, prof = random_state(rng, 16), random_profile(rng, 16)
        assert np.allclose(
            step(state, prof).amplitudes,
            apply_shift(apply_coin(state, prof)).amplitudes,
        )

    def test_evolve_zero_and_one(self):
        rng = np.random.default_rng(6)
        state, prof = random_state(rng, 16), random_profile(rng, 16)
        assert evolve(state, prof, 0) is state
        assert np.allclose(evolve(state, prof, 1).amplitudes, step(state, prof).amplitudes)

    def test_evolve_composes(self):
        rng = np.random.default_rng(7)
        state, prof = random_state(rng, 12), random_profile(rng, 12)
        both = evolve(state, prof, 9)
        split = evolve(evolve(state, prof, 4), prof, 5)
        assert np.allclose(both.amplitudes, split.amplitudes, atol=1e-14)

    def test_norm_drift_over_thousand_steps(self):
        rng = np.random.default_rng(8)
        state, prof = random_state(rng, 64), random_profile(rng, 64)
        out = state
        for _ in range(1000):
            before = np.linalg.norm(out.amplitudes)
            out = step(out, prof)
            assert abs(np.linalg.norm(out.amplitudes) - before) < 1e-14
        assert abs(np.linalg.norm(out.amplitudes) ** 2 - 1.0) < 1e-10

    def test_translation_covariance_uniform(self):
        rng = np.random.default_rng(9)
        length, shift = 24, 7
        prof = build_profile("uniform", length, 0.4)
        state = random_state(rng, length)
        translated = WalkerState(np.roll(state.amplitudes, 2 * shift))
        lhs = evolve(translated, prof, 13).amplitudes
        rhs = np.roll(evolve(state, prof, 13).amplitudes, 2 * shift)
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_negative_steps_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            evolve(random_state(rng, 8), random_profile(rng, 8), -1)

    @pytest.mark.parametrize("t", [2.9, 2.0, np.float64(3.0)])
    def test_non_integral_steps_rejected(self, t):
        rng = np.random.default_rng(10)
        with pytest.raises(TypeError):
            evolve(random_state(rng, 8), random_profile(rng, 8), t)

    def test_numpy_integer_steps(self):
        rng = np.random.default_rng(10)
        state, prof = random_state(rng, 8), random_profile(rng, 8)
        assert np.array_equal(evolve(state, prof, np.int64(3)).amplitudes, evolve(state, prof, 3).amplitudes)


class TestSublatticeClasses:
    """Every step moves each component by one site, so parity classes never mix on an even ring."""

    @pytest.mark.parametrize("component", ["left", "right"])
    @pytest.mark.parametrize("site", [0, 5])
    def test_even_ring_delta_keeps_parity(self, site, component):
        length = 16
        prof = build_profile("single", length, -0.3 * np.pi, 0.35 * np.pi, offset=3)
        parity = np.arange(length) % 2
        state = delta_state(length, site, component)
        for t in range(1, 3 * length + 1):
            state = evolve(state, prof, 1)
            p = position_distribution(state)
            assert np.all(p[parity != (site + t) % 2] == 0.0)
            assert p[parity == (site + t) % 2].sum() > 1 - 1e-12
        at_once = evolve(delta_state(length, site, component), prof, 3 * length)
        assert np.array_equal(state.amplitudes, at_once.amplitudes)

    def test_odd_ring_delta_reaches_both_parities(self):
        length = 15
        prof = build_profile("uniform", length, 0.3 * np.pi)
        parity = np.arange(length) % 2
        p = position_distribution(evolve(delta_state(length, 4), prof, 3 * length))
        assert p[parity == 0].sum() > 1e-3 and p[parity == 1].sum() > 1e-3


def kernel_profiles():
    rng = np.random.default_rng(12)
    for length in (1, 2, 3, 64):
        yield f"random-{length}", random_profile(rng, length)
    for length in (64, 63, 65):  # odd rings step the double cover
        for kind in ("uniform", "single", "symmetric", "antisymmetric", "wire"):
            theta1 = np.pi / 2 if kind == "wire" else -0.3 * np.pi
            name = kind if length == 64 else f"{kind}-{length}"
            yield name, build_profile(kind, length, theta1, 0.35 * np.pi, wire_length=9)


class TestKernelParity:
    """``evolve`` against the reference composition ``apply_shift(apply_coin(.))``."""

    @pytest.mark.parametrize("t", [1, 7, 50])
    @pytest.mark.parametrize("name,prof", list(kernel_profiles()))
    def test_bitwise_equal_to_coin_then_shift(self, name, prof, t):
        self.check(random_state(np.random.default_rng(t), prof.length), prof, t)

    @pytest.mark.parametrize("t", [1, 7, 50])
    @pytest.mark.parametrize("name,prof", list(kernel_profiles()))
    @pytest.mark.parametrize("component", ["left", "right"])
    def test_delta_starts_bitwise(self, name, prof, component, t):
        # a delta start has zero imaginary part and takes the real kernel
        self.check(delta_state(prof.length, prof.length // 3, component), prof, t)

    @pytest.mark.parametrize("t", [1, 7, 50])
    @pytest.mark.parametrize("name,prof", list(kernel_profiles()))
    @pytest.mark.parametrize("start", ["real", "real-negative-zero-imag", "imaginary"])
    def test_real_and_imaginary_starts_bitwise(self, name, prof, start, t):
        rng = np.random.default_rng(t)
        values = rng.normal(size=2 * prof.length)
        if start == "imaginary":  # nonzero imaginary part: stays on the complex kernel
            values = 1j * values
        state = WalkerState(values / np.linalg.norm(values))
        if start == "real-negative-zero-imag":
            amplitudes = state.amplitudes.copy()
            amplitudes.imag = -0.0
            state = WalkerState(amplitudes)
            assert np.signbit(state.amplitudes.imag).all()
        self.check(state, prof, t)

    @pytest.mark.parametrize("t", [1, 2, 7, 50])
    @pytest.mark.parametrize("name,prof", list(kernel_profiles()))
    @pytest.mark.parametrize("start", ["one-sublattice", "other-sublattice-negative-zero", "two-class"])
    def test_sublattice_starts_bitwise(self, name, prof, start, t):
        # even rings keep the occupied sublattice class only; an all -0.0 class counts as empty
        rng = np.random.default_rng(t)
        spin = rng.normal(size=(prof.length, 2)) + 1j * rng.normal(size=(prof.length, 2))
        if start == "two-class":  # one site on each sublattice
            spin[2:] = 0.0
        else:
            spin[1::2] = 0.0
        spin /= np.linalg.norm(spin)
        if start == "other-sublattice-negative-zero":
            spin[1::2] = complex(-0.0, -0.0)
            assert np.signbit(spin[1::2].view(float)).all()
        self.check(WalkerState(spin.ravel()), prof, t)

    @staticmethod
    def check(state, prof, t):
        before = state.amplitudes.copy()
        want = state
        for _ in range(t):
            want = apply_shift(apply_coin(want, prof))
        got = evolve(state, prof, t)
        assert got.amplitudes.dtype == complex
        assert np.array_equal(got.amplitudes, want.amplitudes)
        # the input is untouched, down to the sign of its zeros
        assert np.array_equal(state.amplitudes, before)
        assert np.array_equal(np.signbit(state.amplitudes.view(float)), np.signbit(before.view(float)))


class TestPositionDistribution:
    def test_delta(self):
        p = position_distribution(delta_state(6, 0, "left"))
        assert np.allclose(p, [1, 0, 0, 0, 0, 0])

    def test_two_site_superposition(self):
        amp = np.zeros(12, dtype=complex)
        amp[0] = amp[2] = 1 / np.sqrt(2)
        p = position_distribution(WalkerState(amp))
        assert np.allclose(p[:2], 0.5)

    def test_sums_to_one_after_evolution(self):
        rng = np.random.default_rng(11)
        state, prof = random_state(rng, 20), random_profile(rng, 20)
        p = position_distribution(evolve(state, prof, 57))
        assert abs(p.sum() - 1.0) < 1e-12


class TestBuildProfile:
    def test_symmetric_block_angles(self):
        prof = build_profile("symmetric", 20, np.pi / 2, -np.pi / 4, wire_length=10, offset=0)
        assert np.allclose(prof.angles[: 11], -np.pi / 4)
        assert np.allclose(prof.angles[11:], np.pi / 2)

    def test_antisymmetric_flips_far_exterior(self):
        prof = build_profile("antisymmetric", 30, np.pi / 2, -np.pi / 4, wire_length=10, offset=0)
        n = ring_coordinates(30, 0, centered=True)
        assert np.allclose(prof.angles[(n >= 0) & (n <= 10)], -np.pi / 4)
        assert np.allclose(prof.angles[n > 10], -np.pi / 2)
        assert np.allclose(prof.angles[n < 0], np.pi / 2)

    def test_single_layout(self):
        prof = build_profile("single", 16, 0.5, -0.5, offset=4)
        n = ring_coordinates(16, 4, centered=True)
        assert np.allclose(prof.angles[n <= 0], 0.5)
        assert np.allclose(prof.angles[n >= 1], -0.5)

    def test_wire_requires_half_pi(self):
        with pytest.raises(ValueError):
            build_profile("wire", 32, 0.4, -0.25, wire_length=5)

    def test_block_must_leave_exterior(self):
        with pytest.raises(ValueError):
            build_profile("symmetric", 12, 1.0, -0.5, wire_length=11)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_profile("moebius", 12, 1.0)

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(ValueError):
            build_profile("uniform", 8, 3.5)
        with pytest.raises(ValueError):
            CoinProfile(np.array([0.1, -3.5]))


class TestReflectingBlocks:
    def test_two_blocks_confine_probability(self):
        length = 48
        blocks = [(20, 21), (40, 41)]
        angles = np.full(length, np.pi / 4)
        for b1, b2 in blocks:
            angles[b1] = angles[b2] = np.pi / 2
        prof = CoinProfile(angles)
        state = delta_state(length, 5, "left")
        inside = list(range(22, 40))  # arc between the blocks, away from the start
        for _ in range(200):
            state = step(state, prof)
            p = position_distribution(state)
            assert p[inside].sum() < 1e-12

    def test_delta_at_reflecting_site_stays_within_neighbors(self):
        length = 32
        angles = np.full(length, np.pi / 2)
        prof = CoinProfile(angles)
        state = delta_state(length, 10, "left")
        allowed = {9, 10, 11}
        for _ in range(100):
            state = step(state, prof)
            p = position_distribution(state)
            outside = [m for m in range(length) if m not in allowed]
            assert p[outside].sum() < 1e-14

    def test_wire_walls_hold_exactly(self):
        # block n = 0..9 on sites 10..19; the reflecting sites 9 and 20 are
        # the only exterior sites amplitude can reach, not even a 1e-30 leak
        prof = build_profile("wire", 64, -np.pi / 2, 0.3 * np.pi, wire_length=9, offset=10)
        p = position_distribution(evolve(delta_state(64, 14), prof, 1000))
        assert p[20] > 0
        assert np.all(p[:9] == 0.0) and np.all(p[21:] == 0.0)


class TestWalkerStateInvariants:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            WalkerState(np.ones(8, dtype=complex))

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            WalkerState(np.array([1.0 + 0j, 0, 0]))

    def test_rejects_non_finite(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = np.nan
        with pytest.raises(ValueError):
            WalkerState(amp)

    def test_amplitudes_read_only(self):
        state = delta_state(4, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
