"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import time
from contextlib import contextmanager

import numpy as np

from coinwalk import (
    CoinProfile,
    antisymmetric_mode,
    bloch_vector,
    build_profile,
    chiral_operator,
    circle_distance,
    delta_state,
    diagonalize,
    dispersion,
    effective_hamiltonian,
    fit_splitting_decay,
    mode_residual,
    offdiagonal_h,
    oracle_compare,
    position_distribution,
    single_boundary_existence,
    single_boundary_mode,
    solve_wire_energy,
    splitting_decay_rate,
    step,
    winding_number,
)
from coinwalk.lattice import WalkerState

REFERENCE_TABLE = {
    np.pi / 3: [2.13e-2, 5.69e-3, 1.52e-3, 4.08e-4, 1.09e-4,
                2.93e-5, 7.85e-6, 2.10e-6, 5.64e-7, 1.51e-7],
    np.pi / 4: [4.68e-2, 1.89e-2, 7.77e-3, 3.21e-3, 1.33e-3,
                5.52e-4, 2.29e-4, 9.47e-5, 3.92e-5, 1.62e-5],
    np.pi / 6: [8.04e-2, 4.31e-2, 2.41e-2, 1.37e-2, 7.89e-3,
                4.54e-3, 2.62e-3, 1.51e-3, 8.73e-4, 5.04e-4],
}


@contextmanager
def criterion(name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"{name} took {elapsed:.2f}s (limit {limit_seconds}s)"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_reference_table_reproduction():
    with criterion("reference-table-reproduction", 1.0):
        for theta2, column in REFERENCE_TABLE.items():
            for n_block, expected in zip(range(1, 11), column):
                root = solve_wire_energy(-np.pi / 2, theta2, n_block) / np.pi
                assert abs(root - expected) / expected < 5e-3, (theta2, n_block)


def test_splitting_decay_law():
    with criterion("splitting-decay-law", 1.0):
        for theta2 in (np.pi / 3, np.pi / 4, np.pi / 6):
            fit = fit_splitting_decay(theta2, range(5, 11))
            rate = splitting_decay_rate(theta2)
            assert abs(fit.slope + rate) / rate < 0.02, theta2
            assert abs(fit.kappa2_predicted - rate) < 1e-13


def test_winding_quantization():
    with criterion("winding-quantization", 1.0):
        grid = np.concatenate(
            [np.linspace(-0.97, -0.03, 48), np.linspace(0.03, 0.97, 49)]
        ) * np.pi
        assert grid.size == 97
        for theta in grid:
            result = winding_number(theta)
            assert result.m == int(np.sign(np.sin(theta)))
            assert abs(result.integral_value - result.m) < 1e-6


def test_oracle_equivalence():
    with criterion("oracle-equivalence", 60.0):
        rng = np.random.default_rng(20250810)
        length = 128
        for _ in range(20):
            mag1, mag2 = rng.uniform(0.2 * np.pi, 0.42 * np.pi, 2)
            theta1, theta2 = -mag1, mag2
            kappa2 = splitting_decay_rate(theta2)
            n_max = min(9, int(16.0 / kappa2) - 1)
            n_block = int(rng.integers(4, n_max + 1))

            anti = build_profile(
                "antisymmetric", length, theta1, theta2, wire_length=n_block
            )
            anti_result = diagonalize(anti)
            for target in (0.0, np.pi):
                assert np.min(circle_distance(anti_result.quasi_energies, target)) < 1e-8
                mode = antisymmetric_mode(theta1, theta2, target, n_block, length)
                fidelity = oracle_compare(mode, anti, result=anti_result)
                assert fidelity > 1 - 1e-6

            sym = build_profile("symmetric", length, theta1, theta2, wire_length=n_block)
            sym_result = diagonalize(sym)
            split_zero = np.min(np.abs(sym_result.quasi_energies))
            split_pi = np.min(circle_distance(sym_result.quasi_energies, np.pi))
            assert split_zero > 1e-9 and split_pi > 1e-9
            root = solve_wire_energy(theta1, theta2, n_block)
            assert abs(split_zero - root) < 1e-7
            assert abs(split_pi - root) < 1e-7


def test_single_boundary_eigenvector_suite():
    with criterion("single-boundary-eigenvector-suite", 5.0):
        rng = np.random.default_rng(77)
        length = 96
        for i in range(10):
            mag1, mag2 = rng.uniform(0.2 * np.pi, 0.45 * np.pi, 2)
            theta1, theta2 = (mag1, -mag2) if i % 2 == 0 else (-mag1, mag2)
            assert single_boundary_existence(theta1, theta2).exists
            for energy in (0.0, np.pi):
                sol = single_boundary_mode(theta1, theta2, energy, length)
                assert mode_residual(sol) < 1e-10
        for _ in range(5):
            sign = rng.choice([-1.0, 1.0])
            mag1, mag2 = rng.uniform(0.1 * np.pi, 0.45 * np.pi, 2)
            verdict = single_boundary_existence(sign * mag1, sign * mag2)
            assert not verdict.exists
            assert verdict.reason == "same-sign-no-bound-state"


def test_symmetry_property_suite():
    with criterion("symmetry-property-suite", 1.0):
        thetas = (np.arange(32) + 0.5) / 16.0 * np.pi - np.pi
        momenta = (np.arange(32) + 0.5) / 16.0 * np.pi - np.pi
        worst = 0.0
        for theta in thetas:
            chiral = chiral_operator(theta)
            chiral_inv = np.linalg.inv(chiral)
            for k in momenta:
                n_vec = bloch_vector(theta, k)
                ham = effective_hamiltonian(theta, k)
                ham_minus = effective_hamiltonian(theta, -k)
                worst = max(
                    worst,
                    abs(np.linalg.norm(n_vec) - 1.0),
                    float(np.max(np.abs(chiral_inv @ ham @ chiral + ham))),
                    float(np.max(np.abs(np.conj(ham) + ham_minus))),
                    abs(abs(offdiagonal_h(theta, k)) - np.sin(dispersion(theta, k))),
                )
        assert worst < 1e-11


def test_unitarity_and_confinement():
    with criterion("unitarity-and-confinement", 30.0):
        rng = np.random.default_rng(99)
        for _ in range(3):
            length = 64
            prof = CoinProfile(rng.uniform(-np.pi, np.pi, length))
            raw = rng.normal(size=2 * length) + 1j * rng.normal(size=2 * length)
            state = WalkerState(raw / np.linalg.norm(raw))
            for _ in range(1000):
                state = step(state, prof)
            assert abs(np.linalg.norm(state.amplitudes) ** 2 - 1.0) < 1e-10

        length = 48
        angles = np.full(length, np.pi / 4)
        for site in (20, 21, 40, 41):
            angles[site] = np.pi / 2
        prof = CoinProfile(angles)
        state = delta_state(length, 5, "left")
        far_arc = list(range(22, 40))
        for _ in range(300):
            state = step(state, prof)
            assert position_distribution(state)[far_arc].sum() < 1e-12
