"""Correctness checks for every response, against expectations computed apart.

Each check returns an ``Outcome``.  A request is

* ``ok`` when every check holds;
* ``known`` when it fails only in one of the two documented defects of the
  finite-block root solver (below), which the workloads keep on purpose;
* ``failed`` on anything else: an exception, a non-zero exit code, a null
  cell or a failed check.

The documented defects, each identified by a narrow signature:

``obtuse-block-angle``
    ``solve_wire_energy`` finds "no sign change" for cos(theta2) < 0, while
    the oracle shows the split pair.
``long-block-cancellation``
    The quantization residual is a difference of two terms of order
    e^{kappa2 (N+1)}.  When the oracle's energy is already a root of that
    residual within its rounding floor, and so is the root the solver
    returned (or the solver found no sign change), the residual cannot tell
    the two apart.

Tolerances are fixed here, from the precision each route claims; a fix of
the library never needs to change them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from coinwalk import boundstates, spectral

from workloads import pi_units

EPS = np.finfo(float).eps
WIRE_TOL = 1e-11          # 10x the root solver's absolute xtol of 1e-12
MIRROR_TOL = 1e-9         # E <-> -E partner; the dense eig is accurate to ~1e-14
FIDELITY_TOL = 1e-9       # 1 - |<analytic|oracle eigenspace>|^2
RESIDUAL_TOL = 1e-9       # max-norm eigen-residual of modes and oracle vectors
NORM_TOL = 1e-9           # |sum_n p_n(t) - 1| after up to 1e4 unitary steps
PROB_TOL = 1e-9           # site probabilities against the Bloch-space reference
DISPERSION_TOL = 1e-12
TABLE_RTOL = 5e-3         # the paper's table has three significant figures
CANCELLATION_ULPS = 64    # rounding floor of the residual, in units of eps * term
TABLE_MAX_N = 10

# Block energies E/pi of reflecting-end wires (theta1 = -pi/2), N = 1..10,
# as tabulated in the source paper.
REFERENCE_TABLE = {
    "1/3": [2.13e-2, 5.69e-3, 1.52e-3, 4.08e-4, 1.09e-4,
            2.93e-5, 7.85e-6, 2.10e-6, 5.64e-7, 1.51e-7],
    "1/4": [4.68e-2, 1.89e-2, 7.77e-3, 3.21e-3, 1.33e-3,
            5.52e-4, 2.29e-4, 9.47e-5, 3.92e-5, 1.62e-5],
    "1/6": [8.04e-2, 4.31e-2, 2.41e-2, 1.37e-2, 7.89e-3,
            4.54e-3, 2.62e-3, 1.51e-3, 8.73e-4, 5.04e-4],
}


@dataclass
class Outcome:
    """Verdict on one response plus the numbers the quality metrics are made of."""

    problems: list = field(default_factory=list)
    known: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    energy_err: float = 0.0
    infidelity: float = 0.0
    eig_residual: float = 0.0
    norm_drift: float = 0.0
    eigenpairs: int = 0
    site_steps: int = 0
    roots: int = 0
    output_bytes: int = 0

    @property
    def status(self) -> str:
        if self.problems:
            return "failed"
        return "known" if self.known else "ok"

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def bound(self, name: str, value: float, limit: float, what: str) -> None:
        """Record ``value`` into the maximum ``name`` and fail it above ``limit``."""
        value = float(value)
        setattr(self, name, max(getattr(self, name), value))
        if not value <= limit:
            self.fail(f"{what}: {value:.3e} > {limit:.0e}")


# --- independent references ---------------------------------------------------


def step_vector(angles: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """One coin-shift step on an interleaved vector, written from the model's definition."""
    c, s = np.cos(angles), np.sin(angles)
    a, b = psi[0::2], psi[1::2]
    out = np.empty_like(psi)
    out[0::2] = np.roll(c * a + s * b, -1)
    out[1::2] = np.roll(-s * a + c * b, 1)
    return out


def bloch_probabilities(theta: float, length: int, psi0: np.ndarray, times) -> dict:
    """Site probabilities of a uniform ring at each time, evolved exactly in k-space.

    With A_k = sum_n a_n e^{-ikn}, one step multiplies (A_k, B_k) by
    [[c e^{ik}, s e^{ik}], [-s e^{-ik}, c e^{-ik}]]; powers are taken by
    repeated squaring, so no time stepping is shared with the library.
    """
    k = 2 * np.pi * np.arange(length) / length
    c, s = np.cos(theta), np.sin(theta)
    step = np.empty((length, 2, 2), dtype=complex)
    step[:, 0, 0], step[:, 0, 1] = c * np.exp(1j * k), s * np.exp(1j * k)
    step[:, 1, 0], step[:, 1, 1] = -s * np.exp(-1j * k), c * np.exp(-1j * k)
    spinor = np.stack([np.fft.fft(psi0[0::2]), np.fft.fft(psi0[1::2])], axis=1)
    out = {}
    for t in times:
        power, base, rest = np.broadcast_to(np.eye(2), step.shape).copy(), step, int(t)
        while rest:
            if rest & 1:
                power = base @ power
            base = base @ base
            rest >>= 1
        evolved = np.einsum("kij,kj->ki", power, spinor)
        a, b = np.fft.ifft(evolved[:, 0]), np.fft.ifft(evolved[:, 1])
        out[int(t)] = np.abs(a) ** 2 + np.abs(b) ** 2
    return out


def mirror_gap(energies: np.ndarray) -> float:
    """Largest circle distance from a quasi-energy E to the nearest -E' in the spectrum."""
    wrapped = np.mod(energies + np.pi, 2 * np.pi) - np.pi
    mirrored = np.sort(-wrapped)
    at = np.searchsorted(mirrored, wrapped)
    neighbours = np.stack([mirrored[(at - 1) % mirrored.size], mirrored[at % mirrored.size]])
    return float(spectral.circle_distance(neighbours, wrapped).min(axis=0).max())


def cancellation_floor(theta1: float, theta2: float, energy: float, n_block: int) -> float:
    """Rounding floor of the wire residual at ``energy``: eps times its dominant term."""
    ratio = abs(np.cos(energy)) / abs(np.cos(theta2))
    if ratio < 1.0:
        return 0.0
    span = np.arccosh(ratio) * (n_block + 1)
    term = np.sinh(span) * (np.sin(energy) ** 2 - np.sin(theta1) * np.sin(theta2))
    return float(CANCELLATION_ULPS * EPS * abs(term))


def _within_floor(theta1, theta2, energy, n_block) -> bool:
    try:
        residual = boundstates.wire_condition_residual(theta1, theta2, energy, n_block)
    except ValueError:  # the oracle's energy lies outside the residual's window
        return False
    return abs(residual) <= cancellation_floor(theta1, theta2, energy, n_block)


def wire_oracle(theta2: float, n_block: int) -> float:
    """Smallest |E| of a reflecting-end block, by dense eigenvalues of a short ring.

    Exterior coins of -pi/2 reflect perfectly, so a ring of the block plus
    four exterior sites holds the block's end modes exactly; the exterior
    sites only add a flat band at E = +/- pi/2.
    """
    length = n_block + 5
    angles = np.full(length, -np.pi / 2)
    angles[: n_block + 1] = theta2
    unitary = np.column_stack([step_vector(angles, column) for column in np.eye(2 * length)])
    return float(np.abs(np.angle(np.linalg.eigvals(unitary))).min())


def classify_wire(theta1, theta2, n_block, oracle_energy, solved, tol=WIRE_TOL):
    """Compare a root (float) or solver error (str) with the oracle's splitting.

    Returns (verdict, detail) with verdict "ok" (detail is the error), a
    known-defect signature, or "failed" (detail says why).
    """
    if isinstance(solved, str):
        if "no sign change" not in solved:
            return "failed", f"wire solver: {solved}"
        if oracle_energy is None:
            return "failed", "wire solver found no root and the oracle shows no pair"
        if np.cos(theta2) < 0:
            return "obtuse-block-angle", None
        if _within_floor(theta1, theta2, oracle_energy, n_block):
            return "long-block-cancellation", None
        return "failed", f"wire solver: {solved}"
    if oracle_energy is None:
        return "failed", "oracle shows no localized pair near E = 0"
    error = abs(solved - oracle_energy)
    if error <= tol:
        return "ok", error
    if all(_within_floor(theta1, theta2, e, n_block) for e in (oracle_energy, solved)):
        return "long-block-cancellation", None
    return "failed", f"wire root {solved:.6e} vs oracle {oracle_energy:.6e}"


# --- per-workload checks -------------------------------------------------------


def _payload(response: dict, outcome: Outcome):
    outcome.output_bytes = len(response["stdout"].encode())
    if response["exit_code"] != 0:
        outcome.fail(f"exit code {response['exit_code']}: {response['stderr'].strip()}")
        return None
    try:
        return json.loads(response["stdout"])
    except json.JSONDecodeError as exc:
        outcome.fail(f"unparsable output: {exc}")
        return None


def check_diagonalize(spec: dict, response: dict) -> Outcome:
    """Spectrum: 2L unit-circle energies, mirror partners, and the wire root."""
    outcome = Outcome()
    payload = _payload(response, outcome)
    if payload is None:
        return outcome
    rows = payload["data"]
    length = spec["n_sites"]
    energies = np.array([row["quasi_energy"] for row in rows], dtype=float)
    outcome.eigenpairs = energies.size
    if energies.size != 2 * length:
        outcome.fail(f"{energies.size} eigenpairs for a ring of {length}")
        return outcome
    outcome.bound("energy_err", mirror_gap(energies), MIRROR_TOL, "E <-> -E mirror partner")
    theta1, theta2 = pi_units(spec["theta1"]), pi_units(spec["theta2"])
    if spec["kind"] not in ("symmetric", "wire"):
        return outcome
    if not boundstates.single_boundary_existence(theta1, theta2).exists:
        return outcome
    near_zero = [abs(row["quasi_energy"]) for row in rows if row["localized_near"] == "0"]
    oracle = min(near_zero) if near_zero else None
    try:
        solved = spectral.solve_wire_energy(theta1, theta2, spec["wire_length"])
    except RuntimeError as exc:
        solved = str(exc)
    verdict, detail = classify_wire(theta1, theta2, spec["wire_length"], oracle, solved)
    if verdict == "ok":
        outcome.bound("energy_err", detail, WIRE_TOL, "wire root vs spectrum")
    elif verdict == "failed":
        outcome.fail(detail)
    else:
        # The expectation, not the response, is at fault: note it, check the rest.
        outcome.skipped.append(verdict)
    return outcome


def check_verify(spec: dict, response: dict) -> Outcome:
    """Verify: closed-form modes and the wire root against the dense oracle."""
    outcome = Outcome()
    length = spec["n_sites"]
    outcome.eigenpairs = 2 * 2 * length
    for mode in response["modes"]:
        where = f"{mode['layout']} mode at E={mode['energy']:.4f}"
        if "fidelity" in mode:
            outcome.bound("infidelity", 1.0 - mode["fidelity"], FIDELITY_TOL, where)
        outcome.bound("eig_residual", mode["residual"], RESIDUAL_TOL, where)
    profiles = {"antisymmetric": response["anti_profile"], "symmetric": response["sym_profile"]}
    for (layout, label), subset in response["oracle"].items():
        if subset.count == 0:
            outcome.fail(f"oracle found no localized state near {label} ({layout})")
            continue
        angles = profiles[layout].angles
        for i in range(subset.count):
            v = subset.vectors[:, i]
            gap = step_vector(angles, v) - np.exp(-1j * subset.quasi_energies[i]) * v
            outcome.bound("eig_residual", np.abs(gap).max(), RESIDUAL_TOL,
                          f"oracle vector near {label} ({layout})")
    near_zero = response["oracle"]["symmetric", "0"]
    oracle = float(np.abs(near_zero.quasi_energies).min()) if near_zero.count else None
    theta1, theta2 = pi_units(spec["theta1"]), pi_units(spec["theta2"])
    solved = response["wire_energy"]
    verdict, detail = classify_wire(theta1, theta2, spec["wire_length"], oracle, solved)
    if verdict == "ok":
        outcome.roots = 1
        outcome.bound("energy_err", detail, WIRE_TOL, "wire root vs oracle")
    elif verdict == "failed":
        outcome.fail(detail)
    else:
        outcome.known.append(verdict)
    return outcome


def check_evolve(spec: dict, response: dict) -> Outcome:
    """Sweep evolve: norm, and either the Bloch-space reference or stationarity."""
    outcome = Outcome()
    payload = _payload(response, outcome)
    if payload is None:
        return outcome
    length, steps = spec["n_sites"], spec["steps"]
    outcome.site_steps = length * steps
    snapshots: dict = {}
    for row in payload["data"]:
        snapshots.setdefault(row["t"], []).append(row["prob"])
    if max(snapshots, default=-1) != steps or any(len(p) != length for p in snapshots.values()):
        outcome.fail("snapshots do not cover 0..steps on every site")
        return outcome
    probs = {t: np.array(p) for t, p in snapshots.items()}
    for t, p in probs.items():
        outcome.bound("norm_drift", abs(p.sum() - 1.0), NORM_TOL, f"norm at t={t}")
    if spec["kind"] == "uniform":
        psi0 = np.zeros(2 * length, dtype=complex)
        psi0[2 * spec["site"] + (spec["component"] == "right")] = 1.0
        reference = bloch_probabilities(pi_units(spec["theta1"]), length, psi0, probs)
        gap = max(np.abs(probs[t] - reference[t]).max() for t in probs)
        if not gap <= PROB_TOL:
            outcome.fail(f"probabilities off the Bloch-space reference by {gap:.3e}")
    else:
        drift = max(np.abs(probs[t] - probs[0]).max() for t in probs)
        if not drift <= PROB_TOL:
            outcome.fail(f"bound:0 start is not stationary: drift {drift:.3e}")
    return outcome


def check_wire_spectrum(spec: dict, response: dict) -> Outcome:
    """Sweep wire-spectrum: every cell against a dense oracle, N <= 10 against the paper."""
    outcome = Outcome()
    payload = _payload(response, outcome)
    if payload is None:
        return outcome
    errors = {(e["theta2"], e["N"]): e["error"] for e in payload["extras"].get("errors", [])}
    for row in payload["data"]:
        n_block = row["N"]
        for column, value in row.items():
            if column == "N":
                continue
            token = column[len("E_over_pi["):-1]
            table = REFERENCE_TABLE.get(token)
            if value is not None and table and n_block <= TABLE_MAX_N:
                reference = table[n_block - 1]
                outcome.energy_err = max(outcome.energy_err, abs(value - reference) * np.pi)
                if not abs(value - reference) <= TABLE_RTOL * reference:
                    outcome.fail(f"E({token}, N={n_block}) = {value} pi, paper {reference} pi")
            theta2 = float(Fraction(token)) * np.pi
            solved = errors.get((token, n_block)) if value is None else value * np.pi
            oracle = wire_oracle(theta2, n_block)
            # Cells are printed to six significant digits.
            tol = WIRE_TOL + 1e-5 * oracle
            verdict, detail = classify_wire(-np.pi / 2, theta2, n_block, oracle, solved, tol)
            if verdict == "ok":
                outcome.roots += 1
            elif verdict == "failed":
                outcome.fail(f"cell ({token}, N={n_block}): {detail}")
            else:
                outcome.known.append(verdict)
    return outcome


def check_winding(spec: dict, response: dict) -> Outcome:
    """Sweep winding: m = sgn(sin theta) and a quantized integral on every row."""
    outcome = Outcome()
    payload = _payload(response, outcome)
    if payload is None:
        return outcome
    for row in payload["data"]:
        theta = row["theta"]
        if abs(np.sin(theta)) < 1e-9:
            if row["reason"] != "gap-closed":
                outcome.fail(f"theta={theta}: gapless point not reported as gap-closed")
            continue
        if row["m"] != int(np.sign(np.sin(theta))) or abs(row["integral_value"] - row["m"]) > 1e-6:
            outcome.fail(f"theta={theta}: winding {row['m']} ({row['integral_value']})")
    return outcome


def check_dispersion(spec: dict, response: dict) -> Outcome:
    """Sweep dispersion: cos E = cos t cos k, E_- = -E_+, |n| = 1, n orthogonal to the chiral axis."""
    outcome = Outcome()
    payload = _payload(response, outcome)
    if payload is None:
        return outcome
    theta = pi_units(spec["theta"])
    rows = payload["data"]
    k = np.array([r["k"] for r in rows])
    e_plus = np.array([r["E_plus"] for r in rows])
    e_minus = np.array([r["E_minus"] for r in rows])
    n = np.array([[r["n_x"], r["n_y"], r["n_z"]] for r in rows], dtype=float)
    expected = np.arccos(np.clip(np.cos(theta) * np.cos(k), -1.0, 1.0))
    outcome.bound("energy_err", np.abs(e_plus - expected).max(), DISPERSION_TOL, "E_plus")
    outcome.bound("energy_err", np.abs(e_plus + e_minus).max(), DISPERSION_TOL, "E_minus")
    axis = np.array([np.cos(theta), 0.0, -np.sin(theta)])
    gap = max(np.abs(np.linalg.norm(n, axis=1) - 1).max(), np.abs(n @ axis).max())
    if not gap <= DISPERSION_TOL:
        outcome.fail(f"Bloch vector off the unit circle of the chiral plane by {gap:.3e}")
    return outcome


def check_bound_single(spec: dict, response: dict) -> Outcome:
    """Sweep bound-single: the mode exists, is normalized and is an eigenvector."""
    outcome = Outcome()
    payload = _payload(response, outcome)
    if payload is None:
        return outcome
    extras = payload["extras"]
    if not extras.get("exists"):
        outcome.fail(f"no bound state reported for an opposite-sign pair: {extras.get('reason')}")
        return outcome
    outcome.bound("eig_residual", extras["eigenvector_residual"], RESIDUAL_TOL, "bound-single mode")
    total = sum(row["prob"] for row in payload["data"])
    outcome.bound("norm_drift", abs(total - 1.0), NORM_TOL, "bound-single norm")
    if len(payload["data"]) != spec["n_sites"]:
        outcome.fail("bound-single rows do not cover the ring")
    return outcome


_CHECKS = {
    "diagonalize": check_diagonalize,
    "verify": check_verify,
    "evolve": check_evolve,
    "wire-spectrum": check_wire_spectrum,
    "winding": check_winding,
    "dispersion": check_dispersion,
    "bound-single": check_bound_single,
}


def check(spec: dict, response: dict) -> Outcome:
    """Check one response; an exception inside a check is itself a failure."""
    try:
        return _CHECKS[spec["op"]](spec, response)
    except (KeyError, TypeError, ValueError, RuntimeError, ArithmeticError) as exc:
        outcome = Outcome()
        outcome.fail(f"check raised {type(exc).__name__}: {exc}")
        return outcome
