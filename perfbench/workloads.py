"""Seeded request streams for the three workloads and the code that runs them.

Every workload is a fixed cycle of request shapes; the seed only draws the
angles, block lengths and start sites that fill those shapes.  A run always
executes whole rounds (``ROUND``), so every seed runs the same mix of sizes
and the timings of two seeds are comparable.

Library functions are always reached through their module attribute
(``spectral.diagonalize``), never through a name bound at import time, so the
traced run's wrappers see every call made here.
"""

from __future__ import annotations

import contextlib
import io
import random

import numpy as np

from coinwalk import boundstates, cli, lattice, spectral

# Full sizes are the ones the workload descriptions in README.md name; "tiny"
# exists only for the self-test.
SIZES = {
    "full": {
        "spectrum_rings": (256, 384, 512),
        "verify_ring": 256,
        "evolve_ring": 4096,
        "evolve_steps": 10000,
        "wire_n_max": 40,
        "winding_steps": 64,
        "winding_grid": 4096,
        "dispersion_points": 4096,
        "bound_ring": 2048,
    },
    "tiny": {
        "spectrum_rings": (128, 160, 192),
        "verify_ring": 256,
        "evolve_ring": 256,
        "evolve_steps": 200,
        "wire_n_max": 40,
        "winding_steps": 16,
        "winding_grid": 256,
        "dispersion_points": 256,
        "bound_ring": 128,
    },
}

SPECTRUM_LAYOUTS = ("symmetric", "antisymmetric", "wire", "single")
# (sgn sin, sgn cos) quadrants of the angle square.
QUADRANTS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
WIRE_THETA2_LIST = "1/3,1/4,1/6,0.4,0.7"
# Sweep cycle: two rounds of nine, each with seven evolve requests (most of the
# time) and two of the four light ones.  The light ones all finish faster than
# any evolve, so with seven of nine slots the median falls inside the evolve
# requests rather than on the edge between the two groups.
SWEEP_SLOTS = (
    "evolve-delta", "evolve-bound", "wire-spectrum", "evolve-delta", "evolve-bound",
    "winding", "evolve-delta", "evolve-bound", "evolve-delta",
    "evolve-delta", "evolve-bound", "dispersion", "evolve-delta", "evolve-bound",
    "bound-single", "evolve-delta", "evolve-bound", "evolve-delta",
)
CYCLE = {"spectrum": 12, "verify": 12, "sweep": len(SWEEP_SLOTS)}
# A run stops only after whole rounds: the shortest runs of consecutive
# requests that hold the same mix of sizes (every ring of spectrum, every
# theta2 quadrant of verify, seven evolve and two light requests of sweep), so
# two seeds time the same work.
ROUND = {"spectrum": 3, "verify": 4, "sweep": 9}
# How many cycles of inputs are generated; a run that outlasts them wraps.
GENERATED_CYCLES = 16


def _angle(rng: random.Random, quadrant: tuple, stratum: int) -> str:
    """Angle in units of pi in a quadrant, 0.1 to 0.9 pi from the gap lines.

    The distance from the nearest gap line is drawn inside one of three
    strata, so every cycle of requests covers the square the same way and
    seeds differ only within strata.
    """
    sgn_sin, sgn_cos = quadrant
    acute = 0.1 + 0.38 * ((stratum % 3) + rng.random()) / 3
    magnitude = acute if sgn_cos > 0 else 1.0 - acute
    return f"{sgn_sin * magnitude:.6f}"


def _opposite_pair(rng: random.Random, slot: int) -> tuple[str, str]:
    quad2 = QUADRANTS[slot % 4]
    quad1 = (-quad2[0], 1 if (slot // 4) % 2 else -1)
    return _angle(rng, quad1, slot // 4 + slot), _angle(rng, quad2, slot // 4)


def _spectrum(rng: random.Random, index: int, size: dict) -> dict:
    """All (L, layout) pairs once per cycle; theta2 quadrants cycle per L triple.

    Symmetric and wire blocks always get an exterior of opposite sgn sin, so
    their bound pair is checked against the wire root in every quadrant of
    theta2, obtuse ones included; the other layouts also get same-sign pairs.
    """
    slot = index % CYCLE["spectrum"]
    length = size["spectrum_rings"][slot % 3]
    kind = SPECTRUM_LAYOUTS[slot % 4]
    quad2 = QUADRANTS[slot // 3]
    theta2 = _angle(rng, quad2, slot)
    sgn1 = quad2[0] if kind in ("antisymmetric", "single") and (slot // 4) % 2 else -quad2[0]
    if kind == "wire":
        theta1 = "0.5" if sgn1 > 0 else "-0.5"
    else:
        theta1 = _angle(rng, (sgn1, 1 if slot % 2 else -1), slot + 1)
    n_block = rng.randint(2, 12)
    argv = ["diagonalize", "--kind", kind, f"--theta1={theta1}", f"--theta2={theta2}",
            "--n-sites", str(length)]
    if kind != "single":
        argv += ["--wire-length", str(n_block)]
    return {"op": "diagonalize", "argv": argv, "kind": kind, "n_sites": length,
            "theta1": theta1, "theta2": theta2, "wire_length": n_block}


def _verify(rng: random.Random, index: int, size: dict) -> dict:
    """theta2 cycles through the four quadrants and three strata; theta1 has the opposite sin sign."""
    theta1, theta2 = _opposite_pair(rng, index % CYCLE["verify"])
    return {"op": "verify", "n_sites": size["verify_ring"], "theta1": theta1,
            "theta2": theta2, "wire_length": rng.randint(2, 12)}


def _sweep(rng: random.Random, index: int, size: dict) -> dict:
    slot = SWEEP_SLOTS[index % CYCLE["sweep"]]
    ring, steps = size["evolve_ring"], size["evolve_steps"]
    if slot == "evolve-delta":
        theta = _angle(rng, QUADRANTS[index % 4], index)
        site = rng.randrange(ring)
        component = rng.choice(("left", "right"))
        argv = ["evolve", "--kind", "uniform", f"--theta1={theta}", "--n-sites", str(ring),
                "--steps", str(steps), f"--init=delta:{site}:{component}"]
        return {"op": "evolve", "argv": argv, "kind": "uniform", "theta1": theta,
                "n_sites": ring, "steps": steps, "site": site, "component": component}
    if slot == "evolve-bound":
        theta1, theta2 = _opposite_pair(rng, index)
        argv = ["evolve", "--kind", "single", f"--theta1={theta1}", f"--theta2={theta2}",
                "--n-sites", str(ring), "--steps", str(steps), "--init=bound:0"]
        return {"op": "evolve", "argv": argv, "kind": "single", "theta1": theta1,
                "theta2": theta2, "n_sites": ring, "steps": steps}
    if slot == "wire-spectrum":
        argv = ["wire-spectrum", f"--theta2-list={WIRE_THETA2_LIST}", "--n-min", "1",
                "--n-max", str(size["wire_n_max"])]
        return {"op": "wire-spectrum", "argv": argv}
    if slot == "winding":
        lo = rng.uniform(-0.95, -0.05)
        hi = rng.uniform(0.05, 0.95)
        argv = ["winding", f"--theta-min={lo:.6f}", f"--theta-max={hi:.6f}",
                "--steps", str(size["winding_steps"]), "--grid-points", str(size["winding_grid"])]
        return {"op": "winding", "argv": argv}
    if slot == "dispersion":
        theta = _angle(rng, QUADRANTS[index % 4], index)
        argv = ["dispersion", f"--theta={theta}", "--k-points", str(size["dispersion_points"])]
        return {"op": "dispersion", "argv": argv, "theta": theta}
    theta1, theta2 = _opposite_pair(rng, index)
    energy = rng.choice(("0", "pi"))
    argv = ["bound-single", f"--theta1={theta1}", f"--theta2={theta2}", "--energy", energy,
            "--n-sites", str(size["bound_ring"])]
    return {"op": "bound-single", "argv": argv, "n_sites": size["bound_ring"]}


_MAKERS = {"spectrum": _spectrum, "verify": _verify, "sweep": _sweep}


def generate(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The request stream of one workload: GENERATED_CYCLES whole cycles."""
    rng = random.Random(f"{workload}:{seed}")
    make = _MAKERS[workload]
    count = CYCLE[workload] * GENERATED_CYCLES
    return [make(rng, i, SIZES[size]) for i in range(count)]


def pi_units(text: str) -> float:
    """An angle string in units of pi, parsed the way the CLI parses it."""
    return float(text) * np.pi


def run_cli(argv: list[str]) -> dict:
    """One in-process ``coinwalk`` invocation; stdout is the response body."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_verify(spec: dict) -> dict:
    """Oracle verification of the closed-form route for one angle pair and block."""
    theta1, theta2 = pi_units(spec["theta1"]), pi_units(spec["theta2"])
    n_block, length = spec["wire_length"], spec["n_sites"]
    anti = lattice.build_profile("antisymmetric", length, theta1, theta2, wire_length=n_block)
    anti_result = spectral.diagonalize(anti)
    sym = lattice.build_profile("symmetric", length, theta1, theta2, wire_length=n_block)
    sym_result = spectral.diagonalize(sym)
    response = {"anti_profile": anti, "sym_profile": sym, "modes": [], "oracle": {}}
    for energy in (0.0, np.pi):
        mode = boundstates.antisymmetric_mode(theta1, theta2, energy, n_block, length)
        response["modes"].append({
            "layout": "antisymmetric",
            "energy": energy,
            "fidelity": spectral.oracle_compare(mode, anti, result=anti_result),
            "residual": spectral.mode_residual(mode),
        })
        single = boundstates.single_boundary_mode(theta1, theta2, energy, length)
        response["modes"].append({
            "layout": "single", "energy": energy, "residual": spectral.mode_residual(single),
        })
    for name, result in (("antisymmetric", anti_result), ("symmetric", sym_result)):
        for label, target in (("0", 0.0), ("pi", np.pi)):
            response["oracle"][name, label] = spectral.find_bound_states(result, target)
    try:
        response["wire_energy"] = spectral.solve_wire_energy(theta1, theta2, n_block)
    except (ValueError, RuntimeError) as exc:
        response["wire_energy"] = f"{type(exc).__name__}: {exc}"
    return response


def execute(spec: dict) -> dict:
    """Run one request and return its raw response (the timed part of a request)."""
    if spec["op"] == "verify":
        return run_verify(spec)
    return run_cli(spec["argv"])
