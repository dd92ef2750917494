"""Command-line surface: reproducible machine-readable runs of every computation.

All angles on the command line are given in units of pi ("0.25" means
pi/4); simple fractions like "1/3" are accepted so grid angles stay exact.
JSON is the canonical output format; CSV is a flat projection of the same
numbers with metadata in "# key=value" header comments.

Exit codes: 0 success (a "no bound state" verdict is a result, not a
failure), 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import io
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .bulk import (
    GAP_TOL,
    GapClosedError,
    bloch_vector,
    dispersion,
    winding_number,
)
from .boundstates import (
    antisymmetric_mode,
    single_boundary_existence,
    single_boundary_mode,
)
from .lattice import (
    PROFILE_KINDS,
    WalkerState,
    _check_angle,
    build_profile,
    delta_state,
    evolve,
    position_distribution,
    ring_coordinates,
)
from .spectral import (
    SIZE_CAP,
    _bound_positions,
    _ipr_threshold,
    _splitting_fit,
    diagonalize,
    mode_residual,
    solve_wire_energy,
)

SCHEMA_VERSION = 2
_NOT_PARAMS = ("command", "format", "output")
# A bound start drops its far tail below this, which spares stepping the slow subnormal
# arithmetic.  Stepping is orthogonal, so the exact walk moves by at most sqrt(2L) * 1e-200;
# rounding can carry the change to the last bits of tiny probs (seen near 1e-266).
_TAIL_CUT = 1e-200
_FAMILIES = {"0": 0.0, "pi": float(np.pi)}  # bound-state energy of each --energy and bound:FAMILY


class UsageError(Exception):
    """Malformed request that argparse could not catch; exits with code 2."""


def _angle_in_pi_units(text: str) -> float:
    """Parse an angle given in units of pi; accepts plain floats and 'p/q'."""
    raw = text.strip()
    try:
        if "/" in raw:
            num, den = raw.split("/", 1)
            value = float(num) / float(den)
        else:
            value = float(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an angle in units of pi: {text!r}") from exc
    try:
        return _check_angle(value * np.pi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("angles must be finite and lie in [-1, 1] in units of pi") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _csv_field(value) -> str:
    """One CSV cell or header value: None is empty and every float prints as ``float.__repr__``."""
    if value is None:
        return ""
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def _json_column(values) -> list:
    """One column's cells as ``json.dumps`` writes them.

    Int arrays, finite float arrays and columns of None and str take fast paths.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu":  # format each distinct value once
            distinct, inverse = np.unique(values, return_inverse=True)
            return np.array(list(map(int.__repr__, distinct.tolist())), dtype=object)[inverse].tolist()
        if values.dtype.kind == "f" and np.isfinite(values).all():  # exact zeros skip float.__repr__
            texts = ["0.0"] * values.size
            for index in np.flatnonzero((values == 0) & np.signbit(values)).tolist():
                texts[index] = "-0.0"
            nonzero = np.flatnonzero(values)
            for index, text in zip(nonzero.tolist(), map(float.__repr__, values[nonzero].tolist())):
                texts[index] = text
            return texts
        values = values.tolist()
    if set(map(type, values)) <= {str, type(None)}:  # flags and reasons: format each distinct value once
        texts = {cell: json.dumps(cell) for cell in set(values)}
        return [texts[cell] for cell in values]
    return [float.__repr__(c) if type(c) is float and math.isfinite(c) else json.dumps(c) for c in values]


def _json_rows(columns, data) -> str:
    """Data rows as ``json.dumps(rows_as_dicts, indent=2)`` writes them inside the payload.

    ``data`` holds one nonempty list, tuple or array per name; array cells are
    their ``tolist()`` values.  The pure-Python encoder that ``indent`` selects
    costs more than the computation for large outputs, so each column is
    encoded once and interleaved with the constant key texts.
    """
    # dict(zip(columns, row)) keeps a repeated key at its first place with its last value
    place = dict(zip(columns, range(len(columns))))
    keys = [f"\n      {json.dumps(key)}: " for key in place]
    count, width = len(data[0]), 2 * len(keys)
    pieces = [None] * (count * width + 1)
    for j, index in enumerate(place.values()):
        pieces[2 * j : -1 : width] = [("," if j else "\n    },\n    {") + keys[j]] * count
        pieces[2 * j + 1 :: width] = _json_column(data[index])
    pieces[0], pieces[-1] = "    {" + keys[0], "\n    }"
    return "".join(pieces)


def _emit(args, command: str, params: dict, columns, data, extras=None) -> None:
    """Write one run as JSON (canonical) or CSV (flat projection) from one sequence per column."""
    extras = extras or {}
    meta = {
        "command": command,
        "version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "params": params,
    }
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, "meta": meta, "data": [], "extras": extras}
        text = json.dumps(payload, indent=2) + "\n"
        if len(data[0]):
            # Only top-level keys start a line with exactly two spaces and a
            # quote, so this finds the (empty) data list of the payload.
            head, tail = text.split('\n  "data": []', 1)
            text = f'{head}\n  "data": [\n{_json_rows(columns, data)}\n  ]{tail}'
    else:
        buf = io.StringIO()
        buf.write(f"# schema_version={SCHEMA_VERSION}\n")
        for key in ("command", "version", "generated_at"):
            buf.write(f"# {key}={meta[key]}\n")
        for key, value in params.items():
            buf.write(f"# param.{key}={_csv_field(value)}\n")
        for key, value in extras.items():
            buf.write(f"# extra.{key}={json.dumps(value)}\n")
        buf.write(",".join(str(c) for c in columns) + "\n")
        for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in data)):
            buf.write(",".join(map(_csv_field, row)) + "\n")
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _params(args) -> dict:
    """The subcommand's own flags, in declaration order, as recorded in ``meta.params``."""
    return {key: value for key, value in vars(args).items() if key not in _NOT_PARAMS}


def _profile_from_args(args):
    """The ring layout of the flags; bound-single has no --kind and always lays out 'single'."""
    flags = vars(args)
    try:
        return build_profile(
            flags.get("kind", "single"),
            args.n_sites,
            args.theta1,
            theta2=args.theta2,
            wire_length=flags.get("wire_length"),
            offset=args.offset,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_dispersion(args) -> None:
    if args.k_points < 2:
        raise UsageError("--k-points must be at least 2")
    ks = -np.pi + 2 * np.pi * (np.arange(args.k_points) + 0.5) / args.k_points
    e_plus = dispersion(args.theta, ks)
    gapped = np.abs(np.sin(e_plus)) >= GAP_TOL  # the Bloch vector is null where the gap closes
    vectors = np.zeros((3, ks.size))
    vectors[:, gapped] = bloch_vector(args.theta, ks[gapped])
    n_columns = [[n if ok else None for n, ok in zip(row, gapped.tolist())] for row in vectors.tolist()]
    columns = ("k", "E_plus", "E_minus", "n_x", "n_y", "n_z")
    _emit(args, args.command, _params(args), columns, (ks, e_plus, -e_plus, *n_columns))


def cmd_winding(args) -> None:
    if args.grid_points < 64:
        raise UsageError("--grid-points must be at least 64")
    if args.steps > 1 and args.theta_max is None:
        raise UsageError("sweeps with --steps > 1 need --theta-max")
    thetas = (
        np.array([args.theta_min])
        if args.steps == 1
        else np.linspace(args.theta_min, args.theta_max, args.steps)
    )
    results = []
    for theta in thetas.tolist():
        try:
            result = winding_number(theta, grid_points=args.grid_points)
            results.append((result.m, result.integral_value, None))
        except GapClosedError:
            results.append((None, None, "gap-closed"))
    columns = ("theta", "m", "integral_value", "reason")
    _emit(args, args.command, _params(args), columns, (thetas, *zip(*results)))


def cmd_bound_single(args) -> None:
    _profile_from_args(args)  # a malformed ring is a usage error, whatever the verdict
    verdict = single_boundary_existence(args.theta1, args.theta2)
    extras = {"exists": verdict.exists, "reason": verdict.reason}
    columns = ("n", "site", "prob", "a_re", "a_im", "b_re", "b_im")
    data = [()] * len(columns)
    if verdict.exists:
        solution = single_boundary_mode(
            args.theta1, args.theta2, _FAMILIES[args.energy], args.n_sites, offset=args.offset
        )
        extras.update(
            {
                "kappa1": solution.kappa1,
                "kappa2": solution.kappa2,
                "eigenvector_residual": mode_residual(solution),
            }
        )
        # one row per layout coordinate n, centred on the boundary
        coords = ring_coordinates(args.n_sites, args.offset, centered=True)
        sites = np.argsort(coords)
        prob = position_distribution(solution.wavefunction)[sites]
        spin = solution.wavefunction.spinors()[sites].view(float)  # a_re, a_im, b_re, b_im
        data = (coords[sites], sites, prob, *spin.T)
    _emit(args, args.command, _params(args), columns, data, extras)


def cmd_wire_spectrum(args) -> None:
    tokens = [token.strip() for token in args.theta2_list.split(",") if token.strip()]
    if not tokens:
        raise UsageError("--theta2-list is empty")
    try:
        values = {token: _angle_in_pi_units(token) for token in tokens}
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"--theta2-list: {exc}") from exc
    if args.n_min < 1 or args.n_max < args.n_min:
        raise UsageError("need 1 <= --n-min <= --n-max")

    lengths = np.arange(args.n_min, args.n_max + 1)
    fitted = lengths >= args.fit_min_n
    fit_lengths = lengths[fitted].tolist()
    columns, errors, fits = [], [], []
    for token in tokens:
        try:
            energies = solve_wire_energy(-np.pi / 2, values[token], lengths)
            reason = "no bound-state root in the window above 1e-300"
        except ValueError as exc:  # this theta2 has no bound state
            energies, reason = np.full(lengths.shape, np.nan), str(exc)
        missing = np.isnan(energies)
        errors += [{"theta2": token, "N": n, "error": reason} for n in lengths[missing].tolist()]
        columns.append([None if math.isnan(e) else float(f"{e / np.pi:.6g}") for e in energies.tolist()])
        if len(fit_lengths) >= 4 and not missing[fitted].any():  # fits the table's roots
            fit = asdict(_splitting_fit(values[token], lengths[fitted], energies[fitted]))
            fits.append(dict(theta2=token, **fit, fit_n_min=fit_lengths[0], fit_n_max=fit_lengths[-1]))
    errors.sort(key=lambda error: error["N"])
    extras = {"theta1": "-1/2", "fits": fits}
    if errors:
        extras["errors"] = errors
    names = ["N", *(f"E_over_pi[{t}]" for t in tokens)]
    _emit(args, args.command, _params(args), names, (lengths, *columns), extras)


def _initial_state(args, profile) -> WalkerState:
    text = args.init
    if text.startswith("delta:"):
        site, *component = text[len("delta:") :].split(":")
        if not site.isdecimal() or component not in ([], ["left"], ["right"]):
            raise UsageError(f"malformed --init {text!r}")
        if int(site) >= profile.length:
            raise UsageError(f"--init site {site} is not a ring site 0..{profile.length - 1}")
        return delta_state(profile.length, int(site), *component)
    if text.startswith("bound:"):
        energy = _FAMILIES.get(text[len("bound:") :])
        if energy is None:
            raise UsageError(f"malformed --init {text!r}; bound family must be 0 or pi")
        if args.kind == "single":
            solution = single_boundary_mode(
                args.theta1, args.theta2, energy, args.n_sites, offset=args.offset
            )
        elif args.kind == "antisymmetric":
            solution = antisymmetric_mode(
                args.theta1,
                args.theta2,
                energy,
                args.wire_length,
                args.n_sites,
                offset=args.offset,
            )
        else:
            raise UsageError("bound-state start needs kind 'single' or 'antisymmetric'")
        amplitudes = solution.wavefunction.amplitudes
        return WalkerState(np.where(abs(amplitudes) < _TAIL_CUT, 0, amplitudes))
    raise UsageError(f"malformed --init {text!r}; use delta:SITE[:left|right] or bound:0|pi")


def cmd_evolve(args) -> None:
    if args.steps < 0:
        raise UsageError("--steps must be non-negative")
    if args.snapshot_every < 0:
        raise UsageError("--snapshot-every must be non-negative")
    profile = _profile_from_args(args)
    state = _initial_state(args, profile)
    every = args.snapshot_every or max(1, args.steps // 10)
    snapshots = sorted(set([0] + list(range(every, args.steps, every)) + [args.steps]))
    probs = []
    previous_t = 0
    for t in snapshots:
        state = evolve(state, profile, t - previous_t)
        previous_t = t
        probs.append(position_distribution(state))
    times = np.repeat(snapshots, profile.length)
    data = (times, np.tile(np.arange(profile.length), len(snapshots)), np.concatenate(probs))
    extras = {"final_norm": float(np.linalg.norm(state.amplitudes) ** 2)}
    params = {**_params(args), "snapshot_every": every}
    _emit(args, args.command, params, ("t", "site", "prob"), data, extras)


def cmd_diagonalize(args) -> None:
    if args.n_sites > SIZE_CAP:
        raise UsageError(f"--n-sites exceeds the dense-solver cap {SIZE_CAP}")
    profile = _profile_from_args(args)
    try:
        threshold = _ipr_threshold(profile.length, args.ipr_threshold)
    except ValueError as exc:
        raise UsageError("--ipr-threshold must be finite and non-negative") from exc
    result = diagonalize(profile)  # every eigenpair is guarded here; no vector is printed, so none is built
    near_zero = _bound_positions(result, 0.0, threshold)
    near_pi = _bound_positions(result, np.pi, threshold)
    flags = np.full(result.count, None)
    flags[near_pi] = "pi"
    flags[near_zero] = "0"
    columns = ("index", "quasi_energy", "ipr", "localized_near")
    data = (np.arange(result.count), result.quasi_energies, result.ipr, flags)
    extras = {
        "localized_near_zero": len(near_zero),
        "localized_near_pi": len(near_pi),
        "ipr_threshold": threshold,
    }
    _emit(args, args.command, _params(args), columns, data, extras)


def _add_common(parser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")


def _add_profile_flags(parser) -> None:
    parser.add_argument("--kind", choices=PROFILE_KINDS, required=True)
    parser.add_argument("--theta1", type=_angle_in_pi_units, required=True, help="angle in units of pi")
    parser.add_argument("--theta2", type=_angle_in_pi_units, default=None, help="angle in units of pi")
    parser.add_argument("--wire-length", type=int, default=None, help="block spans coordinates 0..N")
    parser.add_argument("--n-sites", type=_positive_int, default=64)
    parser.add_argument("--offset", type=int, default=None, help="ring site of coordinate n=0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinwalk",
        description="Coin-shift quantum walks on a ring: bands, invariants, boundary modes.",
    )
    parser.add_argument("--version", action="version", version=f"coinwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", help="band energies and Bloch vector on a k-grid")
    p.add_argument("--theta", type=_angle_in_pi_units, required=True, help="angle in units of pi")
    p.add_argument("--k-points", type=_positive_int, default=256)
    _add_common(p)

    p = sub.add_parser("winding", help="topological winding number over a theta sweep")
    p.add_argument("--theta-min", type=_angle_in_pi_units, required=True)
    p.add_argument("--theta-max", type=_angle_in_pi_units, default=None)
    p.add_argument("--steps", type=_positive_int, default=1)
    p.add_argument("--grid-points", type=_positive_int, default=1024)
    _add_common(p)

    p = sub.add_parser("bound-single", help="closed-form mode at a single boundary")
    p.add_argument("--theta1", type=_angle_in_pi_units, required=True)
    p.add_argument("--theta2", type=_angle_in_pi_units, required=True)
    p.add_argument("--energy", choices=_FAMILIES, default="0")
    p.add_argument("--n-sites", type=_positive_int, default=64)
    p.add_argument("--offset", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("wire-spectrum", help="bound-state energies of reflecting-end blocks")
    p.add_argument("--theta2-list", required=True, help="comma-separated angles in units of pi")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--fit-min-n", type=int, default=5)
    _add_common(p)

    p = sub.add_parser("evolve", help="time evolution with snapshot probability profiles")
    _add_profile_flags(p)
    p.add_argument("--init", default="delta:0", help="delta:SITE[:left|right] (SITE < n-sites) or bound:0|pi")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--snapshot-every", type=int, default=0, help="0 picks steps//10")
    _add_common(p)

    p = sub.add_parser("diagonalize", help="full spectrum with localization flags")
    _add_profile_flags(p)
    p.add_argument("--ipr-threshold", type=float, default=None)
    _add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than a parse."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        # looked up when called, so a replaced cmd_* function is the one that runs
        globals()["cmd_" + args.command.replace("-", "_")](args)
    except (UsageError, ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
