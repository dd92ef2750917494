"""One benchmark process: set up, run requests in a closed loop, check each one.

``run.py`` starts this script in a fresh interpreter with the BLAS thread
pin already in the environment, so the pin holds before numpy is imported.
Roles:

``setup``  import coinwalk, generate the inputs, run and check request 0.
``main``   as ``setup``, then print its round size and serve the parent over
           stdin: each ``next`` line runs the next request of the stream and
           answers with its latency, ``stop`` ends the loop.  The parent
           starts ``setup`` interpreters between requests while this process
           waits, so both kinds of sample span the whole run.
``trace``  as ``setup``, then whole rounds for a third of ``--seconds``
           untraced (at least enough rounds to hold every operation), then
           the same requests again with spans recorded.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

# Importing coinwalk is part of set-up time; numpy and scipy come with it.
import coinwalk.cli
import numpy
import scipy

import checks
import workloads
from tracer import Tracer


class Tally:
    """Outcomes and latencies of the requests one process ran."""

    QUALITY = ("energy_err", "infidelity", "eig_residual", "norm_drift")

    def __init__(self):
        self.latencies: list = []
        self.status = {"ok": 0, "known": 0, "failed": 0}
        self.known: dict = {}
        self.skipped: dict = {}
        self.problems: list = []
        self.quality = dict.fromkeys(self.QUALITY, 0.0)
        # op -> [work units, seconds, output bytes, requests]
        self.work: dict = {}

    def add(self, spec: dict, latency: float, outcome: checks.Outcome, timed: bool) -> None:
        self.status[outcome.status] += 1
        for name in outcome.known:
            self.known[name] = self.known.get(name, 0) + 1
        for name in outcome.skipped:
            self.skipped[name] = self.skipped.get(name, 0) + 1
        if outcome.problems and len(self.problems) < 20:
            self.problems.append({"request": spec, "problems": outcome.problems[:5]})
        for name in self.QUALITY:
            self.quality[name] = max(self.quality[name], getattr(outcome, name))
        if not timed:
            return
        self.latencies.append(latency)
        units = outcome.eigenpairs + outcome.site_steps + (
            outcome.roots if spec["op"] == "wire-spectrum" else 0)
        row = self.work.setdefault(spec["op"], [0, 0.0, 0, 0])
        row[0] += units
        row[1] += latency
        row[2] += outcome.output_bytes
        row[3] += 1


def run_one(spec: dict, tracer: Tracer | None = None):
    """Execute one request (timed) and check its response (untimed)."""
    start = time.perf_counter()
    try:
        if tracer is not None:
            tracer.active = True
        response = workloads.execute(spec)
        error = None
    except Exception as exc:  # a request that raises is a failed request
        response, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.active = False
    latency = time.perf_counter() - start
    if error is not None:
        outcome = checks.Outcome()
        outcome.fail(error)
    else:
        outcome = checks.check(spec, response)
    return latency, outcome


def covering_rounds(specs: list, size: int, cycle: int) -> int:
    """Fewest whole rounds from the start of the stream that hold every operation of a cycle."""
    ops = {spec["op"] for spec in specs[:cycle]}
    rounds = 1
    while {spec["op"] for spec in specs[:rounds * size]} != ops:
        rounds += 1
    return rounds


def steady_indices(size: int, count: int, seconds: float, run, minimum: int = 1) -> list:
    """Run whole rounds of ``size`` requests for about ``seconds``; returns the indices run.

    Another round starts only while it is expected to end less than half a
    round past the deadline, so a run measures ``seconds`` within half a
    round and at least ``minimum`` rounds.
    """
    done = []
    start = time.perf_counter()
    while True:
        for _ in range(size):
            index = len(done) % count
            run(index)
            done.append(index)
        elapsed = time.perf_counter() - start
        rounds = len(done) // size
        if rounds >= minimum and elapsed + elapsed / rounds / 2 >= seconds:
            return done


def serve(run, count: int) -> None:
    """The ``main`` role's loop: one request per ``next`` line until ``stop``."""
    index = 0
    for line in sys.stdin:
        if line.strip() == "stop":
            return
        if line.strip() != "next":
            raise SystemExit(f"unknown command {line.strip()!r}")
        print(json.dumps({"latency": run(index % count)}), flush=True)
        index += 1


def layer_metrics(tracer: Tracer, requests: int) -> dict:
    """Per-request layer totals from the traced pass."""
    table = tracer.summary()
    metrics = {}
    for name, row in table.items():
        for key in ("calls", "failed", "s", "self_s"):
            metrics[f"{name}.{key}"] = row[key] / requests
    metrics["cli.self_s"] = sum(
        row["self_s"] for name, row in table.items() if name.startswith("cli.")) / requests
    for key, value in tracer.counts.items():
        metrics[key] = value / requests
    roots = table.get("spectral.solve_wire_energy", {"calls": 0, "failed": 0})
    solved = roots["calls"] - roots["failed"]
    evals = tracer.calls_under("boundstates.wire_condition_residual", "spectral.solve_wire_energy")
    metrics["spectral.residual_evals_per_root"] = evals / solved if solved else 0.0
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.CYCLE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "main", "trace"), required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--spans", default=None, help="write the traced spans here (JSON lines)")
    args = parser.parse_args()

    specs = workloads.generate(args.workload, args.seed, args.size)
    ready = time.monotonic()
    tally = Tally()
    latency, outcome = run_one(specs[0])
    tally.add(specs[0], latency, outcome, timed=False)
    result = {"ready": ready, "first_request_s": latency, "coinwalk": coinwalk.cli.__file__}
    size = workloads.ROUND[args.workload]

    def run(index):
        latency, outcome = run_one(specs[index])
        tally.add(specs[index], latency, outcome, timed=True)
        return latency

    if args.role == "main":
        print(json.dumps({"round": size}), flush=True)
        serve(run, len(specs))
    elif args.role == "trace":
        # Every operation is traced, so each layer the workload reaches reports its spans.
        cover = covering_rounds(specs, size, workloads.CYCLE[args.workload])
        done = steady_indices(size, len(specs), args.seconds / 3, run, cover)
        tracer = Tracer()
        tracer.install()
        traced = []
        for position, index in enumerate(done):
            tracer.request = position
            lat, out = run_one(specs[index], tracer)
            traced.append(lat)
            tally.add(specs[index], lat, out, timed=False)
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, len(done))
        result["layers"]["tracing.overhead_frac"] = sum(traced) / sum(tally.latencies) - 1.0
        if args.spans:
            os.makedirs(os.path.dirname(os.path.abspath(args.spans)), exist_ok=True)
            tracer.write(args.spans)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result.update(
        tally=vars(tally),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        versions={"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "python": sys.version.split()[0]},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
