"""coinwalk benchmark: seeded workloads, checked responses, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 38 --trace 0

``--trace 0`` measures the end-to-end metrics: a closed loop of one client in
one process, and set-up and first request over several fresh interpreters
started between its requests.
``--trace 1`` measures the per-layer metrics: the import breakdown from
``python -X importtime`` and a traced replay of an untraced pass.  Both check
every response.  The last line of standard output is the result; the line
before it is a full report with run metadata.  The metric names and units
come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7          # fresh interpreters timed for setup_s / first_request_s
IMPORTTIME_SAMPLES = 3
RUN_LIMIT_S = 175           # every child is stopped before a run reaches this
WORKLOADS = ("spectrum", "verify", "sweep")
LAYER_PREFIXES = ("lattice.", "bulk.", "boundstates.", "spectral.", "cli.")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    """Environment for a child: the checkout's sources and the BLAS thread pin."""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    return env


STARTED = time.monotonic()


def run_child(argv: list, env: dict) -> subprocess.CompletedProcess:
    """Run a child to completion; it is killed if the run would pass RUN_LIMIT_S."""
    timeout = max(1.0, STARTED + RUN_LIMIT_S - time.monotonic())
    try:
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child stopped at the {RUN_LIMIT_S}s run limit: {argv}") from exc
    if done.returncode != 0:
        raise BenchError(f"child failed ({done.returncode}): {argv}\n{done.stderr[-2000:]}")
    return done


def worker_argv(args, role: str, extra=()) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role,
            "--size", args.size, *extra]


def checked(result: dict) -> dict:
    if not Path(result["coinwalk"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported coinwalk from {result['coinwalk']}, not from this checkout")
    return result


def worker(args, role: str, env: dict, extra=()) -> tuple[float, dict]:
    """Launch one worker to completion; returns the launch time and its result object."""
    launched = time.monotonic()
    done = run_child(worker_argv(args, role, extra), env)
    return launched, checked(json.loads(done.stdout.strip().splitlines()[-1]))


def reply(proc: subprocess.Popen) -> dict:
    """The main worker's next line, or BenchError at the run limit or if it ended."""
    remaining = STARTED + RUN_LIMIT_S - time.monotonic()
    if not select.select([proc.stdout], [], [], max(0.0, remaining))[0]:
        raise BenchError(f"main worker stopped at the {RUN_LIMIT_S}s run limit")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"main worker ended early with code {proc.wait()}")
    return json.loads(line)


def interleaved(args, env: dict) -> list:
    """One main worker in a closed loop, with fresh set-up interpreters between its requests.

    The main worker's own start is the first set-up sample; the others start
    at even fractions of ``--seconds`` while the main worker waits, so the
    set-up samples and the request latencies span the same stretch of time.
    Requests stop after the whole round that ends nearest the deadline.
    Returns the (launch time, result) pairs, the main worker's first.
    """
    launched = time.monotonic()
    proc = subprocess.Popen(worker_argv(args, "main"), env=env, cwd=ROOT, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        size = reply(proc)["round"]
        deadline = launched + args.seconds
        setups = [launched + args.seconds * k / SETUP_SAMPLES for k in range(1, SETUP_SAMPLES)]
        samples, served, serving = [], 0, 0.0
        while True:
            now = time.monotonic()
            if setups and setups[0] <= now:
                setups.pop(0)
                samples.append(worker(args, "setup", env))
                continue
            # A round's wall time includes the checks, which the latencies leave out.
            if not setups and served and served % size == 0:
                if now + serving / (served // size) / 2 >= deadline:
                    break
            proc.stdin.write("next\n")
            proc.stdin.flush()
            reply(proc)
            served += 1
            serving += time.monotonic() - now
        proc.stdin.write("stop\n")
        proc.stdin.flush()
        main = reply(proc)
        if proc.wait(timeout=max(1.0, STARTED + RUN_LIMIT_S - time.monotonic())) != 0:
            raise BenchError(f"main worker failed with code {proc.returncode}")
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"main worker stopped at the {RUN_LIMIT_S}s run limit") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    return [(launched, checked(main)), *samples]


def import_breakdown(env: dict) -> dict:
    """Cumulative import seconds of numpy, scipy and coinwalk's own modules."""
    done = run_child([sys.executable, "-X", "importtime", "-c", "import coinwalk.cli"], env)
    lines = []
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, _, name = line.split("|", 2)
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        lines.append((depth, name.strip().split(".")[0], int(line.split("|")[1])))
    totals = {"numpy": 0, "scipy": 0, "coinwalk": 0}
    stack: list = []
    # Children print before their parent; walking backwards visits parents first.
    # numpy modules first imported by scipy count as scipy's import cost.
    for depth, package, cumulative in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ancestors = {p for _, p in stack}
        if package in totals and not ancestors & {package, "numpy", "scipy"}:
            totals[package] += cumulative
        stack.append((depth, package))
    return {
        "setup.import_numpy_s": totals["numpy"] / 1e6,
        "setup.import_scipy_s": totals["scipy"] / 1e6,
        "setup.import_coinwalk_s": (totals["coinwalk"] - totals["numpy"] - totals["scipy"]) / 1e6,
    }


def tail(latencies: list) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with ten samples beyond it, at least the 90th.

    A run holds 12 to 40 samples, too few for ten beyond a percentile above
    the median; so below 100 samples the sample with n // 10 beyond (at least
    one: the second-slowest, which is steadier than the maximum) is taken.
    The percentile then stays near the 90th whatever the count, where a switch
    to ten beyond at 20 samples would jump from the 95th to the 50th.
    Returns the value, its percentile and the count beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, max(1, n // 10), n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def metadata(env: dict, versions: dict) -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    total = code = 0
    for path in src:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        for line in data.decode().splitlines():
            total += 1
            code += bool(line.strip()) and not line.strip().startswith("#")
    commit = None
    if (ROOT / ".git").exists():
        git_env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        **versions,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": total,
        "src_code_lines": code,
    }


def merge_tallies(tallies: list) -> dict:
    merged = {"status": {"ok": 0, "known": 0, "failed": 0}, "known": {}, "skipped": {},
              "problems": [], "quality": {}, "work": {}}
    for tally in tallies:
        for key in ("status", "known", "skipped"):
            for name, count in tally[key].items():
                merged[key][name] = merged[key].get(name, 0) + count
        merged["problems"] += tally["problems"]
        for name, value in tally["quality"].items():
            merged["quality"][name] = max(merged["quality"].get(name, 0.0), value)
        for op, row in tally["work"].items():
            acc = merged["work"].setdefault(op, [0, 0.0, 0, 0])
            for i, value in enumerate(row):
                acc[i] += value
    return merged


def outcome_metrics(merged: dict) -> dict:
    """Failure share, accuracy maxima and work rates of the steady requests."""
    status = merged["status"]
    attempted = sum(status.values())
    work = merged["work"]

    def rate(*ops):
        units = sum(work[op][0] for op in ops if op in work)
        seconds = sum(work[op][1] for op in ops if op in work)
        return units / seconds if seconds else 0.0

    return {
        "failed_frac": (status["failed"] + status["known"]) / attempted,
        "max_energy_err": merged["quality"]["energy_err"],
        "max_infidelity": merged["quality"]["infidelity"],
        "max_eig_residual": merged["quality"]["eig_residual"],
        "max_norm_drift": merged["quality"]["norm_drift"],
        "eigenpairs_per_s": rate("diagonalize", "verify"),
        "site_steps_per_s": rate("evolve"),
        "roots_per_s": rate("wire-spectrum"),
        "cli.output_bytes": sum(r[2] for r in work.values()) / max(1, sum(r[3] for r in work.values())),
    }


def measure(args, env: dict) -> tuple[dict, list, dict]:
    """Run the children for one mode; returns metrics, tallies and detail."""
    if args.trace == 0:
        samples = interleaved(args, env)
        main = samples[0][1]
        value, percentile, beyond = tail(main["tally"]["latencies"])
        metrics = {
            "setup_s": statistics.median(r["ready"] - t for t, r in samples),
            "first_request_s": statistics.median(r["first_request_s"] for _, r in samples),
            "latency_p50_s": statistics.median(main["tally"]["latencies"]),
            "latency_tail_s": value,
            "peak_rss_mb": main["peak_rss_mb"],
        }
        detail = {"tail_percentile": percentile, "tail_samples_beyond": beyond,
                  "steady_requests": len(main["tally"]["latencies"]),
                  "setup_samples": [r["ready"] - t for t, r in samples],
                  "first_request_samples": [r["first_request_s"] for _, r in samples]}
        return metrics, [r for _, r in samples], detail
    breakdowns = [import_breakdown(env) for _ in range(IMPORTTIME_SAMPLES)]
    spans = ROOT / ".perfbench-out" / f"spans-{args.workload}.jsonl"
    _, traced = worker(args, "trace", env, ["--spans", str(spans)])
    metrics = {name: statistics.median(b[name] for b in breakdowns) for name in breakdowns[0]}
    metrics.update(traced["layers"])
    detail = {"spans_file": str(spans.relative_to(ROOT)),
              "traced_requests": len(traced["tally"]["latencies"])}
    return metrics, [traced], detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs exist for the self-test only")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if not (ROOT / "src" / "coinwalk" / "__init__.py").is_file():
            raise BenchError(f"no coinwalk sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        env = child_env()
        metrics, results, detail = measure(args, env)
        merged = merge_tallies([r["tally"] for r in results])
        metrics.update(outcome_metrics(merged))
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        final = {}
        for entry in wanted:
            value = metrics.get(entry["name"])
            # A layer function this workload never calls has no span: it counts 0.
            if value is None and not entry["name"].startswith(LAYER_PREFIXES):
                raise BenchError(f"metric {entry['name']} was not measured")
            final[entry["name"]] = {"value": value or 0.0, "unit": entry["unit"]}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    status = merged["status"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "meta": metadata(env, results[-1]["versions"]),
        "metrics": metrics, "detail": detail,
        "requests": status, "known_defects": merged["known"],
        "expectations_skipped": merged["skipped"], "problems": merged["problems"],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": status["failed"] == 0,
        "attempted": sum(status.values()),
        "failed": status["failed"],
        "metrics": final,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
