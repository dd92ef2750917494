"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every run prints a result line with every metric BENCHMARK.json
names, each with its unit; that the verifiers reject corrupted responses;
and that the benchmark refuses to run without the coinwalk sources.  Exits
with code 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES: list = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def test_metrics_emitted(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                expect(False, f"{where}: exit code {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
            expect(result["correct"] is True and result["failed"] == 0, f"{where}: responses correct")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                   f"{where}: attempted is a positive count")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            expect(set(got) == set(wanted), f"{where}: exactly the {section} metrics")
            expect(all(got[n]["unit"] == u and math.isfinite(got[n]["value"])
                       for n, u in wanted.items() if n in got), f"{where}: units and finite values")


def test_corruption_rejected() -> None:
    spec = workloads.generate("spectrum", 0, "tiny")[0]
    response = workloads.execute(spec)
    expect(checks.check(spec, response).status == "ok", "spectrum: clean response accepted")
    payload = json.loads(response["stdout"])
    payload["data"][len(payload["data"]) // 3]["quasi_energy"] += 1e-6
    bad = {**response, "stdout": json.dumps(payload)}
    expect(checks.check(spec, bad).status == "failed", "spectrum: energy shifted by 1e-6 rejected")

    # Request 0 has an acute theta2, so its wire root is checked against the oracle.
    spec = workloads.generate("verify", 0, "tiny")[0]
    response = workloads.execute(spec)
    expect(checks.check(spec, response).status == "ok", "verify: clean response accepted")
    bad = {**response, "wire_energy": response["wire_energy"] + 1e-6}
    expect(checks.check(spec, bad).status == "failed", "verify: wire root shifted by 1e-6 rejected")
    bad = {**response, "modes": [dict(m) for m in response["modes"]]}
    bad["modes"][0]["fidelity"] -= 1e-6
    expect(checks.check(spec, bad).status == "failed", "verify: fidelity lowered by 1e-6 rejected")

    sweep = workloads.generate("sweep", 0, "tiny")
    for spec in [s for s in sweep if s["op"] == "evolve"][:2]:
        response = workloads.execute(spec)
        label = f"sweep evolve ({spec['kind']})"
        expect(checks.check(spec, response).status == "ok", f"{label}: clean response accepted")
        payload = json.loads(response["stdout"])
        payload["data"][-5]["prob"] += 1e-6
        bad = {**response, "stdout": json.dumps(payload)}
        expect(checks.check(spec, bad).status == "failed", f"{label}: probability moved by 1e-6 rejected")
    spec = next(s for s in sweep if s["op"] == "wire-spectrum")
    payload = json.loads(workloads.execute(spec)["stdout"])
    payload["data"][2]["E_over_pi[1/4]"] *= 1.01
    bad = {"exit_code": 0, "stdout": json.dumps(payload), "stderr": ""}
    outcome = checks.check(spec, bad)
    expect(outcome.status == "failed", "sweep wire-spectrum: table cell off by 1% rejected")


def test_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench-out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = run_bench(bare, "sweep", 0)
    expect(done.returncode != 0 and not done.stdout.strip(),
           "without src/: non-zero exit and no result")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    test_corruption_rejected()
    test_refuses_without_sources()
    test_metrics_emitted(spec)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
