"""Self-test of the benchmark harness at toy sizes; takes about a minute.

    python3 benchmark/selftest.py

Runs every workload twice at toy size (6x6, a few trials; one checked and
three timed rounds) with tracing, and checks that every metric named in
BENCHMARK.json is emitted with its unit, that every answer is correct, and
that answers and counts repeat exactly across the two runs.  Then checks that the benchmark exits non-zero without
printing a result in a directory that holds only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if [w["name"] for w in spec["workloads"]] != run.WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in run.WORKLOADS:
        records = [run.run_benchmark(workload, seed=7, seconds=0, trace=True, size="toy")
                   for _ in range(2)]
        for record in records:
            run.report(record, (False, True))
            if not record["correct"] or record["failed"]:
                problems.append(f"{workload}: {record['errors'] + record['failed_ops']}")
        for label, trace, want in (("end-to-end", False, want_e2e), ("per-layer", True, want_layers)):
            units = {n: m["unit"] for n, m in run.metrics(records[0], trace).items()}
            if units != want:
                problems.append(f"{workload} {label}: emitted {units}, BENCHMARK.json {want}")
        first, second = ({n: v for n, v in r["per_layer"].items() if run.is_count(n)}
                         for r in records)
        if first != second:
            problems.append(f"{workload}: counts differ between runs: {first} {second}")
        for key in ("attempted", "failed", "answers_digest"):
            if records[0][key] != records[1][key]:
                problems.append(f"{workload}: {key} differs between runs")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*spec["command"], "--workload", run.WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for line in problems:
        print(f"SELFTEST FAIL {line}")
    print("SELFTEST " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
