"""toruslb benchmark: run one workload and print every metric with its unit.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all

Run from the root of a checkout.  A run first starts ``SETUP_PROBES``
interpreters that only import toruslb from the checkout's ``src/`` and get
ready, then one interpreter (``worker.py``, one BLAS thread) that runs the
workload in rounds for the rest of ``--seconds``: an untimed round that
checks every answer, then timed rounds that must reproduce those answers.
Each probe and each round also times a fixed reference loop, and every time
is reported at reference speed (see ``worker.at_reference_speed``): the
median over the timed rounds, or over the probes for ``setup_s``.  With ``--trace 1``
timed rounds alternate between untraced and traced, and the run reports the
per-layer metrics of the traced ones plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records and span
files go to ``.benchmark-out/`` in the checkout.  ``--workload all`` runs
every workload untraced and traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SIZES

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".benchmark-out"

WORKLOADS = ["table1-10x10", "worstcase-12x12", "verify-sweep"]
END_TO_END = {
    "time_to_result_s": "s",
    "build_s": "s",
    "query_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
ROUND_METRICS = ("time_to_result_s", "build_s", "query_s")
SETUP_PROBES = 7
# One thread per process: numpy's BLAS would otherwise start one per CPU.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def is_count(name: str) -> bool:
    """Counts must repeat exactly; every other per-layer metric is a time."""
    return layer_unit(name) not in ("s", "us")


def run_worker(job: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, str(WORKER), *job, "--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a benchmark process did not finish before the run's deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_facts() -> dict:
    """Read-only facts about this host and checkout."""
    facts = {"nproc": len(os.sched_getaffinity(0)), "git_rev": git_rev()}
    try:
        with open("/proc/cpuinfo") as f:
            facts["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "unknown"
            )
        with open("/proc/loadavg") as f:
            facts["loadavg"] = f.read().split()[:3]
    except OSError:
        facts.setdefault("cpu_model", "unknown")
    return facts


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Probe set-up, run the rounds and aggregate them into one record."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    probes = [run_worker(base + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    job = base + ["--trace", str(int(trace)),
                  "--seconds", repr(max(0.0, seconds - (time.monotonic() - start)))]
    if trace:
        job += ["--spans", str(OUT / f"spans-{workload}-{size}-seed{seed}.jsonl")]
    out = run_worker(job, deadline)

    checked, rounds = out["checked"], out["rounds"]
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    errors = determinism_errors(checked, rounds)
    every = [checked] + rounds
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    e2e = {name: statistics.median(r["at_reference"][name] for r in untraced)
           for name in ROUND_METRICS}
    e2e["setup_s"] = statistics.median(p["at_reference"]["setup_s"] for p in probes)
    e2e["peak_rss_mb"] = out["peak_rss_mb"]
    e2e["ok_frac"] = (attempted - failed) / attempted
    layers: dict = {}
    if trace:
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            layers[name] = values[0] if is_count(name) else statistics.median(values)
        layers["bounds.outside_count"] = checked["outside_count"]
        layers["trace.overhead_s"] = statistics.median(
            r["at_reference"]["time_to_result_s"] for r in traced
        ) - e2e["time_to_result_s"]
    record = {
        "workload": workload,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "params": SIZES[size][workload],
        "trace": int(trace),
        "machine": machine_facts(),
        "versions": probes[0]["versions"],
        "untraced_rounds": len(untraced),
        "traced_rounds": len(traced),
        "correct": not errors and all(r["answer_failures"] == 0 for r in every),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "errors": errors,
        "failed_ops": checked["errors"],
        "answers_digest": hashlib.sha256(
            json.dumps(checked["answers"], sort_keys=True).encode()
        ).hexdigest(),
        "absent_spans": out["absent"],
        "end_to_end": e2e,
        "per_layer": layers,
        "measured": {  # medians of the times as measured, before scaling
            name: statistics.median(r["measured"][name] for r in untraced) for name in ROUND_METRICS
        } | {"setup_s": statistics.median(p["measured"]["setup_s"] for p in probes)},
        "setup_probes": probes,
        "worker_setup_s": out["setup_s"],
        "checked_round": {k: v for k, v in checked.items() if k != "answers"},
        "rounds": rounds,
        "elapsed_s": time.monotonic() - start,
    }
    name = f"run-{workload}-{size}-seed{seed}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def determinism_errors(checked: dict, rounds: list[dict]) -> list[str]:
    """Every timed round repeats the checked round's accounting, and every
    traced round the same counts.  (Answers are compared inside the rounds.)"""
    errors = []
    for i, r in enumerate(rounds, 1):
        for key in ("attempted", "failed", "outside_count"):
            if r[key] != checked[key]:
                errors.append(f"round {i} {key} {r[key]} != {checked[key]}")
        if len(r["calls"]) != len(checked["calls"]):
            errors.append(f"round {i} made {len(r['calls'])} calls, not {len(checked['calls'])}")
    traced = [r for r in rounds if r["traced"]]
    for i, r in enumerate(traced[1:], 1):
        for name, value in r["layers"].items():
            if is_count(name) and value != traced[0]["layers"][name]:
                errors.append(f"traced round {i} {name} {value} != {traced[0]['layers'][name]}")
    return errors


def metrics(record: dict, trace: bool) -> dict:
    """The per-layer metrics of a traced run, else the end-to-end ones."""
    if trace:
        return {n: {"value": v, "unit": layer_unit(n)} for n, v in record["per_layer"].items()}
    return {n: {"value": record["end_to_end"][n], "unit": u} for n, u in END_TO_END.items()}


def result(record: dict, trace: bool) -> dict:
    """The result line the benchmark contract asks for."""
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics(record, trace),
    }


def report(record: dict, traces: tuple[bool, ...]) -> None:
    """Print the record for a reader: set-up, failures, then every metric."""
    print(f"workload {record['workload']} ({record['size']}), seed {record['seed']}, "
          f"{record['untraced_rounds']} untraced + {record['traced_rounds']} traced timed rounds")
    print(f"machine {json.dumps(record['machine'])} versions {json.dumps(record['versions'])}")
    for line in record["errors"]:
        print(f"ERROR {line}")
    for line in record["failed_ops"]:
        print(f"failed op: {line}")
    if record["absent_spans"]:
        print(f"absent spans: {', '.join(record['absent_spans'])}")
    print(f"fail_frac {record['fail_frac']!r} ratio ({record['failed']}/{record['attempted']})")
    print("as measured, before scaling to reference speed: " + ", ".join(
        f"{name} {value!r} s" for name, value in record["measured"].items()))
    for trace in traces:
        for name, m in metrics(record, trace).items():
            print(f"{name} {m['value']!r} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=20240917)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "toruslb" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/toruslb to benchmark", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
            report(record, (bool(args.trace),))
            print(json.dumps(result(record, bool(args.trace))))
            return 0
        combined = {}
        for name in WORKLOADS:
            plain = run_benchmark(name, args.seed, args.seconds, trace=False)
            report(plain, (False,))
            traced = run_benchmark(name, args.seed, args.seconds, trace=True)
            report(traced, (True,))
            combined[name] = {"end_to_end": result(plain, False), "per_layer": result(traced, True)}
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
