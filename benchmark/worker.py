"""One run of one workload in a fresh interpreter; prints one JSON line.

Started by ``run.py``, never by hand::

    python3 benchmark/worker.py --workload NAME --seed N --trace 0|1 \
        --size full|toy --seconds S --launched T [--setup-only] [--spans FILE]

``--launched`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start-up, importing toruslb
from ``src/`` of the checkout and getting the harness ready.

The worker runs the workload in rounds.  Every round builds its schemes
afresh and makes every query, as one CLI invocation would.  The first round
checks every answer and is not timed; the rounds after it are timed and must
reproduce its answers exactly.  Rounds go on while the next one is expected
to end within ``--seconds`` of the start, and at least ``MIN_ROUNDS`` are
timed.  While a round runs, a ``SpeedSampler`` times a fixed reference
loop every ``SAMPLE_EVERY_S`` seconds.  With ``--trace 1`` timed rounds
alternate between untraced and traced.
"""

import argparse
import json
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
# Stop starting rounds after this long whatever MIN_ROUNDS asks, so a run on
# a very slow host still ends well inside the benchmark's time limit.
HARD_STOP_S = 120.0
SAMPLE_EVERY_S = 0.05
# Times are reported scaled to a CPU that runs reference_loop in this long,
# about its time on an idle CPU of the 2-CPU Xeon KVM guest where the
# benchmark was written.
REFERENCE_S = 0.002
SETUP_SAMPLES = 9


# The speed reference: tuple-keyed dict lookups, the library's commonest
# step, over a table of a few MB whose hash slots it visits out of order.  It
# is fixed here, apart from the library, so a change to toruslb cannot move
# it; and it allocates nothing, so the library's live objects cannot slow it.
_REF_KEYS = [((i * 7919) % 30011, i % 17) for i in range(30011)]
_REF_TABLE = {key: 1.0 for key in _REF_KEYS}


def reference_loop() -> float:
    """A fixed amount of work: about 2 ms on an idle CPU of a 2-CPU Xeon
    KVM guest."""
    table = _REF_TABLE
    total = 0.0
    for key in _REF_KEYS:
        total += table[key]
    return total


def at_reference_speed(seconds: float, samples: list[float]) -> float:
    """``seconds`` as measured, scaled to a CPU that runs the reference loop
    in ``REFERENCE_S``: seconds x REFERENCE_S / mean of the reference loop's
    times taken at even intervals through the same stretch of time."""
    return seconds * REFERENCE_S / statistics.fmean(samples)


def round_times(wall: float, calls: list, samples: list[float]) -> dict:
    """A round's times as measured and at reference speed.  Each library
    call is scaled by the samples taken while it ran, or, for a call shorter
    than the sampling interval, by the first sample after it; the time
    between calls by all of the round's samples."""
    measured = {"build_s": 0.0, "query_s": 0.0}
    scaled = {"build_s": 0.0, "query_s": 0.0}
    for bucket, seconds, first, end in calls:
        measured[bucket + "_s"] += seconds
        scaled[bucket + "_s"] += at_reference_speed(seconds, samples[first:end] or [samples[end]])
    between = wall - measured["build_s"] - measured["query_s"]
    measured["time_to_result_s"] = wall
    scaled["time_to_result_s"] = (
        scaled["build_s"] + scaled["query_s"] + at_reference_speed(between, samples)
    )
    return {"measured": measured, "at_reference": scaled}


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class SpeedSampler:
    """Times ``reference_loop`` every ``interval`` seconds, from a timer
    signal, while a round runs, so the samples show how fast the CPU ran
    during that round.  ``away_s`` is the time spent sampling, which every
    time measured in the round leaves out."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.away_s = 0.0

    def _tick(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        self.samples.append(time_reference())
        self.away_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # one more sample, so a round shorter than the interval has one too
        self.samples.append(time_reference())


def import_toruslb() -> SimpleNamespace:
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "toruslb" / "__init__.py").is_file():
        raise SystemExit(f"error: no toruslb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import toruslb
    from toruslb import bounds, evaluate, lpexport, paths, policy, schemes, torus, traffic

    if Path(toruslb.__file__).resolve().parent != SRC / "toruslb":
        raise SystemExit(f"error: imported toruslb from {toruslb.__file__}, not {SRC}")
    modules = (bounds, evaluate, lpexport, paths, policy, schemes, torus, traffic)
    cache_clears = [
        value.cache_clear for module in modules for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    ]
    return SimpleNamespace(
        bounds=bounds, evaluate=evaluate, lpexport=lpexport, paths=paths,
        policy=policy, schemes=schemes, torus=torus, traffic=traffic,
        cache_clears=cache_clears,
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "toy"], default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    lib = import_toruslb()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer
    from workloads import SIZES, WORKLOADS, Pass

    workload = WORKLOADS[args.workload]
    cfg = SIZES[args.size][args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.enabled = False
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        versions = {"python": platform.python_version(), "numpy": sys.modules["numpy"].__version__}
        samples = [time_reference() for _ in range(SETUP_SAMPLES)]
        print(json.dumps({
            "measured": {"setup_s": setup_s},
            "at_reference": {"setup_s": at_reference_speed(setup_s, samples)},
            "versions": versions,
        }))
        return 0

    start = time.monotonic()
    reference = None
    checked: dict = {}
    rounds: list[dict] = []
    while True:
        traced = tracer is not None and reference is not None and (
            sum(r["traced"] for r in rounds) < sum(not r["traced"] for r in rounds)
        )
        sampler = SpeedSampler(SAMPLE_EVERY_S)
        p = Pass(lib, sampler, tracer if traced else None, reference)
        if traced:
            tracer.reset()
            tracer.enabled = True
        with sampler:
            t0 = time.perf_counter()
            p.run(workload, cfg, args.seed)
            wall = time.perf_counter() - t0 - sampler.away_s
        if tracer is not None:
            tracer.enabled = False
        rec = {
            "traced": traced,
            **round_times(wall - p.check_s, p.calls, sampler.samples),
            "check_s": p.check_s,
            "calls": p.calls,
            "attempted": p.attempted,
            "failed": p.failed,
            "answer_failures": p.answer_failures,
            "outside_count": p.outside_count,
            "errors": p.errors,
            "reference_s": sampler.samples,
        }
        if traced:
            rec["layers"] = {
                name: at_reference_speed(value, sampler.samples)
                if name.endswith(("_s", "_us")) else value
                for name, value in tracer.layer_metrics().items()
            }
            if args.spans and sum(r["traced"] for r in rounds) == 0:
                tracer.dump(args.spans)
        if reference is None:
            reference = p.checked()
            checked = rec
            checked["answers"] = p.answers
        else:
            rounds.append(rec)
        now = time.monotonic()
        if now - start > HARD_STOP_S:
            break
        if len(rounds) >= MIN_ROUNDS and now + wall > start + args.seconds:
            break

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checked": checked,
        "rounds": rounds,
        "absent": tracer.absent if tracer is not None else [],
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
