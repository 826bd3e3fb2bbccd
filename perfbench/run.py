"""polylat benchmark: closed-loop user-level requests, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one thread sends the next request when the previous one has
returned.  Inputs come from the seed alone and are built outside the timed
region; every answer is checked by ``checks``/``workloads`` afterwards.

``--trace 0`` runs whole rounds until the requests have taken ``--seconds``
of service time and reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs round 0 three times: to warm up, untraced and traced.
It reports the per-layer metrics of the traced pass; their counts depend on
the seed alone.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` next to this directory; without it the run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_EVERY_S = 0.5
PROBE_DUTY = 0.1
MIN_REQUESTS = 100  # so that p90 has at least ten samples beyond it
PROBE_REF_S = 0.0025

# fresh interpreter (-I: no environment, no user site, no script directory)
# that imports polylat from SRC, then runs the speed probe, and prints both
# times
_SETUP_CODE = """\
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import polylat
dt = time.perf_counter() - t
if not polylat.__file__.startswith(sys.argv[1]):
    sys.exit("polylat imported from " + polylat.__file__)
sys.path.insert(0, sys.argv[2])
from run import probe_seconds
print(dt, statistics.median(probe_seconds() for _ in range(5)))
"""


def import_seconds() -> float:
    """Seconds to ``import polylat`` (which builds DEFAULT_RULEBASE) in a
    fresh interpreter, scaled by the speed probe run in that interpreter
    right after the import."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC),
         str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, timeout=120, check=True)
    seconds, probe = map(float, done.stdout.split())
    return seconds * PROBE_REF_S / probe


def serve(reqs, tracer=None, after=None):
    """Send each request, time it, call ``after(latency)``, check the answer.

    Returns (latency of each request, None where it raised; failure
    messages).
    """
    latencies, failures = [], []
    for req in reqs:
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            out = req.run()
        except Exception:
            latencies.append(None)
            failures.append(f"{req.label}: {traceback.format_exc(limit=3)}")
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        latencies.append(perf_counter() - t0)
        if after is not None:
            after(latencies[-1])
        try:
            msg = req.check(out)
        except Exception:
            msg = traceback.format_exc(limit=3)
        if msg:
            failures.append(f"{req.label}: {msg}")
    return latencies, failures


_MASKS = [(i * 2654435761) & ((1 << 60) - 1) for i in range(120)]


def probe_seconds() -> float:
    """Time of a fixed piece of work, the machine-speed probe: Fraction
    arithmetic and integer bitmask tests, the two kinds of work polylat's
    kernels are made of."""
    t0 = perf_counter()
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(i % 7 + 1, i % 97 + 1)
    for a in _MASKS:
        for b in _MASKS[:30]:
            if not a & ~b:
                s += 1
    return perf_counter() - t0


def timed_run(workload, seconds):
    """Whole rounds until the requests have taken ``seconds`` of service time
    and there have been at least MIN_REQUESTS.

    After each request the speed probe runs until its total time reaches
    PROBE_DUTY of the request time (at least once).  A request's time is
    scaled by PROBE_REF_S / (mean probe time around it: the probes just
    before and just after it), so it reads as on a machine where the probe
    takes PROBE_REF_S.  Set-up time is sampled about every SETUP_EVERY_S
    seconds and scaled by a probe in the same interpreter; a first import,
    before any sample, writes the bytecode cache, so samples run with it
    warm.
    """
    import_seconds()
    setup = [import_seconds()]
    last_setup = perf_counter()
    probes = [probe_seconds()]
    scaled = []
    before = probes[0]

    def after(latency):
        nonlocal before, last_setup
        first, spent = len(probes), 0.0
        while spent < PROBE_DUTY * latency or len(probes) == first:
            probes.append(probe_seconds())
            spent += probes[-1]
        now = spent / (len(probes) - first)
        scaled.append(latency * PROBE_REF_S / ((before + now) / 2))
        before = now
        if perf_counter() - last_setup >= SETUP_EVERY_S:
            setup.append(import_seconds())
            last_setup = perf_counter()

    failures, attempted, rounds, total = [], 0, 0, 0.0
    while total < seconds or attempted < MIN_REQUESTS:
        lat, fail = serve(workload.round(rounds), after=after)
        failures += fail
        attempted += len(lat)
        rounds += 1
        total += sum(x for x in lat if x is not None)
    p50, p90 = (statistics.quantiles(scaled, n=10, method="inclusive")[i]
                for i in (4, 8))
    metrics = {
        "setup_s": statistics.median(setup),
        "requests_per_s": len(scaled) / sum(scaled),
        "req_p50_ms": 1000 * p50,
        "req_p90_ms": 1000 * p90,
    }
    info = {"rounds": rounds, "requests": attempted,
            "service_s": round(total, 3), "probes": len(probes),
            "speed": round(PROBE_REF_S / statistics.fmean(probes), 3),
            "setup_samples": len(setup), "bytecode_cache": "warm"}
    return metrics, attempted, failures, info


def traced_run(workload, must_fire):
    from spans import Tracer

    _, failures = serve(workload.round(0))  # warm-up, checked
    reqs = workload.round(0)
    plain, fail = serve(reqs)
    failures += fail
    tracer = Tracer()
    tracer.install()
    try:
        traced, fail = serve(workload.round(0), tracer)
    finally:
        tracer.uninstall()
    failures += fail
    stats = tracer.stats
    stats["trace.requests"] = len(traced)
    stats["trace.overhead_frac"] = (sum(x or 0 for x in traced)
                                    / sum(x or 0 for x in plain) - 1)
    scanned = stats["latticecore.box.scanned"]
    stats["latticecore.box.keep_ratio"] = (
        stats["latticecore.box.kept"] / scanned if scanned else 0.0)
    silent = [f"span count {name} is zero on this workload"
              for name in must_fire if not stats.get(name)]
    return stats, 3 * len(reqs), failures, silent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polylat" / "__init__.py").is_file():
        print(f"error: no polylat sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import polylat
    if not polylat.__file__.startswith(str(SRC)):
        print(f"error: polylat imported from {polylat.__file__}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = workloads.Workload(args.workload, args.seed, str(ROOT),
                                      workdir)
        digest = hashlib.sha256(repr([(r.label, r.inputs) for r in
                                      workload.round(0)]).replace(
            workdir, "<workdir>").encode())
        if args.trace:
            values, attempted, failures, silent = traced_run(
                workload, workloads.MUST_FIRE[args.workload])
            wanted = spec["per_layer"]
            info = {}
        else:
            values, attempted, failures, info = timed_run(workload,
                                                          args.seconds)
            silent = []
            values["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in failures[:20] + silent:
        print("FAILED", msg)
    info.update(workload=args.workload, seed=args.seed,
                inputs_sha256=digest.hexdigest()[:16], attempted=attempted,
                failed=len(failures),
                failed_frac=len(failures) / max(attempted, 1))
    print(json.dumps(info))
    metrics = {}
    for m in wanted:  # a count that never fired is 0; a timing must exist
        value = values[m["name"]] if not args.trace else values.get(
            m["name"], 0)
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
        print(f'{m["name"]:40s} {metrics[m["name"]]["value"]:14.6g} '
              f'{m["unit"]}')
    print(json.dumps({"correct": not (failures or silent),
                      "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
