"""The propfox benchmark: one command, standard library only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``. The
workload's requests are generated from the seed (perfbench/workloads.py)
and run in a closed loop by one client: the next request starts when the
previous one has finished. The requests run in fresh worker interpreters
(perfbench/worker.py), a batch per worker, one worker at a time, with
PROPFOX_THREADS unset. A corpus batch is one pass over the corpus, so
fitting_delta's cache never carries from one pass to the next, which is also
how a user of ``propfox corpus run`` meets it.

With ``--trace 0`` the run measures the end-to-end metrics. With
``--trace 1`` every batch runs twice, untraced and traced, on the same
inputs in alternating order; the traced worker records a span around each of
the benchmark's calls into the program's layers, the per-layer metrics come
from those spans, and the tracing overhead is the traced latency over the
untraced latency of the same requests, minus one. The spans are written to
``.perfbench-out/`` when the run ends.

Times are reported at a nominal machine speed: before each request the
worker times a fixed calibration loop, and its times are scaled by
NOMINAL_CAL_S over the median of those samples (see perfbench/README.md).

Every answer is checked (see worker.py). The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it print every metric by name with its unit, the figures as run, and
the platform.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Per-request time limit, taken in the worker; a request that hits it fails.
LIMIT_S = 30.0
# A run measures whole batches, at least workloads.MIN_BATCHES of them, and
# starts no batch after --seconds have passed or HARD_STOP_S after it began.
# A worker still running LIMIT_S after the hard stop is killed, so a run ends
# within 180 s even when the program hangs.
HARD_STOP_S = 110.0
# Fresh CLI processes timed after each batch.
COLD_PER_BATCH = 2
# The time of the worker's calibration work at the nominal machine speed.
# Times are reported at that speed: a worker's times are scaled by
# NOMINAL_CAL_S over the median of the calibration samples it took, one
# before each request. On a shared host the machine's speed drifts by a
# fifth or more over minutes, and that drift, not the program, would
# otherwise set the spread between runs.
NOMINAL_CAL_S = 0.008

EXPECTED = json.loads((HERE / "expected.json").read_text())["cli"][" ".join(workloads.COLD_CLI)]

LAYERS = ("presentation", "fox", "fitting", "zeros", "extensions", "cohomology", "cli", "corpus")


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PROPFOX_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(job: dict, stop: float) -> dict:
    """Run one batch in a fresh interpreter. A worker that dies, or is still
    running at `stop`, counts as one failed request."""
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), repr(spawn)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=worker_env(),
        text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(dict(job, limit=LIMIT_S)), timeout=stop - spawn)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"died": "worker killed at the run's hard stop"}
    if proc.returncode != 0:
        return {"died": f"worker exit {proc.returncode}: {err.strip()[-500:]}"}
    return json.loads(out.splitlines()[-1])


def cold_cli() -> tuple[float, bool]:
    """Wall time of one fresh ``python -m propfox.cli`` process, and whether
    its results match the pinned digest."""
    argv = workloads.COLD_CLI
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "propfox.cli", *argv],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except subprocess.TimeoutExpired:
        return 5.0, False
    secs = time.monotonic() - start
    ok = proc.returncode == 0 and workloads.digest(json.loads(proc.stdout)["results"]) == EXPECTED
    return secs, ok


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run whole batches until the time is up. Returns the workers' reports,
    split into untraced and traced, and the samples taken between them."""
    start = time.monotonic()
    stop = start + HARD_STOP_S + LIMIT_S
    plain, traced, cold = [], [], []
    canary = workload != "corpus"
    b = 0
    while b < workloads.MIN_BATCHES[workload] or time.monotonic() < start + seconds:
        if time.monotonic() >= start + HARD_STOP_S:
            break
        job = {"requests": workloads.batch(workload, seed, b), "canary": canary, "trace": False}
        if not trace:
            plain.append(run_worker(job, stop))
        else:
            # Same inputs both ways, alternating which runs first.
            for on in (False, True) if b % 2 == 0 else (True, False):
                (traced if on else plain).append(run_worker(dict(job, trace=on), stop))
        b += 1
        cold += [cold_cli() for _ in range(COLD_PER_BATCH)]
    for rep in plain + traced:
        if "died" not in rep:
            rep["scale"] = NOMINAL_CAL_S / statistics.median(rep["cal_s"])
    return {"plain": plain, "traced": traced, "cold": cold}


def percentile(xs: list[float], q: float) -> float:
    """The q-th percentile by linear interpolation between order statistics."""
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tally(reports: list[dict], scaled: bool) -> dict:
    """Latencies, failures and set-up figures over a list of worker reports,
    scaled to the nominal machine speed or as run."""
    lat, fails, setups, rss, scales = [], [], [], [], []
    busy = 0.0
    for rep in reports:
        if "died" in rep:
            fails.append(rep["died"])
            continue
        if rep["canary"] not in (None, "ok"):
            fails.append(f"canary: {rep['canary']}")
        k = rep["scale"] if scaled else 1.0
        scales.append(k)
        setups.append(rep["setup_s"] * k)
        rss.append(rep["peak_rss_mb"])
        for status, secs in rep["results"]:
            busy += secs * k
            if status == "ok":
                lat.append(secs * k)
            else:
                fails.append(status)
    return {"lat": lat, "fails": fails, "setups": setups, "rss": rss, "busy": busy,
            "scale": _median(scales) or 1.0}


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def end_to_end(t: dict, cold: list[float], q: int) -> dict:
    attempted = len(t["lat"]) + len(t["fails"])
    # A failed request misses every latency target: it counts at the limit.
    lat = t["lat"] + [LIMIT_S] * len(t["fails"])
    return {
        "req_p50_s": (percentile(lat, 50) if lat else 0.0, "s"),
        "req_tail_s": (percentile(lat, q) if lat else 0.0, "s"),
        "throughput_rps": (len(t["lat"]) / t["busy"] if t["busy"] else 0.0, "1/s"),
        "answered_frac": (len(t["lat"]) / attempted if attempted else 0.0, "ratio"),
        "setup_s": (_median(t["setups"]), "s"),
        "peak_rss_mb": (_median(t["rss"]), "MB"),
        # Fresh processes, on whichever processor: scaled by the run's median.
        "cli_cold_s": (_median(cold) * t["scale"], "s"),
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    """Per-request layer figures from the spans of the traced workers, times
    at the nominal machine speed."""
    busy = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    counts: dict[str, float] = {}
    hits = misses = 0
    n_req = 0
    for rep in traced:
        if "died" in rep:
            continue
        n_req += len(rep["results"])
        hits += rep["cache_hits"]
        misses += rep["cache_misses"]
        for _req, layer, _fn, start, end, extra in rep["spans"]:
            busy[layer] += (end - start) * rep["scale"]
            calls[layer] += 1
            for k, v in extra.items():
                counts[k] = counts.get(k, 0) + v
    n = max(n_req, 1)

    def ratio(a: str, b: str) -> float:
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = (busy[layer] / n, "s/req")
        out[f"{layer}.calls"] = (calls[layer] / n, "1/req")
    for key in (
        "presentation.syllables",
        "fox.entries",
        "fox.terms",
        "fitting.minors",
        "zeros.delta_degree",
        "zeros.padic_roots",
        "zeros.obstructions",
        "cli.bytes_out",
    ):
        out[key] = (counts.get(key, 0) / n, "1/req")
    out["fitting.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["extensions.verified_ratio"] = (
        ratio("extensions.verified", "extensions.verify_calls"),
        "ratio",
    )
    out["cohomology.audit_applicable_ratio"] = (
        ratio("cohomology.audit_applicable", "cohomology.audits"),
        "ratio",
    )
    out["corpus.checks_passed_ratio"] = (ratio("corpus.passed", "corpus.checks"), "ratio")
    # Paired requests: the same inputs, untraced and traced.
    t_sum = sum(s * r["scale"] for r in traced if "died" not in r for _, s in r["results"])
    p_sum = sum(s * r["scale"] for r in plain if "died" not in r for _, s in r["results"])
    out["trace.overhead_frac"] = (t_sum / p_sum - 1 if p_sum else 0.0, "ratio")
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def write_trace(workload: str, seed: int, traced: list[dict], metrics: dict) -> Path:
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-{seed}.json"
    spans = []
    for w, rep in enumerate(traced):
        for req, layer, fn, start, end, extra in rep.get("spans", ()):
            spans.append(
                {
                    "worker": w,
                    "request": req,
                    "name": f"{layer}.{fn}",
                    "start": start,
                    "end": end,
                    "counts": extra,
                }
            )
    doc = {
        "workload": workload,
        "seed": seed,
        "environment": environment(),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": spans,
    }
    path.write_text(json.dumps(doc) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "propfox" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'propfox'} is missing", file=sys.stderr)
        return 2

    env = environment()
    print(f"environment: python {env['python']}, nproc {env['nproc']}, {env['platform']}")
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}")
    runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    cold = runs["cold"]

    t = tally(runs["plain"] + runs["traced"], scaled=True)
    # The cold CLI processes are checked too; they count as attempted.
    fails = t["fails"] + ["cold cli: wrong answer"] * sum(not ok for _, ok in cold)
    attempted = len(t["lat"]) + len(t["fails"]) + len(cold)
    if args.trace:
        metrics = per_layer(runs["traced"], runs["plain"])
        path = write_trace(args.workload, args.seed, runs["traced"], metrics)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        q = workloads.TAIL[args.workload]
        metrics = end_to_end(t, [s for s, _ in cold], q)
        as_run = end_to_end(tally(runs["plain"], scaled=False), [s for s, _ in cold], q)
        print(f"machine speed: times are scaled by {t['scale']} (median) to the nominal speed")
        beyond = sum(x > metrics["req_tail_s"][0] for x in t["lat"]) + len(t["fails"])
        timed = len(t["lat"]) + len(t["fails"])
        print(f"requests: {timed}; tail: p{q}, with {beyond} requests beyond it; "
              f"failed_frac: {len(t['fails']) / timed} ratio")
    for reason in sorted(set(fails)):
        print(f"failed x{fails.count(reason)}: {reason}")
    for name, (value, unit) in metrics.items():
        raw = f" (as run: {as_run[name][0]} {unit})" if not args.trace else ""
        print(f"{name}: {value} {unit}{raw}")
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": len(fails),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
