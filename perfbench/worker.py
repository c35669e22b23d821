"""One benchmark worker: a fresh interpreter that runs a batch of requests
in a closed loop and reports what it measured as one JSON object on stdout.

Run by run.py as ``python3 perfbench/worker.py SPAWN_TIME`` with the job as
JSON on stdin and ``src`` on PYTHONPATH. SPAWN_TIME is the parent's
time.monotonic() just before the spawn; both processes read the same
system-wide clock, so the worker can report its own set-up time.

Each request runs under a per-request time limit taken on this process
(a real-time interval timer); a request that hits it is recorded as
"timeout". Every answer is checked; a request fails on an exception, a wrong
answer or the time limit, and a failure is never dropped. Before each
request the worker times a fixed calibration loop, from which run.py scales
its times to a nominal machine speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import propfox
from propfox import cli, corpus
from propfox.fitting import fitting_delta
from workloads import digest

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


class RequestTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program can swallow it."""


class CheckFailed(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout()


class Tracer:
    """Calls into the program's layers, timed as spans when tracing is on.

    A span is (request id, layer, function, start, end, counts), where
    counts maps metric names to work done in the call. Spans stay in memory
    until the worker ends. Counts are worked out from a call's result only
    when tracing, so they belong to the tracing overhead."""

    def __init__(self, on: bool):
        self.on = on
        self.request = "setup"
        self.spans: list[tuple] = []

    def call(self, layer: str, fn, *args, counts=None):
        if not self.on:
            return fn(*args)
        start = time.perf_counter()
        out = None
        try:
            out = fn(*args)
            return out
        finally:
            end = time.perf_counter()
            extra = counts(out, *args) if counts and out is not None else {}
            self.spans.append((self.request, layer, fn.__name__, start, end, extra))

    def note(self, counts: dict) -> None:
        """Add counts read from a result to the span that produced it."""
        if self.on:
            self.spans[-1][5].update(counts)


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _cli(tr: Tracer, argv: list[str]) -> tuple[int, str]:
    """propfox.cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()

    def main(argv):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(argv)

    code = tr.call("cli", main, argv, counts=lambda c, _: {"cli.bytes_out": len(out.getvalue())})
    return code, out.getvalue()


def _cli_checked(tr: Tracer, argv: list[str]) -> dict:
    """Run one CLI call; it must exit 0 and its results must match the
    digest pinned for it."""
    code, text = _cli(tr, argv)
    _check(code == 0, f"exit code {code}")
    payload = json.loads(text)
    want = EXPECTED["cli"].get(" ".join(argv))
    _check(want is not None, "no pinned digest")
    _check(digest(payload["results"]) == want, "results digest differs")
    return payload


# -- corpus ------------------------------------------------------------------


def _corpus_entry(tr: Tracer, req: dict) -> None:
    payload = _cli_checked(tr, ["corpus", "run", "--id", req["id"], "--json"])
    res = payload["results"]
    tr.note({"corpus.checks": res["total"], "corpus.passed": res["passed"]})
    _check(res["passed"] == res["total"], f"{res['passed']}/{res['total']} checks")


def _library(tr: Tracer, req: dict) -> None:
    summary = library_summary(tr)
    _check(digest(summary) == EXPECTED["library"], "library summary differs")


def library_summary(tr: Tracer | None = None) -> list:
    """The README's library example, then quotient cohomology and the audit
    at the same zero; returns what they computed."""
    tr = tr or Tracer(False)
    text = (Path(propfox.__file__).parent / "corpus_data" / "eg41.pres").read_text()
    pres = tr.call("presentation", propfox.parse_presentation, text, counts=_syllables)
    _check(tr.call("presentation", propfox.validate_presentation, pres).ok, "validate")
    Q = tr.call("fox", propfox.alexander_matrix, pres, counts=_matrix_counts)
    fit = tr.call("fitting", fitting_delta, Q, 1, counts=_minors)
    report = tr.call("zeros", propfox.zero_report, fit.delta, pres.prime, 8, counts=_zero_counts)
    phi = propfox.Representation.trivial(pres.n_generators)
    space = tr.call("extensions", propfox.cocycle_space, pres, phi, Fraction(4))
    cand = tr.call("extensions", propfox.build_extension, pres, phi, Fraction(4), space.basis[0])
    ver = tr.call("extensions", propfox.verify_factors, cand, pres, counts=_verified)
    coh = tr.call("cohomology", propfox.h1_report, pres, phi, Fraction(4))
    audit = tr.call("cohomology", propfox.theorem_audit, pres, phi, Fraction(4), counts=_audited)
    return [
        propfox.format_laurent(fit.delta),
        fit.minor_count,
        [str(a) for a, _ in report.rational],
        space.dim,
        ver.ok,
        coh.h1_dim,
        audit.verdict,
    ]


# -- synthetic ---------------------------------------------------------------


def _syllables(pres, _text):
    n = sum(len(r.left.syllables) + len(r.right.syllables) for r in pres.relators)
    return {"presentation.syllables": n}


def _matrix_counts(Q, *_):
    return {
        "fox.entries": Q.n_rows * Q.n_cols,
        "fox.terms": sum(len(f.terms) for row in Q.entries for f in row),
    }


def _minors(fit, *_):
    return {"fitting.minors": fit.minor_count}


def _zero_counts(report, delta, *_):
    return {
        "zeros.delta_degree": 0 if delta.is_zero() else delta.max_exp() - delta.min_exp(),
        "zeros.padic_roots": len(report.padic),
        "zeros.obstructions": len(report.obstructions),
    }


def _verified(report, *_):
    return {"extensions.verified": int(report.ok), "extensions.verify_calls": 1}


def _audited(audit, *_):
    return {"cohomology.audit_applicable": int(audit.forward_applicable), "cohomology.audits": 1}


def _load(tr: Tracer, req: dict):
    pres = tr.call("presentation", propfox.parse_presentation, req["pres"], counts=_syllables)
    _check(tr.call("presentation", propfox.validate_presentation, pres).ok, "hypotheses")
    if req["rep"] is None:
        phi = propfox.Representation.trivial(pres.n_generators)
    else:
        phi = tr.call("fox", propfox.parse_representation, req["rep"], pres)
    Q = tr.call("fox", propfox.alexander_matrix, pres, phi, counts=_matrix_counts)
    return pres, phi, Q


def _check_zeros(tr: Tracer, req: dict, pres, Q, delta):
    """Each planted zero is a rational zero with at least its planted
    multiplicity, and is_zero_of_delta says yes there and no at a control
    point. Returns the zero report."""
    ell = req["ell"]
    report = tr.call(
        "zeros", propfox.zero_report, delta, pres.prime, req.get("prec", 8), counts=_zero_counts
    )
    found = dict(report.rational)
    for z, m in req["planted"]:
        z = Fraction(z)
        _check(found.get(z, 0) >= m, f"planted zero {z} (x{m}) missing")
        _check(tr.call("fitting", propfox.is_zero_of_delta, Q, ell, z), f"no rank drop at {z}")
    control = next(Fraction(c) for c in range(2, 100) if Fraction(c) not in found)
    _check(not tr.call("fitting", propfox.is_zero_of_delta, Q, ell, control), "control point")
    return report


def _extend(tr: Tracer, pres, phi, a: Fraction) -> None:
    """The extension built from a crossed homomorphism at a zero of the
    divisor kills every relator."""
    space = tr.call("extensions", propfox.cocycle_space, pres, phi, a)
    _check(space.dim > 0, f"no crossed homomorphism at {a}")
    cand = tr.call("extensions", propfox.build_extension, pres, phi, a, space.basis[0])
    _check(tr.call("extensions", propfox.verify_factors, cand, pres, counts=_verified).ok, "verify")


def _divisor_chain(tr: Tracer, req: dict) -> None:
    """delta_d for every d; the chain must divide downwards."""
    pres, phi, Q = _load(tr, req)
    deltas = [
        tr.call("fitting", fitting_delta, Q, d, counts=_minors).delta for d in range(Q.n_cols + 1)
    ]
    for d in range(Q.n_cols):
        _check(propfox.laurent_divides(deltas[d + 1], deltas[d]), f"chain breaks at d={d}")
    _check(all(f.is_zero() for f in deltas[: req["ell"]]), "divisor below d=l is not 0")
    _check_zeros(tr, req, pres, Q, deltas[req["ell"]])
    _extend(tr, pres, phi, Fraction(req["planted"][0][0]))


def _point_queries(tr: Tracer, req: dict) -> None:
    """delta_l and its zeros, then the full point pipeline at every rational
    zero in the unit ball."""
    pres, phi, Q = _load(tr, req)
    fit = tr.call("fitting", fitting_delta, Q, req["ell"], counts=_minors)
    report = _check_zeros(tr, req, pres, Q, fit.delta)
    kept = tr.call("zeros", propfox.filter_unit_ball, report)
    inside = dict(kept.rational)
    _check(all(Fraction(z) in inside for z, _ in req["planted"]), "planted zero outside the ball")
    for a in inside:
        _extend(tr, pres, phi, a)
        coh = tr.call("cohomology", propfox.h1_report, pres, phi, a)
        _check(coh.delta_value_at_a == 0 and coh.h1_dim > 0, f"h1 at {a}")
        audit = tr.call("cohomology", propfox.theorem_audit, pres, phi, a, counts=_audited)
        _check(audit.forward_applicable and audit.delta_zero, f"audit at {a}")


def _long_words(tr: Tracer, req: dict) -> None:
    pres, phi, Q = _load(tr, req)
    fit = tr.call("fitting", fitting_delta, Q, 1, counts=_minors)
    _check_zeros(tr, req, pres, Q, fit.delta)
    _extend(tr, pres, phi, Fraction(req["planted"][0][0]))


HANDLERS = {
    "corpus-entry": _corpus_entry,
    "cli": lambda tr, req: _cli_checked(tr, req["argv"]),
    "library": _library,
    "divisor-chain": _divisor_chain,
    "point-queries": _point_queries,
    "long-words": _long_words,
}

# Run once before the timed loop of a synthetic batch, untimed: the README's
# library example and a pinned corpus entry through the CLI. Every worker
# first proves that the program it times still gives the pinned answers, and
# every layer is called at least this once on every workload.
CANARY = ({"kind": "library"}, {"kind": "corpus-entry", "id": "eg-4.3-p5"})


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work shaped like the
    program's own, Fraction arithmetic accumulated in a dict, about 5 ms.
    It does not touch the program, so only the machine's speed moves it."""
    start = time.perf_counter()
    terms: dict[int, Fraction] = {}
    for i in range(1000):
        k = i % 64
        terms[k] = terms.get(k, 0) + Fraction(i % 17 + 1, i % 19 + 1) * Fraction(i % 7 + 1, i % 5 + 1)
    return time.perf_counter() - start


def run_one(tr: Tracer, req: dict, limit: float) -> tuple[str, float]:
    """Run a request under the time limit: (status, seconds)."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        HANDLERS[req["kind"]](tr, req)
        status = "ok"
    except RequestTimeout:
        status = "timeout"
    except CheckFailed as exc:
        status = f"wrong: {exc}"
    except Exception as exc:  # a crash in the program is a failed request
        status = f"error: {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, time.perf_counter() - start


def main() -> int:
    spawn = float(sys.argv[1])
    job = json.loads(sys.stdin.read())
    tr = Tracer(job["trace"])
    for name in ("eg41.pres", "eg42.pres", "eg43.pres", "eg43split.pres"):
        tr.call("corpus", corpus.load_presentation, name)
    setup = time.monotonic() - spawn
    signal.signal(signal.SIGALRM, _on_alarm)
    canary = None
    if job["canary"]:
        tr.request = "canary"
        statuses = [run_one(tr, req, job["limit"])[0] for req in CANARY]
        canary = next((st for st in statuses if st != "ok"), "ok")
    info = fitting_delta.cache_info()
    hits, misses = info.hits, info.misses
    # The calibration sample before each request shares this process's
    # processor and moment with the request it precedes.
    results, cal = [], []
    for req in job["requests"]:
        tr.request = len(results)
        cal.append(calibrate())
        results.append(run_one(tr, req, job["limit"]))
    info = fitting_delta.cache_info()
    out = {
        "setup_s": setup,
        "canary": canary,
        "cal_s": cal,
        "results": results,
        "cache_hits": info.hits - hits,
        "cache_misses": info.misses - misses,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tr.spans,
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
