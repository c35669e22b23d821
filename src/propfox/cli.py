"""Command-line front end.

Subcommands mirror the library layers: validate, matrix, delta,
iwasawa-delta, zeros, extend, cohomology, corpus. Every subcommand takes
--json for a machine-readable report with a stable field order; the text
form prints the same data as key: value lines.

Exit codes: 0 success, 1 usage, 2 unreadable or unparsable input, 3 failed
presentation hypotheses, 4 domain errors in the requested computation
(a zero evaluation point, a singular matrix in a representation), 5 corpus
mismatch, 6 out of memory or past the recursion limit (one stderr line
naming the subcommand), 141 standard output closed by its reader.
Internal consistency failures are deliberately not caught: they are bugs and
should produce a traceback.

main(argv) may be called any number of times in one process. The parser is
built on the first call and reused; each handler _cmd_<subcommand> is looked
up by name when it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import corpus
from .cohomology import h1_report, theorem_audit
from .errors import (
    DivisionByZero,
    GoldenMismatch,
    HypothesisViolated,
    InputTooLarge,
    NotInvertible,
    ParseError,
    UsageError,
)
from .extensions import build_extension, cocycle_space, verify_factors
from .fitting import fitting_delta, iwasawa_delta
from .fox import Representation, alexander_matrix, parse_representation
from .laurent import LaurentPoly, coefficient_texts, format_laurent
from .presentation import parse_presentation, validate_presentation
from .scalars import MAX_MODULUS_BITS, format_rational, parse_int, parse_rational
from .zeros import filter_unit_ball, zero_report

SCHEMA_VERSION = 1
# 128 + SIGPIPE: what a shell reports for a writer whose reader went away.
EXIT_CLOSED_OUTPUT = 141
# A computation that ran out of memory or past the recursion limit.
EXIT_EXHAUSTED = 6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = parse_int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: byte {exc.start}: {exc.reason}")


def _load_pres(args):
    return parse_presentation(_read(args.file))


def _load_rep(args, pres) -> Representation:
    if getattr(args, "rep", None):
        return parse_representation(_read(args.rep), pres)
    return Representation.trivial(pres.n_generators)


def _poly_json(f: LaurentPoly) -> dict:
    return {
        "text": format_laurent(f),
        "coefficients": {str(e): text for e, text in coefficient_texts(f)},
    }


def _frac_matrix_json(M) -> list:
    return [[format_rational(x) for x in row] for row in M]


def _laurent_matrix_json(M) -> list:
    return [[format_laurent(x) for x in row] for row in M]


def _inputs(args) -> dict:
    if not hasattr(args, "file"):
        return {"id": args.id}
    inputs = {"presentation": args.file}
    if getattr(args, "rep", None):
        inputs["representation"] = args.rep
    return inputs


def _emit(args, command: str, results, text) -> None:
    """Print the JSON payload of results() under --json, else the lines of
    text(). Each is a function, so only the form that is printed is
    formatted."""
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "inputs": _inputs(args),
            "results": results(),
        }
        print(json.dumps(payload, indent=2))
    else:
        for line in text():
            print(line)


def _cmd_validate(args) -> int:
    pres = _load_pres(args)
    report = validate_presentation(pres)

    def results():
        return {
            "ok": report.ok,
            "alpha_all_one": report.alpha_all_one,
            "relator_degrees": list(report.relator_degrees),
            "failures": list(report.failures),
        }

    def text():
        yield f"prime: {pres.prime}"
        yield f"generators: {' '.join(pres.generators)}"
        yield f"relator degrees: {' '.join(str(d) for d in report.relator_degrees)}"
        yield from ["ok"] if report.ok else report.failures

    _emit(args, "validate", results, text)
    return 0 if report.ok else 3


def _cmd_matrix(args) -> int:
    pres = _load_pres(args)
    rep = _load_rep(args, pres)
    Q = alexander_matrix(pres, rep)

    def results():
        return {
            "rows": Q.n_rows,
            "cols": Q.n_cols,
            "block_dim": Q.block_dim,
            "entries": _laurent_matrix_json(Q.entries),
        }

    def text():
        yield f"shape: {Q.n_rows} x {Q.n_cols} (blocks of {Q.block_dim})"
        for row in Q.entries:
            yield "[" + ", ".join(format_laurent(f) for f in row) + "]"

    _emit(args, "matrix", results, text)
    return 0


def _cmd_delta(args) -> int:
    pres = _load_pres(args)
    rep = _load_rep(args, pres)
    Q = alexander_matrix(pres, rep)
    fit = fitting_delta(Q, args.d)

    def results():
        return {
            "d": args.d,
            "delta": _poly_json(fit.delta),
            "mu_content": fit.mu_content,
            "minor_count": fit.minor_count,
        }

    def text():
        return [
            f"d: {args.d}",
            f"delta: {format_laurent(fit.delta)}",
            f"mu_content: {fit.mu_content}",
            f"minor_count: {fit.minor_count}",
        ]

    _emit(args, "delta", results, text)
    return 0


def _cmd_iwasawa_delta(args) -> int:
    pres = _load_pres(args)
    delta = iwasawa_delta(pres, args.d)
    _emit(
        args,
        "iwasawa-delta",
        lambda: {"d": args.d, "delta": _poly_json(delta)},
        lambda: [f"d: {args.d}", f"delta: {format_laurent(delta)}"],
    )
    return 0


def _cmd_zeros(args) -> int:
    pres = _load_pres(args)
    bits = args.prec * pres.prime.bit_length()
    if bits > MAX_MODULUS_BITS:
        raise UsageError(
            f"--prec {args.prec} at p = {pres.prime} is past the modulus bound: "
            f"--prec times the bit length of p is {bits}, and the limit is {MAX_MODULUS_BITS}"
        )
    rep = _load_rep(args, pres)
    Q = alexander_matrix(pres, rep)
    fit = fitting_delta(Q, args.d)
    report = zero_report(fit.delta, pres.prime, args.prec)
    kept = filter_unit_ball(report)

    def _report_json(r) -> dict:
        return {
            "identically_zero": r.identically_zero,
            "rational": [
                {"value": format_rational(a), "multiplicity": m} for a, m in r.rational
            ],
            "padic": [
                {"residue": res, "modulus_exponent": n} for res, n in r.padic
            ],
            "obstructions": list(r.obstructions),
        }

    def results():
        return {
            "d": args.d,
            "delta": _poly_json(fit.delta),
            "prime": pres.prime,
            "precision": args.prec,
            "all": _report_json(report),
            "unit_ball": _report_json(kept),
        }

    def text():
        yield f"d: {args.d}"
        yield f"delta: {format_laurent(fit.delta)}"
        if report.identically_zero:
            yield "identically zero: every point is a zero"
            return
        yield "rational zeros: " + (
            ", ".join(f"{format_rational(a)} (x{m})" for a, m in report.rational) or "none"
        )
        yield f"p-adic zeros mod {pres.prime}^{args.prec}: " + (
            ", ".join(str(r) for r, _ in report.padic) or "none"
        )
        yield "obstructed residues: " + (
            ", ".join(str(r) for r in report.obstructions) or "none"
        )
        yield "unit ball rational zeros: " + (
            ", ".join(f"{format_rational(a)} (x{m})" for a, m in kept.rational) or "none"
        )
        yield "unit ball p-adic zeros: " + (
            ", ".join(str(r) for r, _ in kept.padic) or "none"
        )

    _emit(args, "zeros", results, text)
    return 0


def _cmd_extend(args) -> int:
    pres = _load_pres(args)
    rep = _load_rep(args, pres)
    space = cocycle_space(pres, rep, args.at)
    if space.dim > 0:
        sample = space.basis[0]
        candidate = build_extension(pres, rep, args.at, sample)
        verification = verify_factors(candidate, pres)

    def results():
        out: dict = {
            "at": format_rational(space.a),
            "dim": space.dim,
            "basis": [[format_rational(x) for x in h.stacked()] for h in space.basis],
        }
        if space.dim > 0:
            out["sample"] = {
                "beta": [format_rational(x) for x in sample.stacked()],
                "images": [_frac_matrix_json(M) for M in candidate.mats],
                "relators": [
                    {"ok": c.ok, "image": _frac_matrix_json(c.image)}
                    for c in verification.relators
                ],
                "verified": verification.ok,
            }
        return out

    def text():
        yield f"at: {format_rational(space.a)}"
        yield f"dim: {space.dim}"
        for i, h in enumerate(space.basis):
            yield f"basis[{i}]: (" + ", ".join(format_rational(x) for x in h.stacked()) + ")"
        if space.dim > 0:
            yield "sample extension from basis[0]:"
            for name, M in zip(pres.generators, candidate.mats):
                yield (
                    f"  {name} -> "
                    + "[" + "; ".join(", ".join(format_rational(x) for x in row) for row in M) + "]"
                )
            for j, c in enumerate(verification.relators, start=1):
                yield f"  relator {j}: {'ok' if c.ok else 'FAIL'}"
            yield f"verified: {'true' if verification.ok else 'false'}"

    _emit(args, "extend", results, text)
    return 0


def _cmd_cohomology(args) -> int:
    pres = _load_pres(args)
    rep = _load_rep(args, pres)
    audit = theorem_audit(pres, rep, args.at)
    coh = h1_report(pres, rep, args.at)

    def results():
        return {
            "at": format_rational(coh.a),
            "z1_dim": coh.z1_dim,
            "b1_dim": coh.b1_dim,
            "h1_dim": coh.h1_dim,
            "fixed_dim": coh.fixed_dim,
            "delta_value_at_a": format_rational(coh.delta_value_at_a),
            "cocycle_basis": [
                [format_rational(x) for x in h.stacked()] for h in coh.cocycle_basis
            ],
            "fixed_basis": [
                [format_rational(x) for x in v] for v in coh.fixed_basis
            ],
            "audit": {
                "forward_applicable": audit.forward_applicable,
                "forward_verdict": audit.forward_verdict,
                "converse_applicable": audit.converse_applicable,
                "converse_verdict": audit.converse_verdict,
                "hypothesis_failures": list(audit.hypothesis_failures),
            },
        }

    def text():
        return [
            f"at: {format_rational(coh.a)}",
            f"cocycles: {coh.z1_dim}",
            f"coboundaries: {coh.b1_dim}",
            f"quotient: {coh.h1_dim}",
            f"fixed space: {coh.fixed_dim}",
            f"divisor value: {format_rational(coh.delta_value_at_a)}",
            f"audit forward: {audit.forward_verdict}",
            f"audit converse: {audit.converse_verdict}",
        ]

    _emit(args, "cohomology", results, text)
    return 0


def _cmd_corpus(args) -> int:
    if args.id is not None and all(e.entry_id != args.id for e in corpus.ENTRIES):
        raise UsageError(f"unknown corpus entry: {args.id}")
    results = corpus.run(args.id)
    ok_count = sum(1 for r in results if r.ok)

    def payload():
        checks = [dataclasses.asdict(r) for r in results]
        return {"checks": checks, "passed": ok_count, "total": len(results)}

    def text():
        for r in results:
            yield f"{r.entry}: {r.name} [{r.source}]: {'ok' if r.ok else 'FAIL'}"
        yield f"{ok_count}/{len(results)} checks passed"

    _emit(args, "corpus", payload, text)
    corpus.ensure(results)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="propfox",
        description=(
            "Exact relation-matrix calculus for weighted group presentations: "
            "determinant divisors, their rational and p-adic zeros, crossed "
            "homomorphisms, representation extensions, and quotient cohomology."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="presentation file")
        p.add_argument("--json", action="store_true", help="JSON output")
        return p

    add("validate", "check the presentation hypotheses")

    p = add("matrix", "print the relation matrix")
    p.add_argument("--rep", help="representation file (default: trivial)")

    p = add("delta", "d-th determinant divisor")
    p.add_argument("--d", type=_int_at_least(0), required=True)
    p.add_argument("--rep", help="representation file (default: trivial)")

    p = add("iwasawa-delta", "divisor in the classical indexing")
    p.add_argument("--d", type=_int_at_least(0), required=True)

    p = add("zeros", "rational and p-adic zeros of a divisor")
    p.add_argument("--d", type=_int_at_least(0), required=True)
    p.add_argument("--rep", help="representation file (default: trivial)")
    p.add_argument(
        "--prec", type=_int_at_least(1), default=8, help="p-adic precision exponent"
    )

    p = add("extend", "crossed homomorphisms and a sample extension")
    p.add_argument("--at", type=_rational_arg, required=True, help="evaluation point")
    p.add_argument("--rep", help="representation file (default: trivial)")

    p = add("cohomology", "quotient cohomology and the audit")
    p.add_argument("--at", type=_rational_arg, required=True, help="evaluation point")
    p.add_argument("--rep", help="representation file (default: trivial)")

    p = sub.add_parser("corpus", help="recompute the bundled examples")
    p.add_argument("action", choices=["run"])
    p.add_argument("--id", help="run a single corpus entry")
    p.add_argument("--json", action="store_true", help="JSON output")

    return parser


@cache
def _parser() -> _Parser:
    return build_parser()


def main(argv=None) -> int:
    # exact answers can run past Python's default 4300-digit int-to-str limit:
    # lift it for this call (input literals keep scalars.MAX_LITERAL_DIGITS)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    command = None
    try:
        args = _parser().parse_args(argv)
        command = args.command
        code = globals()["_cmd_" + command.replace("-", "_")](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output. Nothing is left to report, and
        # the interpreter's last flush goes to the null device instead of
        # printing a second error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_OUTPUT
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InputTooLarge as exc:
        print(f"input too large: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 3
    except (DivisionByZero, NotInvertible) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 4
    except GoldenMismatch as exc:
        print(f"corpus mismatch: {exc}", file=sys.stderr)
        return 5
    except (MemoryError, RecursionError) as exc:
        what = "ran out of memory" if isinstance(exc, MemoryError) else "passed the recursion limit"
        print(f"resources exhausted: {command or 'propfox'} {what}", file=sys.stderr)
        return EXIT_EXHAUSTED
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
