"""The command line front end: output shapes, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import propfox
from propfox import cli


def data_path(name: str) -> str:
    return str(resources.files("propfox") / "corpus_data" / name)


EG41 = data_path("eg41.pres")
EG43 = data_path("eg43.pres")
EG44 = data_path("eg44.rep")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli_env():
    env = dict(os.environ)
    src = str(Path(propfox.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli_process(*argv, flags=(), timeout=120):
    """The CLI in a fresh interpreter, with the default int-to-str limit."""
    return subprocess.run(
        [sys.executable, *flags, "-m", "propfox.cli", *argv],
        env=_cli_env(),
        capture_output=True,
        timeout=timeout,
    )


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", EG41)
    assert code == 0
    assert "ok" in out


def test_validate_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pres"
    bad.write_text("prime 3\ngenerators a\nrelator a\n")
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 3
    assert "relator 1 has total degree 1" in out


def test_delta_text(capsys):
    code, out, _ = run_cli(capsys, "delta", EG41, "--d", "1")
    assert code == 0
    assert "g - 4" in out


def test_delta_json_schema(capsys):
    code, out, _ = run_cli(capsys, "delta", EG41, "--d", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "delta"
    assert payload["inputs"]["presentation"] == EG41
    assert payload["results"]["delta"]["text"] == "g - 4"
    assert payload["results"]["delta"]["coefficients"] == {"0": "-4", "1": "1"}
    assert payload["results"]["mu_content"] == 0
    assert payload["results"]["minor_count"] == 18


# Hostile inputs to the row-set fold, whose scan passes C(rows, r) row sets
# before its exit: no answer within 60 s when every row set before the
# exit's was eliminated on its own.
HOSTILE_FOLD_COUNTS = [("dup10.pres", 2_217_061), ("zr30.pres", 37_913_543_605), ("pw25.pres", 855_031)]


@pytest.mark.parametrize("name, minor_count", HOSTILE_FOLD_COUNTS)
def test_row_set_fold_probes_answer_in_bounded_time(name, minor_count):
    path = Path(__file__).parent / "data" / name
    proc = run_cli_process("delta", str(path), "--d", "1", "--json", timeout=30)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert (results["delta"]["text"], results["mu_content"]) == ("1", 0)
    assert results["minor_count"] == minor_count


def test_json_identical_under_optimize_flag():
    """python -O strips assert statements; the output must not depend on
    them."""
    argv = ["delta", EG41, "--d", "2", "--rep", EG44, "--json"]
    plain, optimized = [run_cli_process(*argv, flags=flags) for flags in ([], ["-O"])]
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
    assert json.loads(plain.stdout)["results"]["d"] == 2


def test_matrix_output(capsys):
    code, out, _ = run_cli(capsys, "matrix", EG41)
    assert code == 0
    assert "4 x 3" in out
    assert "[-9, 9, 0]" in out


def test_matrix_with_rep(capsys):
    code, out, _ = run_cli(capsys, "matrix", EG41, "--rep", EG44, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["rows"] == 8
    assert payload["results"]["cols"] == 6


def test_zeros_output(capsys):
    code, out, _ = run_cli(capsys, "zeros", EG41, "--d", "1")
    assert code == 0
    assert "rational zeros: 4" in out
    assert "unit ball" in out


def test_zeros_json(capsys):
    code, out, _ = run_cli(capsys, "zeros", EG43, "--d", "1", "--prec", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["all"]["rational"] == []
    assert payload["results"]["all"]["obstructions"] == [1]
    assert payload["results"]["precision"] == 6


def test_extend_output(capsys):
    code, out, _ = run_cli(capsys, "extend", EG41, "--at", "4")
    assert code == 0
    assert "dim: 2" in out
    assert "verified: true" in out
    assert "relator 4: ok" in out


def test_cohomology_output(capsys):
    code, out, _ = run_cli(capsys, "cohomology", EG41, "--rep", EG44, "--at", "1")
    assert code == 0
    assert "cocycles: 3" in out
    assert "coboundaries: 1" in out
    assert "quotient: 2" in out
    assert "audit forward: consistent" in out


@pytest.fixture
def free_pres(tmp_path):
    path = tmp_path / "free.pres"
    path.write_text("prime 3\ngenerators a b\n")
    return str(path)


def test_extend_without_relators(capsys, free_pres):
    code, out, _ = run_cli(capsys, "extend", free_pres, "--at", "4", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["dim"] == 2
    assert results["sample"]["verified"] is True


def test_cohomology_without_relators(capsys, free_pres):
    code, out, _ = run_cli(capsys, "cohomology", free_pres, "--at", "4", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert (results["z1_dim"], results["b1_dim"], results["h1_dim"]) == (2, 1, 1)
    assert results["audit"]["forward_verdict"] == "consistent"
    assert results["audit"]["converse_verdict"] == "consistent"
    assert results["audit"]["hypothesis_failures"] == []


def test_iwasawa_delta(capsys):
    code, out, _ = run_cli(capsys, "iwasawa-delta", EG41, "--d", "0")
    assert code == 0
    assert "g - 4" in out


def test_corpus_run(capsys):
    code, out, _ = run_cli(capsys, "corpus", "run", "--id", "eg-4.1-p3")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


# SHA-256 of the full `propfox corpus run --json` output: every corpus value,
# the field order and the formatting, pinned byte for byte.
CORPUS_JSON_SHA256 = "aabd9c8c748fb8200e025552bc7ac1d1bdf983729b07a7e7076b17ec1e38cda2"


def test_corpus_run_json_bytes_are_pinned(capsys):
    code, out, _ = run_cli(capsys, "corpus", "run", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CORPUS_JSON_SHA256


def test_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "delta", EG41)
    assert code == 1

    code, _, err = run_cli(capsys, "delta", str(tmp_path / "missing.pres"), "--d", "1")
    assert code == 2

    syntactically_bad = tmp_path / "syn.pres"
    syntactically_bad.write_text("prime 3\ngenerators a\nrelator a*(\n")
    code, _, err = run_cli(capsys, "validate", str(syntactically_bad))
    assert code == 2

    code, _, err = run_cli(capsys, "extend", EG41, "--at", "0")
    assert code == 4

    non_factoring = tmp_path / "scale.rep"
    non_factoring.write_text(
        "dim 1\nmatrix g1\n2\nmatrix g2\n1\nmatrix g3\n1\n"
    )
    code, _, err = run_cli(
        capsys, "cohomology", EG41, "--rep", str(non_factoring), "--at", "1"
    )
    assert code == 3

    code, _, err = run_cli(capsys, "corpus", "run", "--id", "nope")
    assert code == 1

    code, _, err = run_cli(capsys, "cohomology", EG41, "--at", "bad")
    assert code == 1


def test_a_singular_representation_is_a_domain_error(tmp_path, capsys):
    singular = tmp_path / "singular.rep"
    singular.write_text("dim 1\nmatrix g1\n0\nmatrix g2\n1\nmatrix g3\n1\n")
    code, out, err = run_cli(capsys, "delta", EG41, "--d", "1", "--rep", str(singular))
    assert code == 4
    assert out == ""
    assert err == "domain error: matrix is singular\n"


def test_rational_zeros_of_a_divisor_with_a_large_leading_coefficient(tmp_path):
    """delta_1 of a^2*b^-2 with both images N is g + 1/N. Trial division for
    the divisors of N did not end at N = 10^30 until it divided out each
    prime found, and gave no answer within 60 s at the product of two
    13-digit primes."""
    pres = tmp_path / "square.pres"
    pres.write_text("prime 3\ngenerators a b\nrelator a^2*b^-2\n")
    rep = tmp_path / "big.rep"
    for image in (10**30, (10**12 + 39) * (10**12 + 61)):
        rep.write_text(f"dim 1\nmatrix a\n{image}\nmatrix b\n{image}\n")
        proc = run_cli_process("zeros", str(pres), "--d", "1", "--rep", str(rep), timeout=10)
        assert proc.returncode == 0
        assert f"rational zeros: -1/{image} (x1)\n".encode() in proc.stdout


def test_a_relation_matrix_past_the_span_bound_is_refused(tmp_path):
    """a^10^7 * b^-10^7, a 54-byte file, spans 2 * (10^7 + 1) coefficients:
    an input error naming the bound, before any of them is built, where
    the unbounded pass ran out of memory."""
    path = tmp_path / "long.pres"
    path.write_text("prime 3\ngenerators a b\nrelator a^10000000*b^-10000000\n")
    proc = run_cli_process("delta", str(path), "--d", "1", timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == (
        b"input too large: the relation matrix spans 20000002 coefficients: "
        b"the limit is 4194304 (scalars.MAX_MATRIX_SPAN)\n"
    )


@pytest.mark.parametrize(
    ("relator", "syllables"),
    [("(a*b)^1000000000000", 2000000000000), ("[a,b]^3000000", 12000000)],
    ids=["product-power", "commutator-power"],
)
def test_a_relator_word_past_the_syllable_bound_is_refused(tmp_path, relator, syllables):
    """A power of a short word is refused before it is built, where
    building it ran out of memory: an input error naming the bound. The
    second relator has degree 0 and spans 2 exponents, so the span bound
    admits it."""
    path = tmp_path / "power.pres"
    path.write_text(f"prime 3\ngenerators a b\nrelator {relator}\n")
    proc = run_cli_process("validate", str(path), timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == (
        f"input too large: line 3, col 15: the words would hold {syllables} syllables: "
        "the limit is 2097152 (scalars.MAX_WORD_SYLLABLES)\n"
    ).encode()


@pytest.mark.parametrize(
    ("name", "argv"),
    [("bad.pres", ["validate", "{bad}"]), ("bad.rep", ["matrix", EG41, "--rep", "{bad}"])],
    ids=["pres", "rep"],
)
def test_an_input_file_that_is_not_utf8_is_a_parse_error(tmp_path, name, argv):
    """A file starting with the UTF-16 byte order mark is unreadable input
    (exit 2, one stderr line), not a UnicodeDecodeError traceback."""
    bad = tmp_path / name
    bad.write_bytes(b"\xff\xfeprime 3\n")
    proc = run_cli_process(*(arg.format(bad=bad) for arg in argv), timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == f"parse error: {bad} is not UTF-8 text: byte 0: invalid start byte\n".encode()


# extend --at -1 --json on the 200,000-fold commutator below, with the file
# path replaced by PROBE, as the syllable-by-syllable word products gave it
LONG_COMMUTATOR_EXTEND_SHA256 = "5312c9e62b1352bbe878e53b2b2367015ad65129a83f1799b59ffd6b1243308e"


def test_extend_on_a_long_commutator_keeps_its_bytes(tmp_path, capsys):
    path = tmp_path / "commutator.pres"
    path.write_text(
        "prime 3\ngenerators x0 x1\n"
        "relator x0^4*x1^-4\nrelator x0^6*x1^-6\nrelator [x0^2,(x1*x0^-1)^200000]\n"
    )
    code, out, err = run_cli(capsys, "extend", str(path), "--at", "-1", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["sample"]["verified"] is True
    digest = hashlib.sha256(out.replace(str(path), "PROBE").encode()).hexdigest()
    assert digest == LONG_COMMUTATOR_EXTEND_SHA256


def test_oversized_prime_is_a_parse_error(tmp_path):
    """A 401-digit prime is refused by the 2^64 bound, not by a float
    overflow in the primality test."""
    path = tmp_path / "huge.pres"
    path.write_text(f"prime {'9' * 401}\ngenerators a\n")
    proc = run_cli_process("validate", str(path), timeout=60)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    assert b"2^64" in proc.stderr


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_closed_output_ends_quietly(tmp_path, flags):
    """A reader that stops early, as in `propfox matrix FILE | head -c 100`,
    ends the run with status 141 and nothing on stderr: no "input error",
    and no "Exception ignored" line from the interpreter's last flush. The
    matrix text is about 380 kB, past any pipe buffer, so the writer is
    still writing when the reader goes."""
    path = tmp_path / "long.pres"
    path.write_text("prime 3\ngenerators a b\nrelator a^20000*b^-20000\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "propfox.cli", "matrix", str(path), *flags],
        env=_cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    finally:
        proc.kill()
    assert len(head) == 100
    assert err == b""
    assert proc.returncode == cli.EXIT_CLOSED_OUTPUT == 141


@pytest.mark.parametrize("prime", [2**61 - 1, 2**64 - 59])
def test_zeros_at_word_sized_primes(tmp_path, prime):
    """Residues come from gcds mod p, so the largest admitted primes answer
    in seconds; the residue scan would take years."""
    path = tmp_path / "braid.pres"
    path.write_text(f"prime {prime}\ngenerators a b\nrelator a*b*a = b*a*b\n")
    proc = run_cli_process("zeros", str(path), "--d", "1", "--json", timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == b""
    results = json.loads(proc.stdout)["results"]
    assert results["delta"]["text"] == "g^2 - g + 1"
    zeros = results["all"]
    assert zeros["rational"] == [] and zeros["obstructions"] == []
    residues = [int(z["residue"]) for z in zeros["padic"]]
    modulus = prime ** results["precision"]
    assert all((r * r - r + 1) % modulus == 0 for r in residues)
    # g^2 - g + 1 has discriminant -3: two roots mod p when it is a square
    assert len(set(residues)) == (2 if pow(-3, (prime - 1) // 2, prime) == 1 else 0)


OVERLONG = "7" * 200_000


LITERAL_BOUND = "integer literal of 200000 digits: the limit is 4300"


@pytest.mark.parametrize(
    "pres_text, rep_text, bound",
    [
        (f"prime 3\ngenerators a b\nrelator a^{OVERLONG}*b\n", None, "64-bit range"),
        (f"prime {OVERLONG}\ngenerators a b\n", None, LITERAL_BOUND),
        (f"prime 3\ngenerators a b\nalpha a={OVERLONG}\n", None, LITERAL_BOUND),
        (None, f"dim 1\nmatrix a\n{OVERLONG}\nmatrix b\n1\n", LITERAL_BOUND),
        (None, f"dim 1\nmatrix a\n1/{OVERLONG}\nmatrix b\n1\n", LITERAL_BOUND),
        (None, f"dim {OVERLONG}\n", LITERAL_BOUND),
    ],
    ids=["exponent", "prime", "weight", "entry", "denominator", "dim"],
)
def test_overlong_literals_are_parse_errors(tmp_path, capsys, pres_text, rep_text, bound):
    """An input integer literal far past its bound is a parse error naming
    the bound, although main lifts the int-to-str limit for its output."""
    pres = tmp_path / "in.pres"
    pres.write_text(pres_text or "prime 3\ngenerators a b\nrelator a*b*a = b*a*b\n")
    argv = ["delta", str(pres), "--d", "1"]
    if rep_text is not None:
        rep = tmp_path / "in.rep"
        rep.write_text(rep_text)
        argv += ["--rep", str(rep)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:")
    assert bound in err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no int-to-str limit"
)
def test_main_restores_the_int_to_str_limit(capsys):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        run_cli(capsys, "validate", EG41)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(saved)


def test_overlong_point_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "extend", EG41, "--at", OVERLONG)
    assert code == 1
    assert out == ""
    assert "the limit is 4300" in err


def _huge_integer_inputs(tmp_path):
    pres = tmp_path / "big.pres"
    pres.write_text("prime 3\ngenerators a b\nrelator a^50*b^-50\n")
    rep = tmp_path / "big.rep"
    rep.write_text(f"dim 1\nmatrix a\n{10**100}\nmatrix b\n{10**100}\n")
    eg43_p11 = tmp_path / "eg43p11.pres"
    eg43_p11.write_text(Path(EG43).read_text().replace("prime 5", "prime 11"))
    return str(pres), str(rep), str(eg43_p11)


@pytest.mark.parametrize(
    "command, field",
    [("matrix", "entries"), ("delta", "delta"), ("zeros", "all")],
)
def test_integers_past_the_str_digit_limit_print(tmp_path, command, field):
    """Exact answers with more than 4300 digits print in full instead of
    ending in Python's int-to-str limit."""
    pres, rep, eg43_p11 = _huge_integer_inputs(tmp_path)
    argv = {
        "matrix": ["matrix", pres, "--rep", rep, "--json"],
        "delta": ["delta", pres, "--rep", rep, "--d", "1", "--json"],
        "zeros": ["zeros", eg43_p11, "--d", "1", "--prec", "5000", "--json"],
    }[command]
    proc = run_cli_process(*argv)
    assert proc.returncode == 0, proc.stderr
    assert b"Traceback" not in proc.stderr
    results = json.loads(proc.stdout, parse_int=str)["results"]
    longest = max(len(run) for run in re.findall(r"\d+", json.dumps(results[field])))
    assert longest > 4300


def test_corpus_mismatch_exit_code(capsys, monkeypatch):
    tampered = propfox.corpus.CheckResult(
        entry="eg-4.1-p3", name="delta_1", source="stated", ok=False,
        expected="g - 4", actual="g - 5",
    )
    monkeypatch.setattr(propfox.corpus, "run", lambda entry_id=None: [tampered])
    code, out, err = run_cli(capsys, "corpus", "run")
    assert code == 5
    assert "0/1 checks passed" in out
    assert err.startswith("corpus mismatch:")


@pytest.mark.parametrize(
    "handler, argv, exc, what",
    [
        ("_cmd_delta", ("delta", EG41, "--d", "1"), MemoryError, "ran out of memory"),
        ("_cmd_corpus", ("corpus", "run"), RecursionError, "passed the recursion limit"),
    ],
    ids=["memory", "recursion"],
)
def test_exhausted_resources_exit_6_with_one_line(capsys, monkeypatch, handler, argv, exc, what):
    def exhausted(args):
        raise exc()

    monkeypatch.setattr(cli, handler, exhausted)
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_EXHAUSTED == 6
    assert out == ""
    assert err == f"resources exhausted: {argv[0]} {what}\n"


def test_a_handler_patched_after_the_first_call_is_the_one_called(capsys, monkeypatch):
    """Handlers are looked up by subcommand name when they run, so the
    parser that main keeps across calls binds none of them."""
    assert run_cli(capsys, "validate", EG41)[0] == 0

    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_delta", exhausted)
    code, out, err = run_cli(capsys, "delta", EG41, "--d", "1")
    assert code == cli.EXIT_EXHAUSTED
    assert out == ""
    assert err == "resources exhausted: delta ran out of memory\n"


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    run_cli(capsys, "validate", EG41)
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert run_cli(capsys, "delta", EG41, "--d", "1")[0] == 0
    assert calls == []


def test_no_state_carries_between_calls(capsys):
    run_cli(capsys, "zeros", EG43, "--d", "1", "--prec", "3", "--json")
    code, out, _ = run_cli(capsys, "zeros", EG43, "--d", "1", "--json")
    assert code == 0
    assert json.loads(out)["results"]["precision"] == 8

    run_cli(capsys, "delta", EG41, "--d", "2", "--rep", EG44, "--json")
    code, out, _ = run_cli(capsys, "delta", EG41, "--d", "1", "--json")
    assert code == 0
    assert json.loads(out)["inputs"] == {"presentation": EG41}
    code, out, _ = run_cli(capsys, "corpus", "run", "--id", "eg-4.1-p3", "--json")
    assert code == 0
    assert json.loads(out)["inputs"] == {"id": "eg-4.1-p3"}

    argv = ("delta", EG41, "--d", "1", "--rep", EG44, "--json")
    first = run_cli(capsys, *argv)
    assert first[0] == 0
    assert run_cli(capsys, "delta", EG41, "--d", "-1")[0] == 1
    assert run_cli(capsys, *argv) == first


def test_a_key_error_inside_a_check_is_not_a_usage_error(capsys, monkeypatch):
    """Only an --id outside corpus.ENTRIES is a usage error; a KeyError from
    a check is a bug and propagates."""

    def broken(name):
        raise KeyError(name)

    monkeypatch.setattr(propfox.corpus, "load_presentation", broken)
    with pytest.raises(KeyError):
        cli.main(["corpus", "run", "--id", "eg-4.1-p3"])


@pytest.mark.parametrize(
    "argv",
    [
        ("delta", EG41, "--d", "-1"),
        ("zeros", EG41, "--d", "-1"),
        ("iwasawa-delta", EG41, "--d", "-1"),
        ("zeros", EG41, "--d", "1", "--prec", "0"),
    ],
    ids=["delta-negative-d", "zeros-negative-d", "iwasawa-negative-d", "zeros-prec-0"],
)
def test_out_of_range_numbers_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: argument --")


def test_huge_precision_is_refused_in_time():
    """--prec 10^8 at p = 5 asks for a modulus of about 2.3 * 10^8 bits: a
    usage error naming the bound, not a Newton lift that runs for minutes."""
    proc = run_cli_process("zeros", data_path("eg43split.pres"), "--d", "1", "--prec", "100000000", timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"usage error: --prec 100000000")
    assert b"is 300000000, and the limit is 131072" in proc.stderr


def test_precision_bound_is_prec_times_the_bit_length_of_p(tmp_path, capsys):
    """At p = 2^61 - 1, --prec 2149 is the first precision past 2^17 bits."""
    path = tmp_path / "braid.pres"
    path.write_text(f"prime {2**61 - 1}\ngenerators a b\nrelator a*b*a = b*a*b\n")
    code, out, err = run_cli(capsys, "zeros", str(path), "--d", "1", "--prec", "2149")
    assert code == 1
    assert out == ""
    assert "--prec times the bit length of p is 131089, and the limit is 131072" in err


def _synopsis_options() -> dict:
    """{subcommand: {option: optional}} from the sh block under the README's
    "Command line" heading; brackets mark an optional option."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    synopsis = {}
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        synopsis[words[1]] = {w.strip("[]"): w.startswith("[") for w in words if w.lstrip("[").startswith("--")}
    return synopsis


def test_readme_synopsis_matches_the_parser():
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser_options = {
        name: {
            option: not action.required
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help", "--json")
        }
        for name, sub in subparsers.choices.items()
    }
    assert _synopsis_options() == parser_options


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 1
