"""The command line front end: output shapes, exit codes, determinism."""

import json
import os
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


def test_json_identical_under_optimize_flag():
    """python -O strips assert statements; the output must not depend on
    them."""
    env = dict(os.environ)
    src = str(Path(propfox.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["-m", "propfox.cli", "delta", EG41, "--d", "2", "--rep", EG44, "--json"]
    plain, optimized = [
        subprocess.run(
            [sys.executable, *flags, *argv], env=env, capture_output=True, timeout=120
        )
        for flags in ([], ["-O"])
    ]
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


def test_oversized_prime_is_a_parse_error(tmp_path):
    """A 401-digit prime is refused by the 2^64 bound, not by a float
    overflow in the primality test."""
    path = tmp_path / "huge.pres"
    path.write_text(f"prime {'9' * 401}\ngenerators a\n")
    env = dict(os.environ)
    src = str(Path(propfox.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "propfox.cli", "validate", str(path)],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    assert b"2^64" in proc.stderr


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


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 1
