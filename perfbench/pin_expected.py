"""Recompute perfbench/expected.json, the digests that corpus and CLI
answers are checked against.

    PYTHONPATH=src python3 perfbench/pin_expected.py

Run it from the root of a checkout only when the pinned requests themselves
change (workloads.README_CLI, CORPUS_IDS, COLD_CLI or the library example),
never to absorb a change in the program's answers: a faster path must give
byte-identical results.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
import worker  # noqa: E402
from propfox import cli  # noqa: E402


def main() -> int:
    digests = {}
    argvs = [["corpus", "run", "--id", e, "--json"] for e in workloads.CORPUS_IDS]
    argvs += [argv + ["--json"] for argv in workloads.README_CLI] + [workloads.COLD_CLI]
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            print(f"exit {code}: {' '.join(argv)}", file=sys.stderr)
            return 1
        digests[" ".join(argv)] = workloads.digest(json.loads(out.getvalue())["results"])
    doc = {"cli": digests, "library": workloads.digest(worker.library_summary())}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
