"""Rebuild expected.jsonl, the golden CLI outputs, from the code as it is.

Each expectation is one (command, flags, document) run of ``cli.run`` in
process: its exit code, its stdout (for an SVG, the sha256 and the byte
count) and the first line of its stderr. The documents are corpus.json's:
the CLI tests' documents, quads within 1e-11 and 1e-9 of the trapezoid and
parallelogram flags, 1e+-150 scalings, a thin sheared parallelogram at
three scales, GENERIC and the sheared parallelogram moved 1e4 and 1e6
diameters off the origin, the 16 documents of perfbench's ``cold`` corpus
for seed 801, and four refusals. The seeded suite and the conjecture scan run with
--samples 200 at two seeds, and the scan once more with --samples 600 at
seed 42: the scan draws and scores its slots in blocks of 256, and only
this run crosses a block edge. Two more scans of 300 slots take seeds of
more than one 32-bit word: 2^32, and 2^96 + 5, whose four words and the
slot index outgrow the four-word pool of numpy's seed hash.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

It rewrites expected.jsonl and prints the key of every entry it changed.
test_golden.py runs the same entries and compares; an entry that changes
is a change of the CLI's output, to be regenerated in the same commit and
named as such.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from quadellipse.cli import run

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"
EXPECTED = HERE / "expected.jsonl"

# Flags of the runs made on every document, the command first.
DOCUMENT_RUNS = (
    ("analyze",),
    ("max-ellipse",),
    ("bestfit",),
    ("render",),
    ("verify",),
    ("family", "--samples", "7"),
    ("family", "--samples", "7", "--format", "json"),
)
SEEDED_RUNS = tuple(
    (command, "--samples", "200", "--seed", seed)
    for command in ("verify", "conjecture")
    for seed in ("42", "7")
) + (
    ("conjecture", "--samples", "600", "--seed", "42"),
    ("conjecture", "--samples", "300", "--seed", "4294967296"),
    ("conjecture", "--samples", "300", "--seed", "79228162514264337593543950341"),
)


def write_documents(folder: Path) -> dict[str, Path]:
    """Write each corpus document to ``folder``; name -> path. A document
    given as ``latin1`` text is written in that encoding, which no UTF-8
    reader accepts."""
    paths = {}
    for entry in json.loads(CORPUS.read_text(encoding="utf-8")):
        path = folder / f"{entry['name']}.json"
        if "latin1" in entry:
            path.write_bytes(entry["latin1"].encode("latin-1"))
        else:
            path.write_text(json.dumps(entry["document"]), encoding="utf-8")
        paths[entry["name"]] = path
    return paths


def observe(argv: list[str]) -> dict:
    """Exit code, stdout and the first line of stderr of one in-process run."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = run(argv)
    stdout.flush()
    blob = out.getvalue()
    seen = {"exit": code}
    if blob.startswith(b"<?xml"):
        seen["stdout_sha256"] = hashlib.sha256(blob).hexdigest()
        seen["stdout_bytes"] = len(blob)
    else:
        seen["stdout"] = blob.decode("utf-8")
    seen["stderr"] = err.getvalue().split("\n", 1)[0]
    return seen


def observe_all(folder: Path) -> list[dict]:
    """Every entry, in a fixed order, run on documents written to ``folder``."""
    rows = []
    for name, path in write_documents(folder).items():
        for flags in DOCUMENT_RUNS:
            seen = observe([flags[0], str(path), *flags[1:]])
            rows.append({"doc": name, "argv": list(flags), **seen})
    for flags in SEEDED_RUNS:
        rows.append({"doc": None, "argv": list(flags), **observe(list(flags))})
    return rows


def entry_key(row: dict) -> str:
    return f"{' '.join(row['argv'])} {row['doc'] or ''}".strip()


def load_expected() -> list[dict]:
    with EXPECTED.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def main() -> int:
    old = {entry_key(r): r for r in load_expected()} if EXPECTED.exists() else {}
    with tempfile.TemporaryDirectory() as folder:
        rows = observe_all(Path(folder))
    with EXPECTED.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    changed = [entry_key(r) for r in rows if old.get(entry_key(r)) != r]
    for key in changed:
        print(key)
    print(f"{len(rows)} entries, {len(changed)} changed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
