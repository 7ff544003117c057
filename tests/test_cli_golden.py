"""Byte-identity guard for the README command-line examples.

Each example runs from a fresh working directory with the README's relative
``--out`` name, and every file it writes, plus the concatenated standard
output, must equal the stored copy under ``tests/golden/``.

Regenerate the goldens, only from a commit whose output is trusted, with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

EXAMPLES = [
    'roots --poly "1,0,-1"',
    'stokes-graph --poly "1,0,-1" --t 0.3 --out out --format json,svg',
    'geodesics --poly "1,0,0,-1" --out out',
    'rays --poly "1,0,-1" --out out',
    'eigenvalues --poly "1,0,-1" --n 0..5 --order 0 --format json,csv '
    '--wronskian 0.5,7.5,-1,1 --out out',
    'strip-realize 5 7 --out out',
    'chords --poly "1,0,-1" --t 0.3 --out out',
]


def run_examples(workdir: Path) -> dict[str, bytes]:
    """Run every example in ``workdir``; return {relative name: bytes}."""
    from stokesgeo.cli import main

    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for example in EXAMPLES:
            stdout.write(f"$ stokesgeo {example}\n")
            with contextlib.redirect_stdout(stdout):
                code = main(shlex.split(example))
            stdout.write(f"exit {code}\n")
    finally:
        os.chdir(cwd)
    files = {p.relative_to(workdir).as_posix(): p.read_bytes()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    files["stdout.txt"] = stdout.getvalue().encode()
    return files


def test_readme_examples_byte_identical(tmp_path):
    got = run_examples(tmp_path)
    want = {p.relative_to(GOLDEN).as_posix(): p.read_bytes()
            for p in sorted(GOLDEN.rglob("*")) if p.is_file()}
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{name} differs from its golden copy"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_examples(Path(tmp))
    for name, data in outputs.items():
        target = GOLDEN / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
    print(f"wrote {len(outputs)} golden files to {GOLDEN}", file=sys.stderr)
