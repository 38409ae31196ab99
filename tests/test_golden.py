"""Golden CLI outputs: stdout bytes and exit codes on the fixtures.

Each case runs one subcommand on one fixture and compares stdout, byte for
byte, and the exit code with the files under ``tests/golden/``.  The
``cov-group`` and ``regular`` cases also run on the universal cover of each
groupoid fixture, read from the golden ``universal`` output so that every
case depends only on recorded bytes.

To record the golden files from the current sources (only when a change of
output is intended), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gpdcov.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

FIXTURE_NAMES = ("c4", "collapse_i2", "i2", "id_c4", "s3", "t1")
GROUPOID_FIXTURES = ("c4", "i2", "s3", "t1")
COMMANDS = ("validate", "star", "universal", "cov-group", "regular",
            "lattice")
STAR_OBJECT = {"i2": "x"}  # every other fixture names its object "*"
FROM_GOLDEN = "golden:"  # an argument naming a recorded output as input


def _cases():
    """Case name -> argv."""
    cases = {}
    for name in FIXTURE_NAMES:
        doc = str(FIXTURES / f"{name}.json")
        for cmd in COMMANDS:
            extra = ["--object", STAR_OBJECT.get(name, "*")] \
                if cmd == "star" else []
            cases[f"{cmd}-{name}"] = [cmd, doc] + extra
    for name in GROUPOID_FIXTURES:
        for cmd in ("cov-group", "regular"):
            cases[f"{cmd}-universal-{name}"] = [
                cmd, f"{FROM_GOLDEN}universal-{name}"]
    return cases


def _run(argv, directory: Path):
    """Run the CLI with golden inputs written to ``directory``; return the
    exit code and the stdout bytes."""
    args = []
    for arg in argv:
        if arg.startswith(FROM_GOLDEN):
            case = arg[len(FROM_GOLDEN):]
            path = directory / f"{case}.json"
            path.write_bytes((GOLDEN / f"{case}.out").read_bytes())
            arg = str(path)
        args.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue().encode("utf-8")


CASES = _cases()


@pytest.mark.parametrize("case", list(CASES))
def test_golden_output(case, tmp_path):
    code, out = _run(CASES[case], tmp_path)
    expected = json.loads(EXIT_CODES.read_text(encoding="utf-8"))[case]
    assert code == expected
    assert out == (GOLDEN / f"{case}.out").read_bytes()


def record():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            code, out = _run(argv, Path(tmp))
            (GOLDEN / f"{name}.out").write_bytes(out)
            codes[name] = code
            print(f"{name}: exit {code}, {len(out)} bytes", file=sys.stderr)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    record()
