"""Golden CLI outputs: stdout bytes and exit codes on the fixtures.

Each case runs one subcommand on one fixture and compares stdout, byte for
byte, and the exit code with the files under ``tests/golden/``.  The
``cov-group`` and ``regular`` cases also run on the universal cover of each
groupoid fixture, read from the golden ``universal`` output so that every
case depends only on recorded bytes.  The same mechanism chains the
covering constructions: ``build-cover`` outputs feed ``expo``,
``pullback`` (along the morphism documents ``square-c4.json`` and
``c2-into-s3.json`` kept beside the golden files, and the ``id_c4``
fixture), ``adjunction``, ``to-presheaf`` (whose outputs in turn feed
``from-presheaf``), ``normalizer-iso``, ``pushout``, ``fiber``,
``monodromy``, ``fold``, ``equiv`` and ``subobjects``.  ``orbit`` reads
``cov-action-universal-c4.json``, also kept beside the golden files: the
covering-transformation action of C4 on the total of its universal cover.

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
    cases.update(_construction_cases())
    return cases


def _construction_cases():
    """Case name -> argv for the covering constructions, in dependency
    order: a case reads only the outputs of cases listed before it."""
    g = FROM_GOLDEN
    cases = {
        "build-cover-s3-12": ["build-cover", str(FIXTURES / "s3.json"),
                              "--subgroup", "(12)"],
        "build-cover-c4-2": ["build-cover", str(FIXTURES / "c4.json"),
                             "--subgroup", "2"],
    }
    for first, second in (("c4-2", "c4-2"), ("universal-c4", "c4-2"),
                          ("c4-2", "universal-c4"), ("s3-12", "s3-12"),
                          ("c4-2", "s3-12")):
        docs = [f"{g}{_cover_case(c)}" for c in (first, second)]
        cases[f"expo-{first}-{second}"] = ["expo"] + docs
    for cover in ("c4-2", "s3-12", "universal-c4", "universal-i2"):
        cases[f"to-presheaf-{cover}"] = [
            "to-presheaf", f"{g}{_cover_case(cover)}"]
        cases[f"from-presheaf-{cover}"] = [
            "from-presheaf", f"{g}to-presheaf-{cover}"]
    for cover, along in (("c4-2", GOLDEN / "square-c4.json"),
                         ("universal-c4", GOLDEN / "square-c4.json"),
                         ("c4-2", FIXTURES / "id_c4.json"),
                         ("s3-12", GOLDEN / "c2-into-s3.json"),
                         ("universal-s3", GOLDEN / "c2-into-s3.json")):
        cases[f"pullback-{cover}-{along.stem}"] = [
            "pullback", f"{g}{_cover_case(cover)}", "--along", str(along)]
    for name, covers in (("c4", ("universal-c4", "c4-2", "c4-2")),
                         ("c4-none", ("c4-2", "c4-2", "universal-c4")),
                         ("s3", ("s3-12", "s3-12", "s3-12"))):
        cases[f"adjunction-{name}"] = ["adjunction"] + [
            f"{g}{_cover_case(c)}" for c in covers]
    for cover in ("s3-12", "universal-s3"):
        cases[f"normalizer-iso-{cover}"] = [
            "normalizer-iso", f"{g}{_cover_case(cover)}"]
    cases["normalizer-iso-from-presheaf-c4-2"] = [
        "normalizer-iso", f"{g}from-presheaf-c4-2"]
    for cover in ("universal-c4", "universal-s3"):
        cases[f"pushout-{cover}-{cover}"] = ["pushout"] + [f"{g}{cover}"] * 2
    s3_12 = f"{g}build-cover-s3-12"
    cases["fiber-s3-12"] = ["fiber", s3_12, "--object", "*"]
    cases["monodromy-s3-12"] = ["monodromy", s3_12]
    cases["fold-s3-12"] = ["fold", s3_12]
    cases["equiv-c4-2-from-presheaf-c4-2"] = [
        "equiv", f"{g}build-cover-c4-2", f"{g}from-presheaf-c4-2"]
    cases["equiv-c4-2-universal-c4"] = [
        "equiv", f"{g}build-cover-c4-2", f"{g}universal-c4"]
    cases["subobjects-c4-2"] = ["subobjects", f"{g}build-cover-c4-2"]
    cases["orbit-cov-action-universal-c4"] = [
        "orbit", "--action", str(GOLDEN / "cov-action-universal-c4.json")]
    return cases


def _cover_case(cover: str) -> str:
    """The golden case whose output is the named covering."""
    return cover if cover.startswith("universal-") else f"build-cover-{cover}"


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
