"""The benchmark's six ``smoke`` outputs and its ``full`` verify output, run
in process, still hash to the digests frozen in ``bench/reference.json``
(verify's ``wall_time`` masked by ``bench/checks.digest``).  This test reads
the reference file and never writes it."""

import importlib.util
import json
from pathlib import Path

import pytest

from intervalence import cli
from intervalence.series import Mode, SystemConfig, solve

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()
REFERENCE = json.loads((BENCH / "reference.json").read_text())
SMOKE = REFERENCE["smoke"]
# the one ``full`` output cheap enough for tier-1 (about 0.5 s); it pins the
# realroots suite through n = 7, where the smoke key stops at n = 5
FULL_VERIFY = "cli verify --suite all --max-n 8 --format json"


def _digest(key, capsys):
    kind, *args = key.split()
    if kind == "cli":
        assert cli.main(args) == 0
        stdout = capsys.readouterr().out
    else:
        assert args[0] == "canopy", key
        out = solve(SystemConfig(Mode.CANOPY, int(args[1])))
        stdout = json.dumps(out.intervals.to_json(), sort_keys=True) + "\n"
    digest_kind = "verify_json" if args[0] == "verify" else "raw"
    return checks.digest(digest_kind, stdout.encode())


@pytest.mark.parametrize("key", sorted(SMOKE))
def test_smoke_output_matches_reference_digest(key, capsys):
    assert _digest(key, capsys) == SMOKE[key]


def test_full_verify_output_matches_reference_digest(capsys):
    assert _digest(FULL_VERIFY, capsys) == REFERENCE["full"][FULL_VERIFY]
