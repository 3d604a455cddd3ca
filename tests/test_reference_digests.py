"""The benchmark's six ``smoke`` outputs, run in process, still hash to the
digests frozen in ``bench/reference.json`` (verify's ``wall_time`` masked
by ``bench/checks.digest``)."""

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
SMOKE = json.loads((BENCH / "reference.json").read_text())["smoke"]


@pytest.mark.parametrize("key", sorted(SMOKE))
def test_smoke_output_matches_reference_digest(key, capsys):
    kind, *args = key.split()
    if kind == "cli":
        assert cli.main(args) == 0
        stdout = capsys.readouterr().out
    else:
        assert args[0] == "canopy", key
        out = solve(SystemConfig(Mode.CANOPY, int(args[1])))
        stdout = json.dumps(out.intervals.to_json(), sort_keys=True) + "\n"
    digest_kind = "verify_json" if args[0] == "verify" else "raw"
    assert checks.digest(digest_kind, stdout.encode()) == SMOKE[key]
