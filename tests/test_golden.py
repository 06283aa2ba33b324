"""CLI outputs against the golden corpus in tests/golden (scripts/golden.py)."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("case", golden.CASES, ids=[name for name, _argv, _out in golden.CASES])
def test_cli_output_matches_the_golden_corpus(case, tmp_path):
    recorded = (golden.GOLDEN / "PLATFORM").read_text(encoding="utf-8")
    for fname, text in golden.outputs_of(case, tmp_path).items():
        diff = golden.first_difference((golden.GOLDEN / fname).read_bytes().decode("utf-8"), text)
        if diff and recorded != golden.platform_record():
            diff += (f"; the platform differs from the one that wrote the corpus ({recorded!r}, "
                     f"here {golden.platform_record()!r}), so regenerate it with scripts/golden.py --write "
                     "on the parent commit of a change to compare across it")
        assert not diff, f"{fname}: {diff}"
