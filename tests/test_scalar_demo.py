"""The README's worked example, scripts/scalar_demo.py, run as written."""

import importlib.util
import re
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "scalar_demo.py"


def test_scalar_demo_verdicts_match_the_closed_form(capsys):
    spec = importlib.util.spec_from_file_location("scalar_demo", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    out = capsys.readouterr().out
    verdicts = re.findall(r"solver=(\w+) .*closed form=(\w+)", out)
    assert len(verdicts) == 2
    assert all(solver == closed for solver, closed in verdicts)
    assert len(re.findall(r"^  sigma=", out, flags=re.M)) == 11
