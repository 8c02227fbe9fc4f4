import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_greens_vs_particles_script_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(
        sys, "argv", ["greens_vs_particles.py", "--n", "200", "--times", "0.01"]
    )
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "greens_vs_particles.py"), run_name="__main__")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "t = 0.01" in out and "worst |dev|" in out
