import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_teleportation_walkthrough_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_teleportation.py")],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "holds" in result.stdout


def test_readme_paths_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paths = set(re.findall(r"\b(?:scripts|docs)/[\w./-]*\w", readme))
    assert paths, "README names no scripts/ or docs/ path"
    missing = sorted(p for p in paths if not (ROOT / p).exists())
    assert missing == []
