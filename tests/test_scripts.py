"""The shipped scripts run to completion at their smallest sizes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _run(argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # the shell script calls python3: make that this interpreter
    env["PATH"] = os.pathsep.join([str(Path(sys.executable).parent), env.get("PATH", "")])
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_component_ablation_script(tmp_path):
    out = _run([sys.executable, str(SCRIPTS / "run_component_ablation.py"),
                "--epochs", "1", "--out", str(tmp_path / "rows.json")], tmp_path)
    for label in ("none", "+gcn", "+importance", "+xattn", "+memory"):
        assert label in out
    assert (tmp_path / "rows.json").exists()


def test_text_ablation_script(tmp_path):
    out = _run([sys.executable, str(SCRIPTS / "run_text_ablation.py"),
                "--seeds", "1", "--epochs", "1", "--steps", "120"], tmp_path)
    assert "median:" in out


def test_pipeline_script(tmp_path):
    out = _run(["bash", str(SCRIPTS / "run_pipeline.sh"), str(tmp_path / "demo")], tmp_path)
    assert "verify: all checks passed" in out
    for name in ("forecasts.csv", "reports.jsonl", "report.json"):
        assert (tmp_path / "demo" / name).exists()
