"""Smoke test for the experiment driver kept under scripts/."""

import importlib.util

from conftest import REPO_ROOT


def test_demo_toy_key_walks_both_failure_modes(capsys):
    path = REPO_ROOT / "scripts" / "demo_toy_key.py"
    spec = importlib.util.spec_from_file_location("demo_toy_key", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    lines = capsys.readouterr().out.splitlines()
    assert "decrypt_all -> ['00110', '01001']  (ambiguous!)" in lines
    assert "decrypt_all -> []  (lost!)" in lines
    assert "  overflow: 01111,10111,11111" in lines
    assert "  h=2 candidates=['01001'] examined=6 bound=28.9" in lines
