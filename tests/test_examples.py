"""Smoke tests: every example script must run clean from a subprocess.

These protect the documented entry points from refactoring drift; each
example asserts its own correctness internally, so a zero exit status
means the scenario actually worked.
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))


def test_examples_present():
    assert len(EXAMPLES) >= 3, EXAMPLES
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script} printed nothing"


def _load_example(name):
    spec = importlib.util.spec_from_file_location(
        name.removesuffix(".py"), EXAMPLES_DIR / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_multitasking_models_order_the_urgent_task():
    """Section 4.2's comparison: the µC/OS-II priority kernel serves the
    urgent task first (a cooperative hog that yields ties it), and the
    stubborn hog makes costatements serve it last."""
    models = _load_example("multitasking_models.py")
    served = {
        "costates": models.run_costates(),
        "stubborn": models.run_costates_stubborn(),
        "slices": models.run_slices(),
        "ucos": models.run_ucos(),
    }
    assert served["ucos"] == min(served.values())
    assert served["ucos"] < served["slices"] < served["stubborn"]
    others = [t for name, t in served.items() if name != "stubborn"]
    assert served["stubborn"] > max(others)
