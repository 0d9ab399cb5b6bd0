"""Shared fixtures: synthetic curves and (optionally) a real curve file.

Tests that reproduce published-curve behaviour need the official IntCal20
file, which is not redistributable here; point CARBCAL_INTCAL20 (or place
``data/intcal20.14c``) at a copy to enable them.  Everything else runs on
deterministic synthetic curves.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from carbcal.calcurve import CalibrationCurve, load_curve
from carbcal.synthetic import wiggly_curve

REPO_ROOT = Path(__file__).resolve().parent.parent


def intcal20_path():
    env = os.environ.get("CARBCAL_INTCAL20")
    if env and Path(env).is_file():
        return Path(env)
    bundled = REPO_ROOT / "data" / "intcal20.14c"
    if bundled.is_file():
        return bundled
    return None


@pytest.fixture(scope="session")
def intcal20():
    path = intcal20_path()
    if path is None:
        pytest.skip("IntCal20 curve file not available (set CARBCAL_INTCAL20)")
    return load_curve(path)


@pytest.fixture
def physical_memory(monkeypatch):
    """``physical_memory(n)`` makes carbcal's memory bounds read ``n`` bytes of physical memory."""
    real = os.sysconf
    fake = {"SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", lambda name: fake[name] if name in fake else real(name))
    return lambda n: fake.update(SC_PHYS_PAGES=n)


@pytest.fixture(scope="session")
def synth_curve():
    """IntCal-like synthetic curve over the full 0-55 kyr range."""
    return wiggly_curve()


@pytest.fixture(scope="session")
def reference_curve(synth_curve):
    """The real curve when available, the synthetic stand-in otherwise."""
    path = intcal20_path()
    if path is not None:
        return load_curve(path)
    return synth_curve


def make_flat_curve(lo=0.0, hi=1000.0, mean=2000.0, sd=10.0, step=10.0):
    ages = np.arange(lo, hi + step / 2, step)
    return CalibrationCurve(ages, np.full_like(ages, mean), np.full_like(ages, sd))


def make_linear_curve(lo=0.0, hi=10000.0, sd=1e-6, step=10.0):
    """Identity curve m(theta) = theta with (effectively) no curve noise."""
    ages = np.arange(lo, hi + step / 2, step)
    return CalibrationCurve(ages, ages.copy(), np.full_like(ages, sd))


@pytest.fixture
def flat_curve():
    return make_flat_curve()


@pytest.fixture
def linear_curve():
    return make_linear_curve()


@pytest.fixture(scope="session")
def synth_curve_file(synth_curve, tmp_path_factory):
    """The synthetic curve written out in the standard file format."""
    from carbcal.synthetic import write_curve_file

    path = tmp_path_factory.mktemp("curve") / "synthetic.14c"
    write_curve_file(synth_curve, path)
    return path


# ---------------------------------------------------------------------------
# acceptance reporting: one pass/fail line per criterion in the summary

ACCEPTANCE_LINES = []


def record_criterion(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:>2} ({name}): {status}" + (f"  [{detail}]" if detail else "")
    ACCEPTANCE_LINES.append((number, line))
    print(line, flush=True)
    return passed


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
