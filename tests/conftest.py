import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qswitch.spacetime import CentralBody
from qswitch.switch_model import AmplitudeModel

# tests that start `python -m qswitch.cli` run this checkout's sources,
# as pyproject's pytest pythonpath does for the tests themselves
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


def run_qswitch(*args, env=None, child=None, **kwargs):
    """subprocess.run of `qswitch args` in a child of this interpreter, which
    fails on any RuntimeWarning as the tests do in process, with `env` added
    to this process's environment.  `child` is Python source to run in place
    of qswitch.cli; it reads the args from sys.argv[1:]."""
    program = ["-m", "qswitch.cli"] if child is None else ["-c", child]
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *program, *args],
                          env={**os.environ, **(env or {})}, **kwargs)


EARTH_MASS = 5.9722e24
EARTH_RADIUS = 6.371e6


@pytest.fixture(scope="session")
def earth():
    return CentralBody(EARTH_MASS, EARTH_RADIUS)


def random_model(rng):
    """Amplitude model drawn uniformly from the unit disks, all phases free."""
    def disk():
        r = np.sqrt(rng.uniform())
        return complex(r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))

    return AmplitudeModel(
        c1a=disk(), c4a=disk(), c1b=disk(), c2b=disk(),
        f_ba=disk(), f_ab=disk(),
        delta_1a=rng.uniform(0, 2 * np.pi),
        delta_4a=rng.uniform(0, 2 * np.pi),
        delta_1b=rng.uniform(0, 2 * np.pi),
        delta_2b=rng.uniform(0, 2 * np.pi),
        gamma_ba=rng.uniform(0, 2 * np.pi),
        gamma_ab=rng.uniform(0, 2 * np.pi),
    )


def random_alphas(rng):
    raw = rng.normal(size=5) + 1j * rng.normal(size=5)
    return raw / np.linalg.norm(raw)
