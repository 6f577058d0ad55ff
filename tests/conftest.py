import contextlib
import signal

import numpy as np
import pytest
from hypothesis import settings

from fingerkit.config import FingerConfig, default_config
from fingerkit.registry import ReferenceRegistry, default_registry

# CI selects this profile (--hypothesis-profile=ci): the number-formatting
# properties of test_emit_parity.py and the oracle's root-selection property
# then run 2000 examples instead of 300, its scan and bracket-prune
# properties against the dense reference 2000 instead of 200, and the config
# and registry document fuzz of test_cli.py 500 instead of 60
settings.register_profile("ci", max_examples=2000)


@pytest.fixture(scope="session")
def cfg() -> FingerConfig:
    return default_config()


@pytest.fixture(scope="session")
def geometry(cfg):
    return cfg.geometry


@pytest.fixture(scope="session")
def finger(cfg):
    return cfg.require_finger()


@pytest.fixture(scope="session")
def tendon(cfg):
    return cfg.require_tendon()


@pytest.fixture(scope="session")
def thumb_line(cfg):
    return cfg.require_thumb_line()


@pytest.fixture(scope="session")
def registry() -> ReferenceRegistry:
    return default_registry()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)


@contextlib.contextmanager
def _deadline(seconds: int):
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def deadline():
    """``with deadline(seconds):`` fails the test, rather than hang, if the
    block runs over ``seconds``.

    The failure is pytest's, not an ``OSError`` (as ``TimeoutError`` is),
    so that the CLI's own error handling cannot turn it into an exit code.
    """
    return _deadline
