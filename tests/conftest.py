import time

import pytest

from sucsim import device
from sucsim.cipher import SucParams
from sucsim.entropy import SeededEntropy
from sucsim.sbox4 import build_pool

# Pool generation dominates suite startup, so both pools are built once
# per session. pool32 is for lifecycle and protocol tests; pool256 is the
# full-size pool the statistical and acceptance tests draw from.


@pytest.fixture(scope="session")
def pool32():
    return build_pool(32, SeededEntropy(7))


@pytest.fixture(scope="session")
def pool256_timed():
    started = time.perf_counter()
    pool = build_pool(256, SeededEntropy(0))
    return pool, time.perf_counter() - started


@pytest.fixture(scope="session")
def pool256(pool256_timed):
    return pool256_timed[0]


@pytest.fixture
def make_device(tmp_path, pool32):
    """Factory for a personalized device on disk; returns (directory, serial)."""

    def make(serial="dev01", seed=1, rounds=15, feistel_r=3, pool=None):
        d = str(tmp_path)
        device.manufacture(d, serial, SeededEntropy(seed))
        dev = device.load_device(d, serial)
        device.otpp(
            dev,
            pool or pool32,
            SucParams(rounds=rounds, feistel_r=feistel_r),
            SeededEntropy(seed + 1000),
        )
        device.save_envm(dev, d)
        return d, serial

    return make
