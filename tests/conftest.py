import random
import time

import pytest
from hypothesis import settings

import support
from bilevel_exact import random_instance, reference_oracle, solve_mixed, solve_pure

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

MIXED_SEED = 20260823
PURE_SEED = 914

CRITERION_LINES = []


def record_criterion(line):
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)

# Criteria 3/4/5/7 all read these batches; run each batch once per session.


@pytest.fixture
def example1():
    return support.make_example1()


@pytest.fixture
def example1_path():
    return support.EXAMPLE1_PATH


@pytest.fixture(scope="session")
def mixed_batch():
    rng = random.Random(MIXED_SEED)
    rows = []
    t0 = time.perf_counter()
    for _ in range(220):
        inst = random_instance(rng)
        rep = solve_mixed(inst)
        orc = reference_oracle(inst, "mixed")
        rows.append((inst, rep, orc))
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def pure_batch():
    rng = random.Random(PURE_SEED)
    rows = []
    t0 = time.perf_counter()
    for _ in range(220):
        inst = random_instance(rng)
        rep = solve_pure(inst)
        orc = reference_oracle(inst, "pure")
        rows.append((inst, rep, orc))
    return rows, time.perf_counter() - t0
