"""Shared fixtures for the benchmark harness.

The IL policy is trained once per session (or loaded from the cache in
``artifacts/il_policy.npz``) and reused by every benchmark, mirroring the
paper's protocol of training the DNN once and evaluating it everywhere.
"""

from __future__ import annotations

import pytest

from repro.core.config import ICOILConfig
from repro.core.determinism import check_hash_seed
from repro.eval.training import train_default_policy

# Benchmarks append to shared BENCH_*.json trajectories: make an unpinned
# hash seed loud before any record is produced.
check_hash_seed()


@pytest.fixture(scope="session")
def trained_policy():
    policy, report, dataset = train_default_policy(num_episodes=4, epochs=6)
    return policy


@pytest.fixture(scope="session")
def experiment_settings():
    """The iCOIL config and episode budget every paper-figure bench runs with."""
    return dict(config=ICOILConfig(), time_limit=70.0)
