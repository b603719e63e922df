"""Acceptance suite.

Each test runs one acceptance criterion from the check registry
(:mod:`mobilevel.checks`, which ``mobilevel verify`` also runs) within its
runtime budget and prints a PASS line with its runtime (run ``pytest
tests/test_acceptance.py -s`` to see them).
"""

import time

from mobilevel import checks


def _criterion(number, name, seconds):
    started = time.perf_counter()
    ok, detail = checks.CHECKS[name].run()
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}: {name}] {status} ({elapsed:.2f}s, budget {seconds:.0f}s)")
    assert ok, detail
    assert elapsed < seconds, f"{name} exceeded its runtime budget"


def test_criterion_1_hypergradient_oracle_equivalence():
    _criterion(1, "hypergradient-correctness", 10.0)


def test_criterion_2_series_bias_decay():
    _criterion(2, "series-bias-decay", 5.0)


def test_criterion_3_weight_subproblem_correctness():
    _criterion(3, "weight-subproblem", 20.0)


def test_criterion_4_weighted_direction_inequality():
    _criterion(4, "direction-inequality", 30.0)


def test_criterion_5_convergence_rate():
    _criterion(5, "convergence-rate", 60.0)


def test_criterion_6_oracle_counter_identities():
    _criterion(6, "counter-identities", 5.0)


def test_criterion_7_stochastic_consistency():
    _criterion(7, "stochastic-consistency", 60.0)


def test_criterion_8_preference_guided_front_exploration():
    _criterion(8, "front-exploration", 60.0)


def test_criterion_9_nonpreference_variant():
    _criterion(9, "nonpreference-variant", 30.0)


def test_criterion_10_reproducibility():
    _criterion(10, "reproducibility", 10.0)
