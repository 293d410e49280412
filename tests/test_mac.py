"""Unit tests for the CSMA MAC model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.mac import (
    ChannelActivity,
    CsmaMac,
    MacAttempt,
    MacParams,
    bump_activity,
)


@pytest.fixture
def mac():
    return CsmaMac(MacParams(), np.random.default_rng(0))


def test_idle_channel_usually_clear(mac):
    attempts = [mac.attempt(0.0, 0.0) for _ in range(200)]
    acquired = sum(a.acquired for a in attempts)
    assert acquired >= 190
    mean_backoffs = np.mean([a.backoffs for a in attempts])
    assert mean_backoffs < 0.2


def test_busy_probability_increases_with_activity(mac):
    quiet = mac.busy_probability(0.0, 0.0)
    busy = mac.busy_probability(3.0, 0.0)
    assert busy > quiet + 0.5


def test_noise_rise_makes_channel_busy(mac):
    quiet = mac.busy_probability(0.0, 0.0)
    jammed = mac.busy_probability(0.0, 20.0)
    assert jammed > quiet + 0.5


def test_noise_below_threshold_ignored(mac):
    assert mac.busy_probability(0.0, 2.0) == pytest.approx(
        mac.busy_probability(0.0, 0.0)
    )


def test_busy_probability_capped(mac):
    assert mac.busy_probability(100.0, 100.0) <= 0.995


def test_backoffs_counted_and_bounded(mac):
    heavy = [mac.attempt(5.0, 0.0) for _ in range(200)]
    assert any(a.backoffs > 0 for a in heavy)
    assert all(a.backoffs <= MacParams().max_backoffs for a in heavy)
    failures = [a for a in heavy if not a.acquired]
    assert all(a.backoffs == MacParams().max_backoffs for a in failures)


def test_delay_grows_with_backoffs(mac):
    attempts = [mac.attempt(4.0, 0.0) for _ in range(300)]
    with_backoff = [a for a in attempts if a.backoffs >= 3]
    without = [a for a in attempts if a.backoffs == 0]
    assert with_backoff and without
    assert np.mean([a.delay_s for a in with_backoff]) > np.mean(
        [a.delay_s for a in without]
    )


def test_activity_decays_exponentially():
    activity = ChannelActivity(decay_s=2.0)
    activity.bump(0.0, 1.0)
    assert activity.level(0.0) == pytest.approx(1.0)
    assert activity.level(2.0) == pytest.approx(np.exp(-1.0), rel=1e-6)
    assert activity.level(20.0) < 1e-4


def test_activity_accumulates():
    activity = ChannelActivity(decay_s=10.0)
    for t in (0.0, 0.1, 0.2):
        activity.bump(t, 0.5)
    assert activity.level(0.2) > 1.4


def scalar_attempt(mac, rng, activity_level, noise_rise_db):
    """The CSMA loop drawing one scalar from ``rng`` per use (the oracle)."""
    p = mac.params
    busy = mac.busy_probability(activity_level, noise_rise_db)
    backoffs = 0
    delay = 0.0
    while backoffs < p.max_backoffs:
        if rng.random() >= busy:
            return MacAttempt(acquired=True, backoffs=backoffs, delay_s=delay)
        backoffs += 1
        window = p.initial_backoff_s if backoffs == 1 else p.congestion_backoff_s
        delay += float(rng.uniform(0.5, 1.5)) * window
    return MacAttempt(acquired=False, backoffs=backoffs, delay_s=delay)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    inputs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=8.0),
            st.floats(min_value=0.0, max_value=40.0),
        ),
        min_size=1,
        max_size=200,
    ),
)
def test_attempt_matches_scalar_draw_oracle(seed, inputs):
    mac = CsmaMac(MacParams(), np.random.default_rng(seed))
    oracle_rng = np.random.default_rng(seed)
    for activity, noise_rise in inputs:
        expected = scalar_attempt(mac, oracle_rng, activity, noise_rise)
        assert mac.attempt(activity, noise_rise) == expected


@settings(max_examples=40, deadline=None)
@given(
    bumps=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0),
            st.floats(min_value=0.0, max_value=2.0),
        ),
        max_size=50,
    ),
)
def test_bump_activity_matches_exponential_decay(bumps):
    decay_s = 2.0
    activities = [ChannelActivity(decay_s), ChannelActivity(decay_s)]
    level, last, now = 0.0, 0.0, 0.0
    for step, amount in bumps:
        now += step
        bump_activity(activities, now, amount)
        dt = now - last
        if dt > 0:
            level *= math.exp(-dt / decay_s)
            last = now
        level += amount
        assert [a.level(now) for a in activities] == [level, level]
