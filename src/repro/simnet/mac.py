"""CSMA/CA medium access with congestion backoff.

The model follows CC2420's unslotted CSMA: before each frame the radio
performs a clear-channel assessment (CCA); if the channel is busy it backs
off for a random window and tries again, up to a limit.  Two things make
the channel look busy:

* nearby transmissions (tracked as an exponentially-decaying activity level
  per node, updated by the network layer), and
* interference that raises the noise floor above the CCA threshold —
  energy-detect CCA cannot distinguish a colleague's frame from a jammer.

Every backoff increments the paper's ``MacI_backoff_counter``, which is the
load-bearing metric of the contention root-cause signature (Ψ5/Ψ17).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.simnet.rng import uniform_reader


@dataclass
class MacParams:
    """CSMA constants.

    Attributes:
        max_backoffs: CCA attempts before giving up on this transmission.
        initial_backoff_s: Mean of the first backoff window.
        congestion_backoff_s: Mean of subsequent backoff windows.
        activity_decay_s: Time constant of the channel-activity EWMA.
        activity_per_frame: Activity added to neighbors per transmitted frame.
        busy_floor: Channel-busy probability on an idle channel.
        noise_busy_threshold_db: Noise rise (above base floor) at which
            energy-detect CCA starts reporting a busy channel.
        noise_busy_slope: Busy-probability gained per dB of noise rise
            beyond the threshold.
    """

    max_backoffs: int = 8
    initial_backoff_s: float = 0.005
    congestion_backoff_s: float = 0.010
    activity_decay_s: float = 2.0
    activity_per_frame: float = 0.35
    busy_floor: float = 0.02
    noise_busy_threshold_db: float = 3.0
    noise_busy_slope: float = 0.06


@dataclass
class MacAttempt:
    """Outcome of one channel-access attempt.

    Attributes:
        acquired: True if the channel was won within ``max_backoffs``.
        backoffs: Number of backoffs taken (each one counts toward
            ``mac_backoff_counter``).
        delay_s: Total time spent backing off before the verdict.
    """

    acquired: bool
    backoffs: int
    delay_s: float


class ChannelActivity:
    """Exponentially-decaying local channel-activity level for one node."""

    __slots__ = ("_level", "_time", "_decay_s")

    def __init__(self, decay_s: float):
        self._level = 0.0
        self._time = 0.0
        self._decay_s = decay_s

    def _advance(self, now: float) -> None:
        dt = now - self._time
        if dt > 0:
            self._level *= math.exp(-dt / self._decay_s)
            self._time = now

    def bump(self, now: float, amount: float) -> None:
        """Record nearby transmission activity at time ``now``."""
        bump_activity((self,), now, amount)

    def level(self, now: float) -> float:
        """Current decayed activity level."""
        self._advance(now)
        return self._level


def bump_activity(
    activities: Iterable[ChannelActivity], now: float, amount: float
) -> None:
    """:meth:`ChannelActivity.bump` each of ``activities`` (inlined: hot path)."""
    for activity in activities:
        dt = now - activity._time
        if dt > 0:
            activity._level *= math.exp(-dt / activity._decay_s)
            activity._time = now
        activity._level += amount


class CsmaMac:
    """Stateless CSMA sampler; activity levels live per node.

    The MAC takes ownership of ``rng``: it reads the stream through a
    :func:`~repro.simnet.rng.uniform_reader`, which draws ahead, so no
    other code may draw from the same generator.
    """

    def __init__(self, params: MacParams, rng: np.random.Generator):
        self.params = params
        self._draw = uniform_reader(rng)

    def busy_probability(self, activity_level: float, noise_rise_db: float) -> float:
        """Probability a CCA reports busy, from local load and noise rise."""
        p = self.params
        load_term = 1.0 - math.exp(-activity_level)
        noise_term = 0.0
        if noise_rise_db > p.noise_busy_threshold_db:
            noise_term = p.noise_busy_slope * (
                noise_rise_db - p.noise_busy_threshold_db
            )
        busy = p.busy_floor + (1.0 - p.busy_floor) * min(
            1.0, load_term + noise_term
        )
        return min(0.995, busy)

    def attempt(self, activity_level: float, noise_rise_db: float) -> MacAttempt:
        """Run the CSMA loop once and report the outcome."""
        p = self.params
        busy = self.busy_probability(activity_level, noise_rise_db)
        draw = self._draw
        backoffs = 0
        delay = 0.0
        while backoffs < p.max_backoffs:
            if draw() >= busy:
                return MacAttempt(acquired=True, backoffs=backoffs, delay_s=delay)
            backoffs += 1
            window = p.initial_backoff_s if backoffs == 1 else p.congestion_backoff_s
            # Generator.uniform(0.5, 1.5) is low + (high - low) * next_double.
            delay += (0.5 + 1.0 * draw()) * window
        return MacAttempt(acquired=False, backoffs=backoffs, delay_s=delay)
