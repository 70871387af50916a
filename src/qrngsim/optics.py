"""Closed-form click statistics of the two-photon interferometer.

Two time-correlated photons meet at a balanced fiber splitter.  When they
are indistinguishable they bunch: both exit through the same output arm,
and the cross-arm coincidence rate dips to zero.  A relative delay between
the photons restores partial distinguishability and with it the classical
cross-arm term.  Each output arm is monitored by a photon-number-resolving
stage built from a second 50/50 splitter and two threshold detectors
(D1/D2 on arm A, D3/D4 on arm B): a coincidence between the two detectors
of one arm witnesses a two-photon bunch.

Everything in this module is a pure function of its inputs; dark counts,
jitter and dead time belong to the time-domain layer (see ``timetag``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

# Transform-limited coherence time of a 10 nm FWHM filter at 816 nm,
# tau_c = lambda^2 / (c * d_lambda) ~= 222 fs.
DEFAULT_COHERENCE_TIME_FS = 222.0

_PROB_TOL = 1e-12


class Detector(IntEnum):
    """The four threshold detectors; D1/D2 watch arm A, D3/D4 arm B."""

    D1 = 0
    D2 = 1
    D3 = 2
    D4 = 3


ARM_A = (Detector.D1, Detector.D2)
ARM_B = (Detector.D3, Detector.D4)


@dataclass(frozen=True)
class InterferometerConfig:
    """Knobs that set the interference quality.

    delay_fs: relative arrival-time offset of the two photons (scan axis).
    coherence_time_fs: 1/e half-width of the Gaussian dip.
    visibility_ceiling: cap on the achievable interference visibility,
        a single scalar standing in for residual mode mismatch.
    """

    delay_fs: float = 0.0
    coherence_time_fs: float = DEFAULT_COHERENCE_TIME_FS
    visibility_ceiling: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.delay_fs):
            raise ValueError("delay_fs must be finite")
        if not (self.coherence_time_fs > 0):
            raise ValueError("coherence_time_fs must be > 0")
        if not (0.0 <= self.visibility_ceiling <= 1.0):
            raise ValueError("visibility_ceiling must lie in [0, 1]")


@dataclass(frozen=True)
class DetectorBank:
    """Four identical threshold detectors behind the arm splitters."""

    efficiency: float = 1.0
    dark_rate_hz: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValueError("efficiency must lie in [0, 1]")
        if not (self.dark_rate_hz >= 0.0):
            raise ValueError("dark_rate_hz must be >= 0")


@dataclass(frozen=True)
class OutputDistribution:
    """Probabilities of the three two-photon outcomes after the splitter.

    p20/p02: both photons in arm A / arm B; p11: one photon per arm.
    """

    p20: float
    p02: float
    p11: float

    def __post_init__(self) -> None:
        for name, p in (("p20", self.p20), ("p02", self.p02), ("p11", self.p11)):
            if not (p >= -_PROB_TOL):
                raise ValueError(f"{name} must be non-negative")
        if abs(self.p20 + self.p02 + self.p11 - 1.0) > _PROB_TOL:
            raise ValueError("outcome probabilities must sum to 1")


def visibility(config: InterferometerConfig) -> float:
    """Interference visibility V(tau) = V0 * exp(-(tau/tau_c)^2)."""
    x = config.delay_fs / config.coherence_time_fs
    return config.visibility_ceiling * math.exp(-x * x)


def output_distribution(config: InterferometerConfig) -> OutputDistribution:
    """Two-photon outcome probabilities after the first splitter.

    The splitter is balanced: the bunched outcomes carry (1 + V)/4 each and
    the cross-arm outcome (1 - V)/2, interpolating between the entangled
    state at V = 1 and independent classical routing at V = 0.
    """
    v = visibility(config)
    return OutputDistribution(p20=(1.0 + v) / 4.0, p02=(1.0 + v) / 4.0, p11=(1.0 - v) / 2.0)


def _two_photon_arm_patterns(arm, eta: float):
    """Click patterns for a two-photon state entering one arm's splitter.

    Each photon routes to either detector with probability 1/2 and is then
    detected with probability eta.  Two photons landing on the same
    detector produce at most a single click (threshold detectors do not
    resolve photon number).
    """
    da, db = arm
    p_pair = 0.5 * eta * eta
    p_single = (4.0 * eta - 3.0 * eta * eta) / 4.0
    p_none = (1.0 - eta) ** 2
    return {
        frozenset((da, db)): p_pair,
        frozenset((da,)): p_single,
        frozenset((db,)): p_single,
        frozenset(): p_none,
    }


def _one_photon_arm_patterns(arm, eta: float):
    da, db = arm
    return {
        frozenset((da,)): eta / 2.0,
        frozenset((db,)): eta / 2.0,
        frozenset(): 1.0 - eta,
    }


def click_distribution(dist: OutputDistribution, bank: DetectorBank) -> dict:
    """Detector click-pattern probabilities for one emitted pair.

    Maps each pattern (a frozenset of ``Detector``) to its probability, in
    canonical order: by pattern size, then detector indices.  ``simulate``
    numbers the patterns in that order, so its draws depend on it.

    Composes the two-photon outcome with independent routing at the arm
    splitters and Bernoulli detection.  Dark counts are deliberately
    absent here; they only exist in the time-domain simulation.
    """
    eta = bank.efficiency
    acc: dict = {}

    for weight, arm in ((dist.p20, ARM_A), (dist.p02, ARM_B)):
        if weight == 0.0:
            continue
        for pattern, p in _two_photon_arm_patterns(arm, eta).items():
            acc[pattern] = acc.get(pattern, 0.0) + weight * p

    if dist.p11 != 0.0:
        for pat_a, pa in _one_photon_arm_patterns(ARM_A, eta).items():
            for pat_b, pb in _one_photon_arm_patterns(ARM_B, eta).items():
                pattern = pat_a | pat_b
                acc[pattern] = acc.get(pattern, 0.0) + dist.p11 * pa * pb

    if min(acc.values()) < -_PROB_TOL:
        raise ValueError("negative click-pattern probability")
    total = sum(acc.values())
    if abs(total - 1.0) > _PROB_TOL:
        raise ValueError(f"click probabilities sum to {total}, expected 1")
    return {p: acc[p] for p in sorted(acc, key=lambda p: (len(p), sorted(p)))}
