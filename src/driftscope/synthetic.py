"""Seeded generator for a synthetic insurance claim handling log.

Each case runs register -> notify_<channel> -> submit_claim -> decide ->
pay|reject. The customer's age is drawn per case from a truncated normal
distribution and stored on the register event; which notification channels
are available depends on that age (postal mail always, phone below one age
bound, email below a lower one), and the channel is chosen uniformly among
the available ones. A drift is injected by switching the age mean on a
configurable day, which indirectly shifts the notification mix.

Timing is laid out so that, with one-day intervals anchored at the first
register event, all register events of arrival day ``d`` land in interval
``d`` (1-based) and the rest of the case lands in interval ``d + 1``. The
data-perspective consequence of the drift therefore appears exactly one
interval before the control-flow consequence, giving a known ground truth
for lag analysis. Identical configurations produce identical logs, event
identifiers included.

Stamps are built in integer microseconds, with no ``datetime`` per event: each
case's register hour and four gaps become microseconds exactly as
``timedelta(hours=h)`` rounds them, and are summed in int64 onto its day's
start (an aware ``start`` steps in absolute time). The random draws and the
written files must not change for any seed: the tests and CI pin the written
files by hash.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime
from numbers import Real

import numpy as np

from .errors import ConfigInvalid
from .model import _US_MAX, NUMBER, EventLog, coded, columnar_log, sort_and_validate, to_us

ACTIVITY_REGISTER = "register"
ACTIVITY_SUBMIT = "submit_claim"
ACTIVITY_DECIDE = "decide"
ACTIVITY_PAY = "pay"
ACTIVITY_REJECT = "reject"
CHANNELS = ("notify_post", "notify_phone", "notify_email")

_AGE_LO, _AGE_HI = 18.0, 95.0


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 1
    days: int = 260
    cases_per_day: int = 20
    drift_day: int = 130
    pre_age_mean: float = 50.0
    post_age_mean: float = 35.0
    age_stddev: float = 10.0
    email_max_age: float = 40.0
    phone_max_age: float = 60.0
    pay_probability: float = 0.8
    resource_pool: tuple[str, ...] = (
        "clerk_01", "clerk_02", "clerk_03", "clerk_04", "clerk_05",
    )
    start: datetime = datetime(2021, 1, 4)

    def __post_init__(self):
        for name in ("seed", "days", "cases_per_day", "drift_day"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigInvalid(f"{name} must be an int, got {value!r}")
        for name in ("pre_age_mean", "post_age_mean", "age_stddev", "email_max_age",
                     "phone_max_age", "pay_probability"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not abs(value) < float("inf")):
                raise ConfigInvalid(f"{name} must be a finite number, got {value!r}")
        if self.days < 1 or self.cases_per_day < 1:
            raise ConfigInvalid("days and cases_per_day must be at least 1")
        if not 1 <= self.drift_day <= self.days:
            raise ConfigInvalid(
                f"drift_day must lie in 1..{self.days}, got {self.drift_day}"
            )
        if self.age_stddev <= 0:
            raise ConfigInvalid("age_stddev must be positive")
        if not 0 < self.email_max_age <= self.phone_max_age:
            raise ConfigInvalid("need 0 < email_max_age <= phone_max_age")
        if not 0.0 <= self.pay_probability <= 1.0:
            raise ConfigInvalid("pay_probability must lie in [0, 1]")
        if not (isinstance(self.resource_pool, (list, tuple)) and self.resource_pool
                and all(isinstance(name, str) and name for name in self.resource_pool)):
            raise ConfigInvalid(f"resource_pool needs non-empty names, got {self.resource_pool!r}")
        if not isinstance(self.start, datetime):
            raise ConfigInvalid(f"start must be a datetime, got {self.start!r}")
        try:
            start_us = to_us(self.start)
        except OverflowError:  # an aware start whose UTC instant datetime cannot hold
            raise ConfigInvalid(f"start {self.start} lies outside datetime's range") from None
        # the last case ends at most 10 + 36 + 2 + 2 + 1 = 51 hours after its day's start
        if start_us + (self.days - 1) * 86_400_000_000 + 51 * 3_600_000_000 > _US_MAX:
            raise ConfigInvalid(f"{self.days} days from {self.start} run past {datetime.max}")


def _truncated_age(gauss, mean: float, stddev: float) -> float:
    for _ in range(100):
        value = gauss(mean, stddev)
        if _AGE_LO <= value <= _AGE_HI:
            return float(round(value))
    return float(round(min(max(mean, _AGE_LO), _AGE_HI)))


def _hours_to_us(hours: np.ndarray) -> np.ndarray:
    """``timedelta(hours=h)`` of each ``h`` in microseconds, its fraction's rounded half to even."""
    frac, whole = np.modf(hours)
    return whole.astype(np.int64) * 3_600_000_000 + np.rint(frac * 3.6e9).astype(np.int64)


def generate(config: GeneratorConfig) -> EventLog:
    """Generate and validate a synthetic claim handling log."""
    rng = random.Random(config.seed)
    # rng.uniform(a, b) is a + (b - a) * random_(). On offer are postal mail, phone below
    # phone_max_age and email below email_max_age <= phone_max_age: the first k of CHANNELS
    random_, gauss, randbelow = rng.random, rng.gauss, rng._randbelow
    phone, email = config.phone_max_age, config.email_max_age
    activity: list[str] = []
    hours: list[float] = []
    ages: list[float] = []
    for day in range(1, config.days + 1):
        age_mean = config.pre_age_mean if day < config.drift_day else config.post_age_mean
        for case_no in range(1, config.cases_per_day + 1):
            # The very first register event anchors the interval grid at exactly
            # 08:00, so every timing window below (the hours to notify, submit,
            # decide and close) stays inside a single one-day interval from it.
            hours.append(8.0 if day == 1 and case_no == 1 else 8.0 + 2.0 * random_())
            age = _truncated_age(gauss, age_mean, config.age_stddev)
            ages.append(age)
            channel = CHANNELS[randbelow(1 + (age < phone) + (age < email))]
            hours += (24.0 + 12.0 * random_(), 1.0 + random_(), 1.0 + random_())
            outcome = ACTIVITY_PAY if random_() < config.pay_probability else ACTIVITY_REJECT
            hours.append(0.5 + 0.5 * random_())
            activity += (ACTIVITY_REGISTER, channel, ACTIVITY_SUBMIT, ACTIVITY_DECIDE, outcome)

    case_ids = [f"c{day:04d}_{case_no:03d}" for day in range(1, config.days + 1)
                for case_no in range(1, config.cases_per_day + 1)]
    steps = _hours_to_us(np.array(hours)).reshape(-1, 5)
    steps[:, 0] += to_us(config.start) + np.repeat(
        np.arange(config.days, dtype=np.int64) * 86_400_000_000, config.cases_per_day)
    # five events per case, the age on each register event, resources in turn
    n, pool = len(hours), config.resource_pool
    names, codes = coded(pool[:n])  # a pool longer than the log names only the resources used
    return sort_and_validate(columnar_log(
        (case_ids, np.repeat(np.arange(len(case_ids), dtype=np.int32), 5)), coded(activity),
        (names, codes[np.arange(n) % len(pool)]), None, steps.cumsum(axis=1).ravel(),
        {"age": (np.arange(0, n, 5), NUMBER, ages)}, {}, {},
    ))
