"""Seeded event log shaped like the BPI Challenge 2017 loan log, written as XES.

The log has 26 activities, each executed as a start/complete pair, and 150
resources. A group of ``GROUP_SIZE`` resources handles every workflow
(``W_``) item; the other resources handle application (``A_``) and offer
(``O_``) items. During a campaign, from week ``LOAD_STEPS[0]`` up to week
``LOAD_STEPS[1]``, every case carries extra ``W_Call after offers`` items,
so the group's weekly load steps up and later back down.

Every case passes the ``AFFECTED`` activities, whose service time grows with
the group's load ``LAG`` weeks earlier; a week without one of them would
read as a service time of 0 and could shift the detected step. Each workload step is therefore followed, ``LAG``
weeks later, by a service-time step, and both drift pairs share one lag.

Everything here is independent of the program under test: the log is built
with ``random.Random`` and written by hand as XES, so checking the parsed
log against :func:`expected_rows` does not rest on the program's writer.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta
from xml.sax.saxutils import quoteattr

WEEKS = 80
LAG = 10
#: 0-based weeks at which the group's load steps up, then back down.
LOAD_STEPS = (20, 50)
CASES_PER_WEEK = 25
GROUP_SIZE = 30
CAMPAIGN_CALLS = 3

ORIGIN_UTC = datetime(2016, 1, 4, 7, 0, 0)
#: Timestamps are written in local time at this fixed offset, as in BPI 2017.
UTC_OFFSET = timedelta(hours=1)

ACTIVITIES = (
    "A_Create Application", "A_Submitted", "A_Concept", "A_Accepted",
    "A_Complete", "A_Validating", "A_Incomplete", "A_Pending", "A_Denied",
    "A_Cancelled", "O_Create Offer", "O_Created", "O_Sent (mail and online)",
    "O_Sent (online only)", "O_Returned", "O_Accepted", "O_Refused",
    "O_Cancelled", "W_Handle leads", "W_Complete application",
    "W_Call after offers", "W_Validate application", "W_Call incomplete files",
    "W_Assess potential fraud", "W_Personal Loan collection",
    "W_Shortened completion",
)
CAMPAIGN_ACTIVITY = "W_Call after offers"
AFFECTED = ("A_Validating", "A_Incomplete", "A_Pending", "O_Returned")
RESOURCES = tuple(f"User_{i}" for i in range(1, 151))
GROUP = RESOURCES[:GROUP_SIZE]
OTHERS = RESOURCES[GROUP_SIZE:]
LOAN_GOALS = ("Car", "Home improvement", "Existing loan takeover", "Other")

_MS = timedelta(milliseconds=1)


def planted_change_points() -> tuple[tuple[int, int], ...]:
    """(secondary, primary) change-point indices, 1-based as in the report."""
    return tuple((w + 1, w + 1 + LAG) for w in LOAD_STEPS)


def _campaign(week: int) -> bool:
    return LOAD_STEPS[0] <= week < LOAD_STEPS[1]


def generate(seed: int) -> list[tuple[str, dict, list[tuple[str, str, str, int]]]]:
    """Return cases as (case id, trace attributes, events).

    Each event is (activity, resource, lifecycle, offset in ms from the
    origin). Offsets strictly increase within a case, and the first event
    of the first case sits exactly on the origin, so weekly intervals
    start on the planted week boundaries.
    """
    rng = random.Random(seed)
    base_service_s = {a: rng.uniform(300.0, 3600.0) for a in ACTIVITIES}
    workflow = [a for a in ACTIVITIES if a.startswith("W_")]
    optional = [a for a in ACTIVITIES[1:] if a not in AFFECTED]

    # First pass: each case's items, and the group's load per arrival week.
    plans = []
    group_load = [0] * (WEEKS + 1)
    for week in range(WEEKS):
        for _ in range(CASES_PER_WEEK):
            items = [ACTIVITIES[0]] + sorted(
                [*AFFECTED, *rng.sample(optional, rng.randint(2, 5))], key=ACTIVITIES.index
            )
            if _campaign(week):
                items += [CAMPAIGN_ACTIVITY] * CAMPAIGN_CALLS
            plans.append((week, items))
            group_load[week] += sum(1 for a in items if a in workflow)
    # A short closing case makes the log span exactly WEEKS full weeks.
    plans.append((WEEKS, [ACTIVITIES[0], "A_Submitted"]))
    reference = sum(group_load[: LOAD_STEPS[0]]) / LOAD_STEPS[0]

    week_ms = 7 * 24 * 3600 * 1000
    cases = []
    for serial, (week, items) in enumerate(plans, start=1):
        case_id = f"Application_{seed % 1000:03d}{serial:06d}"
        attrs = {
            "LoanGoal": rng.choice(LOAN_GOALS),
            "RequestedAmount": float(rng.randrange(1000, 50000, 500)),
        }
        if serial == 1:
            t = 0
        else:
            t = week * week_ms + int(rng.uniform(0.0, 6.0 * 24 * 3600 * 1000))
        earlier = group_load[week - LAG] if week >= LAG else reference
        factor = 1.0 + 0.5 * (earlier / reference - 1.0)
        events = []
        for i, activity in enumerate(items):
            if i:
                t += 1 + int(rng.expovariate(1.0 / 3600.0) * 1000)
            pool = GROUP if activity in workflow else OTHERS
            resource = rng.choice(pool)
            service_s = base_service_s[activity] * rng.lognormvariate(0.0, 0.25)
            if activity in AFFECTED:
                service_s *= factor
            events.append((activity, resource, "start", t))
            t += 1 + int(service_s * 1000)
            events.append((activity, resource, "complete", t))
        cases.append((case_id, attrs, events))
    return cases


def timestamp_utc(offset_ms: int) -> datetime:
    return ORIGIN_UTC + offset_ms * _MS


def expected_rows(cases) -> list[tuple[str, str, str, str, str]]:
    """(case, activity, UTC timestamp, resource, lifecycle) in log order."""
    return [
        (case_id, activity, timestamp_utc(ms).isoformat(), resource, lifecycle)
        for case_id, _, events in cases
        for activity, resource, lifecycle, ms in events
    ]


def write_xes(cases, path) -> None:
    """Write the cases as an XES document laid out like the BPI 2017 file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            '<?xml version="1.0" encoding="UTF-8" ?>\n'
            '<log xes.version="1.0" xes.features="nested-attributes" '
            'xmlns="http://www.xes-standard.org/">\n'
            '\t<extension name="Lifecycle" prefix="lifecycle" '
            'uri="http://www.xes-standard.org/lifecycle.xesext"/>\n'
            '\t<extension name="Organizational" prefix="org" '
            'uri="http://www.xes-standard.org/org.xesext"/>\n'
            '\t<extension name="Time" prefix="time" '
            'uri="http://www.xes-standard.org/time.xesext"/>\n'
            '\t<extension name="Concept" prefix="concept" '
            'uri="http://www.xes-standard.org/concept.xesext"/>\n'
            '\t<global scope="event">\n'
            '\t\t<string key="concept:name" value="__INVALID__"/>\n'
            '\t</global>\n'
            '\t<classifier name="Activity" keys="concept:name"/>\n'
        )
        event_serial = 0
        for case_id, attrs, events in cases:
            fh.write(
                "\t<trace>\n"
                f'\t\t<string key="LoanGoal" value={quoteattr(attrs["LoanGoal"])}/>\n'
                f'\t\t<float key="RequestedAmount" value="{attrs["RequestedAmount"]!r}"/>\n'
                f'\t\t<string key="concept:name" value="{case_id}"/>\n'
            )
            for activity, resource, lifecycle, ms in events:
                event_serial += 1
                local = timestamp_utc(ms) + UTC_OFFSET
                stamp = local.isoformat(timespec="milliseconds") + "+01:00"
                origin = {"A": "Application", "O": "Offer", "W": "Workflow"}[activity[0]]
                fh.write(
                    "\t\t<event>\n"
                    f'\t\t\t<string key="org:resource" value="{resource}"/>\n'
                    f'\t\t\t<string key="concept:name" value={quoteattr(activity)}/>\n'
                    f'\t\t\t<string key="EventID" value="{origin}_{event_serial}"/>\n'
                    f'\t\t\t<string key="lifecycle:transition" value="{lifecycle}"/>\n'
                    f'\t\t\t<date key="time:timestamp" value="{stamp}"/>\n'
                    "\t\t</event>\n"
                )
            fh.write("\t</trace>\n")
        fh.write("</log>\n")
