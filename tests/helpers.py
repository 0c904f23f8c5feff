"""Shared test utilities: oracle comparisons and report normalization."""

from repro.core import Commit, LazyGoldilocks
from repro.core.actions import is_data_access
from repro.oracle import HappensBeforeOracle
from repro.server.protocol import format_race


def oracle_first_races(events):
    """var -> index of the first racy access, per the ground-truth oracle."""
    oracle = HappensBeforeOracle(events)
    return {var: j for var, (i, j) in oracle.first_race_per_var().items()}


def detector_first_races(detector, events):
    """var -> index (into the trace) of the event completing the first race."""
    firsts = {}
    for pos, event in enumerate(events):
        for report in detector.process(event):
            firsts.setdefault(report.var, pos)
    return firsts


def offline_race_lines(events):
    """Sorted offline race lines, seq = trace index: what a service must print."""
    detector = LazyGoldilocks()
    return sorted(
        format_race(seq, report)
        for seq, event in enumerate(events)
        for report in detector.process(event)
    )


def report_key(report):
    """Detector-independent identity of a race report."""
    return (report.var, report.second.tid, report.second.index, report.second.kind)


def oracle_first_races_read_read(events):
    """First races under the conservative model of the original Figure 5 rules.

    No read/write distinction: every pair of accesses to a variable
    conflicts, except commit-commit pairs (transactions never race with each
    other).  Incarnation filtering mirrors the oracle's rule-8 handling.
    """
    oracle = HappensBeforeOracle(events)
    accessors = []
    for idx, event in enumerate(events):
        action = event.action
        if is_data_access(action):
            accessors.append((idx, {action.var}, False))
        elif isinstance(action, Commit):
            accessors.append((idx, set(action.footprint), True))
    firsts = {}
    incarnations = oracle._incarnations
    for a_pos, (i, vars_i, commit_i) in enumerate(accessors):
        for j, vars_j, commit_j in accessors[a_pos + 1 :]:
            if commit_i and commit_j:
                continue
            for var in vars_i & vars_j:
                if incarnations[i].get(var) != incarnations[j].get(var):
                    continue
                if not oracle.ordered(i, j):
                    if var not in firsts or j < firsts[var]:
                        firsts[var] = j
    return firsts
