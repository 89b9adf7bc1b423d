"""Reference computations made apart from the program under test.

Everything here is written from the paper's definitions, not from the
program's code paths:

* :func:`direct_counts` counts sessions and problem sessions per epoch
  and metric straight from the raw table columns, at the paper's
  thresholds (Section 2).
* :func:`enumerate_epoch` enumerates all ``2**7 - 1`` attribute
  combinations of one epoch in plain Python and recomputes the §3.1
  problem clusters and the §3.2 critical clusters.
* :func:`detectable_recall` scores critical clusters against the
  generator's planted events.

The significance rules (minimum cluster size, minimum problem count,
binomial guard) are the ones the repository documents for its
synthetic scale (``ProblemClusterConfig`` defaults); they are restated
here as constants so that a change to the program's defaults shows up
as a disagreement instead of moving the reference with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: The paper's problem-session thresholds (Section 2).
BUFFERING_RATIO_ABOVE = 0.05
JOIN_TIME_ABOVE_S = 10.0
BITRATE_BELOW_KBPS = 700.0

#: §3.1 problem-cluster rules at the repository's documented defaults.
RATIO_MULTIPLIER = 1.5
MIN_SESSION_FRACTION = 1000.0 / 900_000.0
MIN_SESSION_FLOOR = 60
MIN_PROBLEMS = 5
SIGNIFICANCE_SIGMAS = 2.0

METRICS = ("buffering_ratio", "bitrate", "join_time", "join_failure")


def metric_flags(table, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """``(valid, problem)`` boolean columns for one metric.

    Join time, bitrate and buffering are undefined for sessions that
    never joined; join failure is defined for every session.
    """
    joined = ~np.asarray(table.join_failed, dtype=bool)
    if metric == "buffering_ratio":
        duration = np.asarray(table.duration_s)
        buffering = np.asarray(table.buffering_s)
        ratio = np.zeros(duration.shape)
        positive = duration > 0
        ratio[positive] = buffering[positive] / duration[positive]
        return joined, joined & (ratio > BUFFERING_RATIO_ABOVE)
    if metric == "join_time":
        with np.errstate(invalid="ignore"):
            slow = np.asarray(table.join_time_s) > JOIN_TIME_ABOVE_S
        return joined, joined & slow
    if metric == "bitrate":
        with np.errstate(invalid="ignore"):
            low = np.asarray(table.bitrate_kbps) < BITRATE_BELOW_KBPS
        return joined, joined & low
    if metric == "join_failure":
        return np.ones(joined.shape, dtype=bool), ~joined
    raise KeyError(metric)


def direct_counts(
    table, n_epochs: int, epoch_seconds: float = 3600.0
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per metric: ``(sessions, problems)`` per epoch, epochs from t=0."""
    epoch = np.floor(np.asarray(table.start_time) / epoch_seconds).astype(np.int64)
    inside = (epoch >= 0) & (epoch < n_epochs)
    out = {}
    for metric in METRICS:
        valid, problem = metric_flags(table, metric)
        out[metric] = (
            np.bincount(epoch[valid & inside], minlength=n_epochs),
            np.bincount(epoch[problem & inside], minlength=n_epochs),
        )
    return out


def min_sessions_for(total_sessions: int) -> int:
    return max(MIN_SESSION_FLOOR, int(round(MIN_SESSION_FRACTION * total_sessions)))


@dataclass
class EpochClusters:
    """Problem and critical clusters of one (epoch, metric).

    Keys are tuples of ``(attribute, label)`` pairs in schema order,
    the same shape as ``ClusterKey.pairs``.
    """

    sessions: int
    problems: int
    problem_keys: set
    critical_keys: set


def enumerate_epoch(
    names: tuple[str, ...], rows: list[tuple[tuple[str, ...], bool]]
) -> EpochClusters:
    """All attribute combinations of one epoch, by brute force.

    ``rows`` holds one ``(labels, is_problem)`` pair per session valid
    for the metric, ``labels`` in the order of ``names``.
    """
    n_attrs = len(names)
    masks = range(1, 1 << n_attrs)
    bits = [[i for i in range(n_attrs) if m >> i & 1] for m in range(1 << n_attrs)]
    counts: dict[tuple, list[int]] = {}
    for labels, bad in rows:
        for m in masks:
            key = tuple((names[i], labels[i]) for i in bits[m])
            c = counts.get(key)
            if c is None:
                counts[key] = [1, int(bad)]
            else:
                c[0] += 1
                c[1] += bad

    total = len(rows)
    total_problems = sum(1 for _, bad in rows if bad)
    g = total_problems / total if total else 0.0
    floor = min_sessions_for(total)
    ratio_needed = RATIO_MULTIPLIER * g

    def is_problem(s: int, p: int) -> bool:
        if s < floor or p < MIN_PROBLEMS:
            return False
        ratio = p / s if s > 0 else 0.0
        sigma = math.sqrt(max(g * (1.0 - g) * s, 0.0))
        return ratio >= ratio_needed and p >= g * s + SIGNIFICANCE_SIGMAS * sigma

    problem = {k for k, (s, p) in counts.items() if is_problem(s, p)}
    unhealthy_ok = {k for k, (s, _) in counts.items() if s >= floor} - problem

    def proper_subkeys(key: tuple):
        k = len(key)
        for sub in range(1, (1 << k) - 1):
            yield tuple(key[i] for i in range(k) if sub >> i & 1)

    # §3.2 condition 2: every significant descendant is a problem cluster.
    tainted = set()
    for key in unhealthy_ok:
        tainted.update(proper_subkeys(key))
    candidates = set()
    for key in problem - tainted:
        s, p = counts[key]
        # §3.2 condition 3: removing the cluster's sessions clears every
        # problem ancestor.
        if all(
            not is_problem(counts[a][0] - s, counts[a][1] - p)
            for a in proper_subkeys(key)
            if a in problem
        ):
            candidates.add(key)
    # Closest to the root: no candidate ancestor.
    critical = {
        key for key in candidates
        if not any(a in candidates for a in proper_subkeys(key))
    }
    return EpochClusters(total, total_problems, problem, critical)


def epoch_rows(table, metric: str, rows: np.ndarray) -> list[tuple[tuple[str, ...], bool]]:
    """``(labels, is_problem)`` per valid session among ``rows``."""
    valid, problem = metric_flags(table, metric)
    vocabs = table.vocabs
    out = []
    for r in rows:
        if valid[r]:
            codes = table.codes[r]
            labels = tuple(vocabs[i][int(c)] for i, c in enumerate(codes))
            out.append((labels, bool(problem[r])))
    return out


def detectable_recall(table, catalog, critical_by_metric, n_epochs: int,
                      epoch_seconds: float = 3600.0) -> tuple[int, int]:
    """``(detected, detectable)`` planted events.

    An event is detectable when, in at least one epoch it is active,
    its cluster holds at least the epoch's minimum cluster size of
    sessions valid for its primary metric. It is detected when its
    exact key is a critical cluster of that metric in one of its
    active epochs. ``critical_by_metric[metric][epoch]`` is a set of
    ``(attribute, label)`` tuples.
    """
    epoch = np.floor(np.asarray(table.start_time) / epoch_seconds).astype(np.int64)
    detected = detectable = 0
    for event in catalog:
        metric = event.primary_metric
        valid, _ = metric_flags(table, metric)
        inside = valid.copy()
        for attr, label in event.constraints:
            col = table.schema.names.index(attr)
            try:
                code = table.vocabs[col].index(label)
            except ValueError:
                inside[:] = False
                break
            inside &= table.codes[:, col] == code
        per_epoch = np.bincount(epoch[inside], minlength=n_epochs)[:n_epochs]
        totals = np.bincount(epoch[valid], minlength=n_epochs)[:n_epochs]
        active = [e for e in range(n_epochs) if event.is_active(e)]
        if not any(per_epoch[e] >= min_sessions_for(int(totals[e])) for e in active):
            continue
        detectable += 1
        key = tuple(event.cluster_key.pairs)
        if any(key in critical_by_metric[metric][e] for e in active):
            detected += 1
    return detected, detectable
