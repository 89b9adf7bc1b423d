"""The reference checks on hand-built tables whose problem and
critical clusters are known by construction.

Every table has four blocks of sessions over (asn, cdn); the other
five attributes hold one value each, so a key's session set is fixed
by its asn/cdn pairs alone.
"""

import numpy as np
import pytest

import reference
from repro.core.attributes import DEFAULT_SCHEMA
from repro.core.pipeline import AnalysisConfig, analyze_trace
from repro.core.sessions import SessionTable

NAMES = DEFAULT_SCHEMA.names
CONSTANT = {"site": "s1", "content_type": "vod", "player": "p1",
            "browser": "b1", "connection_type": "dsl"}


def block_table(blocks, epoch: int = 0) -> SessionTable:
    """``blocks`` maps (asn, cdn) to (sessions, buffering problems)."""
    vocabs = [[] for _ in NAMES]
    codes, buffering = [], []
    for (asn, cdn), (n, bad) in blocks.items():
        labels = {"asn": asn, "cdn": cdn, **CONSTANT}
        row = []
        for i, name in enumerate(NAMES):
            if labels[name] not in vocabs[i]:
                vocabs[i].append(labels[name])
            row.append(vocabs[i].index(labels[name]))
        codes += [row] * n
        buffering += [30.0] * bad + [1.0] * (n - bad)
    n = len(codes)
    return SessionTable(
        schema=DEFAULT_SCHEMA,
        vocabs=vocabs,
        codes=np.array(codes, dtype=np.int32),
        start_time=epoch * 3600.0 + np.linspace(1.0, 3500.0, n),
        duration_s=np.full(n, 100.0),
        buffering_s=np.array(buffering),
        join_time_s=np.full(n, 2.0),
        bitrate_kbps=np.full(n, 2000.0),
        join_failed=np.zeros(n, dtype=bool),
    )


def keys_with(*required):
    """Every key holding all ``required`` pairs plus any constants."""
    free = [(name, label) for name, label in CONSTANT.items()]
    out = set()
    for bits in range(1 << len(free)):
        pairs = dict(required)
        pairs.update(free[i] for i in range(len(free)) if bits >> i & 1)
        out.add(tuple((name, pairs[name]) for name in NAMES if name in pairs))
    return out


def enumerate_table(table, metric="buffering_ratio"):
    rows = np.arange(len(table))
    return reference.enumerate_epoch(NAMES, reference.epoch_rows(table, metric, rows))


def program_epoch(table, metric="buffering_ratio"):
    analysis = analyze_trace(table, AnalysisConfig(), workers=0)
    return analysis[metric].epochs[0]


# A1 on C1 fails every session; the other blocks are healthy.
COMBINATION = {("A1", "C1"): (100, 100), ("A1", "C2"): (100, 0),
               ("A2", "C1"): (100, 0), ("A2", "C2"): (700, 0)}
# C1 fails every session on both ASNs.
SINGLE = {("A1", "C1"): (100, 100), ("A1", "C2"): (100, 0),
          ("A2", "C1"): (100, 100), ("A2", "C2"): (700, 0)}
# Problems spread evenly: no cluster stands out.
UNIFORM = {("A1", "C1"): (100, 10), ("A1", "C2"): (100, 10),
           ("A2", "C1"): (100, 10), ("A2", "C2"): (700, 70)}


def test_direct_counts_by_construction():
    table = block_table(COMBINATION)
    counts = reference.direct_counts(table, n_epochs=2)
    assert counts["buffering_ratio"][0].tolist() == [1000, 0]
    assert counts["buffering_ratio"][1].tolist() == [100, 0]
    for metric in ("bitrate", "join_time", "join_failure"):
        assert counts[metric][0].tolist() == [1000, 0]
        assert counts[metric][1].tolist() == [0, 0]


def test_direct_counts_validity_and_thresholds():
    table = block_table({("A1", "C1"): (4, 0)}, epoch=1)
    table.join_failed[:] = [True, False, False, False]
    table.join_time_s[:] = [np.nan, 10.0, 10.5, 3.0]
    table.bitrate_kbps[:] = [np.nan, 700.0, 699.0, 3000.0]
    table.buffering_s[:] = [50.0, 5.0, 5.1, 0.0]  # ratios 0.5, 0.05, 0.051, 0
    counts = reference.direct_counts(table, n_epochs=2)
    assert counts["join_failure"][0].tolist() == [0, 4]
    assert counts["join_failure"][1].tolist() == [0, 1]
    for metric in ("buffering_ratio", "join_time", "bitrate"):
        assert counts[metric][0].tolist() == [0, 3]
        assert counts[metric][1].tolist() == [0, 1], metric


def test_combination_is_the_critical_cluster():
    ref = enumerate_table(block_table(COMBINATION))
    assert (ref.sessions, ref.problems) == (1000, 100)
    both = keys_with(("asn", "A1"), ("cdn", "C1"))
    # The two parents are problem clusters only through the combination.
    expected = both | keys_with(("asn", "A1")) | keys_with(("cdn", "C1"))
    assert ref.problem_keys == expected
    assert ref.critical_keys == {(("asn", "A1"), ("cdn", "C1"))}


def test_single_attribute_is_the_critical_cluster():
    ref = enumerate_table(block_table(SINGLE))
    assert ref.critical_keys == {(("cdn", "C1"),)}
    assert keys_with(("cdn", "C1")) <= ref.problem_keys


def test_no_cluster_when_problems_are_uniform():
    ref = enumerate_table(block_table(UNIFORM))
    assert ref.problem_keys == set()
    assert ref.critical_keys == set()


def test_small_clusters_are_not_significant():
    # Ten failing sessions sit below the 60-session floor.
    ref = enumerate_table(block_table({("A1", "C1"): (10, 10), ("A2", "C2"): (990, 0)}))
    assert ref.problem_keys == set()


@pytest.mark.parametrize("blocks", [COMBINATION, SINGLE, UNIFORM], ids=["combination", "single", "uniform"])
def test_program_agrees_with_enumeration(blocks):
    table = block_table(blocks)
    ref = enumerate_table(table)
    got = program_epoch(table)
    assert (got.total_sessions, got.total_problems) == (ref.sessions, ref.problems)
    assert {k.pairs for k in got.problem_clusters} == ref.problem_keys
    assert {k.pairs for k in got.critical_clusters} == ref.critical_keys
