"""Seeded inputs shared by every workload, and the embedded oracle.

Everything a run sends to the servers is generated here from the workload
seed with :mod:`repro.simulation`: the building, the subjects, three
overlapping grant sets per subject, a movement trace (the first
``HISTORY_EVENTS`` records seed the servers, the rest are the live stream
``tracker_mixed`` ships) and the request pools.  The servers receive only
these generated inputs; the seed never leaves the load generator.

The sizes follow ``benchmarks/test_bench_service.py``: 200 subjects, three
grant sets per subject and a 20k-event history.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Dict, List, Sequence

from repro.api import Ltam
from repro.locations.multilevel import LocationHierarchy
from repro.service.protocol import decision_to_dict, elide_decision, request_to_dict
from repro.simulation.buildings import grid_building
from repro.simulation.workload import AuthorizationWorkloadGenerator, generate_subjects

SUBJECTS = 200
GRANT_SETS = 3
HISTORY_EVENTS = 20_000
HOT_POOL = 2_000
ZIPF_EXPONENT = 1.1


class Inputs:
    """Everything one run generates from its seed (deterministic per seed)."""

    def __init__(self, seed: int, *, subjects: int = SUBJECTS, history: int = HISTORY_EVENTS,
                 live_events: int = 0) -> None:
        self.layout = grid_building("B", 6, 6)
        self.hierarchy = LocationHierarchy(self.layout)
        self.locations = sorted(self.hierarchy.primitive_names)
        self.subjects = generate_subjects(subjects)
        self.grants = []
        for offset in range(GRANT_SETS):
            generator = AuthorizationWorkloadGenerator(self.hierarchy, seed=_derive(seed, 1 + offset))
            self.grants.extend(generator.authorizations(self.subjects))
        movements = AuthorizationWorkloadGenerator(self.hierarchy, seed=_derive(seed, 10))
        trace = movements.movement_events(self.subjects, history + live_events)
        self.history = trace[:history]
        self.live = trace[history:]
        self._rng = random.Random(_derive(seed, 20))
        self._requests = AuthorizationWorkloadGenerator(self.hierarchy, seed=_derive(seed, 30))

    def requests(self, count: int):
        """*count* fresh uniformly random requests (continues one seeded stream)."""
        return self._requests.requests(self.subjects, count)

    def hot_stream(self, pool_size: int, count: int):
        """A Zipf-skewed stream over a pool of *pool_size* distinct requests.

        Returns ``(pool, indices)``: the pool, and *count* pool indices where
        rank ``r`` is drawn with weight ``1 / (r + 1) ** ZIPF_EXPONENT``.
        """
        pool = _distinct(self.requests(pool_size * 2), pool_size)
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pool))]
        cumulative = list(itertools.accumulate(weights))
        total = cumulative[-1]
        rng = self._rng
        indices = [
            min(bisect.bisect_left(cumulative, rng.random() * total), len(pool) - 1)
            for _ in range(count)
        ]
        return pool, indices

    def oracle(self) -> Ltam:
        """An embedded engine holding the same grants and history as a server."""
        engine = Ltam.builder().hierarchy(self.hierarchy).build()
        engine.grant_all(self.grants)
        engine.movement_db.record_many(self.history)
        return engine


def _derive(seed: int, stream: int) -> int:
    """Independent sub-seeds per input stream, stable across Python builds."""
    return (seed * 1_000_003 + stream * 7_919) & 0x7FFFFFFF


def _distinct(requests, limit: int):
    seen = set()
    result = []
    for request in requests:
        key = (request.time, request.subject, request.location)
        if key not in seen:
            seen.add(key)
            result.append(request)
            if len(result) == limit:
                break
    return result


def wire_requests(requests) -> List[Dict]:
    return [request_to_dict(request) for request in requests]


def expected_wire(decision) -> Dict:
    """The trace-elided wire form the server must answer for *decision*."""
    return elide_decision(decision_to_dict(decision, include_trace=False))


def mismatches(served: Sequence[Dict], expected: Sequence[Dict]) -> int:
    """Served decisions that differ from the oracle on outcome, reason,
    entries used or admitting authorization (plus any count difference)."""
    bad = abs(len(served) - len(expected))
    for got, want in zip(served, expected):
        if (
            not isinstance(got, dict)
            or got.get("granted") != want["granted"]
            or got.get("reason") != want["reason"]
            or got.get("entries_used", 0) != want["entries_used"]
            or got.get("authorization") != want["authorization"]
        ):
            bad += 1
    return bad
