"""E-batch — the batch decision API vs the per-request loop.

The PDP's :meth:`~repro.api.pdp.DecisionPoint.decide_many` evaluates the
whole batch against a memoizing snapshot of the policy-information point, so
candidate lookups and entry counts are shared across every request touching
the same ``(subject, location)`` pair.  The benchmark poses 10k synthetic
requests (with a seeded movement history) both ways and asserts that

* the two paths produce identical decisions,
* every batched decision carries a per-stage trace naming the deciding
  stage, and
* on the SQLite backend, the batch path is at least 1.5x faster than the
  per-request loop (~2x measured: the snapshot amortizes the per-request
  candidate-lookup queries), while on the in-memory backend it must simply
  never lose.  The speedup is the median loop/batch ratio over 5
  interleaved rounds, so one disturbed round cannot fail the gate.

Cost-model note: when this benchmark was written the entry-count reads
replayed movement history, so the snapshot's memoization amortized O(n)
scans and bought 2-3x on *any* backend.  The event-indexed
:class:`~repro.storage.occupancy.OccupancyService` made those reads O(1) —
the per-request loop itself got ~50x faster — so on the in-memory backend
the batch advantage is now bounded by pipeline overhead (~1.2x measured),
and the strong floor moved to the backend where per-request lookups still
cost something.  The storage-read speedup itself is asserted in
``test_bench_occupancy_reads.py``.
"""

import gc
import random
import statistics
import time as _time

import pytest

from repro.api import Ltam
from repro.core.requests import AccessRequest
from repro.locations.multilevel import LocationHierarchy
from repro.simulation.buildings import grid_building
from repro.simulation.workload import (
    AuthorizationWorkloadGenerator,
    WorkloadConfig,
    generate_subjects,
)

REQUEST_COUNT = 10_000
SQLITE_SPEEDUP_FLOOR = 1.5
MEMORY_SPEEDUP_FLOOR = 0.9  # batching must never meaningfully lose


def targeted_requests(engine, generator, subjects, count: int, *, seed: int):
    """Mostly-plausible traffic: subjects request locations they hold grants on.

    90% of requests are drawn from the stored authorizations (a random grant
    of a random subject, at a time inside its entry window), which is what
    production traffic looks like — people go where they are allowed, when
    they are allowed, and the expensive entry-budget counting actually runs.
    The remaining 10% are fully random for denial coverage.
    """
    rng = random.Random(seed)
    pool = engine.authorization_db.all()
    horizon = generator.config.horizon
    requests = []
    random_fill = generator.requests(subjects, count)
    for index in range(count):
        if rng.random() < 0.9 and pool:
            auth = rng.choice(pool)
            start = auth.entry_duration.start
            end = min(int(auth.entry_duration.end), horizon - 1) if not auth.entry_duration.is_unbounded else horizon - 1
            time = rng.randint(start, max(start, end))
            requests.append(AccessRequest(time, auth.subject, auth.location))
        else:
            requests.append(random_fill[index])
    return requests


def build_deployment(
    request_count: int = REQUEST_COUNT, *, movement_count: int = 1_000, backend: str = "memory"
):
    """An engine with synthetic authorizations, movement history, and requests."""
    hierarchy = LocationHierarchy(grid_building("B", 5, 5))
    builder = Ltam.builder().hierarchy(hierarchy)
    if backend != "memory":
        builder = builder.backend(backend)
    engine = builder.build()
    subjects = generate_subjects(40)
    generator = AuthorizationWorkloadGenerator(
        hierarchy,
        config=WorkloadConfig(
            horizon=500, coverage=0.8, window_length=300, max_entries=3, unlimited_fraction=0.3
        ),
        seed=7,
    )
    engine.grant_all(generator.authorizations(subjects))
    # Seed the movement database so entry counting scans real history.
    for request in targeted_requests(engine, generator, subjects, movement_count, seed=13):
        if engine.decide(request).granted:
            engine.observe_entry(request.time, request.subject, request.location)
            engine.observe_exit(request.time, request.subject, request.location)
    requests = targeted_requests(engine, generator, subjects, request_count, seed=29)
    return engine, requests


#: Interleaved loop/batch rounds per comparison; the gate is the median ratio.
ROUNDS = 5


def _timed(fn):
    """Wall-clock one call with the cyclic GC parked (as ``timeit`` does),
    so a collection the *other* path's garbage triggers is not billed here."""
    gc.collect()
    gc.disable()
    try:
        started = _time.perf_counter()
        result = fn()
        return _time.perf_counter() - started, result
    finally:
        gc.enable()


def _interleaved_rounds(rounds: int, loop_fn, batch_fn):
    """Time *rounds* back-to-back (loop, batch) pairs.

    Each round times both paths under the same machine conditions, so a
    load spike shifts one round's ratio instead of one side's whole sample;
    gating on the median ratio then tolerates a minority of disturbed
    rounds.  The order within a round alternates, so neither path always
    runs second.
    """
    loop_times, batch_times = [], []
    for round_index in range(rounds):
        if round_index % 2:
            batch_seconds, batch_result = _timed(batch_fn)
            loop_seconds, loop_result = _timed(loop_fn)
        else:
            loop_seconds, loop_result = _timed(loop_fn)
            batch_seconds, batch_result = _timed(batch_fn)
        loop_times.append(loop_seconds)
        batch_times.append(batch_seconds)
    return loop_times, batch_times, loop_result, batch_result


def _compare_batch_to_loop(engine, requests, table_printer, *, label, floor):
    loop_times, batch_times, loop_decisions, batch_decisions = _interleaved_rounds(
        ROUNDS,
        lambda: [engine.decide(request) for request in requests],
        lambda: engine.decide_many(requests),
    )

    # Identical outcomes, in the original request order.
    assert len(batch_decisions) == len(loop_decisions)
    for single, batched in zip(loop_decisions, batch_decisions):
        assert batched.granted == single.granted
        assert batched.reason == single.reason
        assert batched.entries_used == single.entries_used
        if single.granted:
            assert batched.authorization.auth_id == single.authorization.auth_id

    # Explainability: every decision names the stage that decided it.
    assert all(decision.trace for decision in batch_decisions)
    assert all(decision.deciding_stage is not None for decision in batch_decisions)

    ratios = sorted(loop / batch for loop, batch in zip(loop_times, batch_times))
    speedup = statistics.median(ratios)
    loop_seconds = statistics.median(loop_times)
    batch_seconds = statistics.median(batch_times)
    granted = sum(1 for decision in batch_decisions if decision.granted)
    table_printer(
        f"Batch decisions vs per-request loop (10k requests, {label}, "
        f"median of {ROUNDS} interleaved rounds)",
        ("path", "seconds", "decisions/s"),
        (
            ("per-request loop", f"{loop_seconds:.3f}", f"{len(requests) / loop_seconds:,.0f}"),
            ("decide_many", f"{batch_seconds:.3f}", f"{len(requests) / batch_seconds:,.0f}"),
            (
                "speedup",
                f"{speedup:.2f}x (min {ratios[0]:.2f}x, max {ratios[-1]:.2f}x)",
                f"granted {granted}/{len(requests)}",
            ),
        ),
    )
    assert speedup >= floor, (
        f"[{label}] decide_many was only {speedup:.2f}x faster than the per-request "
        f"loop in the median of {ROUNDS} interleaved rounds "
        f"(rounds: {', '.join(f'{ratio:.2f}x' for ratio in ratios)}; floor: {floor}x)"
    )


def test_batch_matches_loop_and_is_faster_sqlite(table_printer):
    engine, requests = build_deployment(backend="sqlite")
    _compare_batch_to_loop(
        engine, requests, table_printer, label="sqlite", floor=SQLITE_SPEEDUP_FLOOR
    )


def test_batch_matches_loop_in_memory(table_printer):
    engine, requests = build_deployment()
    _compare_batch_to_loop(
        engine, requests, table_printer, label="memory", floor=MEMORY_SPEEDUP_FLOOR
    )


@pytest.fixture(scope="module")
def small_deployment():
    return build_deployment(request_count=2_000, movement_count=300)


def test_bench_decide_many(benchmark, small_deployment):
    engine, requests = small_deployment
    decisions = benchmark(engine.decide_many, requests)
    assert len(decisions) == len(requests)


def test_bench_per_request_loop(benchmark, small_deployment):
    engine, requests = small_deployment
    decisions = benchmark(lambda: [engine.decide(request) for request in requests])
    assert len(decisions) == len(requests)
