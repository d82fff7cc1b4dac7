"""The reference kernel: how fast the benchmark's CPU runs at the moment.

On a shared host the speed of a CPU drifts with what the neighbours run:
the same in-process loop runs up to twice as long from one second to the
next, and whole runs minutes apart differ by more than any bound a
comparison could use.  The kernel below is a fixed piece of interpreter work
(JSON round trip, dict building, sorting, string formatting: the operations a
request costs the servers) that never changes with the program under test.
The benchmark runs it on the CPU that the load generator and every server
share, between measured slices, and scales each slice's times by
``REFERENCE_SECONDS / kernel time``: a figure reads what it would on a CPU
where the kernel takes ``REFERENCE_SECONDS``.  A change to the program moves
the scaled figures; a change in host speed moves the kernel with them.
"""

from __future__ import annotations

import json
import statistics
import time

#: kernel time the scaled figures refer to (about its time on a quiet host).
REFERENCE_SECONDS = 0.003
_ROUNDS = 200

_DECISION = {
    "time": 15, "subject": "S0042", "location": "B.room-3-4", "action": "ENTER",
    "granted": True, "reason": "granted", "entries_used": 1,
    "authorization": {"subject": "S0042", "location": "B.room-3-4",
                      "entry": [10, 20], "exit": [10, 40], "n": 2},
}


def kernel() -> int:
    """The fixed work whose duration is timed."""
    total = 0
    for index in range(_ROUNDS):
        decision = json.loads(json.dumps(_DECISION))
        fields = {}
        for key, value in decision.items():
            fields[key + str(index & 7)] = value
        total += len(sorted(fields)) + len("%s:%d" % (decision["subject"], index))
    return total


def kernel_seconds(repeats: int = 1) -> float:
    """Median duration of *repeats* runs of :func:`kernel` on the calling CPU."""
    durations = []
    for _ in range(repeats):
        started = time.perf_counter()
        kernel()
        durations.append(time.perf_counter() - started)
    return statistics.median(durations)
