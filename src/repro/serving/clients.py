"""Client load generators: closed-loop client pools and open-loop arrivals.

The paper's goodput experiments (Figure 7/9) "simulate concurrent requests
from different numbers of clients": a *closed-loop* model where each client
keeps exactly one request in flight and submits the next one as soon as the
previous finishes.  The window-similarity and trace-replay experiments use an
*open-loop* model where requests arrive on their own schedule regardless of
completions (Poisson arrivals at a target rate, or recorded arrival times).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator

from repro.workloads.arrivals import assign_poisson_arrivals
from repro.workloads.spec import RequestSpec, Workload


@dataclass(order=True)
class Arrival:
    """One scheduled request arrival."""

    time: float
    sequence: int
    spec: RequestSpec = field(compare=False)


class ClosedLoopClientPool:
    """``num_clients`` clients, each keeping one request in flight.

    Clients pull the next spec from the shared workload when their previous
    request completes (after an optional think time).  This is the standard
    load-testing model: raising ``num_clients`` raises concurrency until the
    server saturates.
    """

    def __init__(self, workload: Workload, num_clients: int, think_time: float = 0.0) -> None:
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        self._specs: Iterator[RequestSpec] = iter(workload.requests)
        self._num_clients = num_clients
        self._think_time = think_time
        self._pending: list[Arrival] = []
        self._sequence = 0
        self._exhausted = False
        self._in_flight = 0

    @property
    def num_clients(self) -> int:
        """Size of the client pool."""
        return self._num_clients

    @property
    def in_flight(self) -> int:
        """Requests currently submitted but not yet finished."""
        return self._in_flight

    @property
    def min_reaction_delay(self) -> float:
        """Smallest completion-to-arrival delay: every client thinks this long."""
        return self._think_time

    def _next_spec(self) -> RequestSpec | None:
        try:
            return next(self._specs)
        except StopIteration:
            self._exhausted = True
            return None

    def _schedule(self, time: float) -> None:
        spec = self._next_spec()
        if spec is None:
            return
        self._sequence += 1
        heapq.heappush(self._pending, Arrival(time=time, sequence=self._sequence, spec=spec))

    def start(self, time: float = 0.0) -> None:
        """Schedule the initial request of every client."""
        for _ in range(self._num_clients):
            self._schedule(time)

    def on_request_finished(self, time: float) -> None:
        """Notify the pool that one in-flight request completed at ``time``."""
        self._in_flight = max(self._in_flight - 1, 0)
        self._schedule(time + self._think_time)

    def pop_arrivals(self, now: float) -> list[RequestSpec]:
        """Specs whose scheduled arrival time is at or before ``now``."""
        ready: list[RequestSpec] = []
        while self._pending and self._pending[0].time <= now:
            arrival = heapq.heappop(self._pending)
            ready.append(arrival.spec.with_arrival(arrival.time))
            self._in_flight += 1
        return ready

    def next_arrival_time(self) -> float | None:
        """Time of the earliest scheduled future arrival, if any."""
        return self._pending[0].time if self._pending else None

    @property
    def drained(self) -> bool:
        """Whether every workload spec has been handed out and completed."""
        return self._exhausted and not self._pending and self._in_flight == 0


class OpenLoopArrivals:
    """Open-loop arrival process over a workload.

    Either replays recorded ``arrival_time`` values from the specs, or draws
    exponential inter-arrival gaps for a Poisson process at ``request_rate``
    requests per second.
    """

    def __init__(
        self,
        workload: Workload,
        request_rate: float | None = None,
        seed: int = 0,
    ) -> None:
        self._arrivals: list[Arrival] = []
        if request_rate is not None:
            # Single source of truth for Poisson stamping; replaying the
            # stamped workload gives the identical trace.
            stamped = assign_poisson_arrivals(workload, request_rate, seed=seed)
            for index, spec in enumerate(stamped.requests):
                self._arrivals.append(Arrival(time=spec.arrival_time, sequence=index, spec=spec))
        else:
            for index, spec in enumerate(workload.requests):
                if spec.arrival_time is None:
                    raise ValueError(
                        "workload specs lack arrival times; pass request_rate instead"
                    )
                self._arrivals.append(Arrival(time=spec.arrival_time, sequence=index, spec=spec))
        heapq.heapify(self._arrivals)
        self._in_flight = 0

    def start(self, time: float = 0.0) -> None:
        """Open-loop arrivals are pre-scheduled; nothing to do."""

    def on_request_finished(self, time: float) -> None:
        """Completions do not influence an open-loop arrival process."""
        self._in_flight = max(self._in_flight - 1, 0)

    def pop_arrivals(self, now: float) -> list[RequestSpec]:
        """Specs whose arrival time is at or before ``now``."""
        ready: list[RequestSpec] = []
        while self._arrivals and self._arrivals[0].time <= now:
            arrival = heapq.heappop(self._arrivals)
            ready.append(arrival.spec.with_arrival(arrival.time))
            self._in_flight += 1
        return ready

    def next_arrival_time(self) -> float | None:
        """Time of the earliest future arrival, if any."""
        return self._arrivals[0].time if self._arrivals else None

    @property
    def drained(self) -> bool:
        """Whether every arrival has been handed out and completed."""
        return not self._arrivals and self._in_flight == 0
