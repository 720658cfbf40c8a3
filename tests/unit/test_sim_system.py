"""Unit tests for event-loop details of the simulated system.

The end-to-end behavior is covered by the integration and property
suites; these tests pin down the bank-event scheduling corner cases.
"""

from repro.sim.system import _CYCLE_SHIFT, SimulatedSystem, simulate
from repro.workloads.trace import CoreTrace, TraceEntry


class _AbstainingScheduler:
    """A scheduler that never picks, forcing the fallback path."""

    name = "abstain"

    def pick(self, queue, open_row, cycle, release_of):
        return None

    def on_served(self, core, cycle, contended=True):
        pass


def _traces(num_cores=2, requests=20):
    return [
        CoreTrace.from_entries(
            name=f"c{core}",
            entries=[
                TraceEntry(gap_cycles=1, bank_index=0, row=i, instructions=2)
                for i in range(requests)
            ],
        )
        for core in range(num_cores)
    ]


class TestSchedulerAbstentionFallback:
    def test_all_requests_complete_without_scheduler(self):
        system = SimulatedSystem(_traces())
        system._schedulers = [
            _AbstainingScheduler() for _ in system._schedulers
        ]
        result = system.run()
        assert result.total_cycles > 0
        assert sum(system._core_served) == 2 * 20

    def test_fallback_skips_throttled_head_of_queue(self):
        """A throttled queue[0] must not starve released requests."""
        system = SimulatedSystem(_traces(num_cores=1, requests=2))
        system._schedulers = [
            _AbstainingScheduler() for _ in system._schedulers
        ]
        controller = system.banks[0]
        first = system._make_request(0, 0, system.cores[0].entry_list()[0], 0)
        second = system._make_request(0, 1, system.cores[0].entry_list()[1], 0)
        controller.queue.extend([first, second])

        original = controller.throttle_release

        def throttle(request, cycle):
            if request is first:
                return cycle + 10_000  # head of queue is throttled
            return original(request, cycle)

        controller.throttle_release = throttle
        system._bank_event(0, 100)
        # The released request (index 1) was served; the throttled head
        # is still queued, and a retry is scheduled rather than a spin.
        assert controller.queue == [first]
        assert system._core_served[0] == 1


class TestThrottledRetry:
    def _throttled_system(self, releases):
        """Two queued requests whose rows release at ``releases``."""
        system = SimulatedSystem(_traces(num_cores=2, requests=2))
        controller = system.banks[0]
        first = system._make_request(0, 0, system.cores[0].entry_list()[0], 0)
        second = system._make_request(1, 1, system.cores[1].entry_list()[1], 0)
        controller.queue.extend([first, second])
        by_row = {
            first.address.row: releases[0],
            second.address.row: releases[1],
        }
        controller.throttle_release = (
            lambda request, cycle: by_row[request.address.row]
        )
        return system, controller

    @staticmethod
    def _pending_cycles(system):
        return [key >> _CYCLE_SHIFT for key in system._heap]

    def test_retry_scheduled_at_earliest_release(self):
        """All candidates throttled: FR-FCFS/BLISS abstain and the
        event loop retries at the earliest release over the queue."""
        system, controller = self._throttled_system([450, 320])
        system._bank_event(0, 100)
        assert len(controller.queue) == 2  # nothing served
        assert system._bank_scheduled[0]
        assert self._pending_cycles(system) == [320]

    def test_abstain_fallback_retries_at_fallback_release(self):
        """With an always-abstaining scheduler the fallback candidate
        (earliest release) sets the retry cycle directly."""
        system, controller = self._throttled_system([999, 210])
        system._schedulers = [
            _AbstainingScheduler() for _ in system._schedulers
        ]
        system._bank_event(0, 100)
        assert len(controller.queue) == 2
        assert self._pending_cycles(system) == [210]

    def test_release_at_current_cycle_is_served_via_fallback(self):
        """Abstention with releases == cycle serves (oldest first)
        instead of scheduling a retry."""
        system, controller = self._throttled_system([10_000, 10_000])
        controller.throttle_release = lambda request, cycle: cycle
        system._schedulers = [
            _AbstainingScheduler() for _ in system._schedulers
        ]
        system._bank_event(0, 100)
        assert system._core_served[0] == 1  # oldest arrival won the tie
        assert len(controller.queue) == 1


class TestSingleRequestFastPath:
    class _ExplodingScheduler:
        """pick() must not be consulted for a single-candidate queue."""

        name = "exploding"

        def pick(self, queue, open_row, cycle, release_of):
            raise AssertionError("pick called for single-request queue")

        def on_served(self, core, cycle, contended=True):
            self.served = (core, contended)

    def test_single_request_skips_scheduler_pick(self):
        system = SimulatedSystem(_traces(num_cores=1, requests=1))
        scheduler = self._ExplodingScheduler()
        system._schedulers = [scheduler for _ in system._schedulers]
        result = system.run()
        assert system._core_served[0] == 1
        # A lone request is by definition uncontended (BLISS must not
        # build a blacklist streak from it).
        assert scheduler.served == (0, False)
        assert result.total_cycles > 0


class TestSimulateEntryPoint:
    def test_simulate_runs_once(self):
        result = simulate(_traces(num_cores=1, requests=4))
        assert result.total_cycles > 0
        assert result.per_core_instructions == [8]
