"""Tests for the service's job-queue backend.

``JobManager`` runs jobs on the ``thread`` backend
(:class:`repro.exec.ThreadExecutor`): any number of jobs queue, at most
``jobs`` run at once, queued futures cancel, and
``shutdown(cancel_futures=True)`` drains the queue.  These tests pin
that contract on the backend itself; the manager's own lifecycle is
covered in ``test_service_manager.py``.
"""

import threading
import time

import pytest

from repro import ScheduleOptions, Session, paper_case_study
from repro.core import SetGranularity
from repro.exec import EvaluateJob, ThreadExecutor, executor_names, make_executor
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import tiny_sequential
from repro.service import JobManager

COARSE_OPTIONS = ScheduleOptions(granularity=SetGranularity(rows_per_set=4))


@pytest.fixture(scope="module")
def canonical():
    return preprocess(tiny_sequential(), quantization=None).graph


@pytest.fixture(scope="module")
def arch(canonical):
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    return paper_case_study(min_pes + 4)


class TestRegistry:
    def test_service_backends_registered(self):
        names = executor_names()
        assert "remote" in names and "thread" in names
        assert "async" not in names

    def test_unknown_name_lists_registered_backends(self):
        with pytest.raises(KeyError, match="unknown executor") as excinfo:
            make_executor("warp-drive")
        message = str(excinfo.value)
        for name in ("inline", "thread", "process", "remote"):
            assert name in message
        assert "register_executor" in message


class TestAsyncExecutor:
    """The service's asynchronous job-queue contract, on ``ThreadExecutor``.

    The class and test names predate the move from the asyncio backend
    to the thread backend and are kept so the test ids stay stable.
    """
    def test_submit_resolves_to_value(self):
        backend = ThreadExecutor(2)
        try:
            assert backend.submit(lambda a, b: a + b, 2, 3).result() == 5
        finally:
            backend.shutdown()

    def test_exception_relayed_to_future(self):
        backend = ThreadExecutor(1)
        try:
            future = backend.submit(lambda: 1 / 0)
            assert isinstance(future.exception(), ZeroDivisionError)
        finally:
            backend.shutdown()

    def test_concurrency_bounded_by_jobs(self):
        backend = ThreadExecutor(2)
        lock = threading.Lock()
        active = [0]
        peak = [0]

        def task():
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            time.sleep(0.05)
            with lock:
                active[0] -= 1

        try:
            futures = [backend.submit(task) for _ in range(6)]
            for future in futures:
                future.result(timeout=30)
            assert peak[0] <= 2
        finally:
            backend.shutdown()

    def test_queued_job_cancellable(self):
        backend = ThreadExecutor(1)
        release = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            release.wait(30)

        try:
            first = backend.submit(blocker)
            assert started.wait(10)
            queued = backend.submit(lambda: "ran")
            assert queued.cancel()
            assert queued.cancelled()
            release.set()
            first.result(timeout=30)
        finally:
            release.set()
            backend.shutdown()

    def test_map_preserves_order(self):
        backend = ThreadExecutor(4)
        try:
            results = list(backend.map(lambda x: x * x, [(i,) for i in range(8)]))
            assert results == [i * i for i in range(8)]
        finally:
            backend.shutdown()

    def test_shutdown_idempotent_and_rejects_new_work(self):
        # ThreadExecutor rebuilds its pool on a late submit, so the
        # queue's refusal of new work lives in JobManager, which must
        # not resurrect the backend pool when it refuses.
        backend = ThreadExecutor(1)
        assert backend.submit(lambda: 1).result(timeout=30) == 1
        backend.shutdown()
        backend.shutdown()  # no-op
        manager = JobManager(1)
        manager.shutdown()
        manager.shutdown()  # no-op
        with pytest.raises(RuntimeError, match="shut down"):
            manager.submit(EvaluateJob("tiny_sequential"))
        assert manager.list_records() == []
        assert manager._executor._pool is None

    def test_shutdown_cancels_queued_work(self):
        backend = ThreadExecutor(1)
        release = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            release.wait(30)
            return "ran"

        try:
            first = backend.submit(blocker)
            assert started.wait(10)
            queued = [backend.submit(lambda: "queued") for _ in range(3)]
            backend.shutdown(wait=False, cancel_futures=True)
            assert all(future.cancelled() for future in queued)
            release.set()
            assert first.result(timeout=30) == "ran"
        finally:
            release.set()
            backend.shutdown()  # idempotent

    def test_session_with_async_backend_matches_inline(self, canonical, arch):
        job = EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True)
        inline = Session(arch).submit(job).result()
        with Session(arch, executor="thread") as session:
            threaded = session.submit(job).result()
        assert threaded.ok and inline.ok
        assert threaded.value.metrics == inline.value.metrics
        assert threaded.value.energy == inline.value.energy
