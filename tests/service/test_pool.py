"""The crash-isolated worker pool: every task gets exactly one outcome."""

import gc
import multiprocessing
import multiprocessing.util
import os
import pathlib
import signal
import subprocess
import sys
import time

from repro.service import pool as pool_module
from repro.service.pool import WorkerPool, run_tasks, serialize_exception
from repro.service.errors import GuestFault


def _double(x):
    return x * 2


def _raise(x):
    raise ValueError(f"task {x}")


def _exit(x):
    os._exit(77)


def _hang(x):
    while True:
        time.sleep(0.05)


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _wedge_or_hang(x):
    if x == "wedge":
        # Runs when the child's multiprocessing bootstrap exits: the
        # error retires the worker, its report is already on the pipe,
        # and the process is going nowhere.
        multiprocessing.util.Finalize(None, time.sleep, args=(30,),
                                      exitpriority=0)
        raise ValueError(os.getpid())
    if x == "hang":
        _hang(x)
    return x


def _pid(x):
    if x == "error":
        raise ValueError("bad task")
    return os.getpid()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _zombie(pid: int) -> bool:
    """True once *pid* has died and waits to be reaped."""
    with open(f"/proc/{pid}/stat") as handle:
        return handle.read().rsplit(")", 1)[1].split()[0] == "Z"


def _dead(pid: int) -> bool:
    """True once *pid* has died, reaped or not (an orphan's reaper is
    not ours)."""
    try:
        return _zombie(pid)
    except FileNotFoundError:
        return True


def _gone(pid: int) -> bool:
    """True once *pid* is dead and reaped (or was never ours)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _mixed(x):
    if x == "crash":
        os._exit(77)
    if x == "error":
        raise ValueError("bad task")
    if x == "hang":
        _hang(x)
    return f"ok:{x}"


class TestOutcomes:
    def test_ok(self):
        [outcome] = run_tasks(_double, [21], workers=1)
        assert outcome.ok and outcome.value == 42

    def test_error_is_serialized_not_raised(self):
        [outcome] = run_tasks(_raise, [7], workers=1)
        assert outcome.status == "error"
        assert outcome.value["type"] == "ValueError"
        assert "task 7" in outcome.value["message"]

    def test_crash_is_classified_with_exitcode(self):
        [outcome] = run_tasks(_exit, [0], workers=1)
        assert outcome.status == "crash"
        assert outcome.exitcode == 77

    def test_hang_is_reaped(self):
        [outcome] = run_tasks(_hang, [0], workers=1, timeout=0.5)
        assert outcome.status == "timeout"
        assert outcome.duration_s >= 0.5

    def test_sibling_isolation(self):
        # A crash and an error must not disturb the healthy tasks.
        outcomes = run_tasks(_mixed, ["a", "crash", "error", "b"],
                             workers=2)
        assert [o.status for o in outcomes] \
            == ["ok", "crash", "error", "ok"]
        assert outcomes[0].value == "ok:a"
        assert outcomes[3].value == "ok:b"

    def test_more_tasks_than_workers(self):
        outcomes = run_tasks(_double, list(range(9)), workers=2)
        assert [o.value for o in outcomes] == [i * 2 for i in range(9)]

    def test_every_task_resolves(self):
        with WorkerPool(2, _double) as pool:
            for i in range(5):
                pool.submit(i, i)
            collected = pool.drain()
        assert sorted(key for key, _ in collected) == list(range(5))
        assert pool.outstanding == 0


class TestLifecycle:
    """spawned → running ⇄ idle → exiting → reaped, and nothing left
    behind."""

    def test_close_leaves_no_child_and_no_descriptor(self):
        run_tasks(_double, [0], workers=1)      # multiprocessing warm-up
        baseline = _open_fds()
        pool = WorkerPool(2, _double)
        for i in range(6):
            pool.submit(i, i)
        assert len(pool.drain()) == 6
        pool.close()
        assert pool.launched == 2               # one per slot, reused
        assert multiprocessing.active_children() == []
        assert _open_fds() == baseline

    def test_pool_is_reusable_across_batches_and_after_close(self):
        with WorkerPool(1, _double, start_method="spawn") as pool:
            for i in range(2):
                pool.submit(i, i + 1)
                [(_, outcome)] = pool.drain()
                assert outcome.ok and outcome.value == (i + 1) * 2
            pool.close()
            pool.submit(2, 21)
            assert pool.drain()[0][1].value == 42
        assert multiprocessing.active_children() == []

    def test_close_after_an_exception_inside_a_step(self, monkeypatch):
        # The pass is abandoned half-way: the entries it had resolved
        # (one idle, one already reaped) are still listed as running,
        # and the outcome it had queued is batch-relative.
        pool = WorkerPool(3, _mixed)
        pool.submit("done", 1)
        pool.submit("dead", "crash")
        pool.submit("slow", "hang")
        time.sleep(0.5)                         # the first two are over
        real_collect = pool._collect
        calls = []

        def interrupt_after_second(entry, now):
            real_collect(entry, now)
            calls.append(entry.key)
            if len(calls) == 2:
                raise KeyboardInterrupt
        monkeypatch.setattr(pool, "_collect", interrupt_after_second)
        try:
            pool.drain()
        except KeyboardInterrupt:
            pass
        assert calls == ["done", "dead"]
        assert len(pool._running) == 3 and len(pool._idle) == 1
        monkeypatch.undo()
        pool.close()
        pool.close()
        assert multiprocessing.active_children() == []
        pool.submit("next", 4)                  # no stale outcome surfaces
        assert [(k, o.value) for k, o in pool.drain()] == [("next", "ok:4")]
        pool.close()

    def test_wedged_exit_holds_up_nobody(self, monkeypatch):
        # A worker that reported an error and then hangs on its way out
        # must not block the supervisor in a join: no sibling result,
        # no sibling deadline, for the whole grace period.
        monkeypatch.setattr(pool_module, "_EXIT_GRACE_S", 1.0)
        with WorkerPool(2, _wedge_or_hang) as pool:
            start = time.monotonic()
            pool.submit("A", "wedge")
            pool.submit("B", "hang", timeout=0.3)
            outcomes = dict(pool.drain())
            assert time.monotonic() - start < 1.5
            assert outcomes["B"].status == "timeout"
            assert outcomes["A"].status == "error"
            wedged = int(outcomes["A"].value["message"])
            assert not _gone(wedged)            # still in its finalizer
            time.sleep(1.0)
            pool.submit("C", "ok")              # one more supervision step
            assert pool.drain()[0][1].ok
            assert _gone(wedged)


class TestReuse:
    """A worker outlives an ``ok`` task and only an ``ok`` task."""

    def test_ok_tasks_share_a_worker_and_an_error_retires_it(self):
        with WorkerPool(1, _pid) as pool:
            pids = []
            for i in range(3):
                pool.submit(i, i)
                [(_, outcome)] = pool.drain()
                pids.append(outcome.value)
            assert len(set(pids)) == 1
            assert (pool.launched, pool.retired) == (1, 0)
            pool.submit("bad", "error")
            [(_, bad)] = pool.drain()
            assert bad.status == "error"
            pool.submit("next", 1)
            [(_, after)] = pool.drain()
            assert after.ok and after.value != pids[0]
            assert (pool.launched, pool.retired) == (2, 1)

    def test_an_idle_worker_killed_from_outside_is_replaced(self):
        with WorkerPool(1, _pid) as pool:
            pool.submit("first", 0)
            [(_, first)] = pool.drain()
            os.kill(first.value, signal.SIGKILL)
            while not _zombie(first.value):
                time.sleep(0.01)
            pool.submit("next", 1)
            [(_, after)] = pool.drain()
            assert after.ok and after.value != first.value
            assert (pool.launched, pool.retired) == (2, 1)
        assert multiprocessing.active_children() == []

    def test_an_orphaned_idle_worker_exits_by_itself(self):
        # Closing a supervisor end cannot end a worker (its siblings
        # hold a copy), so an idle worker watches its parent instead.
        script = ("import time\n"
                  "from repro.service.pool import WorkerPool\n"
                  "pool = WorkerPool(1, abs)\n"
                  "pool.submit(0, -1)\n"
                  "assert pool.drain()[0][1].value == 1\n"
                  "print(pool._idle[0].process.pid, flush=True)\n"
                  "time.sleep(60)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(pathlib.Path(pool_module.__file__).parents[2]),
            os.environ.get("PYTHONPATH")])))
        supervisor = subprocess.Popen([sys.executable, "-c", script],
                                      stdout=subprocess.PIPE, text=True,
                                      env=env)
        try:
            worker = int(supervisor.stdout.readline())
        finally:
            supervisor.kill()
            supervisor.wait()
            supervisor.stdout.close()
        patience = time.monotonic() + 10.0
        while not _dead(worker) and time.monotonic() < patience:
            time.sleep(0.05)
        assert _dead(worker)

    def test_an_unpicklable_payload_is_its_own_error(self):
        with WorkerPool(1, _pid) as pool:
            pool.submit("bad", lambda: None)
            pool.submit("good", 0)
            outcomes = dict(pool.drain())
            assert outcomes["bad"].status == "error"
            assert outcomes["good"].ok
            assert (pool.launched, pool.retired) == (1, 0)

    def test_dropped_pool_reaps_its_idle_workers(self):
        pool = WorkerPool(2, _pid)
        for i in range(2):
            pool.submit(i, i)
        pids = [outcome.value for _, outcome in pool.drain()]
        del pool
        gc.collect()
        assert multiprocessing.active_children() == []
        assert all(_gone(pid) for pid in pids)


class TestSerializeException:
    def test_service_error_keeps_taxonomy_form(self):
        payload = serialize_exception(GuestFault("nope"))
        assert payload["kind"] == "guest-fault"

    def test_external_keeps_type_and_traceback(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            payload = serialize_exception(exc)
        assert payload["kind"] == "external"
        assert payload["type"] == "ValueError"
        assert any("boom" in line for line in payload["traceback"])
