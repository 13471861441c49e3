"""Quiet-instant hand-offs: ``Simulator.quiet`` and the in-place fast path.

A process may complete a hand-off in place (``try_put``, ``try_get``,
``try_acquire``) instead of yielding the already-triggered event only
while ``sim.quiet()`` holds.  These tests pin the predicate in every copy
of the event loop and check, on random programs, that taking the fast
path never changes the schedule.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.profile import KernelProfiler
from repro.sim import Resource, Signal, SimulationError, Simulator, Store

# Every copy of the event loop: the kernel's two run() variants, step(),
# and the profiler's two mirrors of run().
LOOPS = ["deadline", "until_event", "step", "profiled_deadline", "profiled_until_event"]


def _drive(sim, loop, stop):
    """Run ``sim`` to completion with one loop copy; ``stop`` is a process."""
    if loop.startswith("profiled_"):
        KernelProfiler.install(sim).enable()
        loop = loop[len("profiled_"):]
    if loop == "deadline":
        sim.run(until=10_000)
    elif loop == "until_event":
        sim.run(until=stop)
    else:
        while sim.peek() is not None:
            sim.step()


def _spin(sim, n=3):
    """A process that keeps the run(until=event) loop going past the probes."""
    def proc():
        for _ in range(n):
            yield sim.timeout(10)
    return sim.process(proc(), name="spin")


@pytest.mark.parametrize("loop", LOOPS)
def test_quiet_when_sole_callback_and_queue_empty(loop):
    sim = Simulator()
    seen = []

    def probe():
        yield sim.timeout(5)
        seen.append(sim.quiet())

    sim.process(probe(), name="probe")
    _drive(sim, loop, _spin(sim))
    # step() hands control back after every event, so it never allows
    # the fast path; every run() loop does.
    assert seen == [loop != "step"]


@pytest.mark.parametrize("loop", LOOPS)
def test_not_quiet_during_multi_callback_fan_out(loop):
    sim = Simulator()
    sig = Signal(sim)
    seen = []

    def waiter(i):
        yield sig.wait()
        seen.append((i, sim.quiet()))

    def firer():
        yield sim.timeout(5)
        sig.fire()
        # Sleep rather than finish: a finishing process would put its own
        # completion on the immediate queue and hide the fan-out.
        yield sim.timeout(1)

    for i in range(3):
        sim.process(waiter(i), name=f"waiter{i}")
    sim.process(firer(), name="firer")
    _drive(sim, loop, _spin(sim))
    assert seen == [(0, False), (1, False), (2, False)]


@pytest.mark.parametrize("loop", LOOPS)
def test_not_quiet_while_immediate_queue_non_empty(loop):
    sim = Simulator()
    store = Store(sim)
    seen = []

    def consumer():
        yield store.get()

    def producer():
        yield sim.timeout(5)
        before = sim.quiet()
        # Wakes the blocked consumer: its event joins the immediate queue.
        store.try_put("x")
        seen.append((before, sim.quiet()))

    sim.process(consumer(), name="consumer")
    sim.process(producer(), name="producer")
    _drive(sim, loop, _spin(sim))
    assert seen == [(loop != "step", False)]


@pytest.mark.parametrize("loop", ["until_event", "profiled_until_event"])
def test_not_quiet_when_resumed_by_the_awaited_event(loop):
    sim = Simulator()
    seen = []
    stop = sim.timeout(5)

    def watcher():
        yield stop
        seen.append(sim.quiet())

    sim.process(watcher(), name="watcher")
    if loop.startswith("profiled_"):
        KernelProfiler.install(sim).enable()
    sim.run(until=stop)
    sim.run()
    assert seen == [False]


@pytest.mark.parametrize("profiled", [False, True])
def test_flag_cleared_when_run_raises(profiled):
    sim = Simulator()
    if profiled:
        KernelProfiler.install(sim).enable()

    def boom():
        yield sim.timeout(1)
        raise RuntimeError("boom")

    sim.process(boom(), name="boom")
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.quiet() is False
    assert sim._solo is False


def test_not_quiet_outside_the_event_loop():
    sim = Simulator()
    assert sim.quiet() is False
    sim.run()
    assert sim.quiet() is False


def test_resource_try_acquire():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    assert res.try_acquire() and res.try_acquire()
    assert not res.try_acquire()
    assert res.in_use == 2
    res.release()
    assert res.available == 1


# -- schedule identity on random programs ------------------------------------

N_STORES, N_RESOURCES, N_SIGNALS = 2, 2, 2

_op = st.one_of(
    st.tuples(st.just("sleep"), st.integers(0, 2)),
    st.tuples(st.just("put"), st.integers(0, N_STORES - 1)),
    st.tuples(st.just("get"), st.integers(0, N_STORES - 1)),
    st.tuples(st.just("use"), st.integers(0, N_RESOURCES - 1), st.integers(0, 2)),
    st.tuples(st.just("wait"), st.integers(0, N_SIGNALS - 1)),
    st.tuples(st.just("fire"), st.integers(0, N_SIGNALS - 1)),
)


def _run_program(program, capacities, res_caps, loop, fast):
    """Run ``program`` and return its ``(time, process, action)`` log.

    ``fast`` takes every hand-off in place when ``sim.quiet()`` allows it;
    otherwise each one is yielded — the reference the fast path must match.
    """
    sim = Simulator()
    stores = [Store(sim, capacity=c) for c in capacities]
    resources = [Resource(sim, capacity=c) for c in res_caps]
    signals = [Signal(sim) for _ in range(N_SIGNALS)]
    log = []

    def proc(pid, ops):
        for step, op in enumerate(ops):
            kind = op[0]
            if kind == "sleep":
                yield sim.timeout(op[1])
                value = None
            elif kind == "put":
                store = stores[op[1]]
                if not (fast and sim.quiet() and store.try_put((pid, step))):
                    yield store.put((pid, step))
                value = None
            elif kind == "get":
                store = stores[op[1]]
                if fast and store.items and sim.quiet():
                    value = store.try_get()
                else:
                    value = yield store.get()
            elif kind == "use":
                res = resources[op[1]]
                if not (fast and sim.quiet() and res.try_acquire()):
                    yield res.request()
                log.append((sim.now, pid, "acquired", op[1]))
                yield sim.timeout(op[2])
                res.release()
                value = None
            elif kind == "wait":
                value = yield signals[op[1]].wait()
            else:
                signals[op[1]].fire((pid, step))
                value = None
            log.append((sim.now, pid, kind, value))

    procs = [sim.process(proc(pid, ops), name=f"p{pid}") for pid, ops in enumerate(program)]
    try:
        _drive(sim, loop, procs[0])
    except SimulationError as exc:
        log.append(("error", str(exc)))
    log.append(("end", sim.now))
    return log, sim.events_processed


@pytest.mark.parametrize("loop", LOOPS)
@settings(max_examples=100, deadline=None)
@given(
    program=st.lists(st.lists(_op, min_size=1, max_size=8), min_size=2, max_size=5),
    capacities=st.lists(
        st.one_of(st.none(), st.integers(1, 2)), min_size=N_STORES, max_size=N_STORES
    ),
    res_caps=st.lists(st.integers(1, 2), min_size=N_RESOURCES, max_size=N_RESOURCES),
    fan_out=st.booleans(),
)
def test_fast_path_is_schedule_identical(loop, program, capacities, res_caps, fan_out):
    if fan_out:
        # Start with a multi-waiter fan-out: process 0 fires signal 0 at
        # t=1 (then sleeps, keeping the immediate queue empty) and wakes
        # every other process at once.  Random programs rarely line this
        # up on their own.
        program = [[("sleep", 1), ("fire", 0), ("sleep", 1)] + program[0]] + [
            [("wait", 0)] + ops for ops in program[1:]
        ]
    fast_log, fast_events = _run_program(program, capacities, res_caps, loop, fast=True)
    ref_log, ref_events = _run_program(program, capacities, res_caps, loop, fast=False)
    assert fast_log == ref_log
    assert fast_events <= ref_events


def test_fast_path_waits_out_a_fan_out():
    """Waiters woken by one fire must not run ahead of each other."""
    program = [
        [("wait", 0), ("put", 0), ("sleep", 0), ("get", 1)],
        [("wait", 0), ("put", 1), ("get", 0)],
        [("sleep", 2), ("fire", 0), ("sleep", 3)],
    ]
    for loop in ("deadline", "profiled_deadline", "until_event", "profiled_until_event"):
        fast_log, _ = _run_program(program, [None, None], [1, 1], loop, fast=True)
        ref_log, _ = _run_program(program, [None, None], [1, 1], loop, fast=False)
        assert fast_log == ref_log, loop


def test_fast_path_saves_events_on_a_pipeline():
    """The in-place path does fire on a plain producer/consumer chain."""
    program = [[("put", 0), ("sleep", 1)] * 4, [("get", 0), ("sleep", 2)] * 4]
    fast_log, fast_events = _run_program(program, [1, 1], [1, 1], "deadline", fast=True)
    ref_log, ref_events = _run_program(program, [1, 1], [1, 1], "deadline", fast=False)
    assert fast_log == ref_log
    assert fast_events < ref_events
