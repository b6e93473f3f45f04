"""Unit tests for the CPU frame-stack model."""

import pytest

from repro.simkernel.cpu import CPU, Frame, FrameKind, KernelHooks
from repro.simkernel.engine import Engine
from repro.simkernel.task import Task, TaskKind
from repro.tracing.events import Ev, Flag, ListSink


class FakeKernel(KernelHooks):
    def __init__(self, sink=None):
        self.sink = sink if sink is not None else ListSink()
        self.resched_calls = 0
        self.context_done_calls = []

    def resched(self, cpu):
        self.resched_calls += 1
        cpu.need_resched = False

    def context_done(self, cpu, frame):
        self.context_done_calls.append(frame)

    def cpu_went_empty(self, cpu):
        raise AssertionError("cpu went empty")


def make_cpu(seed=0):
    engine = Engine(seed)
    kernel = FakeKernel()
    return engine, kernel, CPU(0, engine, kernel)


def user_frame(task=None, remaining=1000):
    if task is None:
        task = Task(1000, "rank", TaskKind.RANK, 100, 0)
    return Frame(FrameKind.USER, task=task, name="user", remaining=remaining)


class TestBasicExecution:
    def test_user_frame_completion_reaches_context_done(self):
        engine, kernel, cpu = make_cpu()
        frame = user_frame(remaining=500)
        cpu.set_initial_context(frame)
        engine.run_until(1000)
        assert kernel.context_done_calls == [frame]
        assert engine.now == 1000

    def test_idle_frame_never_completes(self):
        engine, kernel, cpu = make_cpu()
        idle = Task(0, "swapper", TaskKind.IDLE, 255, 0)
        cpu.set_initial_context(Frame(FrameKind.IDLE, task=idle))
        engine.run_until(10_000)
        assert kernel.context_done_calls == []

    def test_context_pid_prefers_topmost_task(self):
        engine, kernel, cpu = make_cpu()
        rank = Task(1000, "rank", TaskKind.RANK, 100, 0)
        cpu.set_initial_context(user_frame(task=rank, remaining=10_000))
        assert cpu.context_pid() == 1000
        daemon = Task(100, "rpciod", TaskKind.KDAEMON, 50, 0)
        cpu.push(Frame(FrameKind.DAEMON, task=daemon, name="d", remaining=100))
        assert cpu.context_pid() == 100


class TestNesting:
    def test_push_pauses_and_resume_restores(self):
        engine, kernel, cpu = make_cpu()
        frame = user_frame(remaining=1000)
        cpu.set_initial_context(frame)
        engine.run_until(300)  # user ran 300 of 1000
        cpu.push(
            Frame(FrameKind.KACT, event=Ev.IRQ_TIMER, name="irq", remaining=200)
        )
        assert frame.running is False
        assert frame.remaining == 700
        engine.run_until(5000)
        # user completes at 300 + 200 (irq) + 700 = 1200
        assert kernel.context_done_calls and engine.now == 5000
        records = kernel.sink.records
        exit_irq = [r for r in records if r[1] == Ev.IRQ_TIMER and r[3] == Flag.EXIT]
        assert exit_irq[0][0] == 500

    def test_nested_interrupt_extends_outer_activity(self):
        engine, kernel, cpu = make_cpu()
        cpu.set_initial_context(user_frame(remaining=100_000))
        engine.run_until(100)
        cpu.push(
            Frame(FrameKind.KACT, event=Ev.EXC_PAGE_FAULT, name="pf", remaining=1000)
        )
        engine.run_until(400)
        cpu.push(
            Frame(FrameKind.KACT, event=Ev.IRQ_TIMER, name="irq", remaining=500)
        )
        engine.run_until(50_000)
        records = kernel.sink.records
        pf_exit = [r for r in records if r[1] == Ev.EXC_PAGE_FAULT and r[3] == Flag.EXIT]
        # fault: entry at 100, 300ns ran, paused 500ns by irq, 700 left:
        # exits at 400 + 500 + 700 = 1600.
        assert pf_exit[0][0] == 1600

    def test_entry_exit_records_paired(self):
        engine, kernel, cpu = make_cpu()
        cpu.set_initial_context(user_frame(remaining=100_000))
        engine.run_until(10)
        cpu.push(Frame(FrameKind.KACT, event=Ev.SYSCALL, name="sc", remaining=50))
        engine.run_until(1000)
        flags = [r[3] for r in kernel.sink.records if r[1] == Ev.SYSCALL]
        assert flags == [Flag.ENTRY, Flag.EXIT]

    def test_kact_depth(self):
        engine, kernel, cpu = make_cpu()
        cpu.set_initial_context(user_frame(remaining=100_000))
        engine.run_until(10)
        cpu.push(Frame(FrameKind.KACT, event=Ev.SYSCALL, name="a", remaining=500))
        cpu.push(Frame(FrameKind.KACT, event=Ev.IRQ_TIMER, name="b", remaining=100))
        assert [f.kind for f in cpu.stack] == [
            FrameKind.USER, FrameKind.KACT, FrameKind.KACT
        ]


class TestOverheadInjection:
    def test_paired_activity_charged_record_costs(self):
        engine, kernel, cpu = make_cpu()
        kernel.sink = ListSink(record_overhead_ns=50)
        cpu.set_initial_context(user_frame(remaining=100_000))
        engine.run_until(10)
        cpu.push(Frame(FrameKind.KACT, event=Ev.IRQ_TIMER, name="irq", remaining=1000))
        engine.run_until(50_000)
        recs = [r for r in kernel.sink.records if r[1] == Ev.IRQ_TIMER]
        duration = recs[1][0] - recs[0][0]
        assert duration == 1000 + 2 * 50

    def test_point_event_extends_running_frame(self):
        engine, kernel, cpu = make_cpu()
        kernel.sink = ListSink(record_overhead_ns=30)
        frame = user_frame(remaining=1000)
        cpu.set_initial_context(frame)
        engine.run_until(100)
        cpu.emit_point(Ev.MARKER, 1000, 7)
        engine.run_until(10_000)
        # Completion slides from t=1000 to t=1030.
        assert kernel.context_done_calls
        marker = [r for r in kernel.sink.records if r[1] == Ev.MARKER]
        assert marker[0][0] == 100


class TestContextSwitching:
    def test_swap_bottom_requires_paused_context(self):
        engine, kernel, cpu = make_cpu()
        frame = user_frame(remaining=1000)
        cpu.set_initial_context(frame)
        with pytest.raises(RuntimeError):
            cpu.swap_bottom(user_frame(remaining=1))

    def test_swap_bottom_replaces_context(self):
        engine, kernel, cpu = make_cpu()
        old = user_frame(remaining=1000)
        cpu.set_initial_context(old)
        engine.run_until(100)
        swapped = {}

        def do_swap():
            new = user_frame(
                task=Task(1001, "r2", TaskKind.RANK, 100, 0), remaining=500
            )
            swapped["old"] = cpu.swap_bottom(new)

        cpu.push(
            Frame(
                FrameKind.KACT,
                event=Ev.SCHED_CALL,
                name="sched",
                remaining=100,
                on_exit=do_swap,
            )
        )
        engine.run_until(10_000)
        assert swapped["old"] is old
        assert kernel.context_done_calls  # the new context finished its 500

    def test_set_initial_context_twice_fails(self):
        engine, kernel, cpu = make_cpu()
        cpu.set_initial_context(user_frame())
        with pytest.raises(RuntimeError):
            cpu.set_initial_context(user_frame())


class TestReschedHook:
    def test_resched_called_when_draining_with_flag(self):
        engine, kernel, cpu = make_cpu()
        cpu.set_initial_context(user_frame(remaining=100_000))
        engine.run_until(10)
        cpu.need_resched = True
        cpu.push(Frame(FrameKind.KACT, event=Ev.IRQ_TIMER, name="irq", remaining=100))
        engine.run_until(10_000)
        assert kernel.resched_calls == 1


class TestAccounting:
    def test_kernel_ns_counts_only_kernel_run_time(self):
        engine, kernel, cpu = make_cpu()
        cpu.set_initial_context(user_frame(remaining=100_000))
        engine.run_until(10)
        cpu.push(Frame(FrameKind.KACT, event=Ev.IRQ_TIMER, name="irq", remaining=700))
        engine.run_until(50_000)
        assert cpu.kernel_ns == 700

    def test_paired_frame_requires_finite_duration(self):
        engine, kernel, cpu = make_cpu()
        cpu.set_initial_context(user_frame(remaining=100_000))
        with pytest.raises(ValueError):
            cpu.push(Frame(FrameKind.KACT, event=Ev.IRQ_TIMER, name="bad"))
