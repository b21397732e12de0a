"""Deterministic discrete-event simulator of a desktop-grid master.

Pull-based scheduling: an up host with a free CPU slot requests work.
Shared tasks feed one logical queue interleaved round-robin by task;
dedicated tasks run only after every shared job has finished.  Hosts churn
through a per-host two-state on/off process with exponential holding
times; a job interrupted by a host detach restarts from zero on a later
host.  Everything is deterministic for a fixed seed.

Times are seconds throughout; churn rates on HostSpec are per hour.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, SimulationStallError
from .hosts import HostSpec
from .outputs import write_csv

DISPATCH = "dispatch"
COMPLETE = "complete"
HOST_UP = "host_up"
HOST_DOWN = "host_down"

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0

#: GFLOPs of the moderate reference PC all job runtimes are quoted against
REF_GFLOPS = 2.514
#: simulated time past which a run that has not finished is a stall; with
#: churn the event heap never empties, so this is what ends such a run
HORIZON_S = 400 * SECONDS_PER_DAY


@dataclass(frozen=True)
class TaskSpec:
    """A sweep task: n_jobs equal jobs, each t_job_ref_s on the reference host."""

    name: str
    t_job_ref_s: float
    n_jobs: int
    mode: str = "shared"  # 'shared' | 'dedicated'

    def __post_init__(self):
        if not 0 < self.t_job_ref_s < math.inf:
            raise ParameterError("t_job_ref_s must be finite and > 0")
        if self.n_jobs < 1:
            raise ParameterError("n_jobs must be >= 1")
        if self.mode not in ("shared", "dedicated"):
            raise ParameterError(f"unknown task mode {self.mode!r}")


class TraceEvent(NamedTuple):
    time: float
    kind: str
    job_id: int  # -1 for host events
    task: str  # '' for host events
    host_id: int  # the host's HostSpec.id


@dataclass
class SimTrace:
    events: list[TraceEvent]
    tasks: list[TaskSpec]

    @cached_property
    def accounts(self) -> dict[str, RegimeSegmentation]:
        """Every task's window and regimes (see :func:`_accounts`), computed on first use."""
        return _accounts(self)


@dataclass(frozen=True)
class RegimeSegmentation:
    """Three-regime split of one task's completion kinetics."""

    task: str
    t_start: float
    t_initial_end: float
    t_active_end: float
    t_end: float
    rate_initial: float  # completions per second within each regime
    rate_active: float
    rate_final: float
    max_inflight: int
    degenerate: bool


def _scaled_runtime(task: TaskSpec, host: HostSpec) -> float:
    """Job runtime on a host under linear FLOPs scaling, in seconds."""
    return task.t_job_ref_s * REF_GFLOPS / host.gflops


class _HostState:
    __slots__ = ("spec", "up", "running", "rng")

    def __init__(self, spec: HostSpec, rng: np.random.Generator):
        self.spec = spec
        self.up = False
        self.running: list[int] = []  # job gids in dispatch order
        self.rng = rng


class _Sim:
    def __init__(self, tasks, hosts: list[HostSpec], seed):
        if not hosts:
            raise ParameterError("population must contain at least one host")
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise ParameterError("task names must be unique")
        if len({h.id for h in hosts}) != len(hosts):
            raise ParameterError("host ids must be unique")
        self.tasks = list(tasks)
        self.shared_idx = [i for i, t in enumerate(self.tasks) if t.mode == "shared"]
        self.dedicated_idx = [i for i, t in enumerate(self.tasks) if t.mode == "dedicated"]
        # job ids are global, task-major and stable across the run; each
        # task's queue holds the ids of its jobs still to hand out
        self.job_task = [ti for ti, t in enumerate(self.tasks) for _ in range(t.n_jobs)]
        self.queues = [deque() for _ in self.tasks]
        for gid, ti in enumerate(self.job_task):
            self.queues[ti].append(gid)
        self.attempt = [0] * len(self.job_task)
        self.rr = 0  # round-robin cursor into shared_idx
        # jobs not yet completed: all of them, and the shared ones, whose
        # completion opens the dedicated tasks
        self.jobs_left = len(self.job_task)
        self.shared_left = sum(self.tasks[ti].n_jobs for ti in self.shared_idx)
        self.hosts = [
            _HostState(h, np.random.default_rng([seed & 0x7FFFFFFFFFFFFFFF, 1, i]))
            for i, h in enumerate(hosts)
        ]
        self.heap: list = []
        self.seq = 0
        self.events: list[TraceEvent] = []

    # -- event plumbing ---------------------------------------------------

    def _push(self, time, kind, data):
        heapq.heappush(self.heap, (time, self.seq, kind, data))
        self.seq += 1

    def _schedule_transition(self, hi, now):
        """Draw when host ``hi`` next leaves its current state, if it ever does."""
        host = self.hosts[hi]
        rate = host.spec.off_rate if host.up else host.spec.on_rate
        if rate > 0:
            self._push(now + host.rng.exponential(SECONDS_PER_HOUR / rate),
                       "down" if host.up else "up", hi)

    # -- scheduling policy ------------------------------------------------

    def _next_job(self):
        """Global id of the next job to hand out, or None."""
        ns = len(self.shared_idx)
        for step in range(ns):
            ti = self.shared_idx[(self.rr + step) % ns]
            if self.queues[ti]:
                self.rr = (self.rr + step + 1) % ns
                return self.queues[ti].popleft()
        if self.shared_left == 0:
            for ti in self.dedicated_idx:
                if self.queues[ti]:
                    return self.queues[ti].popleft()
        return None

    def _offer_work(self, hi: int, now: float) -> bool:
        """Fill host ``hi``'s free slots; False once no job is left to hand out."""
        host = self.hosts[hi]
        while host.up and len(host.running) < host.spec.n_cpus:
            gid = self._next_job()
            if gid is None:
                return False
            task = self.tasks[self.job_task[gid]]
            host.running.append(gid)
            self.events.append(TraceEvent(now, DISPATCH, gid, task.name, host.spec.id))
            self._push(now + _scaled_runtime(task, host.spec), "finish",
                       (hi, gid, self.attempt[gid]))
        return True

    def _offer_all(self, now: float):
        """Offer queued work to every up host with free slots, in host order.

        Needed whenever work (re)appears outside a host's own event: the
        start, requeues after a detach, and the shared -> dedicated phase
        transition.  Hosts after the first that finds nothing left are skipped.
        """
        for hi, host in enumerate(self.hosts):
            if host.up and len(host.running) < host.spec.n_cpus and not self._offer_work(hi, now):
                return

    # -- event handlers ---------------------------------------------------

    def _handle_host_up(self, hi, now):
        host = self.hosts[hi]
        host.up = True
        self.events.append(TraceEvent(now, HOST_UP, -1, "", host.spec.id))
        self._schedule_transition(hi, now)
        self._offer_work(hi, now)

    def _handle_host_down(self, hi, now):
        host = self.hosts[hi]
        host.up = False
        self.events.append(TraceEvent(now, HOST_DOWN, -1, "", host.spec.id))
        # restart-from-zero: requeue everything this host was running, in
        # dispatch order
        for gid in host.running:
            self.attempt[gid] += 1  # invalidates the pending finish
            self.queues[self.job_task[gid]].append(gid)
        requeued = bool(host.running)
        host.running.clear()
        self._schedule_transition(hi, now)
        if requeued:
            self._offer_all(now)

    def _handle_finish(self, data, now):
        hi, gid, attempt = data
        if self.attempt[gid] != attempt:
            return  # stale: the host detached mid-run and the job was requeued
        host = self.hosts[hi]
        host.running.remove(gid)
        task = self.tasks[self.job_task[gid]]
        self.attempt[gid] += 1  # mark done; never requeued again
        self.jobs_left -= 1
        if task.mode == "shared":
            self.shared_left -= 1
        self.events.append(TraceEvent(now, COMPLETE, gid, task.name, host.spec.id))
        self._offer_work(hi, now)
        if task.mode == "shared" and self.shared_left == 0:
            self._offer_all(now)  # dedicated work just became eligible everywhere

    # -- main loop --------------------------------------------------------

    def run(self) -> SimTrace:
        # Hosts begin in the stationary state of their on/off process; being
        # up at t=0 is an initial condition, not a transition, so it leaves
        # no host_up record (an always-up host contributes no host events).
        for hi, host in enumerate(self.hosts):
            on, off = host.spec.on_rate, host.spec.off_rate
            host.up = off == 0 or (on > 0 and host.rng.random() < on / (on + off))
            self._schedule_transition(hi, 0.0)
        self._offer_all(0.0)

        while self.jobs_left:
            if not self.heap:
                raise SimulationStallError(
                    "no future events but work is pending (no host ever up?)")
            now, _, kind, data = heapq.heappop(self.heap)
            if now > HORIZON_S:
                raise SimulationStallError(
                    f"simulation passed horizon {HORIZON_S} s with "
                    f"{self.jobs_left} jobs unfinished")
            if kind == "up":
                self._handle_host_up(data, now)
            elif kind == "down":
                self._handle_host_down(data, now)
            else:
                self._handle_finish(data, now)
        return SimTrace(events=self.events, tasks=self.tasks)


def run_scenario(tasks, hosts: list[HostSpec], seed: int = 0) -> SimTrace:
    """Simulate the full scenario and return its event trace."""
    return _Sim(tasks, hosts, seed).run()


# --- trace analysis ------------------------------------------------------


@dataclass(frozen=True)
class SpeedupRow:
    name: str  # a task, 'Subtotal' (the shared tasks) or 'TOTAL'
    t_job_ref_s: float  # 0 on the Subtotal and TOTAL rows
    n_jobs: int
    t_seq_s: float
    t_dg_s: float

    @property
    def speedup(self) -> float:
        return self.t_seq_s / self.t_dg_s


def _rate(times: list[float], start: float, t0: float, t1: float) -> float:
    """Completions per second in (t0, t1] of the sorted ``times``; a regime
    that begins at the window start also counts completions exactly at it."""
    if t1 <= t0:
        return 0.0
    lo = bisect_left(times, t0) if t0 == start else bisect_right(times, t0)
    return (bisect_right(times, t1) - lo) / (t1 - t0)


def _accounts(trace: SimTrace) -> dict[str, RegimeSegmentation]:
    """Every task's window and regimes from one pass over the time-ordered events.

    A task's window runs from its first dispatch to its last completion.  Its
    initial regime ends when its in-flight job count first reaches its
    maximum, its active regime at its last dispatch, and its final regime at
    the window's end.  A job leaves flight when it completes or when its host
    goes down, whichever is recorded first.  Raises
    ParameterError if any task did not complete all of its jobs.
    """
    tasks = {t.name: t for t in trace.tasks}
    dispatched: dict[str, list[float]] = {name: [] for name in tasks}
    done: dict[str, list[float]] = {name: [] for name in tasks}
    inflight = dict.fromkeys(tasks, 0)
    peak = dict.fromkeys(tasks, (0, 0.0))  # (max in flight, when first reached)
    running_on: dict[int, set] = {}  # host -> (task, job_id) in flight there
    for time, kind, job_id, task, host_id in trace.events:
        if kind == DISPATCH and task in tasks:
            running_on.setdefault(host_id, set()).add((task, job_id))
            dispatched[task].append(time)
            inflight[task] += 1
            if inflight[task] > peak[task][0]:
                peak[task] = (inflight[task], time)
        elif kind == COMPLETE and task in tasks:
            done[task].append(time)
            running = running_on.get(host_id)
            if running and (task, job_id) in running:
                running.remove((task, job_id))
                inflight[task] -= 1
        elif kind == HOST_DOWN:
            for name, _ in running_on.pop(host_id, ()):
                inflight[name] -= 1

    accounts = {}
    for name, task in tasks.items():
        times, dispatches = done[name], dispatched[name]
        if len(times) != task.n_jobs or not dispatches:
            raise ParameterError(
                f"task {name!r} incomplete: {len(times)}/{task.n_jobs} jobs done")
        start, end, t_active_end = dispatches[0], times[-1], dispatches[-1]
        max_inflight, t_peak = peak[name]
        t_initial_end = min(t_peak, t_active_end)
        accounts[name] = RegimeSegmentation(
            task=name, t_start=start, t_initial_end=t_initial_end,
            t_active_end=t_active_end, t_end=end,
            rate_initial=_rate(times, start, start, t_initial_end),
            rate_active=_rate(times, start, t_initial_end, t_active_end),
            rate_final=_rate(times, start, t_active_end, end),
            max_inflight=max_inflight,
            degenerate=t_initial_end == t_active_end == start)
    return accounts


def speedup_table(trace: SimTrace) -> list[SpeedupRow]:
    """T_seq / T_dg per task in published-table order, then Subtotal and TOTAL.

    A task's T_seq is n_jobs x t_job_ref_s and its T_dg its window, first
    dispatch to last completion.  Shared tasks overlap, so their Subtotal
    T_dg is the max of their windows; dedicated tasks ran on their own and
    add their windows in TOTAL.
    """
    rows = {t.name: SpeedupRow(t.name, t.t_job_ref_s, t.n_jobs, t.n_jobs * t.t_job_ref_s,
                               trace.accounts[t.name].t_end - trace.accounts[t.name].t_start)
            for t in trace.tasks}
    shared = [rows[t.name] for t in trace.tasks if t.mode == "shared"]
    dedicated = [rows[t.name] for t in trace.tasks if t.mode == "dedicated"]
    shared_dg = max((r.t_dg_s for r in shared), default=0.0)
    subtotal = [SpeedupRow("Subtotal", 0.0, sum(r.n_jobs for r in shared),
                           sum(r.t_seq_s for r in shared), shared_dg)] if shared else []
    t_dg = shared_dg + sum(r.t_dg_s for r in dedicated)
    if t_dg <= 0:
        raise ParameterError("trace has no completed tasks")
    return shared + subtotal + dedicated + [
        SpeedupRow("TOTAL", 0.0, sum(t.n_jobs for t in trace.tasks),
                   sum(t.n_jobs * t.t_job_ref_s for t in trace.tasks), t_dg)]


# --- external interfaces -------------------------------------------------

TRACE_CSV_HEADER = ["time_s", "kind", "job_id", "task", "host_id"]
SPEEDUP_CSV_HEADER = ["task", "t_job_hours", "n_jobs", "t_seq_days", "t_dg_days", "speedup"]
REGIMES_CSV_HEADER = ["task", "t_start_s", "t_initial_end_s", "t_active_end_s", "t_end_s",
                      "rate_initial_per_s", "rate_active_per_s", "rate_final_per_s",
                      "max_inflight", "degenerate"]


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row: quoted only where it must be."""
    buf = io.StringIO()
    csv.writer(buf).writerow(("", text))
    return buf.getvalue()[1:-2]


def write_trace_csv(trace: SimTrace, path) -> None:
    """The event log, formatted in bulk to the bytes ``write_csv`` would give.

    Each distinct nonzero time is formatted once.  A zero is formatted per
    event, because ``-0.0`` and ``0.0`` are one key of a dict but two reprs.
    """
    events = trace.events
    task_field = {name: _csv_field(name) for name in {e.task for e in events}}
    time_field = {t: repr(t) for t in {e.time for e in events} if t}
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(TRACE_CSV_HEADER)
        fh.writelines(f"{time_field[t] if t else repr(t)},{kind},{job if job >= 0 else ''},"
                      f"{task_field[task]},{host}\r\n" for t, kind, job, task, host in events)


def write_speedup_csv(trace: SimTrace, path) -> None:
    """:func:`speedup_table` with job times in hours and T_seq / T_dg in days."""
    write_csv(path, SPEEDUP_CSV_HEADER,
              ([r.name, repr(r.t_job_ref_s / SECONDS_PER_HOUR) if r.t_job_ref_s else "",
                r.n_jobs, repr(r.t_seq_s / SECONDS_PER_DAY), repr(r.t_dg_s / SECONDS_PER_DAY),
                repr(r.speedup)] for r in speedup_table(trace)))


def write_regimes_csv(trace: SimTrace, path) -> None:
    write_csv(path, REGIMES_CSV_HEADER,
              ([r.task, repr(r.t_start), repr(r.t_initial_end), repr(r.t_active_end),
                repr(r.t_end), repr(r.rate_initial), repr(r.rate_active), repr(r.rate_final),
                r.max_inflight, int(r.degenerate)] for r in trace.accounts.values()))


def write_trace_csvs(trace: SimTrace, stage, out_dir) -> None:
    """Write trace.csv, speedup.csv and regimes.csv to out_dir through ``stage``."""
    for name, write in (("trace.csv", write_trace_csv), ("speedup.csv", write_speedup_csv),
                        ("regimes.csv", write_regimes_csv)):
        write(trace, stage(Path(out_dir) / name))
