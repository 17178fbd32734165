"""The three workloads: their set-up, their ops and how a run measures them.

A workload has timed cases (plan scenarios, or verify batches) and, on
the plan workloads, long cases. A run is a closed loop with one client:
each op starts when the previous one ends. It samples every timed case
once, then keeps sampling, always the item (a plan op, a dense audit or
a verify batch) with the least measured time so far, until
``--seconds`` have passed. Each item so gets an equal share of the
time, and a cheap one many samples.

An op's time is its fastest sample. On the shared host this was built
on, the same work ran about 1.5 times slower for stretches of 5 to 20
seconds, and at full speed in between; the fastest of many samples
spread over a run holds steadier than a median or a single long sample.
Some whole runs were slow all through, so a reference kernel is sampled
as one more case, and the bounded metrics are taken in units of its
fastest time. The long cases (golden n=300; turret n=60 and mixed
n=50) take 6 to 20 s each, so they cannot be sampled that way. They run
once each in a traced run, untraced and traced, and feed only the
per-layer figures.
"""

from __future__ import annotations

import functools
import math
import statistics
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np
from threatnav import (
    circumnavigate,
    clearances_along,
    distance,
    load_scenario,
    plan,
    resample_and_verify,
    standard_specs,
)
from threatnav.verification import pursuit_equivalence_sweep, turret_equivalence_sweep

import checks
import gen
from tracing import NullTracer

AUDIT_FACTOR = 10
SWEEP_SAMPLES = 10  # per mu and per look angle: 80 poses per verify batch
VERIFY_BATCHES = 16
SELFTEST_RHO_SCALE = 1.01
REFERENCE_ROUNDS = 70  # about 50 ms per reference sample

WORKLOADS = ("pursuer-ladder", "turret-mixed", "verify-sweep")


@dataclass(frozen=True)
class Batch:
    """One ``threatnav verify`` batch: both equivalence sweeps with one seed."""

    name: str
    seed: int


@dataclass
class OpRecord:
    """What one case did over a run and how long each sample took."""

    kind: str  # "plan", "sweep" or "reference"
    name: str
    repeat_seconds: list[float] = field(default_factory=list)  # plan op or verify batch
    audit_seconds: list[float] = field(default_factory=list)
    classified: int = 0  # pose-threat pairs classified by one audit or by the sweep
    audit_points: int = 0  # points checked by all of this case's audits
    problems: list[str] = field(default_factory=list)
    audit_args: tuple | None = field(default=None, repr=False)  # (plan result, scenario)
    attempts: int = 0
    failures: int = 0  # samples that raised or failed a check
    t_f: float | None = None
    unsafe: bool = False
    tf_over_chord: float | None = None
    worst_clearance: float | None = None
    iterations: int = 0
    solve_seconds: float = 0.0
    wasted_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        """The op's time: its fastest sample."""
        return min(self.repeat_seconds)

    @property
    def typical_s(self) -> float:
        """A typical sample: median op time plus median audit time."""
        return statistics.median(self.repeat_seconds) + (
            statistics.median(self.audit_seconds) if self.audit_seconds else 0.0
        )


def _audit(tracer, result, scenario):
    t0 = perf_counter()
    with tracer.span("planner.audit"):
        audit = resample_and_verify(result, scenario, AUDIT_FACTOR)
    return audit, perf_counter() - t0


def _baselines(tracer, scenario) -> list:
    threat = scenario.threats[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no Apol circle for mu >= 1
        specs = standard_specs(threat)
    agent = scenario.agent
    results = []
    for spec in specs:
        with tracer.span("circumnav.circumnavigate"):
            results.append(circumnavigate(agent.start, agent.goal, threat.position, spec, agent.speed))
    return results


def _plan_op(case, tracer):
    """One plan op: load_scenario -> plan -> clearances_along. Returns its time and outputs."""
    t0 = perf_counter()
    with tracer.span("scenario_io.load"):
        scenario = load_scenario(case.path).scenario
    with tracer.span("planner.plan"):
        result = plan(scenario)
    with tracer.span("planner.report"):
        table = clearances_along(result.trajectory, scenario.threats)
    return perf_counter() - t0, scenario, result, table


def _run_plan(case, tracer):
    """One plan op, then its dense audit and the ``compare`` baselines."""
    with tracer.op(case.name):
        seconds, scenario, result, table = _plan_op(case, tracer)
        solves = tracer.take_solves()
        audit, audit_time = _audit(tracer, result, scenario)
        baselines = _baselines(tracer, scenario) if case.compare else []
    return seconds, audit_time, solves, (scenario, result, table, audit, baselines)


_REF_X = np.linspace(-3.0, 3.0, 64)


@dataclass(frozen=True)
class Reference:
    """The reference kernel, sampled like a case; it measures the host, not the program."""

    name: str = "reference"


def _reference_kernel() -> float:
    """About 50 ms of the program's kind of work, in the benchmark's own code: scalar math and small arrays."""
    acc = 0.0
    for _ in range(REFERENCE_ROUNDS):
        for i in range(2000):
            x = i * 0.01
            acc += math.atan2(math.sin(x), math.cos(x) + 2.0) + math.sqrt(x + 1.0)
        for _ in range(150):
            acc += float(np.hypot(_REF_X, _REF_X[::-1]).min())
    return acc


def _counted(sample):
    """Count a sample as attempted, and as failed while its case has a problem."""

    @functools.wraps(sample)
    def counted(case, rec: OpRecord, tracer) -> None:
        rec.attempts += 1
        try:
            sample(case, rec, tracer)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            rec.problems.append(f"raised {type(exc).__name__}: {exc}")
        rec.failures += bool(rec.problems)

    return counted


@_counted
def plan_sample(case, rec: OpRecord, tracer) -> None:
    """The first sample of a plan case: plan op, dense audit, baselines and the full check."""
    seconds, audit_time, solves, outputs = _run_plan(case, tracer)
    scenario, result, table, audit, baselines = outputs
    rec.repeat_seconds.append(seconds)
    rec.audit_seconds.append(audit_time)
    rec.audit_points += audit.points_checked
    rec.audit_args = (result, scenario)
    rec.t_f = result.t_f
    rec.problems.extend(checks.check_plan(case, scenario, result, table, audit, AUDIT_FACTOR, baselines))
    rec.classified = audit.points_checked * len(scenario.threats)
    rec.unsafe = audit.worst_clearance < -scenario.options.constraint_tolerance
    chord_time = distance(scenario.agent.start, scenario.agent.goal) / scenario.agent.speed
    rec.tf_over_chord = result.t_f / chord_time
    rec.worst_clearance = audit.worst_clearance
    rec.iterations = result.iterations
    rec.solve_seconds = sum(s for s, _ in solves)
    # The warm start whose end point plan() returned won; the other solves were wasted.
    winner = next((i for i, (_, tf) in enumerate(solves) if tf == result.t_f), None)
    rec.wasted_seconds = sum(s for i, (s, _) in enumerate(solves) if i != winner)


@_counted
def repeat_plan(case, rec: OpRecord, tracer) -> None:
    """One more plan op of a case; it must give the same t_f."""
    with tracer.op(case.name):
        seconds, _, result, _ = _plan_op(case, tracer)
    rec.repeat_seconds.append(seconds)
    if result.t_f != rec.t_f:
        rec.problems.append(f"a repeat gave t_f {result.t_f!r}, not {rec.t_f!r}")


@_counted
def repeat_audit(case, rec: OpRecord, tracer) -> None:
    """One more dense audit of the path the case's first sample planned."""
    with tracer.op(case.name):
        audit, seconds = _audit(tracer, *rec.audit_args)
    rec.audit_seconds.append(seconds)
    rec.audit_points += audit.points_checked
    if audit.oracle_disagreements:
        rec.problems.append(f"{audit.oracle_disagreements} oracle disagreements in a repeated audit")


@_counted
def sweep_sample(batch: Batch, rec: OpRecord, tracer) -> None:
    """Time one sample of a verify batch; any disagreement fails it."""
    with tracer.op(batch.name):
        t0 = perf_counter()
        with tracer.span("verification.sweep"):
            results = pursuit_equivalence_sweep(samples_per_mu=SWEEP_SAMPLES, seed=batch.seed)
            results += turret_equivalence_sweep(samples_per_angle=SWEEP_SAMPLES, seed=batch.seed)
        rec.repeat_seconds.append(perf_counter() - t0)
    rec.problems.extend(checks.check_sweep(results))
    rec.classified = sum(r.samples for r in results)


def reference_sample(ref: Reference, rec: OpRecord, tracer) -> None:
    """Time the reference kernel once; it is not an op of the program."""
    t0 = perf_counter()
    _reference_kernel()
    rec.repeat_seconds.append(perf_counter() - t0)


def _sample(case, rec: OpRecord, tracer) -> None:
    if rec.kind == "reference":
        reference_sample(case, rec, tracer)
    elif rec.kind == "sweep":
        sweep_sample(case, rec, tracer)
    else:
        plan_sample(case, rec, tracer)


def _record(case) -> OpRecord:
    kind = {Batch: "sweep", Reference: "reference"}.get(type(case), "plan")
    return OpRecord(kind, case.name)


def run_once(cases, tracer) -> list[OpRecord]:
    """Each of ``cases`` once."""
    records = [_record(case) for case in cases]
    for case, rec in zip(cases, records):
        _sample(case, rec, tracer)
    return records


@dataclass(frozen=True)
class Workload:
    timed: list  # sampled for --seconds
    long: list  # run once, in traced runs only


def measure(cases, seconds: float, tracer, interludes=()) -> tuple[list[OpRecord], float]:
    """Sample ``cases`` and the reference kernel for ``seconds``, as the module docstring says.

    After a plan case's first sample, its plan op and its dense audit are
    sampled apart, each with its own share of the time. A case whose
    first sample raised is not sampled again. Each of ``interludes`` is
    called once, between samples, at evenly spaced points of the run;
    the time they take is not part of it. Returns one record per case,
    the reference kernel's last, and the time the sampling took.
    """
    pairs = [(case, _record(case)) for case in [*cases, Reference()]]
    pending = list(interludes)
    due = [seconds * (k + 1) / (len(pending) + 1) for k in range(len(pending))]
    paused = 0.0
    t_start = perf_counter()
    items = []
    for case, rec in pairs:
        _sample(case, rec, tracer)
        if rec.kind == "plan" and rec.audit_args is not None:
            items.append((repeat_plan, case, rec, rec.repeat_seconds))
            items.append((repeat_audit, case, rec, rec.audit_seconds))
        elif rec.kind != "plan" and rec.repeat_seconds:
            items.append((_sample, case, rec, rec.repeat_seconds))
    while items and (now := perf_counter() - t_start - paused) < seconds:
        if pending and now >= due[-len(pending)]:
            t0 = perf_counter()
            pending.pop(0)()
            paused += perf_counter() - t0
            continue
        sample, case, rec, _ = min(items, key=lambda item: sum(item[3]))
        sample(case, rec, tracer)
    t_end = perf_counter()
    for interlude in pending:
        interlude()
    return [rec for _, rec in pairs], t_end - t_start - paused


def selftest(golden_case) -> None:
    """Prove the checks are live before anything is timed; the golden plan is also the warm-up.

    A sweep against a boundary scaled by 1.01 must report disagreements;
    the golden plan must pass the plan check, and fail it once its t_f is
    raised by 1%.
    """
    corrupted = pursuit_equivalence_sweep(samples_per_mu=40, seed=1, rho_scale=SELFTEST_RHO_SCALE)
    if not checks.check_sweep(corrupted):
        raise RuntimeError("self-test: a corrupted pursuit sweep reported no disagreements")
    _, _, _, (scenario, result, table, audit, baselines) = _run_plan(golden_case, NullTracer())
    problems = checks.check_plan(golden_case, scenario, result, table, audit, AUDIT_FACTOR, baselines)
    if problems:
        raise RuntimeError(f"self-test: the golden plan failed its checks: {problems}")
    slow = replace(result, t_f=result.t_f * 1.01)
    if not checks.check_plan(golden_case, scenario, slow, table, audit, AUDIT_FACTOR, baselines):
        raise RuntimeError("self-test: the plan check accepted a golden t_f raised by 1%")


def setup(name: str, seed: int, root: Path, work_dir: Path) -> Workload:
    """Generate the workload's inputs and run the self-tests."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    golden_file = root / "scenarios" / "golden.json"
    selftest(gen.golden_ladder(golden_file, work_dir / "warmup", nodes=(50,))[0])
    if name == "pursuer-ladder":
        *ladder, n300 = gen.golden_ladder(golden_file, work_dir)
        return Workload(ladder + gen.seeded_pursuers(seed, work_dir), [n300])
    if name == "turret-mixed":
        return Workload(*gen.turret_mixed(work_dir))
    batches = [Batch(f"verify-{i}", seed * 1000 + i) for i in range(VERIFY_BATCHES)]
    return Workload(batches, [])
