"""Metric definitions: the figures of a measured run and the per-layer view.

``summarize`` turns one run's op records into figures; ``END_TO_END``
names the ones an untraced run prints, ``per_layer`` the ones a traced
run prints. BENCHMARK.json lists the same names and units.
"""

from __future__ import annotations

import statistics

from tracing import Node

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ref", "ref"),
    ("poses_per_ref", "1/ref"),
    ("peak_rss_mb", "MB"),
)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def summarize(timed, long, elapsed: float) -> dict:
    """Figures of one measured run: the timed cases' records, the long ones' and the timed time."""
    reference_s = min((op.seconds for op in timed if op.kind == "reference"), default=0.0)
    timed = [op for op in timed if op.kind != "reference"]
    ops = timed + long
    sampled = [op for op in timed if op.repeat_seconds]
    plans = [op for op in ops if op.kind == "plan" and op.repeat_seconds]
    ok = [op for op in plans if not op.problems]
    # Pose-threat pairs classified per second of the timed cases' fastest
    # audits or verify batches, pooled over the cases.
    fastest = sum(min(op.audit_seconds) if op.kind == "plan" else op.seconds for op in sampled)
    op_p50_s = _median(op.seconds for op in sampled)
    poses_per_s = sum(op.classified for op in sampled) / fastest if fastest else 0.0
    solve_s = sum(op.solve_seconds for op in plans)
    attempted = sum(op.attempts for op in ops)
    failed = sum(op.failures for op in ops)
    return {
        "elapsed_s": elapsed,
        "reference_s": reference_s,
        "attempted": attempted,
        "failed": failed,
        "op_p50_s": op_p50_s,
        "poses_per_s": poses_per_s,
        "op_p50_ref": op_p50_s / reference_s if reference_s else 0.0,
        "poses_per_ref": poses_per_s * reference_s,
        "plans_per_s": sum(len(op.repeat_seconds) for op in timed if op.kind == "plan") / elapsed,
        "plan_p50_s": _median(op.seconds for op in plans),
        "long_plans_s": sum(op.seconds for op in long if op.repeat_seconds),
        "audit_p50_s": _median(min(op.audit_seconds) for op in plans),
        "tf_over_chord": statistics.fmean(op.tf_over_chord for op in ok) if ok else 0.0,
        "audit_worst_clearance": min(op.worst_clearance for op in ok) if ok else 0.0,
        "unsafe_share": sum(op.unsafe for op in plans) / len(plans) if plans else 0.0,
        "failed_share": failed / attempted,
        "wasted_solve_share": sum(op.wasted_seconds for op in plans) / solve_s if solve_s else 0.0,
        "slsqp_iterations": sum(op.iterations for op in plans),
        "audit_points": sum(op.audit_points for op in plans),
    }


def typical_pass_s(ops) -> float:
    """Time of one pass over every case of the program: each case's typical sample, summed."""
    return sum(op.typical_s for op in ops if op.repeat_seconds and op.kind != "reference")


def per_layer(tracer, untraced: dict, traced: dict, untraced_pass_s: float, traced_pass_s: float) -> dict:
    """Per-layer figures of the traced pass (every case once) and the tracing overhead.

    Returns ``{name: (unit, value)}``. The overhead compares the traced
    pass with a typical untraced sample of every case. The
    plan-level figures come from the untraced run; they are 0 on a
    workload that makes no plans.
    """
    totals = tracer.totals()

    def node(name):
        return totals.get(name, Node(name))

    def count(*names):
        return sum(node(n).count for n in names)

    def seconds(*names):
        return sum(node(n).total for n in names)

    oracles = ("oracle.pursuit", "oracle.turret")
    oracle_calls = count(*oracles)
    return {
        "pursuit.rho_calls": ("count", count("pursuit.rho")),
        "pursuit.rho_derivative_calls": ("count", count("pursuit.rho_derivative")),
        "pursuit.kernel_s": ("s", seconds("pursuit.rho", "pursuit.rho_derivative", "pursuit.signed_clearance")),
        "turret.clearance_calls": ("count", count("turret.clearance")),
        "turret.boundary_threshold_calls": ("count", count("turret.boundary_threshold")),
        "turret.kernel_s": ("s", seconds("turret.clearance", "turret.boundary_threshold")),
        "planner.jacobian_calls": ("count", count("planner.jacobian")),
        "planner.jacobian_s": ("s", seconds("planner.jacobian")),
        "planner.clearances_calls": ("count", count("planner.clearances")),
        "planner.clearances_s": ("s", seconds("planner.clearances")),
        "planner.slsqp_calls": ("count", count("planner.slsqp")),
        "planner.slsqp_self_s": ("s", node("planner.slsqp").self_time),
        "planner.slsqp_iterations": ("count", traced["slsqp_iterations"]),
        "planner.wasted_solve_share": ("ratio", traced["wasted_solve_share"]),
        "planner.audit_s": ("s", seconds("planner.audit")),
        "planner.audit_points": ("count", traced["audit_points"]),
        "planner.report_s": ("s", seconds("planner.report")),
        "oracle.pursuit_calls": ("count", count("oracle.pursuit")),
        "oracle.turret_calls": ("count", count("oracle.turret")),
        "oracle.s": ("s", seconds(*oracles)),
        "oracle.capture_share": (
            "ratio",
            sum(node(n).hits for n in oracles) / oracle_calls if oracle_calls else 0.0,
        ),
        "verification.sweep_s": ("s", seconds("verification.sweep")),
        "scenario_io.load_s": ("s", seconds("scenario_io.load")),
        "circumnav.calls": ("count", count("circumnav.circumnavigate")),
        "circumnav.s": ("s", seconds("circumnav.circumnavigate")),
        "trace.overhead_s": ("s", traced_pass_s - untraced_pass_s),
        "trace.overhead_share": ("ratio", traced_pass_s / untraced_pass_s - 1.0),
        "op_p50_s": ("s", untraced["op_p50_s"]),
        "poses_per_s": ("1/s", untraced["poses_per_s"]),
        "reference_s": ("s", untraced["reference_s"]),
        "plans_per_s": ("1/s", untraced["plans_per_s"]),
        "plan_p50_s": ("s", untraced["plan_p50_s"]),
        "long_plans_s": ("s", untraced["long_plans_s"]),
        "audit_p50_s": ("s", untraced["audit_p50_s"]),
        "tf_over_chord": ("ratio", untraced["tf_over_chord"]),
        "audit_worst_clearance": ("length", untraced["audit_worst_clearance"]),
        "unsafe_share": ("ratio", untraced["unsafe_share"]),
        "failed_share": ("ratio", untraced["failed_share"]),
    }
