"""Spans around the library's module bindings, installed from outside.

The traced run replaces the names the program looks up at call time
(``threatnav.planner.rho``, ``TranscribedProblem.clearances``, ...) with
timing wrappers and restores them afterwards; nothing under ``src/``
changes. Scalar kernels are called about a million times per turret
plan, so spans are not stored one by one: each op keeps a call tree in
which a node holds the count, total time and child time of every call
with the same name under the same parent. Self time is total minus
child time.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager, nullcontext
from time import perf_counter

# (module, attribute path, span name). Oracle spans also count how many
# calls answered "capturable".
BINDINGS = (
    ("threatnav.planner", "rho", "pursuit.rho"),
    ("threatnav.planner", "rho_derivative", "pursuit.rho_derivative"),
    ("threatnav.planner", "turret_clearance", "turret.clearance"),
    ("threatnav.planner", "minimize", "planner.slsqp"),
    ("threatnav.planner", "pursuit_capture_possible", "oracle.pursuit"),
    ("threatnav.planner", "turret_neutralization_possible", "oracle.turret"),
    ("threatnav.planner", "TranscribedProblem.clearances", "planner.clearances"),
    ("threatnav.planner", "TranscribedProblem.clearance_jacobian", "planner.jacobian"),
    ("threatnav.planner", "TranscribedProblem.endpoint", "planner.endpoint"),
    ("threatnav.planner", "TranscribedProblem.endpoint_jacobian", "planner.endpoint_jacobian"),
    # The dense audit and the report import signed_clearance at call time.
    ("threatnav.pursuit", "signed_clearance", "pursuit.signed_clearance"),
    ("threatnav.verification", "rho", "pursuit.rho"),
    ("threatnav.verification", "boundary_threshold", "turret.boundary_threshold"),
    ("threatnav.verification", "pursuit_capture_possible", "oracle.pursuit"),
    ("threatnav.verification", "turret_neutralization_possible", "oracle.turret"),
)


class Node:
    """All calls of one name under one parent node."""

    __slots__ = ("name", "parent", "children", "count", "total", "child_total", "hits")

    def __init__(self, name: str, parent: "Node | None" = None):
        self.name = name
        self.parent = parent
        self.children: dict[str, Node] = {}
        self.count = 0
        self.total = 0.0
        self.child_total = 0.0
        self.hits = 0

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name, self)
        return node

    @property
    def self_time(self) -> float:
        return self.total - self.child_total

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total,
            "self_s": self.self_time,
            "hits": self.hits,
            "children": [c.to_dict() for c in self.children.values()],
        }


class NullTracer:
    """Untraced runs: the ops' own spans cost one context manager each."""

    def span(self, name: str):
        return nullcontext()

    op = span

    def take_solves(self) -> list:
        return []


class Tracer:
    def __init__(self):
        self.ops: list[Node] = []
        self.solves: list[tuple[float, float]] = []  # (seconds, t_f) per minimize
        self.missing: list[str] = []
        self._stack = [Node("outside-ops")]
        self._saved: list[tuple[object, str, object]] = []

    def _close(self, node: Node, seconds: float) -> None:
        self._stack.pop()
        node.count += 1
        node.total += seconds
        if node.parent is not None:
            node.parent.child_total += seconds

    @contextmanager
    def span(self, name: str):
        node = self._stack[-1].child(name)
        self._stack.append(node)
        t0 = perf_counter()
        try:
            yield node
        finally:
            self._close(node, perf_counter() - t0)

    @contextmanager
    def op(self, name: str):
        """One request: a fresh call tree, kept in ``self.ops``."""
        root = Node(name)
        self._stack.append(root)
        t0 = perf_counter()
        try:
            yield root
        finally:
            self._close(root, perf_counter() - t0)
            self.ops.append(root)

    def take_solves(self) -> list[tuple[float, float]]:
        solves, self.solves = self.solves, []
        return solves

    def _wrap(self, name: str, fn):
        stack, close = self._stack, self._close
        record_solve = name == "planner.slsqp"
        count_hits = name.startswith("oracle.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            node = stack[-1].child(name)
            stack.append(node)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - t0
                close(node, seconds)
            if count_hits and result:
                node.hits += 1
            elif record_solve:
                self.solves.append((seconds, float(result.x[-1])))
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding in BINDINGS that exists; list the ones that do not."""
        for module_name, path, span_name in BINDINGS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(span_name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def totals(self) -> dict[str, Node]:
        """Every node of every op merged by span name."""
        merged: dict[str, Node] = {}
        for root in self.ops:
            for node in root.walk():
                acc = merged.setdefault(node.name, Node(node.name))
                acc.count += node.count
                acc.total += node.total
                acc.child_total += node.child_total
                acc.hits += node.hits
        return merged
