"""Spans around calls into the library's modules, recorded from outside.

The traced run patches public names in the namespace of the module that
calls them (``optimizer`` binds ``lower_level_solve`` and friends at import,
so a patch applied only in ``hypergrad`` would be missed), wraps the problem's
oracles with ``dataclasses.replace``, and restores every name afterwards.
Each span adds its duration to its parent, so a layer's self time is its
duration minus the time covered by its child spans.

Kernel spans also accumulate a computed cost (floating-point operations and
bytes moved, from array sizes; see ``quadratic_costs`` and
``hypercleaning_costs``).  Nothing here is measured by hardware counters.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

from mobilevel import cli, core, hypergrad, optimizer, subsolvers

import workloads

COUNTED_FIELDS = ("ul_grad_x", "ul_grad_y", "ll_grad_y", "ll_hvp", "ll_jvp")
WARM_CERTIFIED = "subsolvers.solve_wc_subproblem/warm_certified"

# (module, attribute, span name): patched for the duration of a traced rep.
PATCHES = (
    (optimizer, "run_deterministic", "optimizer.loop"),
    (optimizer, "run_stochastic", "optimizer.loop"),
    (optimizer, "pareto_sweep", "optimizer.pareto_sweep"),
    (optimizer, "lower_level_solve", "hypergrad.lower_level_solve"),
    (optimizer, "stochastic_lower_solve", "hypergrad.stochastic_lower_solve"),
    (optimizer, "build_hypergradient_matrix", "hypergrad.build_hypergradient_matrix"),
    (optimizer, "build_hypergradient_matrix_stochastic",
     "hypergrad.build_hypergradient_matrix_stochastic"),
    (optimizer, "WcSubproblem", "subsolvers.WcSubproblem"),
    (optimizer, "solve_wc_subproblem", "subsolvers.solve_wc_subproblem"),
    (hypergrad, "hypergrad_cg", "hypergrad.hypergrad_cg"),
    (hypergrad, "hypergrad_ns", "hypergrad.hypergrad_ns"),
    (hypergrad, "stochastic_hvp_neumann", "hypergrad.stochastic_hvp_neumann"),
    (hypergrad, "conjugate_gradient", "subsolvers.conjugate_gradient"),
    (subsolvers, "project_simplex", "subsolvers.project_simplex"),
    (core.StochasticOracles, "sample", "core.sample"),
    (cli, "trace_csv_text", "cli.trace_csv_text"),
    (cli, "run_record", "cli.record"),
    (workloads, "summary_text", "cli.record"),
    (cli, "_write_text", "cli.write"),
)


class Tracer:
    """Per-name span statistics: calls, total and self nanoseconds, computed cost."""

    def __init__(self):
        self.stats = {}
        self.parents = {}
        self._stack = []

    def reset(self):
        for stat in self.stats.values():
            stat[:] = [0, 0, 0, 0, 0]
        for names in self.parents.values():
            names.clear()

    def snapshot(self):
        """{name: {calls, total_s, self_s, flops, bytes}} for spans seen since ``reset``."""
        return {
            name: {
                "calls": calls, "total_s": total * 1e-9, "self_s": own * 1e-9,
                "flops": flops, "bytes": moved,
            }
            for name, (calls, total, own, flops, moved) in self.stats.items()
            if calls
        }

    def wrap(self, name, fn, cost=None):
        stat = self.stats.setdefault(name, [0, 0, 0, 0, 0])
        parents = self.parents.setdefault(name, set())
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if cost is not None:
                    flops, moved = cost(*args)
                    stat[3] += flops
                    stat[4] += moved
                    end = clock()  # keep the cost bookkeeping out of the parent's self time
                if stack:
                    stack[-1][1] += end - start
                    parents.add(stack[-1][0])

        return traced

    def wrap_oracles(self, bundle, fields, name_of, costs=None):
        costs = costs or {}
        return dataclasses.replace(bundle, **{
            field: self.wrap(name_of(field), getattr(bundle, field), costs.get(field))
            for field in fields
        })

    @contextlib.contextmanager
    def patched(self):
        """Route the library's internal calls through spans until the block exits."""
        saved = []
        try:
            for owner, attr, name in PATCHES:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            for attr in ("counted_oracles", "counted_stochastic_oracles"):
                original = getattr(optimizer, attr)
                saved.append((optimizer, attr, original))
                setattr(optimizer, attr, self._counted(original))
            optimizer.solve_wc_subproblem = self._count_warm_certified(
                optimizer.solve_wc_subproblem)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _count_warm_certified(self, solve):
        """Count QP solves certified at the warm start: one projection, no PGD step."""
        projections = self.stats["subsolvers.project_simplex"]
        certified = self.stats.setdefault(WARM_CERTIFIED, [0, 0, 0, 0, 0])

        def counting_solve(*args, **kwargs):
            before = projections[0]
            result = solve(*args, **kwargs)
            certified[0] += projections[0] - before == 1
            return result

        return counting_solve

    def _counted(self, counted):
        def traced_counted(problem, counters):
            return self.wrap_oracles(
                counted(problem, counters), COUNTED_FIELDS, lambda _: "core.counted_oracles"
            )

        return traced_counted


def quadratic_costs(p, q):
    """Computed (flops, bytes) per call of the quadratic family's oracles.

    One flop per add or multiply; bytes are 8 per float64 element read or
    written by each NumPy operation of the oracle body in ``make_quadratic``.
    """
    per_call = {
        # h @ y - c @ x
        "ll_grad_y": (2 * q * q + 2 * q * p + q, 8 * (q * q + q * p + p + 6 * q)),
        # h @ v
        "ll_hvp": (2 * q * q, 8 * (q * q + 2 * q)),
        # -c.T @ v: the negation copies c, then a matrix-vector product
        "ll_jvp": (3 * q * p, 8 * (3 * q * p + q + p)),
        "ul_grad_x": (p, 8 * 3 * p),
        "ul_grad_y": (q, 8 * 3 * q),
        # two differences, two dot products
        "ul_value": (3 * (p + q), 8 * 5 * (p + q)),
    }
    return {field: (lambda *_, c=cost: c) for field, cost in per_call.items()}


def hypercleaning_costs(s_count, feature_dim, n_train):
    """Computed (flops, bytes) per call of the hyper-cleaning oracles.

    Counts the dominant terms for a batch of ``b`` samples: each contraction
    over the gathered ``S x b x d`` features costs two flops per element,
    each sigmoid or log-sum-exp four flops per element; bytes count the
    feature gathers and every pass over the gathered features.
    """
    s, d = s_count, feature_dim

    def batch(args):
        return len(args[-1])

    def ll_grad_y(*args):
        b = batch(args)
        return 4 * s * b * d + 11 * s * b + 3 * s * d, 8 * 4 * s * b * d

    def ll_hvp(*args):
        b = batch(args)
        return 6 * s * b * d + 12 * s * b + 2 * s * d, 8 * 5 * s * b * d

    def ll_jvp(*args):
        b = batch(args)
        return 4 * s * b * d + 14 * s * b, 8 * (4 * s * b * d + s * n_train)

    def ul_value(*args):
        b = batch(args)
        return 2 * b * d + 6 * b, 8 * 3 * b * d

    def ul_grad_y(*args):
        b = batch(args)
        return 4 * b * d + 6 * b, 8 * (5 * b * d + s * d)

    def ul_grad_x(*args):
        return 0, 8 * s * n_train

    return dict(
        ll_grad_y=ll_grad_y, ll_hvp=ll_hvp, ll_jvp=ll_jvp,
        ul_value=ul_value, ul_grad_y=ul_grad_y, ul_grad_x=ul_grad_x,
    )
