"""Outside-in spans around calls into leangrape's public functions.

A :class:`Tracer` replaces each public entry point listed in
:data:`TARGETS` with a wrapper that records one span per call: its name,
start and end (``perf_counter_ns``), the span that was open when it
started (its parent) and the operation id set by the harness.  The name
is patched in the module or class that looks it up at call time, so the
library itself is not modified; :func:`patched` restores every original
on exit.  Spans are kept in flat in-memory arrays and written out once,
after the run.

While tracing, every ``expm.apply`` call is checked to run exactly
``plan.matvecs`` products on the operator it was given (the certified
``mu = m*s`` promise, checked from outside); the planned and counted
totals are kept for the per-layer report.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager

import numpy as np

from leangrape import costs, derivatives, expm, optimizer, sparse

#: (owner, attribute, span name, kind).  The owner is the module or class
#: through which the library looks the name up when it calls it.
TARGETS = (
    (sparse.CsrMatrix, "matvec", "sparse.CsrMatrix.matvec", "matvec"),
    (sparse.DenseMatrix, "matvec", "sparse.DenseMatrix.matvec", "matvec"),
    (
        derivatives.BlockDerivativeOperator,
        "matvec",
        "derivatives.BlockDerivativeOperator.matvec",
        "matvec",
    ),
    (costs, "linear_combine", "sparse.linear_combine", "plain"),
    (costs.ControlProblem, "step_evaluator", "costs.ControlProblem.step_evaluator", "plain"),
    (expm, "apply", "expm.apply", "apply"),
    (expm, "make_plan", "expm.make_plan", "plan"),
    (derivatives.StepEvaluator, "forward", "derivatives.StepEvaluator.forward", "plain"),
    (derivatives.StepEvaluator, "adjoint", "derivatives.StepEvaluator.adjoint", "plain"),
    (
        derivatives.StepEvaluator,
        "control_derivative",
        "derivatives.StepEvaluator.control_derivative",
        "plain",
    ),
    (derivatives, "aux_plan", "derivatives.aux_plan", "plain"),
    (derivatives, "diag_prepare", "derivatives.diag_prepare", "plain"),
    (derivatives, "derivative_action_diag", "derivatives.derivative_action_diag", "plain"),
    (optimizer, "composite_grad", "optimizer.composite_grad", "plain"),
    (optimizer, "composite_cost", "optimizer.composite_cost", "plain"),
)

LEAF_MATVECS = ("sparse.CsrMatrix.matvec", "sparse.DenseMatrix.matvec")


def _matvec_work(op, v) -> tuple[int, int]:
    """Stored elements and bytes read or written by one product, from array sizes."""
    out_bytes = 16 * op.n_rows
    if isinstance(op, sparse.CsrMatrix):
        arrays = op.values.nbytes + op.col_indices.nbytes + op.row_offsets.nbytes
        return op.values.size, arrays + v.nbytes + out_bytes
    if isinstance(op, sparse.DenseMatrix):
        return op.array.size, op.array.nbytes + v.nbytes + out_bytes
    # composite operators: their leaf products carry the bytes
    return int(op.nnz), 0


class Tracer:
    """In-memory span store plus the ``mu`` bookkeeping of ``expm.apply``.

    Column ``a``/``b`` of a span hold (stored elements, bytes) for a
    matvec and (planned, counted) matvecs for an ``expm.apply``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.a = array("q")
        self.b = array("q")
        self._stack = [-1]
        self.op_id = 0
        self._apply_frames: list[list] = []
        self.mu_mismatch_ops: set[int] = set()
        self.plans: list[tuple[int, tuple, float]] = []  # (op, arguments, bound/tau)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, a: int = 0) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.a.append(a)
        self.b.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, kind: str):
        nid = self._id(name)
        open_, close = self._open, self._close

        if kind == "matvec":
            frames = self._apply_frames
            b = self.b

            def wrapper(obj, v, out=None):
                if frames and frames[-1][0] is obj:
                    frames[-1][1] += 1
                nnz, nbytes = _matvec_work(obj, v)
                idx = open_(nid, nnz)
                try:
                    return fn(obj, v, out)
                finally:
                    close(idx)
                    b[idx] = nbytes

        elif kind == "apply":
            frames = self._apply_frames
            b = self.b

            def wrapper(a, psi, plan, **kwargs):
                frame = [a, 0]
                frames.append(frame)
                idx = open_(nid, plan.matvecs)
                try:
                    return fn(a, psi, plan, **kwargs)
                finally:
                    close(idx)
                    frames.pop()
                    b[idx] = frame[1]
                    if frame[1] != plan.matvecs:
                        self.mu_mismatch_ops.add(self.op_id)

        elif kind == "plan":

            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    plan = fn(*args, **kwargs)
                finally:
                    close(idx)
                key = (args, tuple(sorted(kwargs.items())))
                self.plans.append((self.op_id, key, plan.bound / plan.tau))
                return plan

        else:

            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV (one line per span)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op,a,b\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.op[i]},{self.a[i]},{self.b[i]}\n"
                )


@contextmanager
def patched(tracer: Tracer):
    """Install a span wrapper on every target; restore all originals on exit."""
    originals = []
    try:
        for owner, attr, name, kind in TARGETS:
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, kind))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def all_restored() -> bool:
    return all(not hasattr(vars(owner)[attr], "__wrapped__") for owner, attr, _, _ in TARGETS)


def layer_metrics(
    tracer: Tracer,
    *,
    n_ops: int,
    n_steps: int,
    root_name: str,
    pass_names: tuple[str, ...],
) -> dict[str, tuple[float, str]]:
    """Per-operation layer numbers from the spans of operations with id > 0.

    ``models.build_s`` is the median of the set-up spans (id 0) instead.

    Counts and seconds are totals divided by ``n_ops``.  Self time is a
    span's duration minus the durations of its direct children (spans
    nest strictly in this single-threaded run).  A ratio whose base is
    zero, because the layer does not run on this workload, reads 0.
    """
    ids = {n: i for i, n in enumerate(tracer.names)}
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    op = np.frombuffer(tracer.op, dtype=np.int64)
    a = np.frombuffer(tracer.a, dtype=np.int64)
    b = np.frombuffer(tracer.b, dtype=np.int64)
    dur = np.frombuffer(tracer.end, dtype=np.int64) - np.frombuffer(tracer.start, dtype=np.int64)
    child = np.zeros(dur.size, dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child
    timed = op > 0

    def sel(*names: str) -> np.ndarray:
        wanted = [ids[n] for n in names if n in ids]
        return timed & np.isin(name, wanted)

    def calls(*names):
        return int(sel(*names).sum()) / n_ops

    def secs(*names, column=dur):
        return float(column[sel(*names)].sum()) * 1e-9 / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    leaf = sel(*LEAF_MATVECS)
    leaf_ns = float(dur[leaf].sum())
    applies = sel("expm.apply")
    counted = int(b[applies].sum())
    plans = [(op_id, key, bound) for op_id, key, bound in tracer.plans if op_id > 0]
    op_s = secs(root_name)
    passes = calls(*pass_names)
    cd_s = secs("derivatives.StepEvaluator.control_derivative")
    assemblies = calls("costs.ControlProblem.step_evaluator")

    builds = dur[(op == 0) & (name == ids.get("models.build", -1))]
    return {
        "models.build_s": (float(np.median(builds)) * 1e-9 if builds.size else 0.0, "s"),
        "sparse.matvec_calls": (calls(*LEAF_MATVECS), "count"),
        "sparse.matvec_s": (leaf_ns * 1e-9 / n_ops, "s"),
        "sparse.matvec_ns_per_nnz": (ratio(leaf_ns, float(a[leaf].sum())), "ns"),
        "sparse.matvec_gbs_computed": (ratio(float(b[leaf].sum()), leaf_ns), "GB/s"),
        "sparse.linear_combine_calls": (calls("sparse.linear_combine"), "count"),
        "sparse.linear_combine_s": (secs("sparse.linear_combine"), "s"),
        "expm.apply_calls": (calls("expm.apply"), "count"),
        "expm.apply_s": (secs("expm.apply"), "s"),
        "expm.apply_self_s": (secs("expm.apply", column=self_ns), "s"),
        "expm.matvecs_planned": (float(a[applies].sum()) / n_ops, "count"),
        "expm.matvecs_counted": (counted / n_ops, "count"),
        "expm.ns_per_matvec": (ratio(float(dur[applies].sum()), counted), "ns"),
        "expm.make_plan_calls": (calls("expm.make_plan"), "count"),
        "expm.make_plan_s": (secs("expm.make_plan"), "s"),
        # distinct arguments within one operation: what a per-operation plan cache would save
        "expm.plan_distinct_ratio": (
            ratio(len({(op_id, key) for op_id, key, _ in plans}), len(plans)), "ratio"
        ),
        "expm.bound_over_tau_max": (max((bound for _, _, bound in plans), default=0.0), "ratio"),
        "derivatives.forward_calls": (calls("derivatives.StepEvaluator.forward"), "count"),
        "derivatives.forward_s": (secs("derivatives.StepEvaluator.forward"), "s"),
        "derivatives.adjoint_calls": (calls("derivatives.StepEvaluator.adjoint"), "count"),
        "derivatives.adjoint_s": (secs("derivatives.StepEvaluator.adjoint"), "s"),
        "derivatives.control_derivative_calls": (
            calls("derivatives.StepEvaluator.control_derivative"), "count"
        ),
        "derivatives.control_derivative_s": (cd_s, "s"),
        "derivatives.control_derivative_share": (ratio(cd_s, op_s), "ratio"),
        "derivatives.embed_builds": (calls("derivatives.aux_plan"), "count"),
        "derivatives.diag_prepare_calls": (calls("derivatives.diag_prepare"), "count"),
        "derivatives.diag_prepare_s": (secs("derivatives.diag_prepare"), "s"),
        "derivatives.diag_action_s": (secs("derivatives.derivative_action_diag"), "s"),
        "costs.step_evaluator_calls": (assemblies, "count"),
        "costs.step_evaluator_s": (secs("costs.ControlProblem.step_evaluator"), "s"),
        "costs.assembly_reuse_ratio": (ratio(n_steps * passes, assemblies), "ratio"),
        "costs.pass_self_s": (secs(*pass_names, column=self_ns), "s"),
        "optimizer.grad_calls": (calls("optimizer.composite_grad"), "count"),
        "optimizer.cost_calls": (calls("optimizer.composite_cost"), "count"),
        # every solve's first gradient precedes any step, so it is not an acceptance
        "optimizer.accept_ratio": (
            ratio(calls("optimizer.composite_grad") - 1.0, calls("optimizer.composite_cost")),
            "ratio",
        ),
        "optimizer.self_s": (secs("optimizer.grape_optimize", column=self_ns), "s"),
    }
