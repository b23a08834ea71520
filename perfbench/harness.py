"""Closed-loop measurement, output checks and the result line of one run.

A run sets the workload up in batches spread over the run (``setup_s`` is
the median), makes one untimed warm-up call, then runs operations back to
back for ``--seconds``.  End-to-end times are reported in units of a
speed probe run beside them (see ``PROBE_S``).  With ``--trace 1`` the
loop is split: half untraced, half with every layer boundary wrapped in
spans (see :mod:`tracing`), and the run reports per-layer numbers
instead of end-to-end ones.

Every operation's output is checked, outside the timed region, and so are
a few properties of the program (see :func:`run_checks`).  Each check and
each operation counts once in ``attempted``; one that raises or fails
counts in ``failed``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import tracing
import workloads
from leangrape import expm

#: Set-ups per batch, and the loop time between batches.  The machine's
#: speed drifts over seconds, so ``setup_s`` samples the whole run: one batch
#: before the loop, one between operations whenever this much time has
#: passed, and one after the checks.
SETUP_BATCH = 5
SETUP_EVERY_S = 2.0
#: The shared host's speed drifts by about a quarter over tens of seconds,
#: and it moves interpreter, small-array and LAPACK work together.  So a
#: fixed probe of all three runs after every set-up batch and, where the
#: workload asks for it, after every operation (for PROBE_SHARE of the
#: operation's time, at least once).  Such a time is reported in units of
#: the probe time measured beside it, times PROBE_S.  PROBE_S only sets
#: the unit: it is about the probe's median time on the baseline machine.
PROBE_S = 0.01
PROBE_SHARE = 0.05
_PROBE_VEC = np.full(27, 0.5 + 0.5j)
_PROBE_MAT = np.add.outer(np.arange(64.0), np.arange(64.0)) % 7.0
#: Central-difference step and tolerance of the finite-difference check:
#: |fd - grad| <= FD_RTOL * max|grad| + FD_ATOL.
FD_STEP = 1e-3
FD_RTOL = 1e-4
FD_ATOL = 1e-11
FD_ENTRIES = 3


class Ledger:
    """Counts attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
            print(f"FAILED {name} {detail}", file=sys.stderr)
        return ok

    def call(self, name: str, fn):
        """Run ``fn`` as one attempted item; a raised exception counts as failed."""
        try:
            return fn()
        except Exception as exc:  # a failing operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.check(name, False, repr(exc))
            return None


def _probe_work() -> None:
    s = 0
    for i in range(35000):
        s += i * i % 7
    x = _PROBE_VEC
    for _ in range(1750):
        x = x * 0.5 + _PROBE_VEC
    for _ in range(5):
        np.linalg.eigh(_PROBE_MAT)


def probe_time(min_s: float = 0.0) -> float:
    """Mean seconds of the speed probe, run once and then until ``min_s`` has passed."""
    end = time.perf_counter() + min_s
    times = []
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter_ns()
        _probe_work()
        times.append((time.perf_counter_ns() - t0) * 1e-9)
    return statistics.fmean(times)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, never below the median."""
    q = max(0.5, 1.0 - 10.0 / len(samples))
    return float(np.quantile(samples, q)), 100.0 * q


class Loop:
    """Back-to-back operations over the run's cases, with per-case references."""

    def __init__(self, inputs: workloads.Inputs, ledger: Ledger):
        self.inputs = inputs
        self.ledger = ledger
        self.references: dict[int, tuple] = {}
        self.evals: dict[int, int] = {}

    def validate(self, case: int, result, label: str) -> bool:
        error = workloads.output_error(result)
        if error is None:
            ref = self.references.setdefault(case, workloads.fingerprint(result))
            if workloads.fingerprint(result) != ref:
                error = "output differs bit-for-bit from the first output of this case"
        self.evals.setdefault(case, workloads.grad_evals(result))
        return self.ledger.check(f"{label} case {case}", error is None, error or "")

    def run(
        self, cases: list[int], seconds: float, tracer=None, between=None
    ) -> tuple[dict[int, list[float]], dict[int, list[float]]]:
        """Closed loop for ``seconds``, at least one operation per case.

        Returns the seconds of each valid operation per case and, beside
        each, what ``between(elapsed)`` returned; it is called after each
        operation, outside its timing.
        """
        samples: dict[int, list[float]] = {c: [] for c in cases}
        beside: dict[int, list[float]] = {c: [] for c in cases}
        run = self.inputs.run
        label = "traced op" if tracer else "op"
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(cases) or time.perf_counter() < deadline:
            case = cases[i % len(cases)]
            field = self.inputs.fields[case]
            i += 1
            if tracer is not None:
                tracer.op_id = i
                span = tracer.span(self.inputs.root_name)
            else:
                span = nullcontext()
            t0 = time.perf_counter_ns()
            with span:
                result = self.ledger.call(f"{label} case {case}", lambda: run(field))
            elapsed = (time.perf_counter_ns() - t0) * 1e-9
            valid = result is not None and self.validate(case, result, label)
            after = between(elapsed) if between is not None else None
            if valid:
                samples[case].append(elapsed)
                beside[case].append(after)
        if tracer is not None:
            tracer.op_id = 0
        return samples, beside


def _oracle_checks(ledger: Ledger, inputs: workloads.Inputs, rng) -> None:
    """One sampled step against a dense ``eigh`` oracle: ``expm.apply`` and the evaluator."""
    field = inputs.fields[0]
    n = int(rng.integers(field.n_steps))
    evaluator = inputs.problem.step_evaluator(field, n)
    h = evaluator.ctx.h_step
    d = h.n_rows
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    w, v = np.linalg.eigh(h.to_dense())
    exact = v @ (np.exp(-1j * w * field.dt) * (v.conj().T @ psi))
    gen = h.scaled(-1j * field.dt)
    plan = expm.make_plan(gen.one_norm(), gen.max_row_nnz(), workloads.TAU)
    for name, fn in (
        ("expm.apply vs eigh", lambda: expm.apply(gen, psi, plan)),
        ("step forward vs eigh", lambda: evaluator.forward(psi)),
    ):
        got = ledger.call(name, fn)
        if got is not None:
            err = float(np.linalg.norm(got - exact))
            ledger.check(f"{name} step {n}", err <= workloads.TAU, f"error {err:.3g} > tau")


def _fd_checks(ledger: Ledger, inputs: workloads.Inputs, grad: np.ndarray, rng) -> None:
    """A few seeded gradient entries against central finite differences."""
    field = inputs.fields[0]
    tol = FD_RTOL * float(np.abs(grad).max()) + FD_ATOL
    for _ in range(FD_ENTRIES):
        n, k = int(rng.integers(field.n_steps)), int(rng.integers(field.n_channels))
        up, down = field.amplitudes.copy(), field.amplitudes.copy()
        up[n, k] += FD_STEP
        down[n, k] -= FD_STEP
        fd = ledger.call(
            f"fd ({n},{k})",
            lambda: (
                inputs.cost(field.replace_amplitudes(up))
                - inputs.cost(field.replace_amplitudes(down))
            )
            / (2.0 * FD_STEP),
        )
        if fd is not None:
            err = abs(fd - grad[n, k])
            ledger.check(f"fd ({n},{k})", err <= tol, f"|fd - grad| = {err:.3g} > {tol:.3g}")


def alloc_pass(ledger: Ledger, inputs: workloads.Inputs, reference) -> dict:
    """Peak traced allocation of one gradient, right after the warm-up, untimed."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = ledger.call("alloc pass", lambda: inputs.gradient(inputs.fields[0]))
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if result is not None:
        ledger.check(
            "alloc pass equals warm-up",
            workloads.fingerprint(result) == workloads.fingerprint(reference),
        )
    return {
        "alloc_peak_mib": peak_bytes / 2**20,
        "live_vectors_peak": float(reference.live_vector_peak),
    }


def run_checks(ledger: Ledger, inputs: workloads.Inputs, reference, seed: int) -> None:
    """Untimed checks of the program's outputs on this run's inputs."""
    rng = np.random.default_rng([seed, 1])
    field = inputs.fields[0]
    half_steps = max(1, field.n_steps // 2)
    half_field = type(field)(half_steps, field.n_channels, field.dt, field.amplitudes[:half_steps])
    half = ledger.call("half-N gradient", lambda: inputs.gradient(half_field))
    if half is not None:
        ledger.check(
            "live vectors independent of N",
            half.live_vector_peak == reference.live_vector_peak,
            f"{reference.live_vector_peak} at N={field.n_steps}, "
            f"{half.live_vector_peak} at N={half_steps}",
        )
    _oracle_checks(ledger, inputs, rng)
    _fd_checks(ledger, inputs, reference.grad, rng)


def time_setups(workload, seed: int, smoke: bool, span):
    """One batch of set-ups; returns the last inputs and the seconds of each."""
    samples = []
    for _ in range(SETUP_BATCH):
        t0 = time.perf_counter_ns()
        inputs = workloads.set_up(workload, seed, smoke, span)
        samples.append((time.perf_counter_ns() - t0) * 1e-9)
    return inputs, samples


def measure(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, out_dir: Path, env: dict
) -> dict:
    workload = workloads.WORKLOADS[name]
    ledger = Ledger()
    tracer = tracing.Tracer() if trace else None
    span = tracer.span if tracer else (lambda _name: nullcontext())

    setup_s: list[float] = []
    setup_rel: list[float] = []  # each set-up over the probe time beside its batch
    speeds: list[float] = []

    def setup_batch():
        inputs, times = time_setups(workload, seed, smoke, span)
        speeds.append(probe_time())
        setup_s.extend(times)
        setup_rel.extend(t / speeds[-1] for t in times)
        return inputs

    inputs = setup_batch()

    reference = ledger.call("warm-up", lambda: inputs.gradient(inputs.fields[0]))
    if reference is None or not ledger.check(
        "warm-up output", workloads.output_error(reference) is None
    ):
        raise RuntimeError("the warm-up gradient failed; nothing to measure")

    memory = alloc_pass(ledger, inputs, reference)
    loop = Loop(inputs, ledger)
    if workload.kind != "solve":
        loop.validate(0, reference, "warm-up")
    # a traced run measures the first case only, untraced and then traced
    cases = [0] if trace else list(range(len(inputs.fields)))
    next_batch = time.perf_counter() + SETUP_EVERY_S

    def between(elapsed):
        """Probe after the operation; its speed is the mean of the probes around it."""
        nonlocal next_batch
        around = None
        if workload.speed_probe:
            speeds.append(probe_time(PROBE_SHARE * elapsed))
            around = 0.5 * (speeds[-2] + speeds[-1])
        if time.perf_counter() >= next_batch:
            setup_batch()
            next_batch = time.perf_counter() + SETUP_EVERY_S
        return around

    if trace:
        samples, _ = loop.run(cases, seconds / 2)
    else:
        if workload.speed_probe:
            speeds.append(probe_time())  # the probe before the first operation
        samples, beside = loop.run(cases, seconds, between=between)
    traced = {}
    if trace:
        with tracing.patched(tracer):
            traced, _ = loop.run(cases, seconds / 2, tracer)
        ledger.check("patched names restored", tracing.all_restored())
        n_traced = int(max(tracer.op))
        for op_id in range(1, n_traced + 1):
            ledger.check(
                f"mu = plan.matvecs in traced op {op_id}", op_id not in tracer.mu_mismatch_ops
            )
    run_checks(ledger, inputs, reference, seed)
    setup_batch()

    def per_case(stat, table):
        vals = [stat(table[c]) for c in cases if table[c]]
        return float(np.mean(vals)) if len(vals) == len(cases) else 0.0

    op_s = per_case(statistics.median, samples)
    wall = {}
    if trace:
        traced_op_s = per_case(statistics.median, traced)
        metrics = tracing.layer_metrics(
            tracer,
            n_ops=n_traced,
            n_steps=inputs.fields[0].n_steps,
            root_name=inputs.root_name,
            pass_names=inputs.pass_names,
        )
        metrics["trace.op_s"] = (traced_op_s, "s")
        metrics["trace.overhead_ratio"] = (traced_op_s / op_s if op_s else 0.0, "ratio")
    else:
        wall = {
            "setup_s": statistics.median(setup_s),
            "op_s": op_s,
            "op_s_tail": per_case(lambda s: tail(s)[0], samples),
        }
        op_times = samples
        if workload.speed_probe:
            op_times = {
                c: [t / p * PROBE_S for t, p in zip(samples[c], beside[c])] for c in cases
            }
        metrics = {
            "setup_s": (statistics.median(setup_rel) * PROBE_S, "s"),
            "op_s": (per_case(statistics.median, op_times), "s"),
            "op_s_tail": (per_case(lambda s: tail(s)[0], op_times), "s"),
            "grad_evals": (float(np.mean([loop.evals.get(c, 0) for c in cases])), "count"),
            "alloc_peak_mib": (memory["alloc_peak_mib"], "MiB"),
            "live_vectors_peak": (memory["live_vectors_peak"], "count"),
        }

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print_table(workload, metrics, ledger, samples, setup_s, speeds, trace)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "env": env,
        "setup_s": setup_s,
        "op_s_samples": {str(c): v for c, v in samples.items()},
        "traced_op_s_samples": {str(c): v for c, v in traced.items()},
        "probe_s": speeds,
        "wall_s": wall,
        "failures": ledger.failures,
        "result": result,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        tracer.write(out_dir / f"{stem}-spans.csv.gz")
    return result


def print_table(workload, metrics, ledger, samples, setup_s, speeds, trace) -> None:
    """Human-readable report; ``grad_*``/``solve_*`` name what ``op_*`` means here."""
    op = "solve" if workload.kind == "solve" else "grad"
    alias = {
        "op_s": f"{op}_s",
        "op_s_tail": f"{op}_s_tail",
        "grad_evals": "solve_iters" if op == "solve" else "grad_evals",
    }
    print(f"workload {workload.name}")
    n = sum(len(v) for v in samples.values())
    if not trace and n:
        pct = tail([x for v in samples.values() for x in v])[1]
        print(
            f"  samples {n} untraced operations, tail percentile p{pct:.0f}, "
            f"setup reps {len(setup_s)}"
        )
        timed = "set-up and operation" if workload.speed_probe else "set-up"
        print(
            f"  speed probe median {statistics.median(speeds) * 1e3:.3f} ms "
            f"({len(speeds)} probes); {timed} times are in probe times x {PROBE_S} s"
        )
    for key, (value, unit) in metrics.items():
        label = alias.get(key, key)
        shown = f"{label} ({key})" if label != key else key
        print(f"  {shown:44s} {value:14.6g} {unit}")
    rate = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(f"  {'error_rate':44s} {rate:14.6g} ratio ({ledger.failed}/{ledger.attempted})")
