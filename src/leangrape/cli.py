"""Command-line entry point.

Subcommands
-----------
``optimize``       run a GRAPE optimization, writing ``trace.csv`` and
                   ``summary.json``
``bench-mu``       matvec-count scaling sweeps, writing ``bench.csv``
``bench-runtime``  gradient-step runtime sweeps, writing ``bench.csv``
``advise``         print a strategy recommendation as JSON
``expm``           apply a certified matrix exponential to a vector file

Runs are configured by a flat ``key = value`` text file with dotted
section prefixes (see README for the schema).  Unknown keys are errors;
validation completes before any computation starts.  Output files carry a
``# config_sha256=...`` provenance header, and reruns with identical
config and seed are byte-identical apart from wall-time columns.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import bench, costs, models, optimizer
from .derivatives import Backend
from .expm import PlanningError, apply as expm_apply, make_plan
from .sparse import identity_csr, load_matrix, load_vector

__all__ = ["main", "RunConfig", "parse_config", "serialize_config", "ConfigError"]


class ConfigError(ValueError):
    """Malformed, unknown, missing or out-of-range configuration keys."""


@dataclass(frozen=True)
class _Spec:
    kind: str  # int | float | str | bool | int_list | float_list
    subcommands: tuple[str, ...]
    required: tuple[str, ...] = ()
    choices: tuple[str, ...] | None = None
    positive: bool = False


_COST_KEYS = {
    "cost.state_infidelity": costs.CostKind.STATE_INFIDELITY,
    "cost.state_penalty": costs.CostKind.STATE_PENALTY,
    "cost.state_running_infidelity": costs.CostKind.STATE_RUNNING_INFIDELITY,
    "cost.gate_infidelity": costs.CostKind.GATE_INFIDELITY,
    "cost.gate_running_infidelity": costs.CostKind.GATE_RUNNING_INFIDELITY,
}


def _schema() -> dict[str, _Spec]:
    opt = ("optimize",)
    b_mu = ("bench_mu",)
    b_rt = ("bench_runtime",)
    schema: dict[str, _Spec] = {
        "model.kind": _Spec("str", opt + b_mu + b_rt, required=opt + b_mu + b_rt,
                            choices=bench.MODEL_NAMES),
        "steps.n": _Spec("int", opt, required=opt, positive=True),
        "steps.dt": _Spec("float", opt + b_rt, required=opt, positive=True),
        "tau": _Spec("float", opt + b_mu + b_rt + ("expm",), positive=True),
        "backend": _Spec("str", opt, choices=("scaling_squaring", "diagonalization")),
        "seed": _Spec("int", opt),
        "controls.init": _Spec("str", opt, choices=("constant", "random")),
        "controls.value": _Spec("float", opt),
        "target.kind": _Spec("str", opt, choices=("basis_index", "cavity_fock", "hadamard")),
        "target.index": _Spec("int", opt),
        "penalty.kind": _Spec("str", opt, choices=("identity", "transmon_number")),
        "optimizer.max_iters": _Spec("int", opt, positive=True),
        "optimizer.eta0": _Spec("float", opt, positive=True),
        "optimizer.schedule": _Spec("str", opt, choices=optimizer.ETA_SCHEDULES),
        "optimizer.shrink": _Spec("float", opt, positive=True),
        "optimizer.grow": _Spec("float", opt, positive=True),
        "optimizer.stop_cost": _Spec("float", opt),
        "optimizer.stop_grad_norm": _Spec("float", opt),
        "bench.sizes": _Spec("int_list", b_mu + b_rt, required=b_mu + b_rt),
        "bench.dts": _Spec("float_list", b_mu),
        "bench.storage": _Spec("str", b_rt, choices=("sparse", "dense")),
        "bench.reps": _Spec("int", b_rt, positive=True),
        "bench.task": _Spec("str", b_rt, choices=("state_transfer", "gate")),
        "advise.d": _Spec("int", ("advise",), required=("advise",), positive=True),
        "advise.n": _Spec("int", ("advise",), required=("advise",), positive=True),
        "advise.kappa": _Spec("str", ("advise",), required=("advise",),
                              choices=("sub_quadratic", "quadratic")),
        "advise.mu": _Spec("str", ("advise",), required=("advise",),
                           choices=("sublinear", "linear_or_worse")),
        "advise.task": _Spec("str", ("advise",), required=("advise",),
                             choices=("state_transfer", "gate")),
        "advise.memory_ok": _Spec("bool", ("advise",), required=("advise",)),
        "advise.gradients_available": _Spec("bool", ("advise",), required=("advise",)),
        "expm.matrix": _Spec("str", ("expm",), required=("expm",)),
        "expm.vector": _Spec("str", ("expm",), required=("expm",)),
    }
    # the bench sweeps build their own models from bench.sizes: parameters are optimize's
    for family in models.FAMILIES.values():
        for fld in dataclasses.fields(family.params):
            key = f"model.{fld.name}"
            kind_spec = "int" if fld.type in ("int", int) else "float"
            if key not in schema:
                schema[key] = _Spec(kind_spec, opt)
    for key in _COST_KEYS:
        schema[key] = _Spec("float", opt)
    return schema


_SCHEMA = _schema()

#: cost weights apply to optimize only; every cost key ends in this suffix
_DEFAULTS = {
    "tau": 1e-8,
    "backend": "scaling_squaring",
    "seed": 1,
    "controls.init": "constant",
    "controls.value": 0.1,
    "optimizer.max_iters": 200,
    "optimizer.eta0": 0.1,
    "optimizer.schedule": "lbfgs",
    "optimizer.shrink": 0.5,
    "optimizer.grow": 1.1,
    "optimizer.stop_cost": 0.0,
    "optimizer.stop_grad_norm": 0.0,
    "target.kind": "basis_index",
    "target.index": 0,
    "steps.dt": 0.1,
    "bench.dts": [1.0],
    "bench.storage": "sparse",
    "bench.reps": 5,
    "bench.task": "state_transfer",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: subcommand plus typed key-value map."""

    subcommand: str
    values: tuple[tuple[str, object], ...]

    def get(self, key: str, default=None):
        for k, v in self.values:
            if k == key:
                return v
        if key in _DEFAULTS:
            return _DEFAULTS[key]
        return default

    def has(self, key: str) -> bool:
        return any(k == key for k, _ in self.values)


def _convert(key: str, raw: str, spec: _Spec):
    try:
        if spec.kind == "int":
            value: object = int(raw)
        elif spec.kind == "float":
            value = float(raw)
        elif spec.kind == "bool":
            if raw.lower() not in ("true", "false"):
                raise ValueError("expected true or false")
            value = raw.lower() == "true"
        elif spec.kind == "int_list":
            value = [int(x) for x in raw.split(",") if x.strip() != ""]
        elif spec.kind == "float_list":
            value = [float(x) for x in raw.split(",") if x.strip() != ""]
        else:
            value = raw
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {spec.kind}") from exc
    if spec.kind in ("float", "float_list"):
        if not np.isfinite(value).all():
            raise ConfigError(f"{key}: must be finite, got {raw!r}")
    if spec.choices is not None and value not in spec.choices:
        raise ConfigError(f"{key}: {value!r} is not one of {spec.choices}")
    if spec.positive:
        bad = (
            (isinstance(value, (int, float)) and value <= 0)
            or (isinstance(value, list) and any(v <= 0 for v in value))
        )
        if bad:
            raise ConfigError(f"{key}: must be positive, got {value!r}")
    return value


def _parse_value(key: str, raw: str, subcommand: str, where: str):
    """Typed value of ``key`` for ``subcommand``; ``where`` locates it in errors."""
    spec = _SCHEMA.get(key)
    if spec is None:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if subcommand not in spec.subcommands:
        raise ConfigError(f"{where}: key {key!r} does not apply to subcommand {subcommand!r}")
    return _convert(key, raw, spec)


def parse_config(text: str, subcommand: str) -> RunConfig:
    """Parse and fully validate a flat ``key = value`` configuration.

    Unknown keys, keys not applicable to the subcommand, duplicates,
    malformed values and missing required keys all raise
    :class:`ConfigError` naming the offending key.
    """
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, subcommand, f"line {lineno}")

    for key, spec in _SCHEMA.items():
        if subcommand in spec.required and key not in values:
            raise ConfigError(f"missing required key {key!r} for subcommand {subcommand!r}")

    if "model.kind" in values:
        kind = values["model.kind"]
        allowed = set()
        if kind in models.FAMILIES:
            allowed = {f"model.{f.name}" for f in dataclasses.fields(models.FAMILIES[kind].params)}
        for key in values:
            if key.startswith("model.") and key != "model.kind" and key not in allowed:
                raise ConfigError(f"key {key!r} does not apply to model kind {kind!r}")

    return RunConfig(subcommand=subcommand, values=tuple(sorted(values.items())))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ",".join(
            repr(v) if isinstance(v, float) else str(v) for v in value
        )
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back reproduces ``cfg`` exactly."""
    lines = [f"{k} = {_format_value(v)}" for k, v in sorted(cfg.values)]
    return "\n".join(lines) + "\n"


def config_sha256(cfg: RunConfig) -> str:
    payload = cfg.subcommand + "\n" + serialize_config(cfg)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# problem construction


def _model_params(cfg: RunConfig):
    kind = cfg.get("model.kind")
    if kind not in models.FAMILIES:
        raise ConfigError(f"model.kind = {kind} is only available to the bench harness")
    cls = models.FAMILIES[kind].params
    # the schema already typed each model.* value as its field's int or float
    names = [fld.name for fld in dataclasses.fields(cls) if cfg.has(f"model.{fld.name}")]
    return kind, cls(**{name: cfg.get(f"model.{name}") for name in names})


def _build_target(cfg: RunConfig, kind: str, params, dim: int):
    target_kind = cfg.get("target.kind")
    index = int(cfg.get("target.index"))
    if target_kind == "basis_index":
        if not 0 <= index < dim:
            raise ConfigError(f"target.index {index} outside dimension {dim}")
        return models.fock_state(dim, index), None
    if target_kind == "cavity_fock":
        if not isinstance(params, models.TransmonCavityParams):
            raise ConfigError(f"target.kind = cavity_fock is not defined for model {kind!r}")
        if not 0 <= index < params.d_cavity:
            raise ConfigError(f"target.index {index} outside cavity dimension {params.d_cavity}")
        return models.fock_state(dim, index), None  # transmon ground block starts at 0
    # hadamard
    if isinstance(params, models.ThreeTransmonParams):
        return None, models.hadamard_target(3, params.d_each)
    if isinstance(params, models.QubitChainParams):
        return None, models.hadamard_target(params.n_qubits, 2)
    raise ConfigError(f"target.kind = hadamard is not defined for model {kind!r}")


def _build_penalty(cfg: RunConfig, kind: str, params, dim: int):
    penalty_kind = cfg.get("penalty.kind")
    if penalty_kind is None:
        raise ConfigError("cost.state_penalty requires penalty.kind")
    if penalty_kind == "identity":
        return identity_csr(dim)
    if not isinstance(params, models.TransmonCavityParams):
        raise ConfigError(f"penalty.kind = transmon_number is not defined for model {kind!r}")
    return models.transmon_number_op(params)


def _cost_terms(cfg: RunConfig, kind: str, params, dim: int) -> list[costs.CostTerm]:
    terms = []
    phi_target, gate_target = None, None
    for key, cost_kind in _COST_KEYS.items():
        if not cfg.has(key):
            continue
        weight = float(cfg.get(key))
        if cost_kind in (costs.CostKind.STATE_INFIDELITY, costs.CostKind.STATE_RUNNING_INFIDELITY):
            if phi_target is None:
                phi_target, gate_target = _build_target(cfg, kind, params, dim)
            if phi_target is None:
                raise ConfigError(f"{key} needs a state target (target.kind)")
            terms.append(costs.CostTerm(cost_kind, weight, target_state=phi_target))
        elif cost_kind is costs.CostKind.STATE_PENALTY:
            terms.append(
                costs.CostTerm(cost_kind, weight, penalty_op=_build_penalty(cfg, kind, params, dim))
            )
        else:
            if gate_target is None:
                phi_target, gate_target = _build_target(cfg, kind, params, dim)
            if gate_target is None:
                raise ConfigError(f"{key} needs a gate target (target.kind = hadamard)")
            terms.append(costs.CostTerm(cost_kind, weight, target_gate=gate_target))
    if not terms:
        raise ConfigError("optimize needs at least one cost.* weight")
    return terms


# ---------------------------------------------------------------------------
# subcommand drivers


def _run_optimize(cfg: RunConfig, out_dir: str) -> int:
    # the schema checks each value alone; OptimizerConfig checks the ranges
    # (shrink in (0, 1), grow > 1) before the model is built
    opt_cfg = optimizer.OptimizerConfig(
        max_iters=int(cfg.get("optimizer.max_iters")),
        eta0=float(cfg.get("optimizer.eta0")),
        eta_schedule=str(cfg.get("optimizer.schedule")),
        shrink=float(cfg.get("optimizer.shrink")),
        grow=float(cfg.get("optimizer.grow")),
        stop_cost=float(cfg.get("optimizer.stop_cost")),
        stop_grad_norm=float(cfg.get("optimizer.stop_grad_norm")),
    )
    kind, params = _model_params(cfg)
    h_static, h_controls = models.FAMILIES[kind].build(params)
    dim = h_static.n_rows
    n_steps = int(cfg.get("steps.n"))
    dt = float(cfg.get("steps.dt"))
    n_channels = len(h_controls)

    seed = int(cfg.get("seed"))
    value = float(cfg.get("controls.value"))
    if cfg.get("controls.init") == "constant":
        amps = np.full((n_steps, n_channels), value)
    else:
        amps = np.random.default_rng(seed).uniform(-value, value, (n_steps, n_channels))
    field = costs.ControlField(n_steps, n_channels, dt, amps)

    problem = costs.ControlProblem(
        h_static,
        tuple(h_controls),
        Backend(cfg.get("backend")),
        float(cfg.get("tau")),
        initial_state=models.fock_state(dim, 0),
    )
    terms = _cost_terms(cfg, kind, params, dim)
    trace = optimizer.grape_optimize(problem, terms, field, opt_cfg)

    sha = config_sha256(cfg)
    lines = [f"# config_sha256={sha}"] + trace.to_csv_lines()
    _write(out_dir, "trace.csv", "\n".join(lines) + "\n")
    summary = {
        "config_sha256": sha,
        "subcommand": "optimize",
        "final_cost": trace.final_cost,
        "iterations": len(trace.records),
        "cost_evals": trace.cost_evals,
        "stop_reason": trace.stop_reason,
    }
    _write(out_dir, "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


def _run_bench_mu(cfg: RunConfig, out_dir: str) -> int:
    model = str(cfg.get("model.kind"))
    sizes = list(cfg.get("bench.sizes"))
    dts = list(cfg.get("bench.dts"))
    tau = float(cfg.get("tau"))
    records = []
    for size in sizes:
        for dt in dts:
            records.append(bench.measure_mu(model, int(size), float(dt), tau))
    sha = config_sha256(cfg)
    _write(out_dir, "bench.csv", f"# config_sha256={sha}\n" + bench.records_to_csv(records))

    summary: dict = {"config_sha256": sha, "subcommand": "bench_mu", "points": len(records)}
    # a refused plan has no mu; a fit needs enough certified points or is left out
    feasible = [r for r in records if r.matvecs is not None]
    if len(sizes) >= 4 and len(dts) == 1 and len(feasible) >= 4:
        fit = bench.fit_power_law([(r.d, r.matvecs) for r in feasible])
        summary["mu_vs_d"] = dataclasses.asdict(fit)
    if len(dts) >= 4 and len(sizes) == 1 and len(feasible) >= 2:
        fit = bench.fit_line([r.norm1 for r in feasible], [r.matvecs for r in feasible])
        summary["mu_vs_norm1"] = dict(zip(("slope", "intercept", "r_squared"), fit))
    _write(out_dir, "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


def _run_bench_runtime(cfg: RunConfig, out_dir: str) -> int:
    model = str(cfg.get("model.kind"))
    sizes = list(cfg.get("bench.sizes"))
    tau = float(cfg.get("tau"))
    task = bench.Task(cfg.get("bench.task"))
    storage = str(cfg.get("bench.storage"))
    reps = int(cfg.get("bench.reps"))
    dt = float(cfg.get("steps.dt"))
    records = [
        bench.measure_step_runtime(
            model, int(size), task, tau, reps, dt=dt, storage=storage
        )
        for size in sizes
    ]
    sha = config_sha256(cfg)
    _write(out_dir, "bench.csv", f"# config_sha256={sha}\n" + bench.records_to_csv(records))
    summary: dict = {
        "config_sha256": sha,
        "subcommand": "bench_runtime",
        "points": len(records),
    }
    if len(records) >= 4:
        fit = bench.fit_power_law([(r.d, r.wall_ns) for r in records])
        summary["runtime_vs_d"] = dataclasses.asdict(fit)
    _write(out_dir, "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


def _run_advise(cfg: RunConfig, out_dir: str | None) -> int:
    rec = bench.strategy_advise(
        d=int(cfg.get("advise.d")),
        n_steps=int(cfg.get("advise.n")),
        kappa_scaling=bench.KappaScaling(cfg.get("advise.kappa")),
        mu_vs_d=bench.MuScaling(cfg.get("advise.mu")),
        task=bench.Task(cfg.get("advise.task")),
        memory_budget_ok_for_ad=bool(cfg.get("advise.memory_ok")),
        gradients_available=bool(cfg.get("advise.gradients_available")),
    )
    payload = {
        "config_sha256": config_sha256(cfg),
        "method": rec.method.value,
        "rationale": rec.rationale,
    }
    print(json.dumps(payload, sort_keys=True))
    if out_dir is not None:
        _write(out_dir, "summary.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _run_expm(cfg: RunConfig, out_dir: str | None) -> int:
    matrix_path = str(cfg.get("expm.matrix"))
    vector_path = str(cfg.get("expm.vector"))
    for path in (matrix_path, vector_path):
        if not os.path.exists(path):
            raise ConfigError(f"input file does not exist: {path}")
    tau = float(cfg.get("tau"))
    a = load_matrix(matrix_path)
    psi = load_vector(vector_path)
    plan = make_plan(a.one_norm(), a.max_row_nnz(), tau)
    result = expm_apply(a, psi, plan)
    payload = {
        "config_sha256": config_sha256(cfg),
        "result": [[float(z.real), float(z.imag)] for z in result],
        "mu": plan.matvecs,
        "m": plan.order,
        "s": plan.scaling,
        "bound": plan.bound,
        "tau": tau,
    }
    print(json.dumps(payload, sort_keys=True))
    if out_dir is not None:
        _write(out_dir, "summary.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# plumbing


def _write(out_dir: str, name: str, content: str) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="ascii") as fh:
        fh.write(content)


class _OutputLock:
    """One run at a time per output directory.

    The lockfile holds the PID of the run that owns it from the moment it
    exists: the PID is written to a private temporary file, which is then
    hard-linked to the lockfile's name (the link fails if that name is
    taken) and removed.  A failed write therefore leaves no lockfile.  A
    lockfile naming a process that no longer exists is left by a crashed
    run: it is removed and the lock is tried once more.  An empty or
    unreadable lockfile blocks.
    """

    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, ".leangrape.lock")
        self.held = False

    def __enter__(self):
        fd, staged = tempfile.mkstemp(prefix=".leangrape.lock.", dir=os.path.dirname(self.path))
        try:
            try:
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
            finally:
                os.close(fd)
            for retry in (False, True):
                try:
                    os.link(staged, self.path)
                    break
                except FileExistsError:
                    if retry or not self._owner_is_gone():
                        raise RuntimeError(
                            f"output directory is locked by another run: {self.path}"
                        ) from None
                    os.unlink(self.path)
        finally:
            os.unlink(staged)
        self.held = True
        return self

    def _owner_is_gone(self) -> bool:
        """True only when the lockfile names a PID that no process holds."""
        try:
            with open(self.path, encoding="ascii") as fh:
                pid = int(fh.read())
            if pid > 0:
                os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (OSError, ValueError):
            pass
        return False

    def __exit__(self, *exc):
        if self.held:
            os.unlink(self.path)
        return False


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leangrape",
        description="Memory-frugal GRAPE optimization and scaling benchmarks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("optimize", "bench-mu", "bench-runtime", "advise", "expm"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to key = value config file")
        p.add_argument("--out", default=None, help="output directory for artifacts")
        p.add_argument("--seed", default=None, help="override seed")
        p.add_argument("--tau", default=None, help="override tolerance")
    return parser


_NEEDS_OUT = {"optimize", "bench_mu", "bench_runtime"}

_RUNNERS = {
    "optimize": _run_optimize,
    "bench_mu": _run_bench_mu,
    "bench_runtime": _run_bench_runtime,
    "advise": _run_advise,
    "expm": _run_expm,
}


def run(cfg: RunConfig, out_dir: str | None) -> int:
    """Execute a validated configuration; artifacts land in ``out_dir``."""
    runner = _RUNNERS[cfg.subcommand]
    if cfg.subcommand in _NEEDS_OUT:
        if out_dir is None:
            raise ConfigError(f"subcommand {cfg.subcommand!r} requires --out")
        os.makedirs(out_dir, exist_ok=True)
        with _OutputLock(out_dir):
            return runner(cfg, out_dir)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    return runner(cfg, out_dir)


def _apply_overrides(cfg: RunConfig, overrides: dict[str, str | None]) -> RunConfig:
    """``cfg`` with the given command-line values, validated like config keys."""
    values = dict(cfg.values)
    for key, raw in overrides.items():
        if raw is not None:
            values[key] = _parse_value(key, raw, cfg.subcommand, f"--{key}")
    return RunConfig(cfg.subcommand, tuple(sorted(values.items())))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    subcommand = args.subcommand.replace("-", "_")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text, subcommand)
        cfg = _apply_overrides(cfg, {"seed": args.seed, "tau": args.tau})
        return run(cfg, args.out)
    except (ConfigError, PlanningError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
