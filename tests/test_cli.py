"""CLI: config parsing, validation, artifact layout, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from leangrape import cli, sparse
from leangrape.cli import ConfigError, parse_config, serialize_config

RABI_CFG = """
# Rabi transfer |0> -> |1> on one driven qubit
model.kind = qubit_chain
model.n_qubits = 1
model.g = 0.1
steps.n = 10
steps.dt = 0.1
tau = 1e-10
cost.state_infidelity = 1.0
target.kind = basis_index
target.index = 1
controls.init = constant
controls.value = 0.1
optimizer.max_iters = 200
optimizer.stop_cost = 1e-7
seed = 3
"""

FIG_FIXTURE_CFG = """
model.kind = transmon_cavity
model.delta = 3.0
model.anharmonicity = -0.225
model.g = 0.1
model.d_transmon = 6
model.d_cavity = 50
steps.n = 5
steps.dt = 0.1
tau = 1e-8
cost.state_infidelity = 1.0
cost.state_penalty = 0.1
penalty.kind = transmon_number
target.kind = cavity_fock
target.index = 20
optimizer.max_iters = 3
seed = 7
"""


class TestParseConfig:
    def test_minimal_optimize_config(self):
        cfg = parse_config(RABI_CFG, "optimize")
        assert cfg.get("model.kind") == "qubit_chain"
        assert cfg.get("steps.n") == 10
        assert cfg.get("tau") == 1e-10

    def test_optimizer_schedule_defaults_to_lbfgs(self):
        assert parse_config(RABI_CFG, "optimize").get("optimizer.schedule") == "lbfgs"
        for schedule in ("lbfgs", "backtracking", "constant"):
            cfg = parse_config(RABI_CFG + f"optimizer.schedule = {schedule}\n", "optimize")
            assert cfg.get("optimizer.schedule") == schedule
        with pytest.raises(ConfigError, match="optimizer.schedule"):
            parse_config(RABI_CFG + "optimizer.schedule = adam\n", "optimize")

    def test_missing_required_key_names_it(self):
        text = RABI_CFG.replace("steps.dt = 0.1\n", "")
        with pytest.raises(ConfigError, match="steps.dt"):
            parse_config(text, "optimize")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="stepz.dt"):
            parse_config(RABI_CFG + "\nstepz.dt = 1.0\n", "optimize")

    def test_key_for_wrong_subcommand_rejected(self):
        with pytest.raises(ConfigError, match="advise.d"):
            parse_config(RABI_CFG + "\nadvise.d = 4\n", "optimize")

    def test_model_param_for_wrong_kind_rejected(self):
        with pytest.raises(ConfigError, match="model.d_cavity"):
            parse_config(RABI_CFG + "\nmodel.d_cavity = 10\n", "optimize")

    @pytest.mark.parametrize("key", ["model.g = 5.0", "model.d_each = 9", "steps.dt = 0.02"])
    def test_key_bench_mu_never_reads_rejected(self, key):
        text = "model.kind = three_transmons\nbench.sizes = 3\nbench.dts = 0.2\n"
        with pytest.raises(ConfigError, match="does not apply to subcommand 'bench_mu'"):
            parse_config(text + key + "\n", "bench_mu")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(RABI_CFG + "\nseed = 4\n", "optimize")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words\n", "optimize")

    def test_out_of_range_value_rejected(self):
        text = RABI_CFG.replace("steps.dt = 0.1", "steps.dt = -0.1")
        with pytest.raises(ConfigError, match="steps.dt"):
            parse_config(text, "optimize")

    def test_round_trip_is_identity(self):
        cfg = parse_config(FIG_FIXTURE_CFG, "optimize")
        text = serialize_config(cfg)
        again = parse_config(text, "optimize")
        assert again == cfg
        assert serialize_config(again) == text


class TestOptimizeCommand:
    def test_rabi_fixture_reaches_target(self, tmp_path):
        cfg_path = tmp_path / "rabi.cfg"
        cfg_path.write_text(RABI_CFG)
        out = tmp_path / "run"
        rc = cli.main(["optimize", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_cost"] <= 1e-6
        assert isinstance(summary["cost_evals"], int) and summary["cost_evals"] > 0
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0].startswith("# config_sha256=")
        assert trace[1] == "iter,cost,grad_inf_norm,eta,wall_ms"

    def test_rerun_identical_outside_wall_columns(self, tmp_path):
        cfg_path = tmp_path / "rabi.cfg"
        cfg_path.write_text(RABI_CFG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 0
            lines = (out / "trace.csv").read_text().splitlines()
            stripped = [",".join(line.split(",")[:4]) for line in lines]
            outs.append(stripped)
        assert outs[0] == outs[1]

    def test_lockfile_blocks_concurrent_runs(self, tmp_path):
        cfg_path = tmp_path / "rabi.cfg"
        cfg_path.write_text(RABI_CFG)
        out = tmp_path / "run"
        out.mkdir()
        (out / ".leangrape.lock").write_text("")
        rc = cli.main(["optimize", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1

    def test_stale_lockfile_of_exited_process_is_reclaimed(self, tmp_path):
        cfg_path = tmp_path / "rabi.cfg"
        cfg_path.write_text(RABI_CFG)
        out = tmp_path / "run"
        out.mkdir()
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        (out / ".leangrape.lock").write_text(f"{child.pid}\n")
        rc = cli.main(["optimize", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert not (out / ".leangrape.lock").exists()

    def test_lockfile_of_live_process_blocks(self, tmp_path):
        cfg_path = tmp_path / "rabi.cfg"
        cfg_path.write_text(RABI_CFG)
        out = tmp_path / "run"
        out.mkdir()
        (out / ".leangrape.lock").write_text(f"{os.getpid()}\n")
        assert cli.main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 1

    def test_lockfile_holds_owner_pid(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setitem(
            cli._RUNNERS,
            "optimize",
            lambda cfg, out_dir: seen.append((tmp_path / "run" / ".leangrape.lock").read_text()),
        )
        cli.run(parse_config(RABI_CFG, "optimize"), str(tmp_path / "run"))
        assert seen == [f"{os.getpid()}\n"]

    def test_failed_pid_write_leaves_no_lockfile(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        out.mkdir()

        def fail(fd, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.os, "write", fail)
        with pytest.raises(OSError, match="No space left"):
            cli.run(parse_config(RABI_CFG, "optimize"), str(out))
        monkeypatch.undo()
        assert list(out.iterdir()) == []

    def test_lock_released_after_run(self, tmp_path):
        cfg_path = tmp_path / "rabi.cfg"
        cfg_path.write_text(RABI_CFG)
        out = tmp_path / "run"
        assert cli.main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert not (out / ".leangrape.lock").exists()
        assert cli.main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 0


class TestOverrides:
    """``--seed`` and ``--tau`` are checked like the keys of a config file."""

    ADVISE_CFG = (
        "advise.d = 4096\nadvise.n = 1000\nadvise.kappa = sub_quadratic\n"
        "advise.mu = sublinear\nadvise.task = state_transfer\n"
        "advise.memory_ok = false\nadvise.gradients_available = true\n"
    )

    def test_tau_on_advise_refused(self, tmp_path, capsys):
        cfg = parse_config(self.ADVISE_CFG, "advise")
        with pytest.raises(ConfigError, match="tau"):
            cli._apply_overrides(cfg, {"seed": None, "tau": "1e-4"})
        cfg_path = tmp_path / "advise.cfg"
        cfg_path.write_text(self.ADVISE_CFG)
        assert cli.main(["advise", "--config", str(cfg_path), "--tau", "1e-4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no payload, so no config hash either
        assert "'tau' does not apply to subcommand 'advise'" in captured.err

    def test_seed_on_expm_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "expm.cfg"
        cfg_path.write_text("expm.matrix = a.mat\nexpm.vector = b.vec\n")
        assert cli.main(["expm", "--config", str(cfg_path), "--seed", "3"]) == 1
        assert "'seed' does not apply to subcommand 'expm'" in capsys.readouterr().err

    def test_negative_tau_refused_before_model_build(self, tmp_path, capsys, monkeypatch):
        def no_build(cfg):
            raise AssertionError("model built before the override was validated")

        monkeypatch.setattr(cli, "_model_params", no_build)
        cfg_path = tmp_path / "rabi.cfg"
        cfg_path.write_text(RABI_CFG)
        out = tmp_path / "run"
        argv = ["optimize", "--config", str(cfg_path), "--out", str(out), "--tau", "-1"]
        assert cli.main(argv) == 1
        assert "tau: must be positive" in capsys.readouterr().err

    def test_infinite_tau_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "expm.cfg"
        cfg_path.write_text("expm.matrix = a.mat\nexpm.vector = b.vec\n")
        assert cli.main(["expm", "--config", str(cfg_path), "--tau", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no m = s = 1 result claimed as certified
        assert "tau: must be finite, got 'inf'" in captured.err

    def test_nan_dt_refused(self):
        text = RABI_CFG.replace("steps.dt = 0.1", "steps.dt = nan")
        with pytest.raises(ConfigError, match="steps.dt: must be finite"):
            parse_config(text, "optimize")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("optimizer.shrink = 1.5", "shrink must lie in (0, 1)"),
            ("optimizer.grow = 0.5", "grow must exceed 1"),
        ],
    )
    def test_optimizer_range_refused_before_model_build(
        self, tmp_path, capsys, monkeypatch, line, message
    ):
        def no_build(cfg):
            raise AssertionError("model built before the optimizer config was validated")

        monkeypatch.setattr(cli, "_model_params", no_build)
        cfg_path = tmp_path / "rabi.cfg"
        cfg_path.write_text(RABI_CFG + line + "\n")
        out = tmp_path / "run"
        assert cli.main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err


class TestAdviseCommand:
    def test_prints_recommendation_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "advise.cfg"
        cfg_path.write_text(
            "advise.d = 4096\nadvise.n = 1000\nadvise.kappa = sub_quadratic\n"
            "advise.mu = sublinear\nadvise.task = state_transfer\n"
            "advise.memory_ok = false\nadvise.gradients_available = true\n"
        )
        rc = cli.main(["advise", "--config", str(cfg_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["method"] == "hg_scaling_squaring"
        assert "rationale" in payload


class TestExpmCommand:
    @staticmethod
    def rotation_config(tmp_path):
        a = sparse.build_csr(
            [(0, 1, -1j * np.pi / 2), (1, 0, -1j * np.pi / 2)], 2, 2
        )
        sparse.save_matrix(tmp_path / "rot.mat", a)
        sparse.save_vector(tmp_path / "psi.vec", np.array([1.0, 0.0], complex))
        cfg_path = tmp_path / "expm.cfg"
        cfg_path.write_text(
            f"expm.matrix = {tmp_path / 'rot.mat'}\n"
            f"expm.vector = {tmp_path / 'psi.vec'}\n"
            "tau = 1e-10\n"
        )
        return cfg_path

    def test_rotation_fixture(self, tmp_path, capsys):
        cfg_path = self.rotation_config(tmp_path)
        rc = cli.main(["expm", "--config", str(cfg_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        result = np.array([complex(re, im) for re, im in payload["result"]])
        assert np.linalg.norm(result - np.array([0.0, -1j])) <= 1e-10
        assert payload["mu"] == payload["m"] * payload["s"]
        assert payload["bound"] <= payload["tau"]

    @pytest.mark.parametrize(
        "name, text, line",
        [
            ("psi.vec", "2\nnan 0\n0 0\n", 2),
            ("rot.mat", "2 2 2\n0 1 0 -1.5\n1 0 0 inf\n", 3),
        ],
        ids=["vector", "matrix"],
    )
    def test_non_finite_entry_refused(self, tmp_path, capsys, name, text, line):
        cfg_path = self.rotation_config(tmp_path)
        (tmp_path / name).write_text(text)
        assert cli.main(["expm", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{tmp_path / name}: non-finite entry on line {line}" in captured.err

    @pytest.mark.parametrize(
        "name, text",
        [
            ("psi.vec", "2\n1 0\n0 0\n0 1\n"),
            ("rot.mat", "2 2 2\n0 1 0 -1.5\n1 0 0 -1.5\n1 1 0 -1.5\n"),
        ],
        ids=["vector", "matrix"],
    )
    def test_entry_beyond_header_count_refused(self, tmp_path, capsys, name, text):
        cfg_path = self.rotation_config(tmp_path)
        (tmp_path / name).write_text(text)
        assert cli.main(["expm", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{tmp_path / name}: entry on line 4 beyond the header's count of 2" in captured.err

    @pytest.mark.parametrize("header", ["", "2 2"], ids=["empty", "two_fields"])
    def test_malformed_vector_header_refused(self, tmp_path, capsys, header):
        cfg_path = self.rotation_config(tmp_path)
        (tmp_path / "psi.vec").write_text(f"{header}\n1 0\n0 0\n")
        assert cli.main(["expm", "--config", str(cfg_path)]) == 1
        assert f"{tmp_path / 'psi.vec'}: malformed vector header" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text",
        [("rot.mat", "2 2 -1\n"), ("rot.mat", "2 two 2\n"), ("psi.vec", "2.5\n1 0\n0 0\n")],
        ids=["matrix_negative", "matrix_not_integer", "vector_not_integer"],
    )
    def test_header_count_error_names_the_file(self, tmp_path, capsys, name, text):
        cfg_path = self.rotation_config(tmp_path)
        (tmp_path / name).write_text(text)
        assert cli.main(["expm", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {tmp_path / name}: " in captured.err
        assert "header on line 1: expected" in captured.err

    def test_missing_input_file(self, tmp_path):
        cfg_path = tmp_path / "expm.cfg"
        cfg_path.write_text(
            "expm.matrix = /nonexistent.mat\nexpm.vector = /nonexistent.vec\n"
        )
        assert cli.main(["expm", "--config", str(cfg_path)]) == 1


class TestBenchCommands:
    def test_bench_mu_writes_csv_and_fit(self, tmp_path):
        cfg_path = tmp_path / "mu.cfg"
        cfg_path.write_text(
            "model.kind = three_transmons\nbench.sizes = 4,5,6,7\n"
            "bench.dts = 0.2\ntau = 1e-8\n"
        )
        out = tmp_path / "bench"
        rc = cli.main(["bench-mu", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[1] == cli.bench.BENCH_CSV_HEADER
        assert len(lines) == 6
        summary = json.loads((out / "summary.json").read_text())
        assert "mu_vs_d" in summary

    def test_bench_mu_fits_mu_against_the_norm(self, tmp_path):
        cfg_path = tmp_path / "mu.cfg"
        cfg_path.write_text(
            "model.kind = three_transmons\nbench.sizes = 4\n"
            "bench.dts = 0.1,0.2,0.4,0.8\ntau = 1e-8\n"
        )
        out = tmp_path / "bench"
        assert cli.main(["bench-mu", "--config", str(cfg_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        dts = (0.1, 0.2, 0.4, 0.8)
        records = [cli.bench.measure_mu("three_transmons", 4, dt, 1e-8) for dt in dts]
        fit = cli.bench.fit_line([r.norm1 for r in records], [r.matvecs for r in records])
        assert summary["mu_vs_norm1"] == dict(zip(("slope", "intercept", "r_squared"), fit))
        assert "mu_vs_d" not in summary

    @pytest.mark.parametrize(
        "sweep, fit_key",
        [
            # tau = 1e-13 refuses every plan from dt = 1 on ...
            ("bench.sizes = 3\nbench.dts = 1,2,3,4\n", "mu_vs_norm1"),
            # ... and at dt = 0.5 all but the two-qubit one
            ("bench.sizes = 2,3,4,5\nbench.dts = 0.5\n", "mu_vs_d"),
        ],
        ids=["norm_sweep", "dim_sweep"],
    )
    def test_bench_mu_without_enough_certified_points_omits_the_fit(
        self, tmp_path, sweep, fit_key
    ):
        cfg_path = tmp_path / "mu.cfg"
        cfg_path.write_text("model.kind = qubit_chain\n" + sweep + "tau = 1e-13\n")
        out = tmp_path / "bench"
        assert cli.main(["bench-mu", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = (out / "bench.csv").read_text().splitlines()[2:]
        assert len(rows) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["points"] == 4
        assert fit_key not in summary

    def test_bench_mu_fits_only_the_certified_points(self, tmp_path):
        # tau = 1e-13 certifies dt = 0.1 and 0.2 and refuses dt = 1 and 2: two points fit a line
        cfg_path = tmp_path / "mu.cfg"
        cfg_path.write_text(
            "model.kind = qubit_chain\nbench.sizes = 3\nbench.dts = 0.1,0.2,1,2\ntau = 1e-13\n"
        )
        out = tmp_path / "bench"
        assert cli.main(["bench-mu", "--config", str(cfg_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        records = [cli.bench.measure_mu("qubit_chain", 3, dt, 1e-13) for dt in (0.1, 0.2)]
        assert all(r.matvecs is not None for r in records)
        fit = cli.bench.fit_line([r.norm1 for r in records], [r.matvecs for r in records])
        assert summary["points"] == 4
        assert summary["mu_vs_norm1"] == dict(zip(("slope", "intercept", "r_squared"), fit))

    def test_bench_runtime_writes_fit(self, tmp_path):
        cfg_path = tmp_path / "rt.cfg"
        cfg_path.write_text(
            "model.kind = qubit_chain\nbench.sizes = 2,3,4,5\nbench.reps = 1\n"
            "bench.task = state_transfer\nsteps.dt = 0.1\ntau = 1e-8\n"
        )
        out = tmp_path / "bench"
        rc = cli.main(["bench-runtime", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "runtime_vs_d" in summary

    def test_tau_override_flag(self, tmp_path):
        cfg_path = tmp_path / "mu.cfg"
        cfg_path.write_text(
            "model.kind = three_transmons\nbench.sizes = 4,5,6,7\n"
            "bench.dts = 0.2\ntau = 1e-8\n"
        )
        out = tmp_path / "b1"
        rc = cli.main(
            ["bench-mu", "--config", str(cfg_path), "--out", str(out), "--tau", "1e-4"]
        )
        assert rc == 0
        body = (out / "bench.csv").read_text()
        assert ",0.0001," in body


class TestEveryAcceptedKeyIsRead:
    """A key the schema accepts for a subcommand changes what that subcommand does.

    Each config below holds every key its subcommand accepts; the run must
    read each one through ``RunConfig.get`` or ``RunConfig.has``.
    """

    CONFIGS = {
        "bench_mu": {
            "model.kind": "three_transmons", "bench.sizes": "3", "bench.dts": "0.2",
            "tau": "1e-8",
        },
        "bench_runtime": {
            "model.kind": "qubit_chain", "bench.sizes": "2", "bench.reps": "1",
            "bench.task": "state_transfer", "bench.storage": "dense", "steps.dt": "0.1",
            "tau": "1e-8",
        },
        "advise": {
            "advise.d": "64", "advise.n": "100", "advise.kappa": "quadratic",
            "advise.mu": "linear_or_worse", "advise.task": "gate", "advise.memory_ok": "true",
            "advise.gradients_available": "true",
        },
        "expm": {"expm.matrix": "rot.mat", "expm.vector": "psi.vec", "tau": "1e-10"},
    }

    @pytest.mark.parametrize("subcommand", sorted(CONFIGS))
    def test_every_accepted_key_is_read(self, tmp_path, monkeypatch, subcommand):
        values = self.CONFIGS[subcommand]
        accepted = {k for k, spec in cli._SCHEMA.items() if subcommand in spec.subcommands}
        assert set(values) == accepted
        if subcommand == "expm":
            TestExpmCommand.rotation_config(tmp_path)
            values = {**values, "expm.matrix": str(tmp_path / "rot.mat"),
                      "expm.vector": str(tmp_path / "psi.vec")}
        cfg = parse_config("".join(f"{k} = {v}\n" for k, v in values.items()), subcommand)

        read = set()
        get, has = cli.RunConfig.get, cli.RunConfig.has

        def recording_get(self, key, default=None):
            read.add(key)
            return get(self, key, default)

        def recording_has(self, key):
            read.add(key)
            return has(self, key)

        monkeypatch.setattr(cli.RunConfig, "get", recording_get)
        monkeypatch.setattr(cli.RunConfig, "has", recording_has)
        assert cli.run(cfg, str(tmp_path / "out")) == 0
        assert accepted - read == set()
