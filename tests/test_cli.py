import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from basinlab.cli import (
    ALTERNATIVES, DEFAULT_CONFIG, VALUE_CHECKS, experiment_hash, load_config, main,
)
from basinlab.csvio import read_csv
from basinlab.errors import ConfigError

SMALL = {
    "epsilons": [0.5],
    "data": {"n_samples": 256, "seed": 13, "teacher_gain": 2.0},
    "training": {"steps": 800, "learning_rate": 0.05, "batch_size": 32, "seed": 1,
                 "checkpoint_schedule": [100, 200, 400, 800]},
    "llc": {"chains": 2, "steps_per_chain": 200, "burn_in": 40, "seed": 7},
    "prune": {"keep_fractions": [0.5], "retrain_steps": 50},
    "mdl": {"n_powers": [6, 8], "n_seeds": 3, "mc_samples": 20000},
    "audit": {"instances": 200, "inclusion_configs": 2},
    "volume": {"samples": 50000},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    out = root / "run"
    assert main(["train-toy", "--config", str(cfg_path), "--out", str(out)]) == 0
    return root, cfg_path, out


def run(cfg_path, out, *args):
    return main([*args, "--config", str(cfg_path), "--out", str(out)])


class TestSubcommands:
    def test_training_outputs(self, workdir):
        _, _, out = workdir
        assert (out / "training.csv").exists()
        assert len(list((out / "checkpoints").glob("ckpt_*.bin"))) == 4
        manifest = json.loads((out / "train-toy.manifest.json").read_text())
        assert set(manifest) == {"subcommand", "config_sha256", "seed", "version"}

    def test_llc_then_sweeps_then_analyze(self, workdir):
        _, cfg_path, out = workdir
        assert run(cfg_path, out, "estimate-llc") == 0
        assert run(cfg_path, out, "quantize-sweep") == 0
        assert run(cfg_path, out, "factorize-sweep") == 0
        assert run(cfg_path, out, "noise-sweep") == 0
        assert run(cfg_path, out, "prune-sweep") == 0
        assert run(cfg_path, out, "analyze") == 0
        _, header, rows = read_csv(out / "sweep_quantize.csv")
        assert header == ["step", "scheme", "control_parameter", "delta_loss",
                          "critical_value", "epsilon", "seed"]
        assert len(rows) == 4
        _, _, fit_rows = read_csv(out / "analysis.csv")
        assert len(fit_rows) == 1
        r2 = float(fit_rows[0][4])
        assert 0.0 <= r2 <= 1.0

    def test_prune_rows_have_empty_critical(self, workdir):
        _, _, out = workdir
        _, _, rows = read_csv(out / "sweep_prune.csv")
        assert all(r[4] == "" for r in rows)

    def test_volume_fit(self, workdir):
        _, cfg_path, out = workdir
        assert run(cfg_path, out, "volume-fit") == 0
        _, _, rows = read_csv(out / "volume_fit.csv")
        assert abs(float(rows[0][1]) - 1.0) < 0.1  # quadratic d=2

    def test_volume_fit_other_landscapes(self, workdir, tmp_path):
        _, _, out = workdir
        for name, extra, lam in [
            ("normal_crossing", {"exponents": [2], "active_dims": [0], "dim": 2}, 0.25),
            ("bernoulli_kl", {}, 0.5),
        ]:
            cfg = dict(SMALL)
            cfg["volume"] = dict(SMALL["volume"], landscape=name, samples=400_000, **extra)
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(cfg))
            assert main(["volume-fit", "--config", str(p), "--out", str(out)]) == 0
            _, _, rows = read_csv(out / "volume_fit.csv")
            assert abs(float(rows[0][1]) - lam) < 0.1

    def test_llc_trace_csv_option(self, workdir, tmp_path):
        _, _, out = workdir
        cfg = dict(SMALL)
        cfg["llc"] = dict(SMALL["llc"], write_traces=True, chains=2, steps_per_chain=50, burn_in=5)
        p = tmp_path / "tr.json"
        p.write_text(json.dumps(cfg))
        assert main(["estimate-llc", "--config", str(p), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "llc_traces.csv")
        assert header == ["checkpoint_step", "step", "chain", "loss"]
        assert len(rows) == 4 * 2 * 50
        # restore the default llc.csv for downstream tests
        _, cfg_path, _ = workdir
        assert main(["estimate-llc", "--config", str(cfg_path), "--out", str(out)]) == 0

    def test_mdl_redundancy_rows(self, workdir):
        _, cfg_path, out = workdir
        assert run(cfg_path, out, "mdl-redundancy") == 0
        _, header, rows = read_csv(out / "redundancy.csv")
        assert header == ["n", "a", "seed", "code_length", "excess_bits", "redundancy"]
        assert len(rows) == 2 * 3
        for r in rows:
            assert float(r[5]) == pytest.approx(float(r[3]) + float(r[4]), abs=1e-12)
        # net dumps accompany the redundancy rows
        for n in (64, 256):
            _, net_header, net_rows = read_csv(out / f"net_n{n}.csv")
            assert net_header == ["center_index", "p_one", "vr_volume", "code_length"]
            assert len(net_rows) >= 1

    def test_lemma_audit_passes(self, workdir):
        _, cfg_path, out = workdir
        assert run(cfg_path, out, "lemma-audit") == 0
        _, _, rows = read_csv(out / "audit.csv")
        assert all(int(r[2]) == 0 for r in rows)

    def test_seed_flag_overrides(self, workdir):
        _, cfg_path, out = workdir
        assert main(["quantize-sweep", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "5"]) == 0
        manifest, _, rows = read_csv(out / "sweep_quantize.csv")
        assert manifest["seed"] == "5"
        assert all(r[6] == "5" for r in rows)
        # restore the default-seed sweep for downstream tests
        assert run(cfg_path, out, "quantize-sweep") == 0

    def test_epsilon_flag_overrides(self, workdir, tmp_path):
        _, cfg_path, out = workdir
        assert main(["quantize-sweep", "--config", str(cfg_path), "--out", str(out),
                     "--epsilon", "0.25,1.0"]) == 0
        _, _, rows = read_csv(out / "sweep_quantize.csv")
        assert sorted({float(r[5]) for r in rows}) == [0.25, 1.0]
        # restore default-epsilon sweep for downstream tests
        assert run(cfg_path, out, "quantize-sweep") == 0


class TestTracerNames:
    def test_benchmark_tracer_installs(self, monkeypatch):
        # the benchmark's tracer patches basinlab names from outside src/; a
        # refactor that drops one makes every traced run fail at start-up
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed():
            assert tracer.patched
        assert not tracer.patched


class TestDeterminism:
    def test_byte_identical_reruns(self, workdir, tmp_path):
        _, cfg_path, _ = workdir
        outs = [tmp_path / "a", tmp_path / "b"]
        blobs = {}
        for o in outs:
            assert run(cfg_path, o, "train-toy") == 0
            assert run(cfg_path, o, "estimate-llc") == 0
            assert run(cfg_path, o, "quantize-sweep") == 0
            blobs[o] = {
                f.name: f.read_bytes()
                for f in o.iterdir() if f.suffix in (".csv", ".json")
            }
        assert blobs[outs[0]] == blobs[outs[1]]


def leaf_paths(cfg, prefix=()):
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


def typed_like(proto, value) -> bool:
    """The typing rule, restated: a float takes any number a double holds
    finitely, a bool is no integer, a list's items take the type of the
    prototype's items."""
    if isinstance(proto, float):
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if type(value) is not type(proto):
        return False
    return not (isinstance(value, list) and proto) or all(typed_like(proto[0], v) for v in value)


SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
EDGE_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0, 1.5, True, None, "none", "rmsprop", "select_by_fit"])
JSON_VALUES = st.one_of(
    EDGE_VALUES, SCALARS, st.lists(EDGE_VALUES | SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["kind", "decay", "stabilizer", "x"]),
                    EDGE_VALUES | SCALARS, max_size=3))


class TestConfigPass:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(list(leaf_paths(DEFAULT_CONFIG))), value=JSON_VALUES)
    def test_any_leaf_value_loads_typed_or_names_its_key(self, tmp_path, path, value):
        payload = value
        for key in reversed(path):
            payload = {key: payload}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        key = ".".join(path)
        default = DEFAULT_CONFIG
        for k in path:
            default = default[k]
        valid = any(typed_like(p, value) for p in ALTERNATIVES.get(key, (default,)))
        valid = valid and (key not in VALUE_CHECKS or bool(VALUE_CHECKS[key][0](value)))
        try:
            cfg = load_config(str(cfg_path), None, None, None)
        except ConfigError as e:
            assert not valid
            assert e.key == key or e.key.startswith(key + "."), (e.key, key)
            return
        assert valid
        got = cfg
        for k in path:
            got = got[k]
        # returned as written: an integer in a float key stays an integer
        assert json.dumps(got, sort_keys=True) == json.dumps(value, sort_keys=True)

    def test_benchmark_configs_load_unchanged(self, monkeypatch, tmp_path):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        from workloads import WARMUP, WORKLOADS, merge

        n = 0
        for workload in WORKLOADS.values():
            cfgs = list(workload(1, tmp_path).configs().values())
            for cfg in cfgs + [merge(c, WARMUP) for c in cfgs]:
                p = tmp_path / "cfg.json"
                p.write_text(json.dumps(cfg, sort_keys=True))
                loaded = load_config(str(p), None, None, None)
                assert loaded == dict(cfg, out=DEFAULT_CONFIG["out"])
                assert experiment_hash(loaded) == experiment_hash(cfg)
                n += 1
        assert n == 24

    def test_default_config_hash_pinned(self):
        assert experiment_hash(load_config(None, None, None, None)) == (
            "f2b24e5ec3b00e790f0d3cf7707703a4c1414eafd9578d0e5e88516e4d4124ef")


class TestErrors:
    @pytest.mark.parametrize("payload,key", [
        ({"nonsense": 1}, "nonsense"),
        ([1, 2], "config"),
        ({"epsilons": "0.5"}, "epsilons"),
        ({"epsilons": [float("nan")]}, "epsilons"),
        ({"model": {"layer_sizes": 5}}, "model.layer_sizes"),
        ({"training": {"checkpoint_schedule": 3}}, "training.checkpoint_schedule"),
        ({"data": {"n_samples": 1.5}}, "data.n_samples"),
        ({"data": {"n_samples": True}}, "data.n_samples"),
        ({"model": {"layer_sizes": [4, 16.7, 4]}}, "model.layer_sizes"),
        ({"llc": {"write_traces": "false"}}, "llc.write_traces"),
        ({"mdl": {"n_seeds": "3"}}, "mdl.n_seeds"),
        ({"seed": "abc"}, "seed"),
        ({"training": {"steps": [5]}}, "training.steps"),
        ({"llc": {"preconditioner": {"kind": "rmsprop", "foo": 1}}}, "llc.preconditioner.foo"),
        ({"llc": {"preconditioner": [1]}}, "llc.preconditioner"),
        ({"llc": {"nbeta": float("nan")}}, "llc.nbeta"),
        ({"epsilons": [float("inf")]}, "epsilons"),
        ({"volume": {"multiplicity_mode": "abc"}}, "volume.multiplicity_mode"),
        ({"volume": {"landscape": "normal_crossing", "exponents": "2"}}, "volume.exponents"),
        ({"mdl": {"mc_samples": 0}}, "mdl.mc_samples"),
        ({"llc": {"baseline_batches": 0}}, "llc.baseline_batches"),
        ({"training": {"seed": -1}}, "training.seed"),
        ({"training": {"seed": 2**64}}, "training.seed"),
        ({"audit": {"instances": 0}}, "audit.instances"),
        ({"audit": {"inclusion_configs": 0}}, "audit.inclusion_configs"),
    ], ids=["unknown-key", "top-level-array", "epsilons-string", "epsilons-nan",
            "layer-sizes-int", "checkpoint-schedule-int", "n-samples-float", "n-samples-bool",
            "layer-sizes-float-item", "write-traces-string", "n-seeds-string", "seed-string",
            "steps-list", "preconditioner-unknown-key", "preconditioner-list", "nbeta-nan",
            "epsilons-inf", "multiplicity-mode-string", "exponents-string", "mc-samples-zero",
            "baseline-batches-zero", "training-seed-negative", "training-seed-above-u64",
            "audit-instances-zero", "audit-inclusion-configs-zero"])
    def test_unknown_config_key_exit_1(self, tmp_path, capsys, payload, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["train-toy", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"config key {key!r}" in err

    def test_bad_epsilon_exit_1(self, workdir, capsys):
        _, cfg_path, out = workdir
        for bad in ("-1", "inf"):
            assert main(["quantize-sweep", "--config", str(cfg_path), "--out", str(out),
                         "--epsilon", bad]) == 1
            assert "config key 'epsilons'" in capsys.readouterr().err

    @pytest.mark.parametrize("override,key", [
        ({"model": {"layer_sizes": [4, 8, 4]}}, "model"),
        ({"model": {"loss": "xent"}}, "model"),
        ({"training": dict(SMALL["training"], seed=99)}, "training.seed"),
    ], ids=["layer-sizes", "loss", "training-seed"])
    def test_checkpoint_provenance_exit_1(self, workdir, tmp_path, capsys, override, key):
        # the checkpoints under `out` were trained by SMALL
        _, _, out = workdir
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**SMALL, **override}))
        assert main(["estimate-llc", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"config key {key!r}" in err

    def test_missing_checkpoints_exit_1(self, workdir, tmp_path):
        _, cfg_path, _ = workdir
        assert main(["estimate-llc", "--config", str(cfg_path), "--out", str(tmp_path / "empty")]) == 1

    def test_degenerate_llc_analysis_exit_1(self, workdir, tmp_path):
        # all checkpoints share one lambda_hat: rank-deficient design
        out = tmp_path / "degen"
        out.mkdir()
        from basinlab.csvio import write_csv
        write_csv(out / "llc.csv",
                  ["step", "lambda_hat", "nbeta", "gamma", "step_size", "chains", "seed"],
                  [(s, 2.0, 30.0, 300.0, 1e-4, 2, 0) for s in (1, 2, 3, 4)])
        write_csv(out / "sweep_quantize.csv",
                  ["step", "scheme", "control_parameter", "delta_loss", "critical_value",
                   "epsilon", "seed"],
                  [(s, "quantize", 8.0, 0.1, 8.0, 0.5, 0) for s in (1, 2, 3, 4)])
        _, cfg_path, _ = workdir
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 1

    def test_lemma_audit_violation_exit_2(self, workdir, tmp_path, monkeypatch):
        # force a failing validator to confirm the nonzero-exit contract
        import basinlab.cli as cli_mod
        from basinlab.mdl import BoundsCheck

        monkeypatch.setattr(cli_mod, "validate_kl_l2",
                            lambda q, p, m: BoundsCheck(0.0, 1.0, 0.5, False))
        _, cfg_path, _ = workdir
        assert main(["lemma-audit", "--config", str(cfg_path), "--out", str(tmp_path / "v")]) == 2

    @pytest.mark.parametrize("section,override", [
        ("mdl", {"mc_samples": 0}),
        ("volume", {"samples": 0}),
    ])
    def test_zero_mc_samples_exit_1(self, tmp_path, section, override):
        cfg = dict(SMALL)
        cfg[section] = dict(SMALL[section], **override)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        command = "mdl-redundancy" if section == "mdl" else "volume-fit"
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out)]) == 1
        assert not list(out.glob("*.csv"))

    def test_empty_net_ball_exit_2(self, tmp_path, capsys):
        # a 200-sample estimate leaves an edge ball of the n = 2^11 net empty
        cfg = dict(SMALL)
        cfg["mdl"] = dict(SMALL["mdl"], n_powers=[11], mc_samples=200)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["mdl-redundancy", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "mc_samples=200" in err and "epsilon 4.883e-05" in err and "covering" not in err

    def test_diverging_training_exit_2(self, tmp_path):
        cfg = dict(SMALL)
        cfg["training"] = dict(SMALL["training"], learning_rate=100.0, steps=3000)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["train-toy", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
