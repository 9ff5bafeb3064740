import copy
import hashlib
import itertools
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from basinlab import cli
from basinlab.cli import (
    ALTERNATIVES, DEFAULT_CONFIG, VALUE_CHECKS, build_task, experiment_hash, load_checkpoints,
    load_config, main,
)
from basinlab.compress import prune_and_retrain
from basinlab.csvio import read_csv
from basinlab.errors import ConfigError, InvalidInputError, UnreachableToleranceError
from basinlab.llc import LlcConfig, Preconditioner
from basinlab.mlp import MlpSpec
from basinlab.training import load_checkpoint, save_checkpoint
from basinlab.volume import MC_CHUNK

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

    def test_csv_manifest_line_equals_manifest_json(self, workdir):
        _, _, out = workdir
        line, _, _ = read_csv(out / "training.csv")
        manifest = json.loads((out / "train-toy.manifest.json").read_text())
        assert line == {k: str(v) for k, v in manifest.items()}

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
        _, cfg_path, out = workdir
        assert run(cfg_path, out, "prune-sweep") == 0
        _, header, rows = read_csv(out / "sweep_prune.csv")
        assert header[-1] == "delta_vs_control"
        assert all(r[4] == "" for r in rows)
        # each row is a direct prune_and_retrain call's, checkpoint by checkpoint
        cfg = load_config(str(cfg_path), None, str(out), None)
        task = build_task(cfg)
        expected = [(ck.step, "prune", frac, res.delta_loss, "", cfg["epsilons"][0], cfg["seed"],
                     res.delta_vs_control)
                    for ck in load_checkpoints(cfg)
                    for frac, res in zip(cfg["prune"]["keep_fractions"],
                                         prune_and_retrain(task, ck.params, **cfg["prune"]))]
        assert [(int(r[0]), r[1], float(r[2]), float(r[3]), r[4], float(r[5]), int(r[6]),
                 float(r[7])) for r in rows] == expected

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
            assert net_header == ["center_index", "p_one", "vr_volume", "code_length",
                                  "vr_mc", "vr_mc_se"]
            assert len(net_rows) >= 1

    def test_net_seed_and_mc_samples_move_only_the_cross_check(self, workdir, tmp_path):
        # the exact V^R feed the code lengths; the Monte Carlo columns are reported only
        _, cfg_path, out = workdir
        cfg = dict(SMALL, mdl=dict(SMALL["mdl"], net_seed=5, mc_samples=30_000))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        other = tmp_path / "o"
        assert run(cfg_path, out, "mdl-redundancy") == 0
        assert main(["mdl-redundancy", "--config", str(p), "--out", str(other)]) == 0
        assert read_csv(out / "redundancy.csv")[1:] == read_csv(other / "redundancy.csv")[1:]
        for n in (64, 256):
            (_, header, rows), (_, _, moved) = (read_csv(d / f"net_n{n}.csv") for d in (out, other))
            mc = header.index("vr_mc")
            assert [r[:mc] for r in rows] == [r[:mc] for r in moved]
            assert all(r[mc:] != m[mc:] for r, m in zip(rows, moved))

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
        tracer.install()
        originals = list(tracer.patched)
        try:
            assert len(originals) == 33
            # every patch point resolves to a wrapper of the name it replaced
            assert all(getattr(owner, attr).__wrapped__ is orig for owner, attr, orig in originals)
        finally:
            tracer.uninstall()
        assert not tracer.patched
        assert all(getattr(owner, attr) is orig for owner, attr, orig in originals)


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


SWEEPS = ["quantize-sweep", "noise-sweep", "factorize-sweep", "prune-sweep"]


class TestFanOut:
    """cli.sweep and estimate-llc spread checkpoints over forked workers, one
    per usable CPU; the worker count is forced through os.sched_getaffinity.
    SMALL has four checkpoints (steps 100, 200, 400, 800): with three workers
    this process takes the first and the last, and two children one each.
    estimate-llc samples each worker's share in one stack."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Set the usable CPUs to `n`; returns the list of fork calls made."""
        calls = []
        real_fork = os.fork

        def counted_fork():
            calls.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)

        def with_cpus(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
            return calls
        return with_cpus

    @staticmethod
    def fresh_out(workdir, path):
        shutil.copytree(workdir[2] / "checkpoints", path / "checkpoints")
        return path

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def digests(out):
        return {f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(out.rglob("*")) if f.is_file()}

    def test_every_sweep_same_bytes_with_one_and_three_workers(self, workdir, tmp_path, forks):
        digests = {}
        for n in (1, 3):
            calls = forks(n)
            out = self.fresh_out(workdir, tmp_path / str(n))
            for command in SWEEPS:
                assert run(workdir[1], out, command) == 0
                self.assert_no_child_left()
            assert len(calls) == (0 if n == 1 else 2 * len(SWEEPS))
            calls.clear()
            digests[n] = self.digests(out)
        assert len(digests[1]) == 4 + 2 * len(SWEEPS) and digests[1] == digests[3]

    @pytest.mark.parametrize("error", [UnreachableToleranceError, InvalidInputError])
    @pytest.mark.parametrize("failing", [(200, 800), (100, 400)],
                             ids=["lower-in-child", "lower-in-parent"])
    def test_lowest_failing_checkpoint_raises_as_serially(self, workdir, tmp_path, forks,
                                                          monkeypatch, error, failing):
        # one failure in a child's share and one in this process's share
        real_rows = cli.critical_rows

        def rows(cfg, scheme, ck, results):
            if ck.step in failing:
                raise error(f"forced failure at step {ck.step}")
            return real_rows(cfg, scheme, ck, results)

        monkeypatch.setattr(cli, "critical_rows", rows)
        raised = {}
        for n in (1, 3):
            forks(n)
            cfg = load_config(str(workdir[1]), None, str(self.fresh_out(workdir, tmp_path / str(n))),
                              None)
            with pytest.raises(error) as e:
                cli.cmd_factorize_sweep(cfg)
            self.assert_no_child_left()
            raised[n] = (type(e.value), str(e.value))
        assert raised[1] == raised[3]
        lowest = min(failing)
        suffix = f" of the checkpoint at training step {lowest}"
        assert raised[3][1] == f"forced failure at step {lowest}" + (
            suffix if error is UnreachableToleranceError else "")

    def test_killed_child_still_yields_the_full_csv(self, workdir, tmp_path, forks, monkeypatch):
        parent = os.getpid()
        real_rows = cli.critical_rows

        def rows(cfg, scheme, ck, results):
            if os.getpid() != parent and ck.step == 200:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_rows(cfg, scheme, ck, results)

        monkeypatch.setattr(cli, "critical_rows", rows)
        csv = {}
        for n in (1, 3):
            calls = forks(n)
            out = self.fresh_out(workdir, tmp_path / str(n))
            assert run(workdir[1], out, "quantize-sweep") == 0
            self.assert_no_child_left()
            assert len(calls) == (0 if n == 1 else 2)
            csv[n] = (out / "sweep_quantize.csv").read_bytes()
        assert len(csv[1].splitlines()) == 2 + 4 and csv[1] == csv[3]

    def test_nothing_forks_with_another_thread_or_one_cpu(self, workdir, tmp_path, forks):
        calls = forks(1)
        assert run(workdir[1], self.fresh_out(workdir, tmp_path / "a"), "factorize-sweep") == 0
        forks(3)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert run(workdir[1], self.fresh_out(workdir, tmp_path / "b"), "factorize-sweep") == 0
        finally:
            release.set()
            waiter.join()
        assert calls == []
        self.assert_no_child_left()

    def test_summary_printed_once(self, workdir, tmp_path):
        # stdout to a pipe, without PYTHONUNBUFFERED, is block-buffered: "start" is
        # still in the buffer at each fork, and a child that flushed it would print
        # it again
        out = self.fresh_out(workdir, tmp_path / "o")
        code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1, 2}; "
                "from basinlab.cli import main; print('start'); sys.exit(main(sys.argv[1:]))")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        res = subprocess.run([sys.executable, "-c", code, "factorize-sweep", "--config",
                              str(workdir[1]), "--out", str(out)], capture_output=True,
                             text=True, env=dict(env, PYTHONPATH=str(src)), timeout=120)
        assert res.returncode == 0 and res.stderr == ""
        assert res.stdout.splitlines() == ["start",
                                           f"wrote 4 rows -> {out / 'sweep_factorize.csv'}"]

    @staticmethod
    def llc_config(tmp_path, **llc):
        """SMALL with these llc keys set, written to a file; returns its path."""
        p = tmp_path / "llc_cfg.json"
        p.write_text(json.dumps(dict(SMALL, llc=dict(SMALL["llc"], **llc))))
        return p

    def test_estimate_llc_same_bytes_with_one_and_three_workers(self, workdir, tmp_path, forks):
        cfg_path = self.llc_config(tmp_path, write_traces=True)
        digests = {}
        for n, thread in ((1, False), (3, False), (3, True)):
            calls = forks(n)
            out = self.fresh_out(workdir, tmp_path / f"{n}-{thread}")
            release = threading.Event()
            waiter = threading.Thread(target=release.wait)
            if thread:
                waiter.start()
            try:
                assert run(cfg_path, out, "estimate-llc") == 0
            finally:
                release.set()
                if thread:
                    waiter.join()
            self.assert_no_child_left()
            # nothing forks at one CPU or while another thread runs
            assert len(calls) == (2 if n == 3 and not thread else 0)
            calls.clear()
            digests[n, thread] = self.digests(out)
        written = {"llc.csv", "llc_traces.csv", "estimate-llc.manifest.json"}
        assert written < set(digests[1, False]) and len(digests[1, False]) == 4 + len(written)
        assert digests[1, False] == digests[3, False] == digests[3, True]

    @pytest.mark.parametrize("blown", [(200, 800), ()], ids=["lower-in-child", "lower-in-parent"])
    def test_diverging_llc_checkpoint_named_as_serially(self, workdir, tmp_path, forks,
                                                        capsys, blown):
        # lower-in-parent: a step size of 10 makes every checkpoint diverge, so
        # the lowest, at step 100, is in this process's share. lower-in-child:
        # at SMALL's step size only the checkpoints blown up to 1e200-sized
        # parameters diverge (at the first step), the lowest, at step 200, in a
        # child's share, while this process's share fails too, at step 800.
        cfg_path = self.llc_config(tmp_path, **({} if blown else {"step_size": 10.0}))
        err = {}
        for n in (1, 3):
            calls = forks(n)
            out = self.fresh_out(workdir, tmp_path / str(n))
            for f in out.glob("checkpoints/ckpt_*.bin"):
                ck = load_checkpoint(f)
                if ck.step in blown:
                    ck.params *= 1e200
                    save_checkpoint(ck, f)
            capsys.readouterr()
            with np.errstate(all="ignore"):
                assert run(cfg_path, out, "estimate-llc") == 2
            self.assert_no_child_left()
            assert len(calls) == (0 if n == 1 else 2)
            assert not (out / "llc.csv").exists()
            err[n] = capsys.readouterr().err
        assert err[1] == err[3]
        assert err[3].startswith("numerical failure (estimate-llc): chain 0 diverged at step ")
        lowest = min(blown, default=100)
        assert err[3].rstrip().endswith(f"of the checkpoint at training step {lowest}")
        assert len(err[3].strip().splitlines()) == 1

    def test_killed_child_still_yields_the_full_llc_csv(self, workdir, tmp_path, forks,
                                                        monkeypatch):
        parent = os.getpid()
        real = cli.estimate_llc
        victim = next(ck for ck in load_checkpoints(load_config(
            str(workdir[1]), None, str(workdir[2]), None)) if ck.step == 200)

        def estimate(task, cfg, seed, w_star):
            if os.getpid() != parent and np.array_equal(w_star[0], victim.params):
                os.kill(os.getpid(), signal.SIGKILL)
            return real(task, cfg, seed=seed, w_star=w_star)

        monkeypatch.setattr(cli, "estimate_llc", estimate)
        csv = {}
        for n in (1, 3):
            calls = forks(n)
            out = self.fresh_out(workdir, tmp_path / str(n))
            assert run(workdir[1], out, "estimate-llc") == 0
            self.assert_no_child_left()
            assert len(calls) == (0 if n == 1 else 2)
            csv[n] = (out / "llc.csv").read_bytes()
        assert len(csv[1].splitlines()) == 2 + 4 and csv[1] == csv[3]


class TestFanOutShares:
    """cli.fan_out's contract: one call of fn per worker's share items[w::W],
    the results joined in item order, and fn(items) once in this process
    when a share is left without results."""

    @pytest.fixture
    def logged(self, tmp_path, monkeypatch):
        """fn(fails_on): maps each item x to 10 x and appends [pid, share] to a
        log, raising on a share that holds item `fails_on`; calls() reads the
        log. Three usable CPUs."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        log = tmp_path / "calls.jsonl"

        def make(fails_on=None):
            def fn(share):
                with open(log, "a") as f:  # one short appended line per call
                    f.write(json.dumps([os.getpid(), share]) + "\n")
                if fails_on in share:
                    raise ValueError(f"item {fails_on} failed")
                return [10 * item for item in share]
            return fn

        def calls():
            return [tuple(json.loads(line)) for line in log.read_text().splitlines()]
        return make, calls

    def test_one_call_per_share_joined_in_item_order(self, logged):
        make, calls = logged
        items = list(range(7))
        assert cli.fan_out(make(), items) == [10 * item for item in items]
        TestFanOut.assert_no_child_left()
        made = calls()
        assert sorted(share for _, share in made) == [items[w::3] for w in range(3)]
        here = os.getpid()
        assert [share for pid, share in made if pid == here] == [items[::3]]
        assert len({pid for pid, _ in made if pid != here}) == 2

    @pytest.mark.parametrize("fails_on", [4, 3], ids=["in-child", "in-parent"])
    def test_failing_share_reruns_every_item_once_here(self, logged, fails_on):
        # item 4 is in the share [1, 4] of a child, item 3 in this process's [0, 3, 6]
        make, calls = logged
        items = list(range(7))
        with pytest.raises(ValueError, match=f"item {fails_on} failed"):
            cli.fan_out(make(fails_on), items)
        TestFanOut.assert_no_child_left()
        made = calls()
        assert [pid for pid, share in made if share == items] == [os.getpid()]
        assert len(made) == 4

    def test_serial_rerun_returns_what_the_serial_call_does(self, logged):
        make, calls = logged
        real = make()
        parent = os.getpid()

        def fn(share):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(share)

        items = list(range(5))
        assert cli.fan_out(fn, items) == [10 * item for item in items]
        TestFanOut.assert_no_child_left()
        assert calls() == [(parent, items[::3]), (parent, items)]

    def test_one_cpu_is_one_serial_call(self, logged, monkeypatch):
        make, calls = logged
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with pytest.raises(ValueError, match="item 2 failed"):
            cli.fan_out(make(2), [0, 1, 2])
        assert calls() == [(os.getpid(), [0, 1, 2])]


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


def valid_value(key, default, value) -> bool:
    """Whether `value` passes the checks of `key` alone: its type (or one of
    ALTERNATIVES), its VALUE_CHECKS entry and, for an object, the same checks
    on each of its keys, which must be known."""
    typed = [p for p in ALTERNATIVES.get(key, (default,)) if typed_like(p, value)]
    if not typed or (key in VALUE_CHECKS and not VALUE_CHECKS[key][0](value)):
        return False
    return not isinstance(value, dict) or all(
        k in typed[0] and valid_value(f"{key}.{k}", typed[0][k], v) for k, v in value.items())


def library_refusal(cfg):
    """The key of the field that MlpSpec, Preconditioner or LlcConfig, asked
    directly, refuses in `cfg`'s model or llc section; None if none does. A
    string preconditioner is its kind, named by `llc.preconditioner` alone."""
    llc = {k: v for k, v in cfg["llc"].items() if k not in ("seed", "write_traces")}
    pc = llc.pop("preconditioner")
    for key, build in (("model", lambda: MlpSpec(**cfg["model"])),
                       ("llc.preconditioner", lambda: Preconditioner(**pc)
                        if isinstance(pc, dict) else Preconditioner(pc)),
                       ("llc", lambda: LlcConfig(**llc))):
        try:
            build()
        except InvalidInputError as e:
            return key if isinstance(pc, str) and key == "llc.preconditioner" else (
                f"{key}.{str(e).split()[0]}")
    return None


def cross_key_failure(path, value):
    """The key load_config names when `value` at `path`, a value that passes
    its own checks, breaks a condition between keys with the defaults, or a
    rule of the library type built from its section."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    training = cfg["training"]
    if not all(0 <= s <= training["steps"] for s in training["checkpoint_schedule"]):
        return "training.checkpoint_schedule"
    # volume-fit fits the rungs 2^-k at or below max_epsilon, which must
    # span two decades: from the first such k to ladder_max_k, at least 2^7
    volume = cfg["volume"]
    k_top = next(k for k in itertools.count(2) if 2.0**-k <= volume["max_epsilon"])
    if volume["ladder_max_k"] < k_top + 7:
        return "volume.ladder_max_k"
    # the restricted simplex that lemma-audit samples must not be empty
    if cfg["audit"]["m_simplex"] * cfg["audit"]["outcomes"] >= 1:
        return "audit.m_simplex"
    # of the landscape rules, one changed key can break only this one
    if volume["landscape"] == "normal_crossing" and not volume["exponents"]:
        return "volume.exponents"
    return library_refusal(cfg)


# Well-typed values of each llc and model field, on both sides of its rules.
LIBRARY_CASES = {
    "model.layer_sizes": [[4, 4], [1, 1], [4], [], [4, 0, 4], [-1, 4]],
    "llc.nbeta": [1e-300, 1, 0, -1.0], "llc.step_size": [1e-300, 0.0, -1e-3],
    "llc.gamma": [0, 1e-300, -1e-300], "llc.chains": [1, 0, -2],
    "llc.steps_per_chain": [301, 300, 0], "llc.burn_in": [None, 0, 1499, 1500, -1],
    "llc.batch_size": [1, 0, -1], "llc.baseline_batches": [1, 0],
    "llc.preconditioner": ["none", "rmsprop", "bogus", "", {"kind": "rmsprop", "decay": 0.5},
                           {"kind": "adam"}, {"decay": 1}, {"decay": 0}, {"stabilizer": 0},
                           {"stabilizer": 1e-300}, {"stabilizer": -1}, {}],
}


JSON_VALUES = st.one_of(
    EDGE_VALUES, SCALARS, st.lists(EDGE_VALUES | SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["kind", "decay", "stabilizer", "x"]),
                    EDGE_VALUES | SCALARS, max_size=3))


class TestGoldenBytes:
    """Outputs pinned by sha256, captured before the Monte Carlo kernels were
    sped up, so that no later speedup moves them unnoticed. The quadratic and
    normal-crossing volume.csv rest on uniform draws, +, *, <= and sqrt only,
    so their bytes do not depend on the machine; the Bernoulli KL one also
    goes through libm log. audit.csv holds integer counts. The manifest line
    carries the experiment hash, so a change of DEFAULT_CONFIG moves every
    digest too."""

    @pytest.mark.parametrize("command,payload,name,digest", [
        ("volume-fit", {"volume": {"landscape": "quadratic", "dim": 2, "samples": 200_000}},
         "volume.csv", "fa18d4253c4c039e9195652e931c0af04d5204af1dbb9959d5eb1eca87b1da7f"),
        ("lemma-audit", {"audit": {"instances": 2000, "inclusion_configs": 2}},
         "audit.csv", "373a0a993d8e05257d6db3c94fd47ab3a5d670f9b37601d8a7478eb685ce4557"),
        # three mc-geometry benchmark geometries at its size: 1M samples, ladder to 2^-14
        ("volume-fit", {"volume": {"landscape": "normal_crossing", "exponents": [1],
                                   "active_dims": [0], "samples": 1_000_000, "ladder_max_k": 14}},
         "volume.csv", "bdc8a6b0a39b9e3855d66338c3f6e7529d828cd314f37871d6c01ce9c445b47e"),
        ("volume-fit", {"volume": {"landscape": "normal_crossing", "exponents": [2],
                                   "active_dims": [0], "samples": 1_000_000, "ladder_max_k": 14}},
         "volume.csv", "59b65958e407f9c0db3e58b8e7cdb6fce1f06b3c952d08a823ba9460fcf8c2ae"),
        ("volume-fit", {"volume": {"landscape": "bernoulli_kl", "samples": 1_000_000,
                                   "ladder_max_k": 14}},
         "volume.csv", "a101646b6c649337245ea3fa601a54d46d8a2971cdafaa552b0114954d1b3d0f"),
    ], ids=["volume-fit", "lemma-audit", "volume-fit-nc-k1", "volume-fit-nc-k2",
            "volume-fit-bernoulli-kl"])
    def test_output_digest_pinned(self, tmp_path, command, payload, name, digest):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest() == digest


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
        valid = valid_value(key, default, value)
        crossed = cross_key_failure(path, value) if valid else None
        try:
            cfg = load_config(str(cfg_path), None, None, None)
        except ConfigError as e:
            assert not valid or e.key == crossed, (e.key, crossed)
            assert crossed or e.key == key or e.key.startswith(key + "."), (e.key, key)
            return
        assert valid and crossed is None
        got = cfg
        for k in path:
            got = got[k]
        # returned as written: an integer in a float key stays an integer
        assert json.dumps(got, sort_keys=True) == json.dumps(value, sort_keys=True)

    @pytest.mark.parametrize("key,value", [(k, v) for k, vs in LIBRARY_CASES.items() for v in vs],
                             ids=lambda x: json.dumps(x, separators=(",", ":")).strip('"'))
    def test_llc_and_model_refused_exactly_when_library_refuses(self, tmp_path, key, value):
        # one home per rule: load_config refuses a well-typed value exactly when
        # the library type does, and names the field the library names
        section, field = key.split(".")
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg[section][field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({section: {field: value}}))
        try:
            load_config(str(cfg_path), None, None, None)
            refused = None
        except ConfigError as e:
            refused = e.key
        assert refused == library_refusal(cfg)

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

    def test_readme_names_every_checked_key(self):
        # a key checked at load is documented with its full path
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert [k for k in (*VALUE_CHECKS, *ALTERNATIVES) if f"`{k}`" not in readme] == []

    def test_readme_names_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        keys = [".".join(p) for p in leaf_paths(DEFAULT_CONFIG)]
        assert [k for k in keys if f"`{k}`" not in readme] == []

    @pytest.mark.parametrize("max_epsilon,lowest_k", [
        (0.25, 9), (1e300, 9), (0.1, 11), (2.0**-6, 13), (0.9 * 2.0**-6, 14)])
    def test_ladder_reaches_two_decades_below_fit_top(self, tmp_path, max_epsilon, lowest_k):
        cfg_path = tmp_path / "cfg.json"
        for k, ok in ((lowest_k, True), (lowest_k - 1, False)):
            cfg_path.write_text(json.dumps(
                {"volume": {"max_epsilon": max_epsilon, "ladder_max_k": k}}))
            if ok:
                assert load_config(str(cfg_path), None, None, None)["volume"]["ladder_max_k"] == k
            else:
                with pytest.raises(ConfigError) as err:
                    load_config(str(cfg_path), None, None, None)
                assert err.value.key == "volume.ladder_max_k"

    def test_dim_bound_is_one_gib_chunk(self, tmp_path):
        # the largest dim whose chunk of MC_CHUNK draws fits in 1 GiB loads
        assert cli.MAX_DIM * 8 * MC_CHUNK == 2**30
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"volume": {"dim": cli.MAX_DIM}}))
        assert load_config(str(cfg_path), None, None, None)["volume"]["dim"] == cli.MAX_DIM

    def test_default_config_hash_pinned(self):
        assert experiment_hash(load_config(None, None, None, None)) == (
            "27d2439ac1088b5fef3c3c91c516876a8181c97cea02c68159620e0f6604ba63")


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
        ({"audit": {"m_simplex": 0.0}}, "audit.m_simplex"),
        ({"audit": {"m_simplex": -0.1}}, "audit.m_simplex"),
        ({"audit": {"outcomes": 1}}, "audit.outcomes"),
        ({"mdl": {"n_seeds": 0}}, "mdl.n_seeds"),
        ({"mdl": {"n_powers": []}}, "mdl.n_powers"),
        ({"mdl": {"a": 0}}, "mdl.a"),
        ({"mdl": {"a": -0.1}}, "mdl.a"),
        ({"volume": {"half_width": 0.0}}, "volume.half_width"),
        ({"volume": {"half_width": -1}}, "volume.half_width"),
        ({"audit": {"m_simplex": 0.3}}, "audit.m_simplex"),
        ({"mdl": {"m_simplex": 0.3}}, "mdl.m_simplex"),
        ({"volume": {"landscape": "bernoulli_kl", "dim": 5}}, "volume.dim"),
        ({"volume": {"landscape": "foo"}}, "volume.landscape"),
        ({"model": {"loss": "xent"}}, "model.loss"),
        ({"model": {"loss": "bogus"}}, "model.loss"),
        ({"prune": {"keep_fractions": []}}, "prune.keep_fractions"),
        ({"prune": {"keep_fractions": [1.5]}}, "prune.keep_fractions"),
        ({"prune": {"keep_fractions": [0.5, 0]}}, "prune.keep_fractions"),
        ({"prune": {"retrain_steps": -5}}, "prune.retrain_steps"),
        ({"prune": {"learning_rate": -1}}, "prune.learning_rate"),
        ({"training": {"learning_rate": -1}}, "training.learning_rate"),
        ({"training": {"learning_rate": 0}}, "training.learning_rate"),
        ({"quantize": {"nq_cap": 2}}, "quantize.nq_cap"),
        ({"quantize": {"mode": "bogus"}}, "quantize.mode"),
        ({"noise": {"mode": "bogus"}}, "noise.mode"),
        ({"llc": {"preconditioner": "bogus"}}, "llc.preconditioner"),
        ({"llc": {"preconditioner": {"kind": "adam"}}}, "llc.preconditioner.kind"),
        ({"llc": {"preconditioner": {"kind": "rmsprop", "decay": 2.0}}},
         "llc.preconditioner.decay"),
        ({"llc": {"preconditioner": {"decay": 0}}}, "llc.preconditioner.decay"),
        ({"llc": {"preconditioner": {"stabilizer": 0}}}, "llc.preconditioner.stabilizer"),
        ({"analyze": {"scheme": "prune"}}, "analyze.scheme"),
        ({"mdl": {"n_powers": [6, -1]}}, "mdl.n_powers"),
        ({"llc": {"nbeta": 0}}, "llc.nbeta"),
        ({"llc": {"step_size": -1e-3}}, "llc.step_size"),
        ({"llc": {"gamma": -1.0}}, "llc.gamma"),
        ({"llc": {"burn_in": 1500}}, "llc.burn_in"),
        ({"llc": {"burn_in": -1}}, "llc.burn_in"),
        ({"llc": {"steps_per_chain": 300}}, "llc.burn_in"),
        ({"training": {"checkpoint_schedule": [400, 51201]}}, "training.checkpoint_schedule"),
        ({"training": {"checkpoint_schedule": [-1, 400]}}, "training.checkpoint_schedule"),
        ({"training": {"steps": 1000}}, "training.checkpoint_schedule"),
        ({"model": {"layer_sizes": [4]}}, "model.layer_sizes"),
        ({"volume": {"max_epsilon": -1}}, "volume.max_epsilon"),
        ({"volume": {"ladder_max_k": 1}}, "volume.ladder_max_k"),
        ({"volume": {"multiplicity_mode": 0}}, "volume.multiplicity_mode"),
        ({"volume": {"multiplicity_mode": -3}}, "volume.multiplicity_mode"),
        ({"volume": {"ladder_max_k": 8}}, "volume.ladder_max_k"),
        ({"volume": {"ladder_max_k": 1075}}, "volume.ladder_max_k"),
        ({"volume": {"ladder_max_k": 1100, "samples": 1000}}, "volume.ladder_max_k"),
        ({"volume": {"max_epsilon": 0.01}}, "volume.ladder_max_k"),
        ({"volume": {"landscape": "normal_crossing"}}, "volume.exponents"),
        ({"volume": {"landscape": "normal_crossing", "exponents": [1, 2], "active_dims": [0]}},
         "volume.active_dims"),
        ({"volume": {"landscape": "normal_crossing", "exponents": [1, 0]}}, "volume.exponents"),
        ({"volume": {"landscape": "normal_crossing", "exponents": [1, 2], "active_dims": [1, 1]}},
         "volume.active_dims"),
        ({"volume": {"landscape": "normal_crossing", "exponents": [1], "active_dims": [2]}},
         "volume.active_dims"),
        ({"audit": {"m_simplex": 0.25, "outcomes": 4}}, "audit.m_simplex"),
        ({"volume": {"dim": 2**70}}, "volume.dim"),
        ({"volume": {"dim": cli.MAX_DIM + 1}}, "volume.dim"),
    ], ids=["unknown-key", "top-level-array", "epsilons-string", "epsilons-nan",
            "layer-sizes-int", "checkpoint-schedule-int", "n-samples-float", "n-samples-bool",
            "layer-sizes-float-item", "write-traces-string", "n-seeds-string", "seed-string",
            "steps-list", "preconditioner-unknown-key", "preconditioner-list", "nbeta-nan",
            "epsilons-inf", "multiplicity-mode-string", "exponents-string", "mc-samples-zero",
            "baseline-batches-zero", "training-seed-negative", "training-seed-above-u64",
            "audit-instances-zero", "audit-inclusion-configs-zero", "audit-m-simplex-zero",
            "audit-m-simplex-negative", "audit-outcomes-one", "mdl-n-seeds-zero",
            "mdl-n-powers-empty", "mdl-a-zero", "mdl-a-negative", "volume-half-width-zero",
            "volume-half-width-negative", "audit-m-simplex-above-box", "mdl-m-simplex-above-box",
            "bernoulli-kl-dim-not-2", "landscape-unknown", "loss-xent", "loss-unknown",
            "keep-fractions-empty", "keep-fraction-above-one", "keep-fraction-zero",
            "retrain-steps-negative", "prune-learning-rate-negative",
            "training-learning-rate-negative", "training-learning-rate-zero",
            "nq-cap-below-4", "quantize-mode-unknown", "noise-mode-unknown",
            "preconditioner-unknown", "preconditioner-kind-unknown",
            "preconditioner-decay-above-one", "preconditioner-decay-zero",
            "preconditioner-stabilizer-zero", "analyze-scheme-prune", "n-powers-negative",
            "nbeta-zero", "step-size-negative", "gamma-negative", "burn-in-at-steps",
            "burn-in-negative", "steps-per-chain-at-burn-in", "checkpoint-above-steps",
            "checkpoint-negative", "steps-below-schedule", "layer-sizes-one-entry",
            "max-epsilon-negative", "ladder-empty", "multiplicity-mode-zero",
            "multiplicity-mode-negative", "ladder-below-two-decades",
            "ladder-past-underflow", "ladder-past-underflow-few-samples",
            "max-epsilon-shrinks-ladder", "normal-crossing-no-exponents",
            "active-dims-length-mismatch", "exponent-zero", "active-dims-repeated",
            "active-dim-out-of-range", "audit-simplex-empty", "volume-dim-2-to-the-70",
            "volume-dim-above-chunk-budget"])
    def test_unknown_config_key_exit_1(self, tmp_path, capsys, payload, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["train-toy", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"config key {key!r}" in err

    def test_negative_n_power_exit_1_writes_nothing(self, tmp_path, capsys):
        # n = 2**-1 is no sample size: refused at load, before any file is written
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mdl": {"n_powers": [-1]}}))
        assert main(["mdl-redundancy", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "config key 'mdl.n_powers'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train-toy", "volume-fit"])
    @pytest.mark.parametrize("under_file", [True, False], ids=["under-file", "file"])
    def test_unusable_out_exit_1(self, tmp_path, capsys, monkeypatch, command, under_file):
        # `out` is a regular file or lies below one; train-toy fails before training
        monkeypatch.setattr(cli, "train_sgd", lambda *a, **k: pytest.fail("trained"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        out = cfg_path / "o" if under_file else cfg_path
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "config key 'out'" in err

    @pytest.mark.parametrize("content", [None, b'{"seed": "\xff"}'], ids=["directory", "not-utf8"])
    def test_unreadable_config_exit_1(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "cfg"
        if content is None:
            cfg_path.mkdir()
        else:
            cfg_path.write_bytes(content)
        assert main(["volume-fit", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "config key 'config'" in err

    def test_audit_simplex_bound_too_large_exit_1(self, tmp_path, capsys):
        # m * outcomes >= 1 leaves no restricted simplex to sample
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"audit": {"m_simplex": 0.25, "outcomes": 4}}))
        assert main(["lemma-audit", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "config key 'audit.m_simplex'" in err

    def test_bad_epsilon_exit_1(self, workdir, capsys):
        _, cfg_path, out = workdir
        for bad in ("-1", "inf"):
            assert main(["quantize-sweep", "--config", str(cfg_path), "--out", str(out),
                         "--epsilon", bad]) == 1
            assert "config key 'epsilons'" in capsys.readouterr().err

    @pytest.mark.parametrize("override,key", [
        ({"model": {"layer_sizes": [4, 8, 4]}}, "model"),
        ({"model": {"loss": "xent"}}, "model.loss"),
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

    @pytest.mark.parametrize("command", ["estimate-llc", "quantize-sweep", "factorize-sweep",
                                         "noise-sweep", "prune-sweep"])
    def test_non_finite_checkpoint_exit_1(self, workdir, tmp_path, capsys, command):
        # one NaN parameter in one checkpoint: no command reads on to write NaN rows
        from basinlab.training import load_checkpoint, save_checkpoint
        _, cfg_path, out = workdir
        d = tmp_path / "o" / "checkpoints"
        d.mkdir(parents=True)
        for f in sorted((out / "checkpoints").glob("ckpt_*.bin")):
            (d / f.name).write_bytes(f.read_bytes())
        bad = sorted(d.glob("ckpt_*.bin"))[1]
        ck = load_checkpoint(bad)
        ck.params[0] = np.nan
        save_checkpoint(ck, bad)
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"{bad}: non-finite parameters" in err
        assert not list((tmp_path / "o").glob("*.csv"))

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

    def test_analyze_epsilon_not_swept_exit_1(self, tmp_path, capsys):
        # the sweep ran at 0.5 and 1.0 only; analyze asks for 0.3
        from basinlab.csvio import write_csv
        write_csv(tmp_path / "llc.csv", ["step", "lambda_hat"], [(s, s) for s in (1, 2, 3, 4)])
        write_csv(tmp_path / "sweep_quantize.csv",
                  ["step", "scheme", "control_parameter", "delta_loss", "critical_value",
                   "epsilon", "seed"],
                  [(s, "quantize", 8.0, 0.1, 8.0 * s, e, 0)
                   for s in (1, 2, 3, 4) for e in (0.5, 1.0)])
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"analyze": {"epsilon": 0.3}}))
        assert main(["analyze", "--config", str(p), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "config key 'analyze.epsilon'" in err
        assert "[0.5, 1.0]" in err and not (tmp_path / "analysis.csv").exists()

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

    def test_diverging_llc_exit_2_names_first_checkpoint(self, workdir, tmp_path, capsys):
        # every checkpoint diverges; the first in order (training step 100) is named
        _, _, out = workdir
        cfg = dict(SMALL)
        cfg["llc"] = dict(SMALL["llc"], step_size=10.0)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert main(["estimate-llc", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "chain 0 diverged at step" in err
        assert err.rstrip().endswith("of the checkpoint at training step 100")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_diverging_prune_retrain_exit_2(self, workdir, tmp_path, capsys):
        _, _, out = workdir
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(SMALL, prune=dict(SMALL["prune"], learning_rate=50.0))))
        capsys.readouterr()
        assert main(["prune-sweep", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "training diverged at step" in err
        # the lowest diverging run's keep fraction, and its checkpoint's training step
        assert "while retraining keep fraction 0.5 of the checkpoint at training step 100" in err

    def test_unreachable_quantize_tolerance_exit_2_names_checkpoint(self, workdir, tmp_path,
                                                                     capsys):
        # no n_q up to the cap brings the first checkpoint (training step 100) within 1e-9
        _, _, out = workdir
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(SMALL, quantize={"nq_cap": 8})))
        capsys.readouterr()
        assert main(["quantize-sweep", "--config", str(p), "--out", str(out),
                     "--epsilon", "1e-9"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "at n_q=8 of the checkpoint at training step 100" in err

    def test_unreachable_noise_tolerance_exit_2_names_checkpoint(self, workdir, tmp_path,
                                                                 capsys):
        # sigma's lower bound, 1e-6, already moves the loss of the first checkpoint
        # (training step 100) by more than 1e-9: the search raises, and no row is written
        _, cfg_path, out = workdir
        fresh = tmp_path / "o"
        shutil.copytree(out / "checkpoints", fresh / "checkpoints")
        capsys.readouterr()
        assert main(["noise-sweep", "--config", str(cfg_path), "--out", str(fresh),
                     "--epsilon", "1e-9"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert err.rstrip().endswith("at sigma=1e-06 of the checkpoint at training step 100")
        assert not (fresh / "sweep_noise.csv").exists()

    def test_diverging_training_exit_2(self, tmp_path):
        cfg = dict(SMALL)
        cfg["training"] = dict(SMALL["training"], learning_rate=100.0, steps=3000)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["train-toy", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


def test_cli_import_loads_no_test_or_scipy_modules():
    # the import a user pays for on every subcommand: numpy only
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, basinlab.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'pytest', 'hypothesis'}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert out.stdout.strip() == "[]"
