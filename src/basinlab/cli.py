"""Command-line experiment runner.

Subcommands write deterministic CSV files (plus a JSON run manifest) into the
output directory; rerunning with the same config and seed reproduces every
byte. Exit codes: 0 success, 1 configuration or input error, 2 numerical
failure (divergence, unreachable tolerance, covering failure, audit
violation).

    basinlab train-toy --config cfg.json --out runs/a
    basinlab estimate-llc --config cfg.json --out runs/a
    basinlab quantize-sweep --config cfg.json --out runs/a --epsilon 0.5
    basinlab analyze --config cfg.json --out runs/a
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import json
import os
import pickle
import sys
import threading
from pathlib import Path
from typing import Callable

import numpy as np

from . import csvio
from .analysis import analyze as analyze_fit
from .bernoulli import SingularBernoulli
from .compress import (
    CriticalResult,
    critical_compression_fraction,
    critical_nq,
    critical_sigma,
    prune_and_retrain,
)
# Not called here since the searches report their own delta_loss, but kept
# importable: benchmarks/tracing.py patches the probes under these names.
from .compress import noise_delta_loss, quantization_delta_loss  # noqa: F401
from .errors import ChainDivergedError, ConfigError, InvalidInputError
from .landscapes import Bounds, NormalCrossingSpec, make_normal_crossing, make_quadratic
from .llc import LlcConfig, Preconditioner, estimate_llc
from .mdl import build_eps_net, mc_ball_volumes, two_part_redundancy, validate_kl_l2, validate_triangle, validate_variance_bound, validate_volume_inclusions
from .mlp import MlpSpec, MlpTask, make_teacher_task
from .rng import rng_stream
from .simplex import kl_bernoulli, sample_restricted
from .training import Checkpoint, load_checkpoint, train_sgd
from .volume import MC_CHUNK, default_ladder, fit_scaling, volume_curve

LN2 = float(np.log(2.0))

DEFAULT_CONFIG = {
    "seed": 0,
    "out": "runs/default",
    "model": {"layer_sizes": [4, 16, 16, 4]},
    "data": {"n_samples": 1024, "seed": 13, "teacher_gain": 3.0},
    "training": {
        "steps": 51200, "learning_rate": 0.03, "batch_size": 32, "seed": 1,
        "checkpoint_schedule": [400, 800, 1600, 3200, 6400, 12800, 25600, 51200],
    },
    "llc": {
        "nbeta": 30.0, "gamma": 300.0, "step_size": 2e-4, "chains": 8,
        "steps_per_chain": 1500, "burn_in": 300, "batch_size": 64,
        "baseline_batches": 16, "seed": 7, "preconditioner": "none",
        "write_traces": False,
    },
    "epsilons": [0.25, 0.5, 1.0],
    "quantize": {"mode": "loss_min", "nq_cap": 65536},
    "noise": {"mode": "relative", "noise_draws": 8, "seed": 2},
    "prune": {
        "keep_fractions": [0.9375, 0.875, 0.75, 0.5, 0.25], "learning_rate": 0.003,
        "retrain_steps": 1000, "batch_size": 32, "seed": 3,
    },
    "volume": {
        "landscape": "quadratic", "dim": 2, "exponents": None, "active_dims": None,
        "half_width": 1.0, "ladder_max_k": 10,
        "samples": 1_000_000, "seed": 0, "multiplicity_mode": "select_by_fit",
        "max_epsilon": 0.25,
    },
    "mdl": {
        "n_powers": [6, 7, 8, 9, 10, 11, 12, 13, 14], "a": 0.1, "n_seeds": 50,
        "mc_samples": 1_000_000, "net_seed": 0,
    },
    "audit": {"instances": 10_000, "m_simplex": 0.2, "outcomes": 3,
              "inclusion_configs": 20, "seed": 0},
    "analyze": {"scheme": "quantize", "epsilon": 0.5, "excluded_steps": []},
}


# Each value of volume.landscape, with its builder from the volume section and the box.
LANDSCAPES = {
    "quadratic": lambda v, bounds: make_quadratic(v["dim"], bounds),
    "normal_crossing": lambda v, bounds: make_normal_crossing(
        NormalCrossingSpec(v["dim"], v["exponents"] or (), v["active_dims"]), bounds),
    "bernoulli_kl": lambda v, bounds: SingularBernoulli().kl_landscape(),
}
# Keys whose default does not fix their type: one prototype per type taken.
ALTERNATIVES = {
    "llc.burn_in": (0, None), "llc.preconditioner": ("none", dataclasses.asdict(Preconditioner())),
    "volume.exponents": (None, [0]), "volume.active_dims": (None, [0]),
    "volume.multiplicity_mode": ("select_by_fit", 0), "analyze.excluded_steps": ([0],),
}
# volume-fit draws MC_CHUNK rows of volume.dim doubles at a time: 1 GiB at most
MAX_DIM = 2**30 // (8 * MC_CHUNK)
# Checks of a well-typed value: (passes, message on failure); the counts first.
VALUE_CHECKS = dict.fromkeys((
    "data.n_samples", "training.steps", "training.batch_size", "prune.batch_size",
    "noise.noise_draws", "volume.samples", "mdl.mc_samples",
    "audit.instances", "audit.inclusion_configs", "mdl.n_seeds",
), (lambda v: v >= 1, "must be >= 1")) | dict.fromkeys(
    ("mdl.a", "volume.half_width", "volume.max_epsilon", "training.learning_rate",
     "prune.learning_rate"), (lambda v: v > 0, "must be positive")) | {
    "prune.retrain_steps": (lambda v: v >= 0, "must be >= 0"),
    # the CLI's Bernoulli box [-0.5, 0.5]^2 keeps p_w in [0.25, 0.75], so m <= 0.25
    "audit.m_simplex": (lambda v: 0 < v <= 0.25, "must be in (0, 0.25]"),
    # checkpoint headers store the training seed as a u64
    "training.seed": (lambda v: 0 <= v < 2**64, "must be in [0, 2**64)"),
    "epsilons": (lambda v: v and min(v) > 0, "must be a nonempty list of positive numbers"),
    # each n = 2**k must be a positive integer
    "mdl.n_powers": (lambda v: v and min(v) >= 0, "must be a nonempty list of integers >= 0"),
    "prune.keep_fractions": (lambda v: v and all(0 < f <= 1 for f in v),
                             "must be a nonempty list of numbers in (0, 1]"),
    "audit.outcomes": (lambda v: v >= 2, "must be >= 2"),
    "volume.dim": (lambda v: 1 <= v <= MAX_DIM, f"must be in [1, {MAX_DIM}]"),
    # 2**-k underflows to 0 past the smallest subnormal, 2**-1074
    "volume.ladder_max_k": (lambda v: v <= 1074, "must be <= 1074, past which 2**-k is 0"),
    "volume.multiplicity_mode": (lambda v: v == "select_by_fit" or (type(v) is int and v >= 1),
                                 "expected 'select_by_fit' or an integer >= 1"),
    "quantize.nq_cap": (lambda v: v >= 4, "must be >= 4, the smallest n_q probed"),
    "quantize.mode": (lambda v: v in ("loss_min", "max_abs"), "must be 'loss_min' or 'max_abs'"),
    "noise.mode": (lambda v: v in ("absolute", "relative"), "must be 'absolute' or 'relative'"),
    "volume.landscape": (lambda v: v in LANDSCAPES,
                         "must be one of " + ", ".join(map(repr, LANDSCAPES))),
    # the sweeps with a critical value to fit; prune-sweep reports none
    "analyze.scheme": (lambda v: v in ("quantize", "factorize", "noise"),
                       "must be 'quantize', 'factorize' or 'noise'"),
}
TYPE_NAMES = {type(None): "null", bool: "a bool", int: "an integer", float: "a finite number",
              str: "a string", list: "a list", dict: "an object"}


def conforms(proto, value) -> bool:
    """Whether `value` has the JSON type of `proto`, a list's items included.
    A float takes an integer too; a bool is never an integer."""
    if type(proto) is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    items = value if type(value) is list and proto else ()
    return type(value) is type(proto) and all(conforms(proto[0], v) for v in items)


def describe(proto) -> str:
    item = f", each item {describe(proto[0])}" if isinstance(proto, list) and proto else ""
    return TYPE_NAMES[type(proto)] + item


def merge_config(path: str, default, value):
    """`value` read from a user config in place of `default`, checked against the
    default's type (or ALTERNATIVES) and VALUE_CHECKS. An object may only set known
    keys and is merged into its default; any other value is returned as written."""
    protos = ALTERNATIVES.get(path, (default,))
    matches = [p for p in protos if conforms(p, value)]
    if not matches:
        raise ConfigError(path or "config", "expected " + " or ".join(map(describe, protos)))
    if path in VALUE_CHECKS and not VALUE_CHECKS[path][0](value):
        raise ConfigError(path, VALUE_CHECKS[path][1])
    if not isinstance(value, dict):
        return value
    merged = dict(default) if isinstance(default, dict) else {}
    for key, sub in value.items():
        key_path = f"{path}.{key}" if path else key
        if key not in matches[0]:
            raise ConfigError(key_path, "unknown key")
        merged[key] = merge_config(key_path, matches[0][key], sub)
    return merged


def load_config(path: str | None, seed: int | None, out: str | None, epsilons: str | None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as e:
            raise ConfigError("config", f"cannot read {path}: {e.strerror}")
        except UnicodeDecodeError as e:
            raise ConfigError("config", f"{path} is not UTF-8: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError("config", f"invalid JSON: {e}")
        cfg = merge_config("", cfg, user)
        if cfg["volume"]["landscape"] == "bernoulli_kl" and cfg["volume"]["dim"] != 2:
            raise ConfigError("volume.dim", "must be 2 for bernoulli_kl, a two-parameter model")
        training = cfg["training"]
        if not all(0 <= s <= training["steps"] for s in training["checkpoint_schedule"]):
            raise ConfigError("training.checkpoint_schedule", "must lie in [0, training.steps]")
        # the fitted rungs, from the first 2^-k at or below max_epsilon down,
        # must span two decades: 2^7 >= 100
        k_top, volume = 2, cfg["volume"]
        while 2.0**-k_top > volume["max_epsilon"]:
            k_top += 1
        if volume["ladder_max_k"] < k_top + 7:
            raise ConfigError("volume.ladder_max_k", f"must be >= {k_top + 7} for the fit's rungs "
                              "to span two decades below volume.max_epsilon")
        # m * outcomes < 1, with no float made of a JSON integer past the largest double
        if cfg["audit"]["outcomes"] >= 1 / cfg["audit"]["m_simplex"]:
            raise ConfigError("audit.m_simplex", "times audit.outcomes must be below 1")
        # built for their rules alone: the type of each holds its section's
        build_landscape(cfg), built("model", MlpSpec, cfg["model"]), build_llc_config(cfg)
    if seed is not None:
        cfg["seed"] = seed
    if out is not None:
        cfg["out"] = out
    if epsilons is not None:
        try:
            flag = [float(tok) for tok in epsilons.split(",") if tok]
        except ValueError:
            raise ConfigError("epsilons", f"cannot parse {epsilons!r}")
        cfg["epsilons"] = merge_config("epsilons", DEFAULT_CONFIG["epsilons"], flag)
    return cfg


def built(key: str, make: Callable, section):
    """`make(**section)` (`make(section)` for a kind string): the library object whose
    type holds the rules of the config section at `key`. A broken rule is reported under
    the key of the field its message starts with, a kind string's under `key`."""
    has_fields = isinstance(section, dict)
    try:
        return make(**section) if has_fields else make(section)
    except InvalidInputError as e:
        field, _, message = str(e).partition(" ")
        raise ConfigError(f"{key}.{field}" if has_fields else key, message) from e


def build_task(cfg: dict):
    return make_teacher_task(built("model", MlpSpec, cfg["model"]), **cfg["data"])


def build_landscape(cfg: dict):
    """The landscape `volume.landscape` names, built by its LANDSCAPES entry."""
    return built("volume", lambda **v: LANDSCAPES[v["landscape"]](
        v, Bounds.symmetric(v["dim"], v["half_width"])), cfg["volume"])


def build_llc_config(cfg: dict) -> LlcConfig:
    llc = {k: v for k, v in cfg["llc"].items() if k not in ("seed", "write_traces")}
    llc["preconditioner"] = built("llc.preconditioner", Preconditioner, llc["preconditioner"])
    return built("llc", LlcConfig, llc)


def load_checkpoints(cfg: dict):
    """The checkpoints under `out`. Each header must name the model and the
    training seed of `cfg`; the data seed is not in the header."""
    d = Path(cfg["out"], "checkpoints")
    files = sorted(d.glob("ckpt_*.bin"))
    if not files:
        raise ConfigError("out", f"no checkpoint files under {d}; run train-toy first")
    cks = [load_checkpoint(f) for f in files]
    spec_hash = built("model", MlpSpec, cfg["model"]).spec_hash()
    for f, ck in zip(files, cks):
        if ck.spec_hash != spec_hash:
            raise ConfigError("model", f"{f} was trained with another model")
        if ck.seed != cfg["training"]["seed"]:
            raise ConfigError("training.seed", f"{f} was trained with seed {ck.seed}")
    return cks


def experiment_hash(cfg: dict) -> str:
    # the output location is environment, not experiment identity
    trimmed = {k: v for k, v in cfg.items() if k != "out"}
    return csvio.config_hash(trimmed)


def out_dir(cfg: dict, *parts: str) -> Path:
    """`out`, or the directory `parts` names below it, made if missing."""
    d = Path(cfg["out"], *parts)
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError("out", f"cannot make directory {d}: {e.strerror}")
    return d


def emit(cfg: dict, subcommand: str, files: dict[str, tuple[list[str], list[tuple]]]) -> Path:
    """Write each {file name: (header, rows)} as a CSV carrying the run's
    manifest line, then `<subcommand>.manifest.json`; return the output dir."""
    d = out_dir(cfg)
    manifest = {"subcommand": subcommand, "config_sha256": experiment_hash(cfg),
                "seed": cfg["seed"], "version": csvio.__version__}
    for name, (header, rows) in files.items():
        csvio.write_csv(d / name, header, rows, manifest=manifest)
    csvio.write_manifest(d / f"{subcommand}.manifest.json", manifest)
    return d


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train_toy(cfg: dict) -> int:
    d = out_dir(cfg, "checkpoints")  # before training: a bad `out` fails at once
    cks = train_sgd(build_task(cfg), **cfg["training"], out_dir=d)
    emit(cfg, "train-toy", {
        "training.csv": (["step", "train_loss"], [(c.step, c.train_loss) for c in cks]),
    })
    print(f"wrote {len(cks)} checkpoints to {d}")
    return 0


def cmd_estimate_llc(cfg: dict) -> int:
    task = build_task(cfg)
    llc_cfg, seed = build_llc_config(cfg), cfg["llc"]["seed"]

    def estimates(share):
        # one call samples a worker's share of the checkpoints, sharing its
        # draws; estimate k of a stack is that of w_star[k] alone, so the bytes
        # do not depend on the split. A failed share makes fan_out rerun this
        # on every checkpoint, which names the lowest that diverged.
        try:
            return estimate_llc(task, llc_cfg, seed=seed,
                                w_star=np.stack([ck.params for ck in share]))
        except ChainDivergedError as e:
            raise at_checkpoint(e, share[e.checkpoint])

    cks = load_checkpoints(cfg)
    ests = fan_out(estimates, cks)
    files = {}
    if cfg["llc"]["write_traces"]:
        files["llc_traces.csv"] = (["checkpoint_step", "step", "chain", "loss"], [
            (ck.step, *row) for ck, est in zip(cks, ests) for row in est.trace_rows()])
    files["llc.csv"] = (["step", "lambda_hat", "nbeta", "gamma", "step_size", "chains", "seed"], [
        (ck.step, est.lambda_hat, llc_cfg.nbeta, llc_cfg.gamma, llc_cfg.step_size,
         llc_cfg.chains, seed) for ck, est in zip(cks, ests)])
    d = emit(cfg, "estimate-llc", files)
    print(f"estimated {len(cks)} checkpoints -> {d / 'llc.csv'}")
    return 0


SWEEP_HEADER = ["step", "scheme", "control_parameter", "delta_loss",
                "critical_value", "epsilon", "seed"]


def at_checkpoint(e: RuntimeError, ck: Checkpoint) -> RuntimeError:
    """`e`, a numerical failure on `ck`, named by the checkpoint's training step."""
    e.args = (f"{e} of the checkpoint at training step {ck.step}",)
    return e


def fan_out(fn: Callable, items: list) -> list:
    """fn(items), a list of one result per item, spread over one worker per
    usable CPU: worker w makes one call, fn(items[w::workers]), and the
    shares' results are joined back in item order.

    Worker 0 is this process, the others forked children that pickle their
    share's results back over a pipe and end with os._exit (no inherited
    stdio flushed, no atexit hook run). Nothing forks for one item or one
    CPU, without os.fork, or while this process has other threads, which a
    fork can deadlock. If any share is left without results (its call
    raised, its child died, or no child could be forked), fn(items) runs
    again here, so a failure raises as the serial call would.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    workers = max(1, min(len(items), cpus or 1)) if forkable else 1
    if workers == 1:
        return fn(items)
    shares, children = [None] * workers, []
    try:
        for w in range(1, workers):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the unforked shares stay empty
                os.close(r)
                os.close(wr)
                break
            if pid == 0:
                try:
                    os.close(r)
                    with open(wr, "wb") as pipe:
                        pickle.dump(fn(items[w::workers]), pipe)
                finally:
                    os._exit(0)
            os.close(wr)
            children.append((pid, open(r, "rb")))
        with contextlib.suppress(Exception):  # rerun below, where it raises
            shares[0] = fn(items[::workers])
        for w, (_, pipe) in enumerate(children, 1):
            # nothing to load if the child died or its call raised
            with contextlib.suppress(EOFError, pickle.UnpicklingError):
                shares[w] = pickle.load(pipe)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    if any(share is None for share in shares):
        return fn(items)
    joined = [None] * len(items)
    for w, share in enumerate(shares):
        joined[w::workers] = share
    return joined


def sweep(cfg: dict, subcommand: str, rows_for: Callable[[MlpTask, Checkpoint], list[tuple]],
          header: list[str] = SWEEP_HEADER) -> int:
    """The loop every sweep runs: `rows_for(task, ck)` gives each checkpoint's
    rows, computed share by share by `fan_out`, which go to one CSV under `out`."""
    task = build_task(cfg)

    def rows_at(ck):
        try:
            return rows_for(task, ck)
        except RuntimeError as e:
            raise at_checkpoint(e, ck)

    rows = [row for ck_rows in fan_out(lambda cks: [rows_at(ck) for ck in cks],
                                       load_checkpoints(cfg)) for row in ck_rows]
    name = f"sweep_{subcommand.removesuffix('-sweep')}.csv"
    d = emit(cfg, subcommand, {name: (header, rows)})
    print(f"wrote {len(rows)} rows -> {d / name}")
    return 0


def critical_rows(cfg: dict, scheme: str, ck: Checkpoint,
                  results: list[CriticalResult]) -> list[tuple]:
    """A checkpoint's sweep rows, one per epsilon, from its search's results."""
    return [(ck.step, scheme, res.value, res.delta_loss, res.critical_value, eps, cfg["seed"])
            for eps, res in zip(cfg["epsilons"], results)]


def cmd_quantize_sweep(cfg: dict) -> int:
    return sweep(cfg, "quantize-sweep", lambda task, ck: critical_rows(cfg, "quantize", ck,
                 critical_nq(ck.params, cfg["epsilons"], task.full_loss, **cfg["quantize"])))


def cmd_factorize_sweep(cfg: dict) -> int:
    return sweep(cfg, "factorize-sweep", lambda task, ck: critical_rows(cfg, "factorize", ck,
                 critical_compression_fraction(task.model, ck.params, cfg["epsilons"],
                                               task.full_loss)))


def cmd_noise_sweep(cfg: dict) -> int:
    return sweep(cfg, "noise-sweep", lambda task, ck: critical_rows(
        cfg, f"noise_{cfg['noise']['mode']}", ck,
        critical_sigma(ck.params, cfg["epsilons"], loss_eval=task.full_loss, **cfg["noise"])))


def cmd_prune_sweep(cfg: dict) -> int:
    def rows_for(task, ck):
        results = prune_and_retrain(task, ck.params, **cfg["prune"])
        # rugged curves: no critical-threshold search for pruning; the
        # control run is not a row, only what each row is measured against
        return [(ck.step, "prune", frac, res.delta_loss, None, cfg["epsilons"][0], cfg["seed"],
                 res.delta_vs_control)
                for frac, res in zip(cfg["prune"]["keep_fractions"], results)]
    return sweep(cfg, "prune-sweep", rows_for, SWEEP_HEADER + ["delta_vs_control"])


def cmd_volume_fit(cfg: dict) -> int:
    v = cfg["volume"]
    landscape = build_landscape(cfg)
    ladder = default_ladder(k_max=v["ladder_max_k"])
    curve = volume_curve(landscape, ladder, v["samples"], seed=v["seed"])
    fit = fit_scaling(curve, v["multiplicity_mode"], max_epsilon=v["max_epsilon"])
    emit(cfg, "volume-fit", {
        "volume.csv": (["epsilon", "volume", "se"], list(zip(
            curve.epsilons.tolist(), curve.volumes.tolist(), curve.standard_errors.tolist()))),
        "volume_fit.csv": (
            ["landscape", "lambda", "multiplicity", "log_c", "r_squared", "eps_min", "eps_max",
             "n_points"],
            [(landscape.name, fit.lam, fit.multiplicity, fit.log_c, fit.r_squared,
              fit.epsilon_window[0], fit.epsilon_window[1], fit.n_points)]),
    })
    print(f"{landscape.name}: lambda={fit.lam:.4f} m={fit.multiplicity} R2={fit.r_squared:.5f}")
    return 0


def cmd_mdl_redundancy(cfg: dict) -> int:
    m = cfg["mdl"]
    model = SingularBernoulli()
    a = m["a"]
    files = {}
    rows = []
    for k in m["n_powers"]:
        n = 2 ** k
        net = build_eps_net(model, a / n)
        # a Monte Carlo cross-check of the exact V^R, reported only
        vr_mc, vr_mc_se = mc_ball_volumes(model, net, m["mc_samples"], m["net_seed"])
        files[f"net_n{n}.csv"] = (
            ["center_index", "p_one", "vr_volume", "code_length", "vr_mc", "vr_mc_se"],
            list(zip(range(net.n_centers), net.thetas.tolist(), net.vr_volumes.tolist(),
                     net.code_lengths.tolist(), vr_mc.tolist(), vr_mc_se.tolist())))
        for s in range(m["n_seeds"]):
            run = two_part_redundancy(model, model.truth, n=n, a=a, seed=s, net=net)
            # lengths reported in bits at the CSV boundary
            rows.append((n, a, s, run.code_length / LN2,
                         run.excess_data_nats / LN2, run.redundancy / LN2))
    files["redundancy.csv"] = (["n", "a", "seed", "code_length", "excess_bits", "redundancy"],
                               rows)
    d = emit(cfg, "mdl-redundancy", files)
    print(f"wrote {len(rows)} rows -> {d / 'redundancy.csv'}")
    return 0


def cmd_lemma_audit(cfg: dict) -> int:
    au = cfg["audit"]
    n = au["instances"]
    m_simplex = au["m_simplex"]
    rng = rng_stream(au["seed"], 0)
    qs, ps, p2s = (sample_restricted(rng, n, au["outcomes"], m_simplex) for _ in range(3))
    # one stacked call per validator; `passed` is an array over the n instances
    results = [(name, n, int(np.count_nonzero(np.logical_not(chk.passed)))) for name, chk in (
        ("kl_l2", validate_kl_l2(qs, ps, m_simplex)),
        ("triangle", validate_triangle(qs, ps, p2s, m_simplex)),
        ("variance", validate_variance_bound(qs, ps)),
    )]

    model = SingularBernoulli(m_simplex=m_simplex)
    rng_inc = rng_stream(au["seed"], 1)
    lo, hi = model.image_interval()
    grid = np.linspace(lo, hi, 20_001)
    violations = 0
    for _ in range(au["inclusion_configs"]):
        eps = float(np.exp(rng_inc.uniform(np.log(1e-4), np.log(1e-1))))
        w_q = model.bounds.sample(rng_inc, 1)[0]
        theta_q = float(model.prob_one(w_q))
        # pick a center within the KL ball of radius eps around q
        ok = grid[kl_bernoulli(theta_q, grid) <= eps]
        theta_star = float(rng_inc.choice(ok))
        chk = validate_volume_inclusions(model, theta_q, theta_star, eps)
        violations += not (chk.passed_pointwise and chk.passed_volumes)
    results.append(("volume_inclusion", au["inclusion_configs"], violations))

    emit(cfg, "lemma-audit", {"audit.csv": (["validator", "instances", "violations"], results)})
    total = sum(v for _, _, v in results)
    for name, count, v in results:
        print(f"{name}: {v} violations in {count} instances")
    return 0 if total == 0 else 2


def cmd_analyze(cfg: dict) -> int:
    an = cfg["analyze"]
    d = out_dir(cfg)
    scheme = an["scheme"]
    sweep_path = d / f"sweep_{scheme}.csv"
    llc_path = d / "llc.csv"
    for p in (sweep_path, llc_path):
        if not p.exists():
            raise ConfigError("analyze", f"missing input {p}")
    _, _, sweep_rows = csvio.read_csv(sweep_path)
    _, _, llc_rows = csvio.read_csv(llc_path)
    eps = an["epsilon"]
    held = sorted({float(r[5]) for r in sweep_rows})
    if eps not in held:
        raise ConfigError("analyze.epsilon", f"{sweep_path} holds epsilons {held} only")
    lam_by_step = {int(r[0]): float(r[1]) for r in llc_rows}
    joined = []
    for r in sweep_rows:
        step, crit, row_eps = int(r[0]), r[4], float(r[5])
        if row_eps == eps and crit != "" and step in lam_by_step:
            joined.append((step, lam_by_step[step], float(crit)))
    steps = [j[0] for j in joined]
    result = analyze_fit(steps, [j[1] for j in joined], [j[2] for j in joined],
                         excluded_steps=an["excluded_steps"])
    fitted = iter(result.fit.residuals.tolist())
    resid = [(*j, inc, next(fitted) if inc else None)
             for j, inc in zip(joined, result.included.tolist())]
    emit(cfg, "analyze", {
        "analysis.csv": (
            ["scheme", "epsilon", "slope", "intercept", "r_squared", "n_included", "n_rows"],
            [(scheme, eps, result.slope, result.intercept, result.r_squared,
              int(result.included.sum()), len(steps))]),
        "analysis_residuals.csv": (
            ["step", "lambda_hat", "critical_value", "included", "residual"], resid),
    })
    print(f"{scheme} vs lambda_hat: slope={result.slope:.4f} "
          f"intercept={result.intercept:.4f} R2={result.r_squared:.4f} "
          f"({int(result.included.sum())}/{len(steps)} checkpoints)")
    return 0


COMMANDS = {
    "train-toy": cmd_train_toy,
    "estimate-llc": cmd_estimate_llc,
    "volume-fit": cmd_volume_fit,
    "quantize-sweep": cmd_quantize_sweep,
    "factorize-sweep": cmd_factorize_sweep,
    "noise-sweep": cmd_noise_sweep,
    "prune-sweep": cmd_prune_sweep,
    "mdl-redundancy": cmd_mdl_redundancy,
    "lemma-audit": cmd_lemma_audit,
    "analyze": cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="basinlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override top-level seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--epsilon", default=None, help="comma-separated loss tolerances")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.out, args.epsilon)
        return COMMANDS[args.subcommand](cfg)
    except ValueError as e:
        print(f"error ({args.subcommand}): {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"numerical failure ({args.subcommand}): {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
