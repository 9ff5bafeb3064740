"""Command-line experiment runner.

Subcommands write deterministic CSV files (plus a JSON run manifest) into the
output directory; rerunning with the same config and seed reproduces every
byte. Exit codes: 0 success, 1 configuration or input error, 2 numerical
failure (divergence, unreachable tolerance, covering failure, a net ball
that drew no Monte Carlo sample, audit violation).

    basinlab train-toy --config cfg.json --out runs/a
    basinlab estimate-llc --config cfg.json --out runs/a
    basinlab quantize-sweep --config cfg.json --out runs/a --epsilon 0.5
    basinlab analyze --config cfg.json --out runs/a
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import sys
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
from .errors import ConfigError
from .landscapes import Bounds, NormalCrossingSpec, make_normal_crossing, make_quadratic
from .llc import LlcConfig, Preconditioner, estimate_llc
from .mdl import build_eps_net, two_part_redundancy, validate_kl_l2, validate_triangle, validate_variance_bound, validate_volume_inclusions
from .mlp import MlpSpec, MlpTask, make_teacher_task
from .rng import rng_stream
from .simplex import SimplexDist, kl_bernoulli, sample_restricted
from .training import load_checkpoint, train_sgd
from .volume import default_ladder, fit_scaling, volume_curve

LN2 = float(np.log(2.0))

DEFAULT_CONFIG = {
    "seed": 0,
    "out": "runs/default",
    "model": {"layer_sizes": [4, 16, 16, 4], "loss": "mse"},
    "data": {"n_samples": 1024, "seed": 13, "teacher_gain": 3.0, "input_scale": 1.0},
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
    "factorize": {},
    "noise": {"mode": "relative", "noise_draws": 8, "seed": 2},
    "prune": {
        "keep_fractions": [0.9375, 0.875, 0.75, 0.5, 0.25], "learning_rate": 0.003,
        "retrain_steps": 1000, "batch_size": 32, "seed": 3,
    },
    "volume": {
        "landscape": "quadratic", "dim": 2, "exponents": None, "active_dims": None,
        "half_width": 1.0, "ladder_min_k": 2, "ladder_max_k": 10,
        "samples": 1_000_000, "seed": 0, "multiplicity_mode": "select_by_fit",
        "max_epsilon": 0.25,
    },
    "mdl": {
        "n_powers": [6, 7, 8, 9, 10, 11, 12, 13, 14], "a": 0.1, "n_seeds": 50,
        "mc_samples": 1_000_000, "net_seed": 0, "m_simplex": 0.2,
    },
    "audit": {"instances": 10_000, "m_simplex": 0.2, "outcomes": 3,
              "inclusion_configs": 20, "seed": 0},
    "analyze": {"scheme": "quantize", "epsilon": 0.5, "excluded_steps": [], "gnuplot": False},
}


# Keys whose default does not fix their type: one prototype per type taken.
ALTERNATIVES = {
    "llc.burn_in": (0, None), "llc.preconditioner": ("none", dataclasses.asdict(Preconditioner())),
    "volume.exponents": (None, [0]), "volume.active_dims": (None, [0]),
    "volume.multiplicity_mode": ("select_by_fit", 0), "analyze.excluded_steps": ([0],),
}
# Checks of a well-typed value: (passes, message on failure); the counts first.
VALUE_CHECKS = dict.fromkeys((
    "data.n_samples", "training.steps", "training.batch_size", "llc.batch_size",
    "prune.batch_size", "llc.chains", "llc.steps_per_chain", "llc.baseline_batches",
    "noise.noise_draws", "volume.dim", "volume.samples", "mdl.mc_samples",
    "audit.instances", "audit.inclusion_configs",
), (lambda v: v >= 1, "must be >= 1")) | {
    # checkpoint headers store the training seed as a u64
    "training.seed": (lambda v: 0 <= v < 2**64, "must be in [0, 2**64)"),
    "epsilons": (lambda v: v and min(v) > 0, "must be a nonempty list of positive numbers"),
    "volume.multiplicity_mode": (lambda v: v == "select_by_fit" or type(v) is int,
                                 "expected 'select_by_fit' or an integer"),
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
        except FileNotFoundError:
            raise ConfigError("config", f"file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError("config", f"invalid JSON: {e}")
        cfg = merge_config("", cfg, user)
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


def build_task(cfg: dict):
    return make_teacher_task(MlpSpec(**cfg["model"]), **cfg["data"])


def build_landscape(cfg: dict):
    v = cfg["volume"]
    name = v["landscape"]
    bounds = Bounds.symmetric(v["dim"], v["half_width"])
    if name == "quadratic":
        return make_quadratic(v["dim"], bounds)
    if name == "normal_crossing":
        if not v["exponents"]:
            raise ConfigError("volume.exponents", "required for normal_crossing")
        spec = NormalCrossingSpec(dim=v["dim"], exponents=v["exponents"],
                                  active_dims=v["active_dims"])
        return make_normal_crossing(spec, bounds)
    if name == "bernoulli_kl":
        return SingularBernoulli().kl_landscape()
    raise ConfigError("volume.landscape", f"unknown landscape {name!r}")


def checkpoints_dir(cfg: dict) -> Path:
    return Path(cfg["out"]) / "checkpoints"


def load_checkpoints(cfg: dict):
    """The checkpoints under `out`. Each header must name the model and the
    training seed of `cfg`; the data seed is not in the header."""
    d = checkpoints_dir(cfg)
    files = sorted(d.glob("ckpt_*.bin"))
    if not files:
        raise ConfigError("out", f"no checkpoint files under {d}; run train-toy first")
    cks = [load_checkpoint(f) for f in files]
    spec_hash = MlpSpec(**cfg["model"]).spec_hash()
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


def out_dir(cfg: dict) -> Path:
    d = Path(cfg["out"])
    d.mkdir(parents=True, exist_ok=True)
    return d


def emit(cfg: dict, subcommand: str, files: dict[str, tuple[list[str], list[tuple]]]) -> Path:
    """Write each {file name: (header, rows)} as a CSV carrying the run's
    manifest line, then `<subcommand>.manifest.json`; return the output dir."""
    d = out_dir(cfg)
    cfg_hash = experiment_hash(cfg)
    manifest = {"subcommand": subcommand, "config": cfg_hash, "seed": cfg["seed"],
                "version": csvio.__version__}
    for name, (header, rows) in files.items():
        csvio.write_csv(d / name, header, rows, manifest=manifest)
    csvio.write_manifest(d / f"{subcommand}.manifest.json", subcommand, cfg_hash, cfg["seed"])
    return d


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train_toy(cfg: dict) -> int:
    cks = train_sgd(build_task(cfg), **cfg["training"], out_dir=checkpoints_dir(cfg))
    emit(cfg, "train-toy", {
        "training.csv": (["step", "train_loss"], [(c.step, c.train_loss) for c in cks]),
    })
    print(f"wrote {len(cks)} checkpoints to {checkpoints_dir(cfg)}")
    return 0


def cmd_estimate_llc(cfg: dict) -> int:
    task = build_task(cfg)
    llc = {k: v for k, v in cfg["llc"].items() if k not in ("seed", "write_traces")}
    pc = llc["preconditioner"]
    llc["preconditioner"] = Preconditioner(kind=pc) if isinstance(pc, str) else Preconditioner(**pc)
    llc_cfg = LlcConfig(**llc)
    seed, write_traces = cfg["llc"]["seed"], cfg["llc"]["write_traces"]
    rows = []
    trace_rows = []
    for ck in load_checkpoints(cfg):
        est = estimate_llc(task, llc_cfg, seed=seed, w_star=ck.params)
        rows.append((ck.step, est.lambda_hat, llc_cfg.nbeta, llc_cfg.gamma,
                     llc_cfg.step_size, llc_cfg.chains, seed))
        if write_traces:
            trace_rows.extend((ck.step, s, c, loss) for s, c, loss in est.trace_rows())
    files = {}
    if write_traces:
        files["llc_traces.csv"] = (["checkpoint_step", "step", "chain", "loss"], trace_rows)
    files["llc.csv"] = (["step", "lambda_hat", "nbeta", "gamma", "step_size", "chains", "seed"],
                        rows)
    d = emit(cfg, "estimate-llc", files)
    print(f"estimated {len(rows)} checkpoints -> {d / 'llc.csv'}")
    return 0


SWEEP_HEADER = ["step", "scheme", "control_parameter", "delta_loss",
                "critical_value", "epsilon", "seed"]


def sweep(cfg: dict, subcommand: str, scheme: str,
          search: Callable[[MlpTask, np.ndarray, float], CriticalResult]) -> int:
    """One sweep row per (checkpoint, epsilon), from the CriticalResult that
    `search(task, params, epsilon)` returns."""
    task = build_task(cfg)
    rows = []
    for ck in load_checkpoints(cfg):
        for eps in cfg["epsilons"]:
            res = search(task, ck.params, eps)
            rows.append((ck.step, scheme, res.value, res.delta_loss, res.critical_value,
                         eps, cfg["seed"]))
    name = f"sweep_{subcommand.removesuffix('-sweep')}.csv"
    d = emit(cfg, subcommand, {name: (SWEEP_HEADER, rows)})
    print(f"wrote {len(rows)} rows -> {d / name}")
    return 0


def cmd_quantize_sweep(cfg: dict) -> int:
    return sweep(cfg, "quantize-sweep", "quantize", lambda task, params, eps:
                 critical_nq(params, eps, task.full_loss, **cfg["quantize"]))


def cmd_factorize_sweep(cfg: dict) -> int:
    return sweep(cfg, "factorize-sweep", "factorize", lambda task, params, eps:
                 critical_compression_fraction(task.model, params, eps, task.full_loss))


def cmd_noise_sweep(cfg: dict) -> int:
    return sweep(cfg, "noise-sweep", f"noise_{cfg['noise']['mode']}", lambda task, params, eps:
                 critical_sigma(params, eps, loss_eval=task.full_loss, **cfg["noise"]))


def cmd_prune_sweep(cfg: dict) -> int:
    task = build_task(cfg)
    pr = {k: v for k, v in cfg["prune"].items() if k != "keep_fractions"}
    rows = []
    for ck in load_checkpoints(cfg):
        for frac in cfg["prune"]["keep_fractions"]:
            res = prune_and_retrain(task, ck.params, keep_fraction=frac, **pr)
            # rugged curves: no critical-threshold search for pruning
            rows.append((ck.step, "prune", frac, res.delta_loss, None,
                         cfg["epsilons"][0], cfg["seed"]))
    d = emit(cfg, "prune-sweep", {"sweep_prune.csv": (SWEEP_HEADER, rows)})
    print(f"wrote {len(rows)} rows -> {d / 'sweep_prune.csv'}")
    return 0


def cmd_volume_fit(cfg: dict) -> int:
    v = cfg["volume"]
    landscape = build_landscape(cfg)
    ladder = default_ladder(v["ladder_min_k"], v["ladder_max_k"])
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
    model = SingularBernoulli(m_simplex=m["m_simplex"])
    a = m["a"]
    files = {}
    rows = []
    for k in m["n_powers"]:
        n = 2 ** k
        net = build_eps_net(model, a / n, m["mc_samples"], seed=m["net_seed"])
        files[f"net_n{n}.csv"] = (
            ["center_index", "p_one", "vr_volume", "code_length"],
            [(i, float(net.thetas[i]), float(net.vr_volumes[i]), float(net.code_lengths[i]))
             for i in range(net.n_centers)])
        for s in range(m["n_seeds"]):
            run = two_part_redundancy(model, model.truth, n=n, a=a, seed=s, net=net)
            # lengths reported in bits at the CSV boundary
            rows.append((run.n, run.a, run.seed, run.code_length / LN2,
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

    def draw(count):
        return [SimplexDist(p, lower_bound=m_simplex)
                for p in sample_restricted(rng, count, au["outcomes"], m_simplex)]

    results = []
    qs, ps, p2s = draw(n), draw(n), draw(n)
    results.append(("kl_l2", n, sum(not validate_kl_l2(q, p, m_simplex).passed
                                    for q, p in zip(qs, ps))))
    results.append(("triangle", n, sum(not validate_triangle(q, p, p2, m_simplex).passed
                                       for q, p, p2 in zip(qs, ps, p2s))))
    results.append(("variance", n, sum(not validate_variance_bound(q, p).passed
                                       for q, p in zip(qs, ps))))

    model = SingularBernoulli(m_simplex=m_simplex)
    rng_inc = rng_stream(au["seed"], 1)
    violations = 0
    for i in range(au["inclusion_configs"]):
        eps = float(np.exp(rng_inc.uniform(np.log(1e-4), np.log(1e-1))))
        w_q = model.bounds.sample(rng_inc, 1)[0]
        theta_q = float(model.prob_one(w_q))
        # pick a center within the KL ball of radius eps around q
        lo, hi = model.image_interval()
        grid = np.linspace(lo, hi, 20_001)
        ok = grid[kl_bernoulli(theta_q, grid) <= eps]
        theta_star = float(rng_inc.choice(ok))
        chk = validate_volume_inclusions(model, theta_q, theta_star, eps,
                                         mc_samples=200_000, seed=au["seed"] + i)
        violations += not (chk.passed_pointwise and chk.passed_3se)
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
    if an["gnuplot"]:
        script = (
            "set datafile separator ','\n"
            f"set xlabel 'lambda_hat'\nset ylabel 'critical value ({scheme})'\n"
            f"plot 'analysis_residuals.csv' skip 2 using 2:3 with points title '{scheme}', \\\n"
            f"     {result.slope:.17g}*x + {result.intercept:.17g} title 'fit'\n"
        )
        (d / "analysis.gp").write_text(script, encoding="utf-8", newline="\n")
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
