"""The three benchmark workloads: seeded configs, timed CLI calls, output checks.

Each workload drives ``basinlab.cli.main`` in this process. Its inputs are
generated from the workload seed: every section seed of ``DEFAULT_CONFIG``
is offset by it (bar those a workload names in ``fixed_seeds``), so seed 0
keeps the library defaults. The sizes below are far smaller than
``DEFAULT_CONFIG`` so that each CLI call is short and repeats many times in
one run of the benchmark; the per-call shapes (B=64 sampler batches, B=32
SGD batches, N=1024 full-batch forwards, 16-wide layers, 8 chains) are the
defaults, so per-call costs carry over to full-size runs. README.md gives
the reasons.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from basinlab import csvio
from basinlab.cli import DEFAULT_CONFIG
from basinlab.cli import main as cli_main

# (section, key) of every seed in DEFAULT_CONFIG. The top-level seed only
# labels outputs, so the workload seed is written into each section.
SECTION_SEEDS = (
    ("data", "seed"), ("training", "seed"), ("llc", "seed"), ("noise", "seed"),
    ("prune", "seed"), ("mdl", "net_seed"), ("audit", "seed"), ("volume", "seed"),
)

# Every subcommand once on a tiny config, as part of set-up: first-call costs
# (lazy imports, BLAS start-up, allocator growth) land in setup_s.
WARMUP = {
    "training": {"steps": 300, "checkpoint_schedule": [100, 200, 300]},
    "llc": {"chains": 2, "steps_per_chain": 20, "burn_in": 5, "baseline_batches": 2},
    "prune": {"keep_fractions": [0.5], "retrain_steps": 10},
    "mdl": {"n_powers": [6, 7], "n_seeds": 2, "mc_samples": 20_000},
    "audit": {"instances": 50, "inclusion_configs": 2},
    "volume": {"samples": 200_000},
}

# n = 2^k of the epsilon nets, one mdl-redundancy call each, so that no
# single timed call runs for long (see README.md, "Timing method").
MDL_POWERS = (7, 8, 9, 10, 11)

# Known exponent and multiplicity of each volume-fit geometry (criterion c01
# and the Bernoulli KL landscape of c04).
GEOMETRIES = (
    ("quadratic", {"landscape": "quadratic"}, 1.0, 1),
    ("nc-k1", {"landscape": "normal_crossing", "exponents": [1], "active_dims": [0]}, 0.5, 1),
    ("nc-k2", {"landscape": "normal_crossing", "exponents": [2], "active_dims": [0]}, 0.25, 1),
    ("bernoulli-kl", {"landscape": "bernoulli_kl"}, 0.5, 2),
)


def merge(base: dict, override: dict) -> dict:
    """Copy of base with override applied one section deep, like load_config."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict):
            out[key].update(copy.deepcopy(value))
        else:
            out[key] = copy.deepcopy(value)
    return out


def seeded_config(seed: int, override: dict, fixed: tuple[str, ...] = ()) -> dict:
    """DEFAULT_CONFIG with override, every section seed not in `fixed`
    offset by `seed`, and the top-level seed set to `seed`."""
    cfg = merge({k: v for k, v in DEFAULT_CONFIG.items() if k != "out"}, override)
    cfg["seed"] = seed
    for section, key in SECTION_SEEDS:
        if section not in fixed:
            cfg[section][key] = DEFAULT_CONFIG[section][key] + seed
    return cfg


@dataclass(frozen=True)
class Call:
    """One CLI invocation: subcommand, config file name, output subdirectory."""

    subcommand: str
    config: str = "main"
    out: str = "run"

    @property
    def stage(self) -> str:
        return self.subcommand.replace("-", "_") + "_s"


@dataclass
class PassResult:
    seconds: float
    stages: dict[str, float]
    calls: list[float]
    exit_codes: list[tuple[str, int]]
    hashes: dict[str, str]
    traced: bool
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    science: dict = field(default_factory=dict)


class Workload:
    """A seeded set of CLI calls: set-up calls, then the timed pass."""

    name = ""
    override: dict = {}
    # sections whose seeds keep their DEFAULT_CONFIG value at every --seed
    fixed_seeds: tuple[str, ...] = ()
    setup_calls: tuple[Call, ...] = ()
    pass_calls: tuple[Call, ...] = ()
    # the two stage times reported as stage1_s and stage2_s, in run order
    headline: tuple[str, str] = ("", "")

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.cfg = seeded_config(seed, self.override, self.fixed_seeds)

    def configs(self) -> dict[str, dict]:
        return {"main": self.cfg}

    def write_configs(self, subdir: str, cfgs: dict[str, dict]) -> None:
        d = self.work / subdir
        d.mkdir(parents=True, exist_ok=True)
        for name, cfg in cfgs.items():
            (d / f"{name}.json").write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")

    def invoke(self, subdir: str, call: Call) -> int:
        d = self.work / subdir
        argv = [call.subcommand, "--config", str(d / f"{call.config}.json"),
                "--out", str(d / call.out)]
        # the CLI prints one summary line per call; keep the benchmark's own
        # output readable. Errors still reach stderr.
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return cli_main(argv)
            except Exception:
                traceback.print_exc()
                return -1

    def setup(self) -> None:
        """Config generation, set-up calls and the warm-up. Raises on failure."""
        self.write_configs("bench", self.configs())
        warm = {k: merge(v, WARMUP) for k, v in self.configs().items()}
        self.write_configs("warmup", warm)
        for call in self.setup_calls:
            self.require(self.invoke("bench", call), call)
        for call in self.setup_calls + self.pass_calls:
            self.require(self.invoke("warmup", call), call)

    def require(self, code: int, call: Call) -> None:
        if code != 0:
            raise RuntimeError(f"set-up call {call.subcommand} exited with {code}")

    def run_pass(self, span=None) -> PassResult:
        """Run the timed calls once. `span(name)` is a context manager for tracing."""
        stages: dict[str, float] = {}
        calls = []
        codes = []
        t_pass = perf_counter()
        for call in self.pass_calls:
            ctx = span(f"cli.{call.subcommand}") if span else contextlib.nullcontext()
            t0 = perf_counter()
            with ctx:
                code = self.invoke("bench", call)
            calls.append(perf_counter() - t0)
            stages[call.stage] = stages.get(call.stage, 0.0) + calls[-1]
            codes.append((call.subcommand, code))
        seconds = perf_counter() - t_pass
        return PassResult(seconds, stages, calls, codes, self.csv_hashes(),
                          traced=span is not None)

    def csv_hashes(self) -> dict[str, str]:
        run = self.work / "bench"
        return {str(p.relative_to(run)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(run.rglob("*.csv"))}

    def checks(self) -> list[tuple[str, bool, str]]:
        """(name, passed, detail) for each correctness check on the outputs."""
        raise NotImplementedError

    def science(self) -> dict:
        """Reported figures that are statistical in the seed, so not gated."""
        return {}

    def read(self, *parts: str) -> tuple[list[str], list[list[str]]]:
        _, header, rows = csvio.read_csv(self.work.joinpath("bench", *parts))
        return header, rows


def column(header: list[str], rows: list[list[str]], name: str) -> np.ndarray:
    i = header.index(name)
    return np.array([float(r[i]) for r in rows])


def sweep_within_tolerance(header, rows) -> tuple[bool, str]:
    dl = column(header, rows, "delta_loss")
    eps = column(header, rows, "epsilon")
    ok = bool(rows) and bool(np.all(np.isfinite(dl)) and np.all(dl <= eps))
    return ok, f"{len(rows)} rows, max delta_loss - epsilon = {float(np.max(dl - eps)):.4g}"


class CheckpointSweep(Workload):
    """Set-up trains 8 checkpoints; the pass estimates and compresses them."""

    name = "checkpoint-sweep"
    override = {
        "training": {"steps": 3200, "checkpoint_schedule": [400, 800, 1600, 3200]},
        "llc": {"steps_per_chain": 50, "burn_in": 10},
        "epsilons": [0.5],
    }
    # The same checkpoints at every seed: the quantize search takes 5, 7 or
    # 9 probes per checkpoint depending on the trained weights: 22 to 28
    # probes over four checkpoints at seeds 1 to 10 (README.md, "Seeds").
    fixed_seeds = ("data", "training")
    setup_calls = (Call("train-toy"),)
    pass_calls = (Call("estimate-llc"), Call("quantize-sweep"), Call("noise-sweep"),
                  Call("factorize-sweep"), Call("analyze"))
    headline = ("estimate_llc_s", "quantize_sweep_s")

    def checks(self):
        n_ckpt = len(self.cfg["training"]["checkpoint_schedule"])
        h, rows = self.read("run", "llc.csv")
        lam = column(h, rows, "lambda_hat")
        out = [("llc.finite", len(lam) == n_ckpt and bool(np.all(np.isfinite(lam))),
                f"{len(lam)} estimates")]
        for scheme in ("quantize", "noise", "factorize"):
            ok, detail = sweep_within_tolerance(*self.read("run", f"sweep_{scheme}.csv"))
            out.append((f"{scheme}.within_epsilon", ok, detail))
        h, rows = self.read("run", "analysis.csv")
        r2 = column(h, rows, "r_squared")
        out.append(("analysis.finite", len(r2) == 1 and bool(np.isfinite(r2[0])),
                    f"R2 = {r2[0]:.4f}" if len(r2) else "no fit row"))
        return out

    def science(self):
        h, rows = self.read("run", "llc.csv")
        lam = column(h, rows, "lambda_hat")
        h, rows = self.read("run", "analysis.csv")
        r2 = float(column(h, rows, "r_squared")[0])
        rising = int(np.sum(np.diff(lam) >= 0))
        return {
            "analysis_r_squared": r2,
            "lambda_nondecreasing_pairs": rising,
            "lambda_pairs": len(lam) - 1,
            "c09_gates_pass": r2 >= 0.8 and rising >= 0.8 * (len(lam) - 1),
        }


class TrainPrune(Workload):
    """The pass trains from scratch, then prunes and retrains every checkpoint."""

    name = "train-prune"
    override = {
        "training": {"steps": 1600, "checkpoint_schedule": [800, 1600]},
        "prune": {"retrain_steps": 50},
    }
    pass_calls = (Call("train-toy"), Call("prune-sweep"))
    headline = ("train_toy_s", "prune_sweep_s")

    def checks(self):
        h, rows = self.read("run", "training.csv")
        loss = column(h, rows, "train_loss")
        n_rows = (len(self.cfg["training"]["checkpoint_schedule"])
                  * len(self.cfg["prune"]["keep_fractions"]))
        h, prows = self.read("run", "sweep_prune.csv")
        dl = column(h, prows, "delta_loss")
        return [
            ("training.loss_decreases", len(loss) >= 2 and bool(loss[-1] < loss[0]),
             f"{loss[0]:.4f} -> {loss[-1]:.4f}" if len(loss) else "no rows"),
            ("prune.rows_finite", len(dl) == n_rows and bool(np.all(np.isfinite(dl))),
             f"{len(dl)}/{n_rows} rows"),
        ]


class McGeometry(Workload):
    """Two-part-code redundancy, volume fits on four geometries, lemma audit."""

    name = "mc-geometry"
    override = {
        "mdl": {"mc_samples": 250_000},
        "audit": {"instances": 500, "inclusion_configs": 4},
        "volume": {"samples": 1_000_000, "ladder_max_k": 14},
    }
    pass_calls = tuple(
        Call("mdl-redundancy", f"mdl-{k}", f"run/mdl-{k}") for k in MDL_POWERS
    ) + tuple(
        Call("volume-fit", f"volume-{g}", f"run/volume-{g}") for g, *_ in GEOMETRIES
    ) + (Call("lemma-audit"),)
    headline = ("mdl_redundancy_s", "volume_fit_s")

    def configs(self):
        cfgs = {"main": self.cfg}
        for k in MDL_POWERS:
            cfgs[f"mdl-{k}"] = merge(self.cfg, {"mdl": {"n_powers": [k]}})
        for g, landscape, _, _ in GEOMETRIES:
            cfgs[f"volume-{g}"] = merge(self.cfg, {"volume": landscape})
        return cfgs

    def redundancy(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, median redundancy in nats) per n, from the CSVs in bits."""
        h, rows = self.read("run", f"mdl-{MDL_POWERS[0]}", "redundancy.csv")
        for k in MDL_POWERS[1:]:
            rows += self.read("run", f"mdl-{k}", "redundancy.csv")[1]
        n = column(h, rows, "n")
        red = column(h, rows, "redundancy") * math.log(2.0)
        ns = np.unique(n)
        return ns, np.array([np.median(red[n == v]) for v in ns])

    def checks(self):
        ns, med = self.redundancy()
        slope = float(np.polyfit(np.log(ns), med, 1)[0]) if len(ns) >= 2 else float("nan")
        out = [
            ("redundancy.increasing", len(ns) >= 2 and bool(np.all(np.diff(med) > 0)),
             f"medians {np.round(med, 3).tolist()}"),
            ("redundancy.slope", abs(slope - 0.5) <= 0.15, f"slope {slope:.4f} (0.5 +/- 0.15)"),
        ]
        for g, _, lam_true, m_true in GEOMETRIES:
            h, rows = self.read("run", f"volume-{g}", "volume_fit.csv")
            lam = float(rows[0][h.index("lambda")])
            m = int(rows[0][h.index("multiplicity")])
            out.append((f"volume.{g}", abs(lam - lam_true) <= 0.1 * lam_true and m == m_true,
                        f"lambda {lam:.4f} m {m} (true {lam_true}, {m_true})"))
        h, rows = self.read("run", "audit.csv")
        viol = column(h, rows, "violations")
        out.append(("audit.zero_violations", len(viol) == 4 and bool(np.all(viol == 0)),
                    f"{int(viol.sum())} violations in {len(viol)} validators"))
        return out

    def science(self):
        ns, med = self.redundancy()
        return {"redundancy_slope": float(np.polyfit(np.log(ns), med, 1)[0])}


WORKLOADS = {w.name: w for w in (CheckpointSweep, TrainPrune, McGeometry)}
