"""Spans around basinlab's public functions, patched in from outside ``src/``.

Each wrapper records one span (name, parent, start, end) per call into flat
arrays held in memory; ``Tracer.save`` writes them out when the run ends.
A name is patched where it is looked up: ``basinlab.cli.build_eps_net`` is
the name the CLI calls, ``basinlab.mdl.kl_bernoulli`` the one ``mdl`` calls.
Per-layer metrics are derived from the spans afterwards, with self time as a
span's duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import os
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import basinlab.bernoulli
import basinlab.cli
import basinlab.compress
import basinlab.csvio
import basinlab.llc
import basinlab.mdl
import basinlab.training
from basinlab.bernoulli import SingularBernoulli
from basinlab.landscapes import Bounds
from basinlab.mlp import MlpModel, MlpTask

cli = basinlab.cli


def mlp_label(args, kwargs) -> str:
    """loss_and_grad(self, params, x, y, need_grad=True), split by batch shape."""
    need_grad = kwargs.get("need_grad", args[4] if len(args) > 4 else True)
    n = np.shape(args[2])[0]
    if need_grad:
        return f"mlp.grad_b{n}" if n in (32, 64) else "mlp.grad_other"
    return "mlp.fwd_full" if n == 1024 else "mlp.fwd_other"


class Tracer:
    """Span recorder plus the counters that spans cannot give."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.errors = 0
        self.counters: dict[str, int] = {}
        self.seen_probes: set = set()
        self.patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span for one CLI call; repeated probes are counted per call."""
        self.seen_probes = set()
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- patching --------------------------------------------------------

    def wrap(self, owner, attr: str, label, before=None, after=None) -> None:
        """Replace owner.attr by a recording wrapper. `label` is a name or a
        function of (args, kwargs); `before`/`after` update counters."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        fixed = label if isinstance(label, str) else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = tracer.open(fixed or label(args, kwargs))
            try:
                result = orig(*args, **kwargs)
            except Exception:
                tracer.errors += 1
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self.patched.append((owner, attr, orig))

    def probe_counter(self, fn, kind: str):
        """Count calls of a delta-loss probe whose (checkpoint, setting) was
        already evaluated within the same CLI call."""
        sig = inspect.signature(fn)

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = dict(bound.arguments)
            params = np.ascontiguousarray(a.pop("params"), dtype=float)
            a.pop("loss_eval")
            a.pop("search", None)
            key = (kind, hashlib.blake2b(params.tobytes(), digest_size=16).digest(),
                   tuple(sorted(a.items())))
            self.count("probes")
            if key in self.seen_probes:
                self.count("repeat_probes")
            self.seen_probes.add(key)

        return before

    def install(self) -> None:
        mdl, compress, llc = basinlab.mdl, basinlab.compress, basinlab.llc
        self.wrap(MlpModel, "loss_and_grad", mlp_label)
        self.wrap(MlpTask, "batch", "mlp.batch")
        self.wrap(cli, "train_sgd", "training.train_sgd")
        self.wrap(basinlab.training, "save_checkpoint", "training.checkpoint_io")
        self.wrap(cli, "load_checkpoint", "training.checkpoint_io")
        self.wrap(cli, "estimate_llc", "llc.estimate_llc")
        self.wrap(llc, "sgld_step", "llc.step")
        self.wrap(llc, "psgld_step", "llc.step")
        for name in ("critical_nq", "critical_sigma", "critical_compression_fraction",
                     "prune_and_retrain"):
            self.wrap(cli, name, f"compress.{name}")
        for owner in (cli, compress):
            self.wrap(owner, "quantization_delta_loss", "compress.quantization_delta_loss",
                      before=self.probe_counter(compress.quantization_delta_loss, "q"))
            self.wrap(owner, "noise_delta_loss", "compress.noise_delta_loss",
                      before=self.probe_counter(compress.noise_delta_loss, "noise"))
        self.wrap(compress, "quantize", "compress.quantize")
        self.wrap(cli, "build_eps_net", "mdl.build_eps_net",
                  after=lambda a, k, net: self.count("net_centers", net.n_centers))
        self.wrap(cli, "two_part_redundancy", "mdl.two_part_redundancy")
        for name in ("validate_kl_l2", "validate_triangle", "validate_variance_bound"):
            self.wrap(cli, name, "mdl.validators")
        self.wrap(cli, "validate_volume_inclusions", "mdl.validate_volume_inclusions")
        self.wrap(cli, "volume_curve", "volume.volume_curve",
                  before=lambda a, k: self.count("volume_samples", int(a[2])))
        self.wrap(cli, "fit_scaling", "volume.fit_scaling")
        self.wrap(Bounds, "sample", "landscapes.bounds_sample")
        self.wrap(SingularBernoulli, "prob_one", "bernoulli.prob_one")
        for owner in (mdl, cli, basinlab.bernoulli):
            self.wrap(owner, "kl_bernoulli", "simplex.kl_bernoulli")
        self.wrap(mdl, "kl", "simplex.kl")
        self.wrap(cli, "analyze_fit", "analysis.analyze")
        self.wrap(basinlab.csvio, "write_csv", "csvio.write_csv",
                  after=lambda a, k, r: self.count("csv_bytes", os.path.getsize(a[0])))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path: Path) -> None:
        nid, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=parent,
                 start=start, end=end)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass: work counts and times are
        totals over `passes` identical passes divided by `passes`."""
        nid, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        selfs = np.bincount(nid, weights=dur - children, minlength=k)
        parent_name = np.where(has_parent, nid[np.maximum(parent, 0)], -1)

        def n(name, under=None):
            i = self.ids.get(name, -1)
            if under is None:
                return int(calls[i]) if i >= 0 else 0
            return int(np.count_nonzero((nid == i) & (parent_name == self.ids.get(under, -2))))

        def s(name, of=total):
            i = self.ids.get(name, -1)
            return float(of[i]) if i >= 0 else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        def us(name):
            return ratio(s(name), n(name)) * 1e6

        c = self.counters
        sgd_steps = n("mlp.grad_b32", under="training.train_sgd")
        chain_steps = n("llc.step")
        samples = c.get("volume_samples", 0)
        totals = {
            "mlp.grad_b64.calls": n("mlp.grad_b64"),
            "mlp.grad_b32.calls": n("mlp.grad_b32"),
            "mlp.fwd_full.calls": n("mlp.fwd_full"),
            "training.sgd_steps": sgd_steps,
            "training.checkpoint_io.s": s("training.checkpoint_io"),
            "llc.chain_steps": chain_steps,
            "compress.critical_nq.s": s("compress.critical_nq"),
            "compress.quantize.calls": n("compress.quantize"),
            "compress.critical_sigma.s": s("compress.critical_sigma"),
            "compress.critical_compression_fraction.s": s("compress.critical_compression_fraction"),
            "compress.prune_and_retrain.s": s("compress.prune_and_retrain"),
            "mdl.build_eps_net.s": s("mdl.build_eps_net"),
            "mdl.net_centers": c.get("net_centers", 0),
            **self.eps_net_phases(nid, parent, start, end),
            "mdl.validate_volume_inclusions.s": s("mdl.validate_volume_inclusions"),
            "volume.samples": samples,
            "volume.fit_scaling.s": s("volume.fit_scaling"),
            "landscapes.bounds_sample.s": s("landscapes.bounds_sample"),
            "bernoulli.prob_one.s": s("bernoulli.prob_one"),
            "simplex.kl_bernoulli.s": s("simplex.kl_bernoulli"),
            "analysis.analyze.s": s("analysis.analyze"),
            "csvio.write_csv.s": s("csvio.write_csv"),
            "csvio.write_csv.bytes": c.get("csv_bytes", 0),
            "trace.spans": len(dur),
        }
        m = {key: v // passes if isinstance(v, int) else v / passes for key, v in totals.items()}
        m.update({
            "trace.errors": self.errors,
            "mlp.grad_b64.us": us("mlp.grad_b64"),
            "mlp.grad_b32.us": us("mlp.grad_b32"),
            "mlp.fwd_full.us": us("mlp.fwd_full"),
            "mlp.batch.us": us("mlp.batch"),
            "training.us_per_step": ratio(s("training.train_sgd"), sgd_steps) * 1e6,
            "llc.us_per_chain_step": ratio(s("llc.estimate_llc"), chain_steps) * 1e6,
            "llc.step.self_us": ratio(s("llc.step", of=selfs), chain_steps) * 1e6,
            "compress.probes_per_search": ratio(
                n("compress.quantization_delta_loss", under="compress.critical_nq"),
                n("compress.critical_nq")),
            "compress.repeat_probe_frac": ratio(c.get("repeat_probes", 0), c.get("probes", 0)),
            "mdl.two_part_redundancy.us": us("mdl.two_part_redundancy"),
            "mdl.validators.us": us("mdl.validators"),
            "volume.ns_per_sample": ratio(s("volume.volume_curve"), samples) * 1e9,
            "simplex.kl.us": us("simplex.kl"),
        })
        return m

    def eps_net_phases(self, nid, parent, start, end) -> dict[str, float]:
        """Split each build_eps_net span into covering, audit and MC phases.

        The first Bounds.sample under a build draws the audit points and the
        second the first MC chunk, so those two calls mark the phase edges.
        kl_bernoulli calls are assigned to the phase in which they start.
        """
        out = {f"mdl.phase.{p}.{x}": 0 if x == "kl_calls" else 0.0
               for p in ("covering", "audit", "mc") for x in ("s", "kl_calls")}
        b_id, s_id, k_id = (self.ids.get(x, -1) for x in (
            "mdl.build_eps_net", "landscapes.bounds_sample", "simplex.kl_bernoulli"))
        for b in np.flatnonzero(nid == b_id) if b_id >= 0 else ():
            kids = parent == b
            edges = np.sort(start[kids & (nid == s_id)])
            if len(edges) < 2:
                continue
            bounds = (start[b], edges[0], edges[1], end[b])
            kl_starts = start[kids & (nid == k_id)]
            for i, p in enumerate(("covering", "audit", "mc")):
                out[f"mdl.phase.{p}.s"] += bounds[i + 1] - bounds[i]
                out[f"mdl.phase.{p}.kl_calls"] += int(np.count_nonzero(
                    (kl_starts >= bounds[i]) & (kl_starts < bounds[i + 1])))
        return out
