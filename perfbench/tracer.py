"""Per-layer tracing from outside the program.

`Tracer.install` wraps public functions of the `ostta` modules, and
replaces every by-name import of them in the other `ostta` modules, so a
call made from inside the package is timed too. Each wrapped function
records its call count, inclusive time and self time (inclusive minus the
time spent in wrapped functions it called). A function that no longer
exists is skipped, and the metrics built on it are dropped.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute) pairs; "Class.method" wraps a method on the class.
TARGETS = (
    ("ostta.data", "generate_blobs"),
    ("ostta.data", "apply_shift"),
    ("ostta.data", "make_stream"),
    ("ostta.model", "forward"),
    ("ostta.model", "backward"),
    ("ostta.model", "save_checkpoint"),
    ("ostta.model", "load_checkpoint"),
    ("ostta.losses", "ce_loss"),
    ("ostta.losses", "ugd_loss"),
    ("ostta.trainer", "train"),
    ("ostta.trainer", "extract_bank"),
    ("ostta.trainer", "save_bank"),
    ("ostta.trainer", "load_bank"),
    ("ostta.knn", "query"),
    ("ostta.tur", "init_tur"),
    ("ostta.tur", "step"),
    ("ostta.tur", "update_memory_bank"),
    ("ostta.tur", "predict_frozen"),
    ("ostta.tur", "save_snapshot"),
    ("ostta.metrics", "evaluate"),
    ("ostta.metrics", "decision_grid"),
    ("ostta.metrics", "save_grid"),
    ("ostta.metrics", "EvalReport.to_json"),
    ("ostta.cli", "_write_steps"),
)

# Functions whose individual call times are kept for percentiles.
LATENCIES = {"ostta.knn.query", "ostta.tur.step"}


@dataclass
class Stat:
    calls: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0
    latencies: list[float] | None = None


@dataclass
class Tracer:
    stats: dict[str, Stat] = field(default_factory=dict)
    sample_grads: int = 0          # per-sample gradients asked of train()
    routes: dict[str, int] = field(default_factory=dict)
    streams: list[list[float]] = field(default_factory=list)  # step times per init_tur
    grid_points: int = 0
    snapshot_bytes: int = 0
    _stack: list[float] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__.get(name)
            if original is None:
                continue
            qualname = f"{module_name}.{attr}"
            self.stats[qualname] = Stat(latencies=[] if qualname in LATENCIES else None)
            wrapper = self._wrap(qualname, original)
            if owner_name:
                self._patch(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "ostta" or mod_name.startswith("ostta."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, qualname: str, fn):
        stat = self.stats[qualname]
        stack = self._stack
        hook = getattr(self, "_on_" + qualname.rpartition(".")[2], None)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.inclusive += elapsed
                stat.self_time += elapsed - children
                if stat.latencies is not None:
                    stat.latencies.append(elapsed)
            if hook is not None:
                hook(args, kwargs, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # hooks that read counts off a call's arguments or result
    def _on_train(self, args, kwargs, result, elapsed) -> None:
        train_set = args[1] if len(args) > 1 else kwargs["train_set"]
        config = args[2] if len(args) > 2 else kwargs["config"]
        self.sample_grads += config.epochs * len(train_set)

    def _on_init_tur(self, args, kwargs, result, elapsed) -> None:
        self.streams.append([])

    def _on_step(self, args, kwargs, result, elapsed) -> None:
        self.routes[result.route] = self.routes.get(result.route, 0) + 1
        if self.streams:
            self.streams[-1].append(elapsed)

    def _on_decision_grid(self, args, kwargs, result, elapsed) -> None:
        self.grid_points += len(result)

    def _on_save_snapshot(self, args, kwargs, result, elapsed) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.snapshot_bytes = os.path.getsize(path)

    # -- metrics

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit). A metric whose
        functions were not all found is left out."""
        out: dict[str, tuple[float, str]] = {}

        def have(*names: str) -> bool:
            return all(f"ostta.{n}" in self.stats for n in names)

        def st(name: str) -> Stat:
            return self.stats[f"ostta.{name}"]

        def total(kind: str, *names: str) -> float:
            return sum(getattr(st(n), kind) for n in names)

        def put(name: str, needs: tuple[str, ...], value, unit: str) -> None:
            if have(*needs):
                out[name] = (float(value()), unit)

        def pct(name: str, q: float) -> float:
            lat = st(name).latencies
            return float(np.percentile(lat, q)) * 1e6 if lat else 0.0

        put("model.forward_calls", ("model.forward",), lambda: st("model.forward").calls, "count")
        put("model.forward_s", ("model.forward",), lambda: st("model.forward").self_time, "s")
        put("model.backward_calls", ("model.backward",), lambda: st("model.backward").calls, "count")
        put("model.backward_s", ("model.backward",), lambda: st("model.backward").self_time, "s")
        loss = ("losses.ce_loss", "losses.ugd_loss")
        put("losses.loss_calls", loss, lambda: total("calls", *loss), "count")
        put("losses.loss_s", loss, lambda: total("self_time", *loss), "s")
        put("trainer.train_s", ("trainer.train",), lambda: st("trainer.train").inclusive, "s")
        put("trainer.grads_per_s", ("trainer.train",),
            lambda: self.sample_grads / st("trainer.train").inclusive
            if st("trainer.train").inclusive else 0.0, "1/s")
        put("trainer.extract_bank_s", ("trainer.extract_bank",),
            lambda: st("trainer.extract_bank").inclusive, "s")
        io = ("model.save_checkpoint", "model.load_checkpoint", "trainer.save_bank", "trainer.load_bank")
        put("trainer.bank_io_s", io, lambda: total("inclusive", *io), "s")
        put("knn.query_calls", ("knn.query",), lambda: st("knn.query").calls, "count")
        put("knn.query_s", ("knn.query",), lambda: st("knn.query").self_time, "s")
        put("knn.query_p50_us", ("knn.query",), lambda: pct("knn.query", 50), "us")
        put("knn.query_p99_us", ("knn.query",), lambda: pct("knn.query", 99), "us")
        put("tur.step_calls", ("tur.step",), lambda: st("tur.step").calls, "count")
        put("tur.step_p50_us", ("tur.step",), lambda: pct("tur.step", 50), "us")
        put("tur.step_p99_us", ("tur.step",), lambda: pct("tur.step", 99), "us")
        put("tur.agreed_steps", ("tur.step",), lambda: self.routes.get("agreed", 0), "count")
        put("tur.followup_steps", ("tur.step",), lambda: self.routes.get("followup", 0), "count")
        put("tur.update_memory_bank_s", ("tur.update_memory_bank",),
            lambda: st("tur.update_memory_bank").inclusive, "s")
        put("tur.growth_ratio", ("tur.step", "tur.init_tur"), self._growth_ratio, "ratio")
        put("tur.snapshot_kb", ("tur.save_snapshot",), lambda: self.snapshot_bytes / 1024, "KB")
        put("tur.snapshot_write_s", ("tur.save_snapshot",),
            lambda: st("tur.save_snapshot").inclusive, "s")
        put("tur.predict_frozen_s", ("tur.predict_frozen",),
            lambda: st("tur.predict_frozen").inclusive, "s")
        put("metrics.decision_grid_s", ("metrics.decision_grid",),
            lambda: st("metrics.decision_grid").inclusive, "s")
        put("metrics.grid_points", ("metrics.decision_grid",), lambda: self.grid_points, "count")
        put("metrics.evaluate_s", ("metrics.evaluate",), lambda: st("metrics.evaluate").inclusive, "s")
        writes = ("metrics.save_grid", "metrics.EvalReport.to_json", "cli._write_steps")
        put("cli.artifact_write_s", writes, lambda: total("inclusive", *writes), "s")
        gen = ("data.generate_blobs", "data.apply_shift", "data.make_stream")
        put("data.generate_s", gen, lambda: total("inclusive", *gen), "s")
        return out

    def _growth_ratio(self) -> float:
        """Mean step time over the last tenth of the longest streams divided
        by that over their first tenth; the median over streams of that
        length."""
        longest = max((len(s) for s in self.streams), default=0)
        if longest < 10:
            return 0.0
        tenth = longest // 10
        ratios = [sum(s[-tenth:]) / sum(s[:tenth]) for s in self.streams if len(s) == longest]
        return float(np.median(ratios))
