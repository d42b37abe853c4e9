"""The benchmark's three workloads.

Each workload has the same life: `inputs` generates what it feeds the
program, `build` does its long set-up (training and the bank), `round` is
one measured round, and `check` runs the correctness and property checks
after the last round. The program is driven only through its public
functions, always called through their module so a trace can wrap them.

- reference:   `run_experiment` on the default config, stream seeds 0-3,
               all five arms, into an empty directory so every arm trains.
- long_stream: the default `art` model adapts online to an 8000-sample
               shifted stream, one sample per `run_stream` call.
- big_bank:    an `art` model and a 6000-row bank from a large source draw;
               a 1000-sample stream goes through one bulk `run_stream` call.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time

import numpy as np

import checks
from ostta import cli, data, model, trainer, tur

BASE = cli.ExperimentConfig()
REFERENCE_SEEDS = (0, 1, 2, 3)
BASELINE_ARMS = ("ce", "ugd_no_ua", "ugd_no_sce", "ugd")


@dataclasses.dataclass(frozen=True)
class Sizes:
    epochs: int = BASE.train.epochs   # training epochs of the default model
    grid_resolution: int = BASE.grid_resolution
    long_spc: int = 2000              # samples per cluster of the long stream's draw
    big_spc: int = 2000               # samples per cluster of the big source draw
    big_stream_spc: int = 250         # samples per cluster of big_bank's stream
    startup_repeats: int = 7          # times the short set-up is timed
    build_repeats: int = 3            # times the long set-up is timed, untraced
    replay_passes: int = 30           # one-sample passes over reference's art streams
    prefix: int = 500                 # long_stream prefix checked bulk against online


FULL = Sizes()
TINY = Sizes(epochs=40, grid_resolution=12, long_spc=100, big_spc=400, big_stream_spc=50,
             startup_repeats=1, build_repeats=1, replay_passes=1, prefix=100)


def shifted_stream(spc: int, seed: int) -> list[data.Sample]:
    """A test draw of the default blob spec (same cluster centres at any
    size), shifted with the default shift under noise seed `seed` and
    ordered by stream seed `seed`."""
    _, test = data.generate_blobs(dataclasses.replace(BASE.blob, samples_per_cluster=spc))
    shifted = data.apply_shift(test, dataclasses.replace(BASE.shift, seed=seed))
    return data.make_stream(shifted, seed)


def features(stream: list[data.Sample]) -> np.ndarray:
    return np.stack([s.features for s in stream])


def time_one_sample_calls(state, stream, latencies: list[float]) -> list:
    """Adapt over `stream` one `run_stream` call per sample, appending each
    call's time to `latencies`."""
    preds = []
    clock = time.perf_counter
    for sample in stream:
        start = clock()
        out = tur.run_stream(state, [sample])
        latencies.append(clock() - start)
        preds.append(out)
    return preds


def check_one_label_each(c: checks.Checks, what: str, preds: list[list], num_known: int) -> list:
    """Every one-sample call returned exactly one prediction with a valid
    label; returns the flattened predictions."""
    valid = checks.valid_labels(num_known)
    c.expect(all(len(p) == 1 and p[0].label in valid for p in preds),
             f"{what}: a one-sample call did not return exactly one valid label")
    return [p[0] for p in preds]


def check_agreed(c: checks.Checks, what: str, routed) -> None:
    """`routed` holds (label, route, source_match) per step."""
    bad = sum(1 for label, route, src in routed if route == "agreed" and label != src)
    c.expect(bad == 0, f"{what}: {bad} agreed labels differ from their source_match")


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.samples = 0                      # samples sent through the program
        self.latencies: list[list[float]] = []  # one-sample call times, per pass
        self.state_bytes: list[int] = []      # engine snapshot sizes

    def inputs(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        """Long set-up, run `build_repeats` times: nothing by default."""

    def round(self) -> float:
        raise NotImplementedError

    def check(self, c: checks.Checks) -> None:
        raise NotImplementedError


class EngineWorkload(Workload):
    """Shared set-up of long_stream and big_bank: train an `art` model, then
    save and reload its checkpoint and bank as `ostta adapt` would."""
    source_spc = 0
    stream_spc = 0

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.built: list[bytes] = []   # parameter bytes after each build

    def inputs(self) -> None:
        blob = dataclasses.replace(BASE.blob, samples_per_cluster=self.source_spc)
        self.train_set, _ = data.generate_blobs(blob)
        self.stream = shifted_stream(self.stream_spc, self.seed)

    def build(self) -> None:
        # keep the default number of SGD updates whatever the source size
        epochs = max(1, round(self.sizes.epochs * BASE.blob.samples_per_cluster / self.source_spc))
        config = dataclasses.replace(BASE.train, epochs=epochs)
        params = model.init_model(BASE.blob.dim, BASE.model.embed_dim, BASE.blob.num_known,
                                  BASE.model.seed, hidden=BASE.model.hidden)
        params, _ = trainer.train(params, self.train_set, config)
        bank = trainer.extract_bank(params, self.train_set)
        ckpt = os.path.join(self.workdir, "model.ckpt")
        bank_path = os.path.join(self.workdir, "bank.csv")
        model.save_checkpoint(params, ckpt)
        trainer.save_bank(bank, bank_path)
        self.params = model.load_checkpoint(ckpt)
        self.bank = trainer.load_bank(bank_path)
        self.param_bytes = checks.array_bytes(self.params)
        self.built.append(self.param_bytes)
        self.snapshot = os.path.join(self.workdir, "snapshot.json")

    def common_checks(self, c: checks.Checks, preds) -> None:
        num_known = BASE.blob.num_known
        c.expect(all(b == self.built[0] for b in self.built),
                 f"{self.name}: repeated training gave different parameters")
        check_agreed(c, self.name, [(p.label, p.route, p.source_match) for p in preds])
        c.expect(checks.array_bytes(self.params) == self.param_bytes,
                 f"{self.name}: parameter bytes changed during adaptation")
        checks.check_source_matches(c, self.name, self.params, self.bank, BASE.tur.k,
                                    features(self.stream), [p.source_match for p in preds])
        c.expect(len(preds) == len(self.stream) and all(p.label in checks.valid_labels(num_known)
                                                        for p in preds),
                 f"{self.name}: not exactly one valid label per sample")


class LongStream(EngineWorkload):
    name = "long_stream"
    source_spc = BASE.blob.samples_per_cluster

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.stream_spc = self.sizes.long_spc
        self.rounds: list[list[int]] = []

    def round(self) -> float:
        start = time.perf_counter()
        state = tur.init_tur(self.bank, self.params, BASE.tur)
        self.latencies.append([])
        preds = time_one_sample_calls(state, self.stream, self.latencies[-1])
        tur.save_snapshot(state, self.snapshot)
        elapsed = time.perf_counter() - start
        self.state_bytes.append(os.path.getsize(self.snapshot))
        self.samples += len(self.stream)
        if not self.rounds:
            self.first = preds
        self.rounds.append([p[0].label if len(p) == 1 else None for p in preds])
        return elapsed

    def check(self, c: checks.Checks) -> None:
        num_known = BASE.blob.num_known
        preds = check_one_label_each(c, self.name, self.first, num_known)
        self.common_checks(c, preds)
        c.expect(all(r == self.rounds[0] for r in self.rounds),
                 f"{self.name}: rounds over the same stream gave different labels")
        prefix = self.stream[: self.sizes.prefix]
        bulk = tur.run_stream(tur.init_tur(self.bank, self.params, BASE.tur), prefix)
        self.samples += len(prefix)
        c.expect([p.label for p in bulk] == [p.label for p in preds[: len(prefix)]],
                 f"{self.name}: one bulk call and one-sample calls disagree on the prefix")
        # Recorded, not checked: over the whole stream art's H-score beats
        # the checkpoint's own argmax on some seeds only (see README).
        truths = [s.label for s in self.stream]
        self.h_scores = {
            "art": checks.h_score([p.label for p in preds], truths, num_known),
            "argmax": checks.h_score(checks.argmax_labels(self.params, features(self.stream)),
                                     truths, num_known),
        }


class BigBank(EngineWorkload):
    name = "big_bank"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.source_spc = self.sizes.big_spc
        self.stream_spc = self.sizes.big_stream_spc
        self.disagreements = 0
        self.rounds: list[list[int]] = []

    def round(self) -> float:
        start = time.perf_counter()
        state = tur.init_tur(self.bank, self.params, BASE.tur)
        preds = tur.run_stream(state, self.stream)
        tur.save_snapshot(state, self.snapshot)
        elapsed = time.perf_counter() - start
        self.state_bytes.append(os.path.getsize(self.snapshot))
        if not self.rounds:
            self.first = preds
        self.rounds.append([p.label for p in preds])
        # the online path over the same stream, outside the timed bulk call
        self.latencies.append([])
        online = time_one_sample_calls(tur.init_tur(self.bank, self.params, BASE.tur),
                                       self.stream, self.latencies[-1])
        if [p[0].label if len(p) == 1 else None for p in online] != self.rounds[-1]:
            self.disagreements += 1
        self.samples += 2 * len(self.stream)
        return elapsed

    def check(self, c: checks.Checks) -> None:
        self.common_checks(c, self.first)
        c.expect(all(r == self.rounds[0] for r in self.rounds),
                 f"{self.name}: rounds over the same stream gave different labels")
        c.expect(self.disagreements == 0,
                 f"{self.name}: one bulk call and one-sample calls disagreed in "
                 f"{self.disagreements} of {len(self.rounds)} rounds")


class Reference(Workload):
    """ROADMAP's headline run. Its config is the acceptance fixture, so the
    seed does not change its inputs."""
    name = "reference"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.config = dataclasses.replace(
            BASE, stream_seeds=REFERENCE_SEEDS, grid_resolution=self.sizes.grid_resolution,
            train=dataclasses.replace(BASE.train, epochs=self.sizes.epochs))
        self.outdir = ""
        self.round_count = 0

    def inputs(self) -> None:
        train_set, test = data.generate_blobs(self.config.blob)
        shifted = data.apply_shift(test, self.config.shift)
        self.streams = {s: data.make_stream(shifted, s) for s in REFERENCE_SEEDS}

    def round(self) -> float:
        previous = self.outdir
        self.round_count += 1
        self.outdir = os.path.join(self.workdir, f"reference-{self.round_count}")
        start = time.perf_counter()
        self.reports = cli.run_experiment(self.config, self.outdir)
        elapsed = time.perf_counter() - start
        if previous:
            shutil.rmtree(previous)
        self.samples += len(self.config.arms) * sum(len(s) for s in self.streams.values())
        return elapsed

    def _steps(self, arm: str, seed: int) -> list[dict]:
        with open(os.path.join(self.outdir, f"steps_{arm}_{seed}.ndjson")) as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def _grid_labels(self, arm: str) -> list[str]:
        with open(os.path.join(self.outdir, f"grid_{arm}.csv")) as fh:
            return [line.rstrip("\n").split(",")[2] for line in fh.readlines()[1:]]

    def check(self, c: checks.Checks) -> None:
        cfg = self.config
        num_known = cfg.blob.num_known
        valid = checks.valid_labels(num_known)
        steps = {(a, s): self._steps(a, s) for a in cfg.arms for s in REFERENCE_SEEDS}
        self.h_scores: dict[str, list[float]] = {a: [] for a in cfg.arms}
        for (arm, seed), recs in steps.items():
            what = f"reference {arm} seed {seed}"
            truths = [s.label for s in self.streams[seed]]
            c.expect([r["true"] for r in recs] == truths
                     and [r["step"] for r in recs] == list(range(len(truths))),
                     f"{what}: steps file does not follow the stream")
            c.expect(all(r["pred"] in valid for r in recs), f"{what}: invalid label")
            with open(os.path.join(self.outdir, f"report_{arm}_{seed}.json")) as fh:
                reported = json.load(fh)["h_score"]
            own = checks.h_score([r["pred"] for r in recs], truths, num_known)
            c.expect(own is not None and reported is not None and abs(own - reported) <= 1e-12,
                     f"{what}: H-score {own} recomputed, {reported} reported")
            self.h_scores[arm].append(own if own is not None else float("nan"))
        means = {a: float(np.mean(v)) for a, v in self.h_scores.items()}
        c.expect(means["ce"] < means["ugd"] < means["art"],
                 f"reference: mean H-scores do not order ce < ugd < art: {means}")
        c.expect("unknown" not in self._grid_labels("ce"), "reference: ce grid has an unknown cell")
        c.expect("unknown" in self._grid_labels("ugd"), "reference: ugd grid has no unknown cell")

        # Each baseline arm's labels are its checkpoint's own argmax. The
        # checkpoint that reproduces ugd's labels is also art's.
        ckpts = sorted(f for f in os.listdir(self.outdir) if f.endswith(".ckpt"))
        loaded = {f: model.load_checkpoint(os.path.join(self.outdir, f)) for f in ckpts}
        xs = {s: features(self.streams[s]) for s in REFERENCE_SEEDS}
        owner = {}
        for arm in BASELINE_ARMS:
            found = [f for f, p in loaded.items()
                     if all(checks.argmax_labels(p, xs[s]) == [r["pred"] for r in steps[(arm, s)]]
                            for s in REFERENCE_SEEDS)]
            c.expect(len(found) == 1,
                     f"reference: {len(found)} checkpoints reproduce arm {arm}'s labels")
            owner[arm] = found[0] if found else None
        if owner["ugd"] is None:
            return
        params = loaded[owner["ugd"]]
        bank = trainer.load_bank(os.path.join(
            self.outdir, "bank_" + owner["ugd"][len("model_"):-len(".ckpt")] + ".csv"))
        param_bytes = checks.array_bytes(params)
        snapshot = os.path.join(self.workdir, "snapshot.json")
        for _ in range(self.sizes.replay_passes):
            self.latencies.append([])
            replays = {}
            for seed in REFERENCE_SEEDS:
                state = tur.init_tur(bank, params, cfg.tur)
                replays[seed] = time_one_sample_calls(state, self.streams[seed],
                                                      self.latencies[-1])
                self.samples += len(self.streams[seed])
            tur.save_snapshot(state, snapshot)
        self.state_bytes.append(os.path.getsize(snapshot))
        for seed in REFERENCE_SEEDS:
            what = f"reference art seed {seed}"
            recs = steps[("art", seed)]
            check_agreed(c, what, [(r["pred"], r["route"], r["source_match"]) for r in recs])
            checks.check_source_matches(c, what, params, bank, cfg.tur.k, xs[seed],
                                        [r["source_match"] for r in recs])
            preds = check_one_label_each(c, what, replays[seed], num_known)
            c.expect([p.label for p in preds] == [r["pred"] for r in recs],
                     f"{what}: one-sample calls disagree with the bulk run_stream labels")
        c.expect(checks.array_bytes(params) == param_bytes,
                 "reference: parameter bytes changed during adaptation")


WORKLOADS = {w.name: w for w in (Reference, LongStream, BigBank)}


def make(name: str, seed: int, tiny: bool, workdir: str) -> Workload:
    return WORKLOADS[name](seed, TINY if tiny else FULL, workdir)
