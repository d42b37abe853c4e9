"""Experiment command line: data generation, training, online adaptation,
evaluation, ablation arms, and plot-data export.

Artifacts land in the output directory as:
  report_<arm>_<seed>.json   evaluation report per arm and stream order
  grid_<arm>.csv             decision-boundary lattice per arm
  steps_<arm>_<seed>.ndjson  per-step diagnostics
  model_<hash>.ckpt          cached checkpoint, keyed by config hash
  bank_<hash>.csv            cached source embedding bank
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from .data import (
    UNKNOWN,
    BlobSpec,
    Sample,
    ShiftSpec,
    apply_shift,
    atomic_open,
    from_json,
    generate_blobs,
    load_csv,
    make_stream,
    save_csv,
)
from .losses import OBJECTIVES, LossConfig
from .metrics import decision_grid, evaluate, save_grid
from .model import ModelParams, forward, init_model, load_checkpoint, save_checkpoint
from .trainer import TrainConfig, extract_bank, load_bank, save_bank, train_many
from .tur import (
    Prediction,
    TurConfig,
    block_rows,
    init_tur,
    predict_frozen,
    run_stream,
    save_snapshot,
)

# an arm trains the objective of its name; art takes ugd's model and adds the engine
ARMS = (*OBJECTIVES, "art")


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    embed_dim: int = 8
    hidden: tuple[int, ...] = (64, 64)
    seed: int = 0

    def validate(self) -> None:
        if self.embed_dim < 1:
            raise ValueError(f"config.model.embed_dim={self.embed_dim} must be >= 1")
        for i, width in enumerate(self.hidden):
            if width < 1:
                raise ValueError(f"config.model.hidden[{i}]={width} must be >= 1")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    # Defaults are a calibrated reference setup for the 2-D toy study:
    # blob seed 5845 places the three known clusters nearly equilaterally
    # with the unknown cluster between them, the strong shift makes raw
    # logits unreliable while embedding-space matching stays informative,
    # and tau/lam are raised from the loss-level defaults because the tiny
    # encoder needs heavier smoothing before the unknown logit activates.
    blob: BlobSpec = BlobSpec(seed=5845)
    shift: ShiftSpec = ShiftSpec(
        rotation_angle=1.2, translation=(3.0, -2.0), noise_std=0.1, seed=1
    )
    model: ModelSpec = ModelSpec()
    train: TrainConfig = TrainConfig(loss=LossConfig(tau=8.0, lam=0.15))
    tur: TurConfig = TurConfig()
    stream_seeds: tuple[int, ...] = (0,)
    arms: tuple[str, ...] = ARMS
    grid_resolution: int = 80
    grid_margin: float = 2.0

    def validate(self) -> None:
        self.blob.validate()
        self.model.validate()
        self.train.validate()
        self.tur.validate()
        for arm in self.arms:
            if arm not in ARMS:
                raise ValueError(f"unknown arm {arm!r}; valid arms: {ARMS}")
        if not self.stream_seeds:
            raise ValueError("need at least one stream seed")
        if self.grid_resolution < 2:
            raise ValueError(f"grid_resolution={self.grid_resolution} must be >= 2")
        bank_size = self.blob.num_known * self.blob.samples_per_cluster
        if self.tur.k > bank_size:
            raise ValueError(f"tur.k={self.tur.k} exceeds the source bank's {bank_size} rows")


def config_from_dict(payload: dict) -> ExperimentConfig:
    return from_json(ExperimentConfig, payload, "config")


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def _checkpoint_hash(cfg: ExperimentConfig, objective: str) -> str:
    payload = {
        "blob": dataclasses.asdict(cfg.blob),
        "model": dataclasses.asdict(cfg.model),
        "train": dataclasses.asdict(cfg.train),
        "objective": objective,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _argmax_labels(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The classifier's own label per point of x, a matrix of rows or a
    stack of them; the last head row is UNKNOWN."""
    k = np.argmax(forward(params, x).logits, axis=-1)
    return np.where(k == params.num_known, UNKNOWN, k)


def _model_grid(params: ModelParams, bbox, resolution: int):
    """The classifier's decision grid. A block of lattice rows goes through
    one forward as a stack of one-row matrices, so every row gets the bits
    of its own call; one matrix of all the block's points would not. The
    block's forward trace (input, every layer, z and logits) fits the
    engine's block budget."""
    width = params.input_dim + sum(map(len, params.weights)) + params.embed_dim + len(params.head)
    return decision_grid(lambda pts: _argmax_labels(params, pts), bbox, resolution,
                         block_rows(width))


def _train_cached(cfg: ExperimentConfig, arms, train_set, outdir: str) -> dict:
    """(params, bank) per arm. Every distinct objective whose checkpoint,
    bank or prototype sidecar is missing from outdir is trained in one
    lockstep `train_many` call and then cached; the others load from the
    cache. Nothing is written unless every missing objective trains."""
    objectives = {arm: "ugd" if arm == "art" else arm for arm in arms}
    keys = {arm: _checkpoint_hash(cfg, objective) for arm, objective in objectives.items()}
    ckpts = {key: os.path.join(outdir, f"model_{key}.ckpt") for key in keys.values()}
    banks = {key: os.path.join(outdir, f"bank_{key}.csv") for key in keys.values()}
    missing = {key: objectives[arm] for arm, key in keys.items()
               if not all(map(os.path.exists, (ckpts[key], banks[key], banks[key] + ".proto.csv")))}
    models = {}
    if missing:
        params = init_model(
            cfg.blob.dim, cfg.model.embed_dim, cfg.blob.num_known,
            cfg.model.seed, hidden=cfg.model.hidden,
        )
        trained = train_many(params, train_set, cfg.train, list(missing.values()))
        for key, (params, _history) in zip(missing, trained):
            models[key] = params, extract_bank(params, train_set)
        for key, (params, bank) in models.items():
            save_checkpoint(params, ckpts[key])
            save_bank(bank, banks[key])
    for key in ckpts.keys() - models.keys():
        models[key] = load_checkpoint(ckpts[key]), load_bank(banks[key])
    return {arm: models[key] for arm, key in keys.items()}


def _grid_bbox(samples: list[Sample], margin: float):
    pts = np.stack([s.features[:2] for s in samples])
    return (
        (float(pts[:, 0].min() - margin), float(pts[:, 0].max() + margin)),
        (float(pts[:, 1].min() - margin), float(pts[:, 1].max() + margin)),
    )


def _write_steps(path: str, truths: list[int], preds: list) -> None:
    """The steps file of a stream: per step, `json.dumps(record,
    sort_keys=True)` of its record. A model label gives the step, pred, true
    and route "model"; an engine Prediction gives its own route and its
    source and target matches too. Every value is an int or a plain-word
    route, so each kind of record is formatted from one template."""
    if preds and isinstance(preds[0], Prediction):
        lines = [f'{{"pred": {p.label}, "route": "{p.route}", "source_match": {p.source_match}, '
                 f'"step": {i}, "target_match": {p.target_match}, "true": {t}}}\n'
                 for i, (p, t) in enumerate(zip(preds, truths))]
    else:
        lines = [f'{{"pred": {p}, "route": "model", "step": {i}, "true": {t}}}\n'
                 for i, (p, t) in enumerate(zip(preds, truths))]
    with atomic_open(path) as fh:
        fh.writelines(lines)


def run_experiment(cfg: ExperimentConfig, outdir: str, force: bool = False) -> dict:
    """Run every requested arm over every stream order; returns a mapping
    (arm, seed) -> EvalReport. Fully deterministic given the config."""
    cfg.validate()
    if os.path.isdir(outdir) and os.listdir(outdir) and not force:
        raise FileExistsError(f"output dir {outdir!r} is not empty (use --force)")
    os.makedirs(outdir, exist_ok=True)

    train_set, test_set = generate_blobs(cfg.blob)
    shifted_test = apply_shift(test_set, cfg.shift)
    num_known = cfg.blob.num_known
    reports: dict[tuple[str, int], object] = {}

    models = _train_cached(cfg, cfg.arms, train_set, outdir)
    for arm in cfg.arms:
        params, bank = models[arm]
        grid_state = None
        for seed in cfg.stream_seeds:
            stream = make_stream(shifted_test, seed)
            truths = [s.label for s in stream]
            if arm == "art":
                state = init_tur(bank, params, cfg.tur)
                predictions = run_stream(state, stream)
                preds = [p.label for p in predictions]
                if grid_state is None:
                    grid_state = state
            else:
                preds = predictions = _argmax_labels(
                    params, np.stack([s.features for s in stream])).tolist()
            report = evaluate(preds, truths, num_known)
            report.to_json(os.path.join(outdir, f"report_{arm}_{seed}.json"))
            _write_steps(os.path.join(outdir, f"steps_{arm}_{seed}.ndjson"), truths, predictions)
            reports[(arm, seed)] = report

        if cfg.blob.dim == 2:
            bbox = _grid_bbox(train_set + shifted_test, cfg.grid_margin)
            if arm == "art" and grid_state is not None:
                grid = decision_grid(lambda pts: predict_frozen(grid_state, pts.reshape(-1, 2)),
                                     bbox, cfg.grid_resolution, block_rows(len(bank)))
            else:
                grid = _model_grid(params, bbox, cfg.grid_resolution)
            save_grid(grid, os.path.join(outdir, f"grid_{arm}.csv"))
    return reports


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    train_set, test_set = generate_blobs(cfg.blob)
    shifted = apply_shift(test_set, cfg.shift)
    os.makedirs(args.outdir, exist_ok=True)
    save_csv(train_set, os.path.join(args.outdir, "train.csv"))
    save_csv(test_set, os.path.join(args.outdir, "test.csv"))
    save_csv(shifted, os.path.join(args.outdir, "test_shifted.csv"))
    print(f"wrote train/test/test_shifted CSVs to {args.outdir}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    cfg.validate()
    os.makedirs(args.outdir, exist_ok=True)
    train_set, _ = generate_blobs(cfg.blob)
    _train_cached(cfg, [args.arm], train_set, args.outdir)
    print(f"trained arm {args.arm}; checkpoint and bank cached in {args.outdir}")
    return 0


def _cmd_adapt(args) -> int:
    cfg = load_config(args.config)
    params = load_checkpoint(args.checkpoint)
    bank = load_bank(args.bank)
    test_set = load_csv(args.test_csv)
    stream = make_stream(test_set, args.stream_seed)
    state = init_tur(bank, params, cfg.tur)
    preds = run_stream(state, stream)
    _write_steps(args.steps_out, [s.label for s in stream], preds)
    if args.snapshot_out:
        save_snapshot(state, args.snapshot_out)
    print(f"adapted over {len(stream)} samples; steps written to {args.steps_out}")
    return 0


def _read_steps(path: str) -> tuple[list, list]:
    """The predicted and true labels of a steps file, in stream order."""
    preds, truths = [], []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                preds.append(record["pred"])
                truths.append(record["true"])
            except (ValueError, KeyError, TypeError):
                raise ValueError(f"{path}, line {line_no}: not a JSON object "
                                 "with pred and true") from None
    return preds, truths


def _cmd_eval(args) -> int:
    report = evaluate(*_read_steps(args.steps), args.num_known)
    report.to_json(args.report_out)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def _cmd_grid(args) -> int:
    params = load_checkpoint(args.checkpoint)
    bbox = ((args.xmin, args.xmax), (args.ymin, args.ymax))
    grid = _model_grid(params, bbox, args.resolution)
    save_grid(grid, args.grid_out)
    print(f"wrote {len(grid)} grid points to {args.grid_out}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.arms:
        cfg = dataclasses.replace(cfg, arms=tuple(args.arms.split(",")))
    reports = run_experiment(cfg, args.outdir, force=args.force)
    for (arm, seed), report in sorted(reports.items()):
        hs = "n/a" if report.h_score is None else f"{report.h_score:.4f}"
        print(f"{arm:12s} seed={seed}  hs={hs}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ostta")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", default=None, help="JSON experiment config")

    p = sub.add_parser("gen-data", help="generate blob datasets as CSV")
    add_config(p)
    p.add_argument("--outdir", required=True)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="train one arm and cache checkpoint+bank")
    add_config(p)
    p.add_argument("--arm", default="ugd", choices=ARMS)
    p.add_argument("--outdir", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("adapt", help="online adaptation over a test CSV")
    add_config(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bank", required=True)
    p.add_argument("--test-csv", required=True)
    p.add_argument("--stream-seed", type=int, default=0)
    p.add_argument("--steps-out", required=True)
    p.add_argument("--snapshot-out", default=None)
    p.set_defaults(fn=_cmd_adapt)

    p = sub.add_parser("eval", help="evaluate a steps ndjson file")
    p.add_argument("--steps", required=True)
    p.add_argument("--num-known", type=int, required=True)
    p.add_argument("--report-out", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("grid", help="export a decision grid for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--ymin", type=float, required=True)
    p.add_argument("--ymax", type=float, required=True)
    p.add_argument("--resolution", type=int, default=80)
    p.add_argument("--grid-out", required=True)
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("run", help="end-to-end experiment over all (or the given) arms")
    add_config(p)
    p.add_argument("--outdir", required=True)
    p.add_argument("--arms", default=None, help="comma-separated arm list")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileExistsError, FileNotFoundError, RuntimeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
