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
import typing

import numpy as np

from .data import (
    UNKNOWN,
    BlobSpec,
    Sample,
    ShiftSpec,
    apply_shift,
    generate_blobs,
    load_csv,
    make_stream,
    save_csv,
)
from .losses import LossConfig
from .metrics import decision_grid, evaluate, save_grid
from .model import ModelParams, forward, init_model, load_checkpoint, save_checkpoint
from .trainer import TrainConfig, extract_bank, load_bank, save_bank, train
from .tur import Prediction, TurConfig, init_tur, predict_frozen, run_stream, save_snapshot

ARMS = ("ce", "ugd_no_ua", "ugd_no_sce", "ugd", "art")


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    embed_dim: int = 8
    hidden: tuple[int, ...] = (64, 64)
    seed: int = 0


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
    tur: TurConfig = TurConfig(
        query_vector_mode="target_embedding", cold_start_mode="copy_source"
    )
    stream_seeds: tuple[int, ...] = (0,)
    arms: tuple[str, ...] = ARMS
    grid_resolution: int = 80
    grid_margin: float = 2.0

    def validate(self) -> None:
        self.blob.validate()
        self.train.validate()
        self.tur.validate()
        for arm in self.arms:
            if arm not in ARMS:
                raise ValueError(f"unknown arm {arm!r}; valid arms: {ARMS}")
        if not self.stream_seeds:
            raise ValueError("need at least one stream seed")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def _build(cls, payload: dict, path: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    unknown = set(payload) - set(fields)
    if unknown:
        raise ValueError(f"unknown config keys at {path}: {sorted(unknown)}")
    kwargs = {}
    for name, value in payload.items():
        ftype = hints.get(name)
        if dataclasses.is_dataclass(ftype) and isinstance(value, dict):
            kwargs[name] = _build(ftype, value, f"{path}.{name}")
        elif isinstance(value, list):
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(payload: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, payload, "config")


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def _arm_train_config(base: TrainConfig, arm: str) -> TrainConfig:
    if arm == "ce":
        return dataclasses.replace(base, objective="ce")
    loss = base.loss
    if arm == "ugd_no_ua":
        loss = dataclasses.replace(loss, enable_ua=False)
    elif arm == "ugd_no_sce":
        loss = dataclasses.replace(loss, enable_sce=False)
    return dataclasses.replace(base, objective="ugd", loss=loss)


def _checkpoint_hash(cfg: ExperimentConfig, train_cfg: TrainConfig) -> str:
    payload = {
        "blob": dataclasses.asdict(cfg.blob),
        "model": dataclasses.asdict(cfg.model),
        "train": dataclasses.asdict(train_cfg),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _argmax_labels(params: ModelParams, x: np.ndarray) -> list[int]:
    """The classifier's own label per row of x; the last head row is UNKNOWN."""
    k = np.argmax(forward(params, x).logits, axis=1)
    return np.where(k == params.num_known, UNKNOWN, k).tolist()


def _train_cached(cfg: ExperimentConfig, arm: str, train_set, outdir: str):
    train_cfg = _arm_train_config(cfg.train, arm)
    key = _checkpoint_hash(cfg, train_cfg)
    ckpt = os.path.join(outdir, f"model_{key}.ckpt")
    bank_path = os.path.join(outdir, f"bank_{key}.csv")
    if all(os.path.exists(p) for p in (ckpt, bank_path, bank_path + ".proto.csv")):
        return load_checkpoint(ckpt), load_bank(bank_path)
    params = init_model(
        cfg.blob.dim, cfg.model.embed_dim, cfg.blob.num_known,
        cfg.model.seed, hidden=cfg.model.hidden,
    )
    params, _history = train(params, train_set, train_cfg)
    bank = extract_bank(params, train_set)
    save_checkpoint(params, ckpt)
    save_bank(bank, bank_path)
    return params, bank


def _grid_bbox(samples: list[Sample], margin: float):
    pts = np.stack([s.features[:2] for s in samples])
    return (
        (float(pts[:, 0].min() - margin), float(pts[:, 0].max() + margin)),
        (float(pts[:, 1].min() - margin), float(pts[:, 1].max() + margin)),
    )


def _engine_records(preds: list[Prediction], truths: list[int]) -> list[dict]:
    """One steps-file record per engine prediction, in stream order."""
    return [{"step": i, "route": p.route, "source_match": p.source_match,
             "target_match": p.target_match, "pred": p.label, "true": t}
            for i, (p, t) in enumerate(zip(preds, truths))]


def _write_steps(path: str, records: list[dict]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


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

    for arm in cfg.arms:
        params, bank = _train_cached(cfg, arm, train_set, outdir)
        grid_state = None
        for seed in cfg.stream_seeds:
            stream = make_stream(shifted_test, seed)
            truths = [s.label for s in stream]
            if arm == "art":
                state = init_tur(bank, params, cfg.tur)
                predictions = run_stream(state, stream)
                preds = [p.label for p in predictions]
                records = _engine_records(predictions, truths)
                if grid_state is None:
                    grid_state = state
            else:
                preds = _argmax_labels(params, np.stack([s.features for s in stream]))
                records = [{"step": i, "route": "model", "pred": p, "true": t}
                           for i, (p, t) in enumerate(zip(preds, truths))]
            report = evaluate(preds, truths, num_known)
            report.to_json(os.path.join(outdir, f"report_{arm}_{seed}.json"))
            _write_steps(os.path.join(outdir, f"steps_{arm}_{seed}.ndjson"), records)
            reports[(arm, seed)] = report

        if cfg.blob.dim == 2:
            bbox = _grid_bbox(train_set + shifted_test, cfg.grid_margin)
            if arm == "art" and grid_state is not None:
                predict = lambda xs: predict_frozen(grid_state, xs)  # noqa: E731
            else:
                predict = lambda xs: _argmax_labels(params, xs)  # noqa: E731
            grid = decision_grid(predict, bbox, cfg.grid_resolution)
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
    os.makedirs(args.outdir, exist_ok=True)
    train_set, _ = generate_blobs(cfg.blob)
    params, bank = _train_cached(cfg, args.arm, train_set, args.outdir)
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
    _write_steps(args.steps_out, _engine_records(preds, [s.label for s in stream]))
    if args.snapshot_out:
        save_snapshot(state, args.snapshot_out)
    print(f"adapted over {len(stream)} samples; steps written to {args.steps_out}")
    return 0


def _cmd_eval(args) -> int:
    with open(args.steps) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    preds = [r["pred"] for r in records]
    truths = [r["true"] for r in records]
    report = evaluate(preds, truths, args.num_known)
    report.to_json(args.report_out)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def _cmd_grid(args) -> int:
    params = load_checkpoint(args.checkpoint)
    bbox = ((args.xmin, args.xmax), (args.ymin, args.ymax))
    grid = decision_grid(lambda xs: _argmax_labels(params, xs), bbox, args.resolution)
    save_grid(grid, args.grid_out)
    print(f"wrote {len(grid)} grid points to {args.grid_out}")
    return 0


def _cmd_run(args, arms: tuple[str, ...] | None = None) -> int:
    cfg = load_config(args.config)
    if arms is None and args.arms:
        arms = tuple(args.arms.split(","))
    if arms is not None:
        cfg = dataclasses.replace(cfg, arms=arms)
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

    for name, helptext in (("run", "end-to-end experiment, all arms"),
                           ("ablate", "run a subset of ablation arms")):
        p = sub.add_parser(name, help=helptext)
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
