"""Experiment command line: data generation, training, online adaptation,
evaluation, ablation arms, and plot-data export.

Artifacts land in the output directory as:
  report_<arm>_<seed>.json   evaluation report per arm and stream order
  grid_<arm>.csv             decision-boundary lattice per arm
  steps_<arm>_<seed>.ndjson  per-step diagnostics
  model_<hash>.ckpt          checkpoint, named by a hash of its configs and objective
  bank_<hash>.csv            source embedding bank of that checkpoint, one file

A run reads nothing from its output directory: it trains every objective it
needs, and writes nothing unless all of them train.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from functools import partial

import numpy as np

from .data import (
    UNKNOWN,
    BlobSpec,
    Sample,
    ShiftSpec,
    apply_shift,
    atomic_open,
    bounded,
    check_fields,
    from_json,
    generate_blobs,
    load_csv,
    make_stream,
    save_csv,
    stream_order,
    text_lines,
)
from .losses import OBJECTIVES, LossConfig
from .metrics import LabelError, decision_grid, evaluate, lattice, save_grid
from .model import ModelParams, forward_rows, init_model, load_checkpoint, save_checkpoint
from .trainer import TrainConfig, extract_bank, load_bank, save_bank, train_many
from .tur import (
    Prediction,
    TurConfig,
    init_tur,
    match,
    predict_frozen,
    run_stream,
    save_snapshot,
    step,
)

# an arm trains the objective of its name; art takes ugd's model and adds the engine
ARMS = (*OBJECTIVES, "art")


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    embed_dim: int = bounded(8, 1)
    hidden: tuple[int, ...] = bounded((64, 64), 1)
    seed: int = bounded(0, 0)


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
    stream_seeds: tuple[int, ...] = bounded((0,), 0)
    arms: tuple[str, ...] = ARMS
    grid_resolution: int = bounded(80, 2)
    grid_margin: float = bounded(2.0, 0)

    def validate(self) -> None:
        check_fields(self, "config")
        self.blob.check_center_box()
        for arm in self.arms:
            if arm not in ARMS:
                raise ValueError(f"unknown arm {arm!r}; valid arms: {ARMS}")
        if not self.stream_seeds:
            raise ValueError("need at least one stream seed")
        if self.shift.translation and len(self.shift.translation) != self.blob.dim:
            raise ValueError(f"config.shift.translation needs config.blob.dim={self.blob.dim} values")
        bank_size = self.blob.num_known * self.blob.samples_per_cluster
        if self.tur.k > bank_size:
            raise ValueError(f"tur.k={self.tur.k} exceeds the source bank's {bank_size} rows")


def config_from_dict(payload: dict) -> ExperimentConfig:
    return from_json(ExperimentConfig, payload, "config")


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        payload = json.loads("".join(text_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON config: {exc}") from None
    return config_from_dict(payload)


def _checkpoint_hash(cfg: ExperimentConfig, objective: str) -> str:
    payload = {name: dataclasses.asdict(getattr(cfg, name)) for name in ("blob", "model", "train")}
    blob = json.dumps({**payload, "objective": objective}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _objective(arm: str) -> str:
    return "ugd" if arm == "art" else arm


def _head_labels(logits: np.ndarray, num_known: int) -> np.ndarray:
    """The classifier's own label per row of logits; the last head row is UNKNOWN."""
    k = np.argmax(logits, axis=-1)
    return np.where(k == num_known, UNKNOWN, k)


def _argmax_labels(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The classifier's own label per row of x, each from its row's own 1-D
    forward bits (`forward_rows`)."""
    return _head_labels(forward_rows(params, x)[1], params.num_known)


def _train(cfg: ExperimentConfig, arms, train_set) -> dict:
    """(params, bank) per arm: every distinct objective trains in one lockstep
    `train_many` call (art takes ugd's model), then gives its bank."""
    objectives = list(dict.fromkeys(_objective(arm) for arm in arms))
    initial = init_model(cfg.blob.dim, cfg.model.embed_dim, cfg.blob.num_known,
                         cfg.model.seed, hidden=cfg.model.hidden)
    trained = train_many(initial, train_set, cfg.train, objectives)
    models = {objective: (params, extract_bank(params, train_set))
              for objective, (params, _history) in zip(objectives, trained)}
    return {arm: models[_objective(arm)] for arm in arms}


def _save_models(cfg: ExperimentConfig, models: dict, outdir: str) -> None:
    """Make outdir, then write each distinct checkpoint and bank of `_train`'s
    models once, as model_<hash>.ckpt and bank_<hash>.csv."""
    os.makedirs(outdir, exist_ok=True)
    for objective, (params, bank) in {_objective(arm): m for arm, m in models.items()}.items():
        key = _checkpoint_hash(cfg, objective)
        save_checkpoint(params, os.path.join(outdir, f"model_{key}.ckpt"))
        save_bank(bank, os.path.join(outdir, f"bank_{key}.csv"))


def _grid_bbox(samples: list[Sample], margin: float):
    pts = np.stack([s.features[:2] for s in samples])
    (x0, y0), (x1, y1) = pts.min(axis=0) - margin, pts.max(axis=0) + margin
    return (float(x0), float(x1)), (float(y0), float(y1))


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
    (arm, seed) -> EvalReport. Fully deterministic given the config.

    Each stream is an order of the same shifted test rows, and nothing but
    art's prototypes changes along a stream. So each distinct checkpoint
    embeds the test rows, then the lattice rows, in one `forward_rows` call,
    art matches them against its bank in one pass, and each stream order
    indexes those rows: every row has the bits of its own 1-D call anyway.
    Inputs and training come before the output directory is made, so a run
    that fails there writes nothing."""
    cfg.validate()
    if os.path.isdir(outdir) and os.listdir(outdir) and not force:
        raise FileExistsError(f"output dir {outdir!r} is not empty (use --force)")

    train_set, test_set = generate_blobs(cfg.blob)
    shifted_test = apply_shift(test_set, cfg.shift)
    truths = np.array([s.label for s in shifted_test])
    orders = {seed: stream_order(len(shifted_test), seed) for seed in cfg.stream_seeds}
    rows = np.stack([s.features for s in shifted_test])
    grid = slice(len(rows), None)  # the lattice rows, after the test rows
    if cfg.blob.dim == 2:
        bbox = _grid_bbox(train_set + shifted_test, cfg.grid_margin)
        rows = np.concatenate([rows, lattice(bbox, cfg.grid_resolution)[2]])
    reports: dict[tuple[str, int], object] = {}

    models = _train(cfg, cfg.arms, train_set)
    checkpoints = {_objective(arm): models[arm][0] for arm in cfg.arms}  # art shares ugd's
    forwards = {objective: forward_rows(params, rows) for objective, params in checkpoints.items()}
    _save_models(cfg, models, outdir)
    for arm in cfg.arms:
        params, bank = models[arm]
        z, logits = forwards[_objective(arm)]
        if arm == "art":
            z, centroid, k_src = match(init_tur(bank, params, cfg.tur), z)
        else:
            labels = _head_labels(logits, params.num_known)
        grid_state = None
        for seed, order in orders.items():
            truth = truths[order].tolist()
            if arm == "art":
                state = init_tur(bank, params, cfg.tur)
                predictions = [step(state, *row) for row in zip(z[order], centroid[order], k_src[order])]
                preds = [p.label for p in predictions]
                grid_state = grid_state or state  # the state after the first stream
            else:
                preds = predictions = labels[order].tolist()
            report = evaluate(preds, truth, cfg.blob.num_known)
            report.to_json(os.path.join(outdir, f"report_{arm}_{seed}.json"))
            _write_steps(os.path.join(outdir, f"steps_{arm}_{seed}.ndjson"), truth, predictions)
            reports[(arm, seed)] = report

        if cfg.blob.dim == 2:
            def label_lattice(points):  # decision_grid's lattice: rows[grid], embedded above
                if arm == "art":
                    return predict_frozen(grid_state, z[grid], centroid[grid], k_src[grid])
                return labels[grid]
            save_grid(decision_grid(label_lattice, bbox, cfg.grid_resolution),
                      os.path.join(outdir, f"grid_{arm}.csv"))
    return reports


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    cfg.validate()
    train_set, test_set = generate_blobs(cfg.blob)
    shifted = apply_shift(test_set, cfg.shift)
    os.makedirs(args.outdir, exist_ok=True)
    for name, samples in (("train", train_set), ("test", test_set), ("test_shifted", shifted)):
        save_csv(samples, os.path.join(args.outdir, f"{name}.csv"))
    print(f"wrote train/test/test_shifted CSVs to {args.outdir}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    cfg.validate()
    train_set, _ = generate_blobs(cfg.blob)
    models = _train(cfg, [args.arm], train_set)
    _save_models(cfg, models, args.outdir)
    print(f"trained arm {args.arm}; checkpoint and bank written to {args.outdir}")
    return 0


def _cmd_adapt(args) -> int:
    if args.stream_seed < 0:
        raise ValueError(f"--stream-seed={args.stream_seed} must be >= 0")
    cfg = load_config(args.config)
    params = load_checkpoint(args.checkpoint)
    bank = load_bank(args.bank)
    test_set = load_csv(args.test_csv)
    if not test_set:
        raise ValueError(f"--test-csv {args.test_csv}: no rows after the header, "
                         "nothing to adapt over")
    if len(test_set[0].features) != params.input_dim:
        raise ValueError(f"{args.test_csv}: {len(test_set[0].features)} features per row, "
                         f"the checkpoint {args.checkpoint} takes {params.input_dim}")
    if bank.prototypes.shape != (params.num_known, params.embed_dim):
        raise ValueError(f"{args.bank}: embeddings of width {bank.embeddings.shape[1]} and "
                         f"{len(bank.prototypes)} class prototypes, the checkpoint "
                         f"{args.checkpoint} embeds to width {params.embed_dim} with "
                         f"{params.num_known} known classes")
    if not 1 <= cfg.tur.k <= len(bank):
        raise ValueError(f"config.tur.k={cfg.tur.k} must be in [1, {len(bank)}] for --bank {args.bank}")
    stream = make_stream(test_set, args.stream_seed)
    state = init_tur(bank, params, cfg.tur)
    preds = run_stream(state, stream)
    _write_steps(args.steps_out, [s.label for s in stream], preds)
    if args.snapshot_out:
        save_snapshot(state, args.snapshot_out)
    print(f"adapted over {len(stream)} samples; steps written to {args.steps_out}")
    return 0


def _read_steps(path: str) -> list[tuple]:
    """(pred, true, line number) per record of a steps file, in stream order."""
    records = []
    for line_no, line in enumerate(text_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            records.append((record["pred"], record["true"], line_no))
        except (ValueError, KeyError, TypeError):
            raise ValueError(f"{path}, line {line_no}: not a JSON object "
                             "with pred and true") from None
    if not records:
        raise ValueError(f"{path}: no step records")
    return records


def _cmd_eval(args) -> int:
    if args.num_known < 1:
        raise ValueError(f"--num-known={args.num_known} must be >= 1")
    preds, truths, line_nos = zip(*_read_steps(args.steps))
    try:
        report = evaluate(preds, truths, args.num_known)
    except LabelError as exc:
        raise ValueError(f"{args.steps}, line {line_nos[exc.step]}: {exc}") from None
    report.to_json(args.report_out)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def _cmd_grid(args) -> int:
    bounds = {flag: getattr(args, flag) for flag in ("xmin", "xmax", "ymin", "ymax")}
    for flag, value in bounds.items():
        if not np.isfinite(value):
            raise ValueError(f"--{flag}={value} must be finite")
    for lo, hi in (("xmin", "xmax"), ("ymin", "ymax")):
        if not bounds[lo] < bounds[hi]:
            raise ValueError(f"--{lo}={bounds[lo]} must be below --{hi}={bounds[hi]}")
    if args.resolution < 2:
        raise ValueError(f"--resolution={args.resolution} must be >= 2")
    params = load_checkpoint(args.checkpoint)
    if params.input_dim != 2:
        raise ValueError(f"{args.checkpoint}: the model takes {params.input_dim} inputs, "
                         "and the grid is a 2-D lattice of (x, y) points")
    bbox = ((args.xmin, args.xmax), (args.ymin, args.ymax))
    grid = decision_grid(partial(_argmax_labels, params), bbox, args.resolution)
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

    p = sub.add_parser("train", help="train one arm and write its checkpoint and bank")
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
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
