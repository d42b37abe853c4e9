import dataclasses
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostta.cli import (
    ARMS,
    ExperimentConfig,
    ModelSpec,
    _argmax_labels,
    _checkpoint_hash,
    _grid_bbox,
    _train,
    _write_steps,
    config_from_dict,
    load_config,
    main,
    run_experiment,
)
from ostta import data
from ostta.data import UNKNOWN, BlobSpec, ShiftSpec, apply_shift, generate_blobs, make_stream
from ostta.losses import OBJECTIVES
from ostta.metrics import Grid, decision_grid, evaluate, save_grid
from ostta.model import forward, init_model, load_checkpoint, save_checkpoint
from ostta.trainer import TrainConfig, extract_bank, load_bank, save_bank
from ostta.tur import (Prediction, TurConfig, embed, init_tur, load_snapshot, predict_frozen,
                       run_stream)


def _small_config(**overrides):
    base = dict(
        blob=BlobSpec(samples_per_cluster=10, seed=0),
        shift=ShiftSpec(rotation_angle=0.2, noise_std=0.1, seed=1),
        model=ModelSpec(embed_dim=4, hidden=(8,)),
        train=TrainConfig(epochs=2),
        tur=TurConfig(k=5),
        grid_resolution=6,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_round_trip():
    cfg = _small_config(stream_seeds=(0, 1), arms=("ce", "art"))
    payload = dataclasses.asdict(cfg)
    restored = config_from_dict(json.loads(json.dumps(payload)))
    assert restored == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"blob": {"seed": 0}, "optimizer": "adam"})
    with pytest.raises(ValueError, match="config.train"):
        config_from_dict({"train": {"nesterov": True}})
    # the engine has one configuration: its removed mode keys are unknown
    with pytest.raises(ValueError, match=r"unknown config keys at config.tur: \['cold_start_mode'\]"):
        config_from_dict({"tur": {"cold_start_mode": "copy_source"}})


@pytest.mark.parametrize("payload, where, key", [
    ({"train": {"objective": "ce"}}, "config.train", "objective"),
    ({"train": {"loss": {"enable_ua": False}}}, "config.train.loss", "enable_ua"),
    ({"train": {"loss": {"enable_sce": False}}}, "config.train.loss", "enable_sce"),
])
def test_config_rejects_the_removed_objective_keys(payload, where, key):
    # the arm alone chooses the objective
    with pytest.raises(ValueError, match=rf"unknown config keys at {where}: \['{key}'\]"):
        config_from_dict(payload)


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(arms=("svm",)).validate()
    with pytest.raises(ValueError):
        _small_config(stream_seeds=()).validate()
    _small_config(grid_resolution=2, tur=TurConfig(k=30)).validate()  # k = the bank's 3 * 10 rows


@pytest.mark.parametrize("payload, message", [
    ({"grid_resolution": 1}, "config.grid_resolution=1 must be >= 2"),
    ({"tur": {"k": 0}}, "config.tur.k=0 must be >= 1"),
    ({"tur": {"k": 301}}, "tur.k=301 exceeds the source bank's 300 rows"),
    ({"blob": {"samples_per_cluster": 3}}, "tur.k=10 exceeds the source bank's 9 rows"),
    ({"model": {"embed_dim": 0}}, "config.model.embed_dim=0 must be >= 1"),
    ({"model": {"hidden": [64, 0]}}, "config.model.hidden[1]=0 must be >= 1"),
    ({"model": {"hidden": [-3]}}, "config.model.hidden[0]=-3 must be >= 1"),
])
def test_cli_rejects_bad_config_values_before_any_work(tmp_path, capsys, payload, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload))
    outdir = tmp_path / "out"
    outdir.mkdir()
    assert main(["run", "--config", str(config_path), "--outdir", str(outdir)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == message
    assert os.listdir(outdir) == []  # no checkpoint, bank, report or grid


def test_cli_train_rejects_a_bad_model_before_any_work(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"model": {"embed_dim": 0}}))
    outdir = tmp_path / "out"
    assert main(["train", "--config", str(config_path), "--outdir", str(outdir)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "config.model.embed_dim=0 must be >= 1"
    assert not outdir.exists()


def test_arm_train_configs(monkeypatch):
    # every arm trains the objective of its own name, but art, which takes ugd's model
    from ostta import cli

    assert ARMS == (*OBJECTIVES, "art")
    trained = []

    def recording(params, train_set, config, objectives):
        trained.append((config, objectives))
        return real(params, train_set, config, objectives)

    real = cli.train_many
    monkeypatch.setattr(cli, "train_many", recording)
    cfg = _small_config()
    arms = ("art", "ce", "ugd_no_sce", "ugd", "ugd_no_ua")
    models = _train(cfg, arms, generate_blobs(cfg.blob)[0])
    assert trained == [(cfg.train, ["ugd", "ce", "ugd_no_sce", "ugd_no_ua"])]
    assert models["art"] is models["ugd"]
    assert len({id(m) for m in models.values()}) == 4


def test_checkpoint_hash_sensitivity():
    cfg = _small_config()
    hashes = {objective: _checkpoint_hash(cfg, objective) for objective in OBJECTIVES}
    assert len(set(hashes.values())) == len(OBJECTIVES)
    other = dataclasses.replace(cfg, blob=BlobSpec(samples_per_cluster=10, seed=1))
    assert _checkpoint_hash(other, "ugd") != hashes["ugd"]
    retuned = dataclasses.replace(cfg, train=TrainConfig(epochs=3))
    assert _checkpoint_hash(retuned, "ce") != hashes["ce"]


def test_run_experiment_artifacts(tmp_path):
    cfg = _small_config(arms=("ce", "art"), stream_seeds=(0, 1))
    outdir = tmp_path / "out"
    reports = run_experiment(cfg, str(outdir))
    assert set(reports) == {("ce", 0), ("ce", 1), ("art", 0), ("art", 1)}
    names = set(os.listdir(outdir))
    for arm in ("ce", "art"):
        assert f"grid_{arm}.csv" in names
        for seed in (0, 1):
            assert f"report_{arm}_{seed}.json" in names
            assert f"steps_{arm}_{seed}.ndjson" in names
    assert any(n.startswith("model_") and n.endswith(".ckpt") for n in names)
    assert any(n.startswith("bank_") and n.endswith(".csv") for n in names)
    # steps files are valid ndjson with one record per test sample
    lines = (outdir / "steps_art_0.ndjson").read_text().splitlines()
    assert len(lines) == 40  # 3 known + 1 unknown cluster, 10 samples each
    rec = json.loads(lines[0])
    assert {"step", "route", "pred", "true"} <= set(rec)


def test_run_experiment_equals_a_per_seed_recomputation(tmp_path):
    # the run embeds the test rows and the lattice once per checkpoint and
    # matches them once for art; each stream run on its own, through the
    # public calls, writes the same bytes
    ref = ExperimentConfig()
    cfg = dataclasses.replace(
        ref, blob=dataclasses.replace(ref.blob, samples_per_cluster=30),
        train=dataclasses.replace(ref.train, epochs=5), grid_resolution=12, stream_seeds=(0, 5, 8))
    out, want = tmp_path / "out", tmp_path / "want"
    run_experiment(cfg, str(out))
    want.mkdir()
    train_set, test_set = generate_blobs(cfg.blob)
    shifted = apply_shift(test_set, cfg.shift)
    bbox = _grid_bbox(train_set + shifted, cfg.grid_margin)
    for arm in cfg.arms:  # the run's own checkpoint and bank, art's being ugd's
        key = _checkpoint_hash(cfg, "ugd" if arm == "art" else arm)
        params, bank = (load_checkpoint(str(out / f"model_{key}.ckpt")),
                        load_bank(str(out / f"bank_{key}.csv")))
        first = None
        for seed in cfg.stream_seeds:
            stream = make_stream(shifted, seed)
            truths = [s.label for s in stream]
            if arm == "art":
                state = init_tur(bank, params, cfg.tur)
                preds = run_stream(state, stream)
                labels = [p.label for p in preds]
                first = first or state
            else:
                labels = preds = _argmax_labels(params, np.stack([s.features for s in stream])).tolist()
            evaluate(labels, truths, cfg.blob.num_known).to_json(str(want / f"report_{arm}_{seed}.json"))
            _write_steps(str(want / f"steps_{arm}_{seed}.ndjson"), truths, preds)
        predict = ((lambda x: predict_frozen(first, *embed(first, x))) if arm == "art"
                   else lambda x: _argmax_labels(params, x))
        grid = decision_grid(predict, bbox, cfg.grid_resolution)
        save_grid(grid, str(want / f"grid_{arm}.csv"))
        if arm == "art":  # these seeds' first and last streams leave states of different grids
            last = decision_grid(lambda x: predict_frozen(state, *embed(state, x)), bbox,
                                 cfg.grid_resolution)
            assert not np.array_equal(last.labels, grid.labels)
    names = sorted(os.listdir(want))
    assert len(names) == len(cfg.arms) * (2 * len(cfg.stream_seeds) + 1)
    for name in names:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


def test_run_experiment_refuses_nonempty_outdir(tmp_path):
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "keep.txt").write_text("x")
    cfg = _small_config(arms=("ce",))
    with pytest.raises(FileExistsError):
        run_experiment(cfg, str(outdir))
    run_experiment(cfg, str(outdir), force=True)  # explicit overwrite works


def test_run_experiment_deterministic(tmp_path):
    cfg = _small_config(arms=("ugd", "art"))
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, str(a))
    run_experiment(cfg, str(b))
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_experiment_over_a_stale_outdir_writes_a_fresh_runs_bytes(tmp_path):
    # a run reads nothing from its outdir: neither ce's checkpoint and bank
    # planted under ugd's names nor a deleted bank changes a byte it writes
    cfg = _small_config(arms=("ce", "ugd", "art"))
    fresh, planted, deleted = tmp_path / "fresh", tmp_path / "planted", tmp_path / "deleted"
    run_experiment(cfg, str(fresh))
    names = sorted(os.listdir(fresh))
    ce, ugd = _checkpoint_hash(cfg, "ce"), _checkpoint_hash(cfg, "ugd")
    planted.mkdir()
    for name in ("model_{}.ckpt", "bank_{}.csv"):
        shutil.copyfile(fresh / name.format(ce), planted / name.format(ugd))
    shutil.copytree(fresh, deleted)
    os.remove(deleted / f"bank_{ugd}.csv")
    for stale in (planted, deleted):
        run_experiment(cfg, str(stale), force=True)
        assert sorted(os.listdir(stale)) == names
        for name in names:
            assert (stale / name).read_bytes() == (fresh / name).read_bytes(), (stale.name, name)


def test_cli_end_to_end_pipeline(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dataclasses.asdict(_small_config())))
    data_dir = tmp_path / "data"
    work = tmp_path / "work"

    assert main(["gen-data", "--config", str(config_path), "--outdir", str(data_dir)]) == 0
    assert (data_dir / "test_shifted.csv").exists()

    assert main(["train", "--config", str(config_path), "--arm", "ugd",
                 "--outdir", str(work)]) == 0
    ckpt = next(str(work / n) for n in os.listdir(work) if n.endswith(".ckpt"))
    assert not [n for n in os.listdir(work) if n.endswith(".proto.csv")]  # a bank is one file
    bank = next(str(work / n) for n in os.listdir(work) if n.startswith("bank_"))

    steps = str(tmp_path / "steps.ndjson")
    snap = str(tmp_path / "snap.json")
    assert main(["adapt", "--config", str(config_path), "--checkpoint", ckpt,
                 "--bank", bank, "--test-csv", str(data_dir / "test_shifted.csv"),
                 "--steps-out", steps, "--snapshot-out", snap]) == 0
    assert os.path.exists(snap)

    report = str(tmp_path / "report.json")
    assert main(["eval", "--steps", steps, "--num-known", "3",
                 "--report-out", report]) == 0
    payload = json.loads(Path(report).read_text())
    assert payload["n"] == 40

    grid_out = str(tmp_path / "grid.csv")
    assert main(["grid", "--checkpoint", ckpt, "--xmin", "-5", "--xmax", "5",
                 "--ymin", "-5", "--ymax", "5", "--resolution", "4",
                 "--grid-out", grid_out]) == 0
    assert len(Path(grid_out).read_text().splitlines()) == 17


def test_cli_run_and_ablate(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dataclasses.asdict(_small_config())))
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(config_path),
                 "--outdir", str(outdir), "--arms", "ce,ugd"]) == 0
    out = capsys.readouterr().out
    assert "ce" in out and "ugd" in out
    assert not any(n.startswith("report_art") for n in os.listdir(outdir))


def test_cli_error_reporting(tmp_path, capsys):
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "occupied.txt").write_text("x")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dataclasses.asdict(_small_config())))
    code = main(["run", "--config", str(config_path), "--outdir", str(outdir)])
    assert code == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"]


@pytest.mark.parametrize("payload, where", [
    ({"tur": 5}, "config.tur"),
    ({"train": {"loss": [1.0]}}, "config.train.loss"),
    ([], "config"),
])
def test_cli_rejects_config_section_that_is_not_an_object(tmp_path, capsys, payload, where):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload))
    code = main(["run", "--config", str(config_path), "--outdir", str(tmp_path / "out")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{where} must be a JSON object")


@pytest.mark.parametrize("payload, message", [
    ({"tur": {"k": "x"}}, "config.tur.k must be int, got str 'x'"),
    ({"blob": {"samples_per_cluster": "5"}}, "config.blob.samples_per_cluster must be int"),
    ({"train": {"epochs": True}}, "config.train.epochs must be int, got bool"),
    ({"train": {"loss": {"tau": "8"}}}, "config.train.loss.tau must be float, got str"),
    ({"train": {"shuffle_seed": 1.5}}, "config.train.shuffle_seed must be int"),
    ({"shift": {"noise_std": None}}, "config.shift.noise_std must be float"),
    ({"model": {"hidden": [8, 2.5]}}, "config.model.hidden[1] must be int"),
    ({"blob": {"center_box": [-8.0]}}, "config.blob.center_box must hold 2 values, got 1"),
    ({"arms": "ce"}, "config.arms must be a JSON list, got str"),
])
def test_cli_rejects_config_leaf_of_the_wrong_type(tmp_path, capsys, payload, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload))
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--outdir", str(outdir)]) == 1
    assert json.loads(capsys.readouterr().err)["error"].startswith(message)
    assert not outdir.exists()  # failed at load time, before any training


def test_cli_rejects_a_translation_of_another_width_before_any_output(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"shift": {"translation": [1.0, 2.0, 3.0]}}))
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--outdir", str(outdir)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == "config.shift.translation needs config.blob.dim=2 values"
    assert not outdir.exists()


def test_cli_gen_data_validates_its_config_before_any_output(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"shift": {"translation": [1.0, 2.0, 3.0]}}))
    outdir = tmp_path / "data"
    assert main(["gen-data", "--config", str(config_path), "--outdir", str(outdir)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == "config.shift.translation needs config.blob.dim=2 values"
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["gen-data", "run"])
@pytest.mark.parametrize("payload, key", [
    ({"blob": {"center_box": [-8.0, math.inf]}}, "config.blob.center_box"),
    ({"blob": {"center_box": [math.nan, 8.0]}}, "config.blob.center_box"),
    ({"blob": {"center_box": [-1e308, 1e308]}}, "config.blob.center_box"),
    ({"blob": {"cluster_std": math.nan}}, "config.blob.cluster_std"),
    ({"shift": {"rotation_angle": math.inf}}, "config.shift.rotation_angle"),
    ({"shift": {"translation": [0.0, math.nan]}}, "config.shift.translation[1]"),
    ({"shift": {"noise_std": -1.0}}, "config.shift.noise_std"),
    ({"shift": {"noise_std": math.nan}}, "config.shift.noise_std"),
    ({"grid_margin": math.nan}, "config.grid_margin"),
    ({"grid_margin": -50.0}, "config.grid_margin"),
])
def test_cli_names_the_key_of_a_non_finite_or_negative_value(tmp_path, capsys, command, payload, key):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload))  # NaN and Infinity as Python's json writes them
    outdir = tmp_path / "out"
    assert main([command, "--config", str(config_path), "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(err)["error"].startswith(key + "=")
    assert not outdir.exists()


# one out-of-range value of each bounded config leaf, and the rule it breaks
_OUT_OF_RANGE = [
    ("blob.num_known", 1, ">= 2"),
    ("blob.num_unknown_clusters", 0, ">= 1"),
    ("blob.dim", 1, ">= 2"),
    ("blob.samples_per_cluster", 0, ">= 1"),
    ("blob.cluster_std", 0.0, "> 0"),
    ("blob.seed", -1, ">= 0"),
    ("shift.noise_std", -0.5, ">= 0"),
    ("shift.seed", -1, ">= 0"),
    ("model.embed_dim", 0, ">= 1"),
    ("model.hidden[1]", 0, ">= 1"),
    ("model.seed", -1, ">= 0"),
    ("train.epochs", -1, ">= 0"),
    ("train.batch_size", 0, ">= 1"),
    ("train.learning_rate", -0.01, ">= 0"),
    ("train.momentum", -0.1, ">= 0"),
    ("train.momentum", 1.0, "< 1"),
    ("train.shuffle_seed", -1, ">= 0"),
    ("train.loss.tau", 0.0, "> 0"),
    ("train.loss.lam", -0.1, ">= 0"),
    ("tur.ema_weight", 0.0, "> 0"),
    ("tur.ema_weight", 1.0, "< 1"),
    ("tur.k", 0, ">= 1"),
    ("stream_seeds[1]", -3, ">= 0"),
    ("grid_resolution", 1, ">= 2"),
    ("grid_margin", -1.0, ">= 0"),
]
# the float leaves, each refused as NaN, Infinity and -Infinity too
_FLOAT_LEAVES = ["blob.cluster_std", "shift.rotation_angle", "shift.translation[1]",
                 "shift.noise_std", "train.learning_rate", "train.momentum", "train.loss.tau",
                 "train.loss.lam", "tur.ema_weight", "grid_margin"]


def _leaf_payload(leaf, value):
    """The config payload that sets one leaf, such as `model.hidden[1]`, to
    value; a list keeps the default config's other entries."""
    *sections, name = leaf.split(".")
    name, _, index = name.rstrip("]").partition("[")
    if index:
        section = ExperimentConfig()
        for part in sections:
            section = getattr(section, part)
        entries = list(getattr(section, name))
        entries[int(index):int(index) + 1] = [value]
        value = entries
    for part in reversed([*sections, name]):
        value = {part: value}
    return value


def test_the_bounded_value_cases_cover_every_bounded_leaf():
    def bounded_leaves(config, path):
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            if dataclasses.is_dataclass(value):
                yield from bounded_leaves(value, f"{path}{f.name}.")
            elif "bounds" in f.metadata:
                yield path + f.name

    cases = {leaf.partition("[")[0] for leaf, _, _ in _OUT_OF_RANGE} | {
        leaf.partition("[")[0] for leaf in _FLOAT_LEAVES}
    assert set(bounded_leaves(ExperimentConfig(), "")) == cases


@pytest.mark.parametrize("leaf, value, rule", [
    *_OUT_OF_RANGE,
    *[(leaf, value, "finite") for leaf in _FLOAT_LEAVES for value in (math.nan, math.inf, -math.inf)],
])
def test_cli_refuses_each_bounded_value_naming_its_key(tmp_path, capsys, leaf, value, rule):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_leaf_payload(leaf, value)))  # NaN as Python's json writes it
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == f"config.{leaf}={value} must be {rule}"
    assert not outdir.exists()


@pytest.mark.parametrize("command, payload, key", [
    ("gen-data", {"shift": {"rotation_angle": 10**400}}, "config.shift.rotation_angle"),
    ("run", {"grid_margin": 10**400}, "config.grid_margin"),
    ("run", {"train": {"learning_rate": 10**400}}, "config.train.learning_rate"),
])
def test_cli_names_the_key_of_an_int_too_large_for_a_float(tmp_path, capsys, command, payload, key):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload))  # a JSON int of 401 digits
    outdir = tmp_path / "out"
    assert main([command, "--config", str(config_path), "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == f"{key} must be a float, got an int too large for one"
    assert not outdir.exists()


def test_cli_names_a_config_that_is_cut(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"train": {"epochs": 5}})[:18])
    assert main(["run", "--config", str(config_path), "--outdir", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err)["error"].startswith(
        f"{config_path}: not a JSON config: ")
    assert not (tmp_path / "out").exists()


def test_config_leaf_float_accepts_int():
    cfg = config_from_dict({"train": {"learning_rate": 1}, "blob": {"center_box": [-8, 8]}})
    assert cfg.train.learning_rate == 1 and cfg.blob.center_box == (-8, 8)


def test_run_experiment_trains_missing_configs_in_one_call(tmp_path, monkeypatch):
    from ostta import cli

    calls = []

    def counting(params, train_set, config, objectives):
        calls.append(objectives)
        return real(params, train_set, config, objectives)

    real = cli.train_many
    monkeypatch.setattr(cli, "train_many", counting)
    outdir = tmp_path / "out"
    reports = run_experiment(_small_config(arms=ARMS), str(outdir))
    # art reuses ugd's model: four distinct objectives, one lockstep call
    assert calls == [["ce", "ugd_no_ua", "ugd_no_sce", "ugd"]]
    assert len([n for n in os.listdir(outdir) if n.endswith(".ckpt")]) == 4
    ce = _checkpoint_hash(_small_config(), "ce")
    os.remove(outdir / f"bank_{ce}.csv")
    again = run_experiment(_small_config(arms=ARMS), str(outdir), force=True)
    assert calls[1:] == calls[:1]  # the outdir's files are not read: all four train again
    assert {k: r.to_dict() for k, r in again.items()} == {k: r.to_dict() for k, r in reports.items()}


def test_run_experiment_writes_no_cache_when_a_slice_diverges(tmp_path, capsys):
    # tau so small that logits / tau overflow: the ugd slice diverges, ce (tau 1) does not
    payload = dataclasses.asdict(_small_config(arms=("ce", "ugd", "art")))
    payload["train"]["loss"]["tau"] = 1e-320
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload))
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--outdir", str(outdir)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert "diverged" in error and "objective 'ugd'" in error and "'ce'" not in error
    assert not outdir.exists()


# 10**15 sizes an array of 1 PiB or more, past any address space, so numpy
# refuses it outright; 10**22 is past numpy's own limits on a shape
@pytest.mark.parametrize("size", [10**15, 10**22])
@pytest.mark.parametrize("command, leaf", [
    ("run", "blob.samples_per_cluster"), ("run", "grid_resolution"), ("run", "model.hidden[0]"),
    ("run", "model.embed_dim"), ("train", "blob.samples_per_cluster"),
    ("train", "model.hidden[0]"), ("train", "model.embed_dim"),
])
def test_cli_reports_a_size_numpy_cannot_allocate_before_any_output(tmp_path, capfd, command,
                                                                     leaf, size):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_leaf_payload(leaf, size)))
    outdir = tmp_path / "out"
    assert main([command, "--config", str(config_path), "--outdir", str(outdir)]) == 1
    err = capfd.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    error = json.loads(err)["error"]
    assert error.startswith("Unable to allocate " if size == 10**15 else "Maximum allowed "), error
    assert not outdir.exists()


def test_cli_eval_rejects_label_outside_the_classes(tmp_path, capsys):
    steps = tmp_path / "steps.ndjson"
    steps.write_text("".join(json.dumps({"pred": k, "true": k}) + "\n" for k in (2, 0, 1)))
    code = main(["eval", "--steps", str(steps), "--num-known", "2",
                 "--report-out", str(tmp_path / "report.json")])
    assert code == 1
    assert "label 2 " in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("record, label", [({"pred": 0, "true": 7}, 7), ({"pred": -3, "true": 1}, -3),
                                           ({"pred": 0, "true": "0"}, "0")])
def test_cli_eval_names_the_file_and_line_of_a_bad_label(tmp_path, capsys, record, label):
    # a blank line before the bad record: the line number counts it, the record index does not
    steps = tmp_path / "steps.ndjson"
    good = json.dumps({"pred": 1, "true": UNKNOWN}) + "\n"
    steps.write_text(good + "\n" + good + json.dumps(record) + "\n" + good)
    code = main(["eval", "--steps", str(steps), "--num-known", "2",
                 "--report-out", str(tmp_path / "report.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == (
        f"{steps}, line 4: label {label!r} is neither a known class 0..1 nor UNKNOWN ({UNKNOWN})")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("bad_line", ['{"true": 0}', '{"pred": 0, "true": 0'],
                         ids=["no-pred", "not-json"])
def test_cli_eval_names_the_file_and_line_of_a_malformed_record(tmp_path, capsys, bad_line):
    steps = tmp_path / "steps.ndjson"
    steps.write_text(json.dumps({"pred": 0, "true": 0}) + "\n" + bad_line + "\n")
    code = main(["eval", "--steps", str(steps), "--num-known", "2",
                 "--report-out", str(tmp_path / "report.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{steps}, line 2: ")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_cli_eval_names_an_empty_steps_file(tmp_path, capsys, text):
    steps = tmp_path / "steps.ndjson"
    steps.write_text(text)
    code = main(["eval", "--steps", str(steps), "--num-known", "2",
                 "--report-out", str(tmp_path / "report.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == f"{steps}: no step records"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("num_known", ["0", "-3"])
def test_cli_eval_rejects_a_num_known_below_one(tmp_path, capsys, num_known):
    steps = tmp_path / "steps.ndjson"
    steps.write_text(json.dumps({"pred": 1, "true": 1}) + "\n")
    code = main(["eval", "--steps", str(steps), "--num-known", num_known,
                 "--report-out", str(tmp_path / "report.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == f"--num-known={num_known} must be >= 1"
    assert not (tmp_path / "report.json").exists()


def test_cli_arm_choices_enforced(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["train", "--arm", "resnet", "--outdir", str(tmp_path)])
    assert ARMS == ("ce", "ugd_no_ua", "ugd_no_sce", "ugd", "art")


def test_cli_grid_names_a_checkpoint_of_an_unknown_activation(tmp_path, capsys):
    ckpt = tmp_path / "act.ckpt"
    save_checkpoint(init_model(2, 4, 3, 0, hidden=(8,)), str(ckpt))
    line, body = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["activations"][0] = "relu"
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + body)
    grid_out = tmp_path / "grid.csv"
    assert main(["grid", "--checkpoint", str(ckpt), "--xmin", "-1", "--xmax", "1",
                 "--ymin", "-1", "--ymax", "1", "--grid-out", str(grid_out)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith(f"{ckpt}: unknown activation 'relu'")
    assert not grid_out.exists()


@pytest.mark.parametrize("bounds, message", [
    (["nan", "1", "-1", "1"], "--xmin=nan must be finite"),
    (["-1", "inf", "-1", "1"], "--xmax=inf must be finite"),
    (["-1", "1", "-inf", "1"], "--ymin=-inf must be finite"),
    (["1", "1", "-1", "1"], "--xmin=1.0 must be below --xmax=1.0"),
    (["-1", "1", "2", "-2"], "--ymin=2.0 must be below --ymax=-2.0"),
    # good bounds, then more flags: a one-point lattice, a checkpoint of 3 inputs
    (["-1", "1", "-1", "1", "--resolution=1"], "--resolution=1 must be >= 2"),
    (["-1", "1", "-1", "1", "--checkpoint={wide}"],
     "{wide}: the model takes 3 inputs, and the grid is a 2-D lattice of (x, y) points"),
])
def test_cli_grid_rejects_a_bad_bound_before_any_file(tmp_path, capsys, bounds, message):
    ckpt, wide = tmp_path / "model.ckpt", tmp_path / "wide.ckpt"
    save_checkpoint(init_model(2, 4, 3, 0, hidden=(8,)), str(ckpt))
    save_checkpoint(init_model(3, 4, 3, 0, hidden=(8,)), str(wide))
    grid_out = tmp_path / "grid.csv"
    flags = [f"{flag}={value}" for flag, value in zip(("--xmin", "--xmax", "--ymin", "--ymax"),
                                                       bounds)]
    flags += [flag.format(wide=wide) for flag in bounds[4:]]
    assert main(["grid", "--checkpoint", str(ckpt), *flags, "--grid-out", str(grid_out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == message.format(wide=wide)
    assert not grid_out.exists()


def test_cli_adapt_rejects_a_test_csv_of_the_wrong_width(tmp_path, capsys):
    ckpt, bank_path = str(tmp_path / "model.ckpt"), str(tmp_path / "bank.csv")
    params = init_model(2, 4, 3, 0, hidden=(8,))
    save_checkpoint(params, ckpt)
    train_set, _ = generate_blobs(BlobSpec(samples_per_cluster=5))
    save_bank(extract_bank(params, train_set), bank_path)
    test_csv = tmp_path / "wide.csv"
    test_csv.write_text("x0,x1,x2,label\n0.5,-1.0,2.0,1\n1.0,0.0,-0.5,unknown\n")
    steps, snap = tmp_path / "steps.ndjson", tmp_path / "snap.json"
    assert main(["adapt", "--checkpoint", ckpt, "--bank", bank_path, "--test-csv", str(test_csv),
                 "--steps-out", str(steps), "--snapshot-out", str(snap)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"{test_csv}: 3 features per row, the checkpoint {ckpt} takes 2"
    assert not steps.exists() and not snap.exists()


def test_cli_adapt_rejects_a_header_only_test_csv(tmp_path, capsys):
    ckpt, bank_path = str(tmp_path / "model.ckpt"), str(tmp_path / "bank.csv")
    params = init_model(2, 4, 3, 0, hidden=(8,))
    save_checkpoint(params, ckpt)
    train_set, _ = generate_blobs(BlobSpec(samples_per_cluster=5))
    save_bank(extract_bank(params, train_set), bank_path)
    test_csv = tmp_path / "empty.csv"
    test_csv.write_text("x0,x1,label\n")
    steps, snap = tmp_path / "steps.ndjson", tmp_path / "snap.json"
    assert main(["adapt", "--checkpoint", ckpt, "--bank", bank_path, "--test-csv", str(test_csv),
                 "--steps-out", str(steps), "--snapshot-out", str(snap)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"--test-csv {test_csv}: no rows after the header, nothing to adapt over"
    assert not steps.exists() and not snap.exists()


def test_cli_adapt_rejects_a_bank_of_another_embedding_width(tmp_path, capsys):
    ckpt, bank_path = str(tmp_path / "model.ckpt"), str(tmp_path / "bank.csv")
    save_checkpoint(init_model(2, 5, 3, 0, hidden=(8,)), ckpt)
    train_set, test_set = generate_blobs(BlobSpec(samples_per_cluster=5))
    save_bank(extract_bank(init_model(2, 8, 3, 0, hidden=(8,)), train_set), bank_path)
    test_csv = str(tmp_path / "test.csv")
    data.save_csv(test_set, test_csv)
    steps, snap = tmp_path / "steps.ndjson", tmp_path / "snap.json"
    assert main(["adapt", "--checkpoint", ckpt, "--bank", bank_path, "--test-csv", test_csv,
                 "--steps-out", str(steps), "--snapshot-out", str(snap)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == (f"{bank_path}: embeddings of width 8 and 3 class prototypes, the checkpoint "
                     f"{ckpt} embeds to width 5 with 3 known classes")
    assert not steps.exists() and not snap.exists()



@pytest.mark.parametrize("k", [100000, 16, 0])
def test_cli_adapt_names_the_key_and_the_bank_for_a_k_out_of_range(tmp_path, capsys, k):
    # the bank holds 3 * 5 rows, so k must be in [1, 15]
    ckpt, bank_path = str(tmp_path / "model.ckpt"), str(tmp_path / "bank.csv")
    params = init_model(2, 4, 3, 0, hidden=(8,))
    save_checkpoint(params, ckpt)
    train_set, test_set = generate_blobs(BlobSpec(samples_per_cluster=5))
    save_bank(extract_bank(params, train_set), bank_path)
    test_csv, config = str(tmp_path / "test.csv"), tmp_path / "config.json"
    data.save_csv(test_set, test_csv)
    config.write_text(json.dumps({"tur": {"k": k}}))
    steps, snap = tmp_path / "steps.ndjson", tmp_path / "snap.json"
    assert main(["adapt", "--config", str(config), "--checkpoint", ckpt, "--bank", bank_path,
                 "--test-csv", test_csv, "--steps-out", str(steps),
                 "--snapshot-out", str(snap)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"config.tur.k={k} must be in [1, 15] for --bank {bank_path}"
    assert not steps.exists() and not snap.exists()


def test_cli_adapt_refuses_a_negative_stream_seed_before_any_output(tmp_path, capsys):
    paths = _adapt_inputs(tmp_path)
    argv = _commands(paths, tmp_path)["--bank"]
    snapshot = tmp_path / "snap.json"
    assert main([*argv, "--snapshot-out", str(snapshot), "--stream-seed", "-1"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "--stream-seed=-1 must be >= 0"
    assert not snapshot.exists() and not (tmp_path / "out.ndjson").exists()


any_int = st.integers(-(2**70), 2**70)
engine_predictions = st.builds(Prediction, any_int, st.sampled_from(["agreed", "followup"]),
                               any_int, any_int)


@settings(max_examples=150, deadline=None)
@given(truths=st.lists(any_int, min_size=1, max_size=30), engine=st.booleans(), data=st.data())
def test_steps_lines_equal_json_dumps_of_their_records(truths, engine, data):
    n = len(truths)
    if engine:
        preds = data.draw(st.lists(engine_predictions, min_size=n, max_size=n))
        records = [{"step": i, "route": p.route, "source_match": p.source_match,
                    "target_match": p.target_match, "pred": p.label, "true": t}
                   for i, (p, t) in enumerate(zip(preds, truths))]
    else:
        preds = data.draw(st.lists(any_int, min_size=n, max_size=n))
        records = [{"step": i, "route": "model", "pred": p, "true": t}
                   for i, (p, t) in enumerate(zip(preds, truths))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "steps.ndjson")
        _write_steps(path, truths, preds)
        with open(path, newline="") as fh:
            lines = fh.read().split("\n")
    assert lines == [json.dumps(rec, sort_keys=True) for rec in records] + [""]


class _DiskFullAfterOneWrite:
    """A file whose first write lands and whose later writes raise."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise OSError(28, "No space left on device")
        return self.fh.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


ARTIFACT_WRITERS = {
    "report": lambda path: evaluate([0, UNKNOWN], [0, UNKNOWN], 1).to_json(path),
    "steps": lambda path: _write_steps(path, [0, 1, UNKNOWN], [0, UNKNOWN, UNKNOWN]),
    "grid": lambda path: save_grid(Grid(np.zeros(2), np.arange(2.0), np.zeros((2, 2), int)), path),
}


@pytest.mark.parametrize("kind", ARTIFACT_WRITERS)
def test_artifact_write_that_raises_leaves_no_file(tmp_path, monkeypatch, kind):
    real_open = open
    monkeypatch.setattr(data, "open", lambda *a, **kw: _DiskFullAfterOneWrite(real_open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        ARTIFACT_WRITERS[kind](str(tmp_path / f"{kind}.out"))
    assert os.listdir(tmp_path) == []  # neither the artifact nor its .tmp


def _adapt_inputs(tmp_path):
    """A checkpoint, its bank, a test CSV, a steps file and a config, all valid."""
    paths = {name: str(tmp_path / name) for name in
             ("model.ckpt", "bank.csv", "test.csv", "steps.ndjson", "config.json")}
    params = init_model(2, 4, 3, 0, hidden=(8,))
    save_checkpoint(params, paths["model.ckpt"])
    train_set, test_set = generate_blobs(BlobSpec(samples_per_cluster=5))
    save_bank(extract_bank(params, train_set), paths["bank.csv"])
    data.save_csv(test_set, paths["test.csv"])
    _write_steps(paths["steps.ndjson"], [0, UNKNOWN], [0, 1])
    Path(paths["config.json"]).write_text("{}")
    return paths


def _commands(paths, tmp_path):
    out = str(tmp_path / "out")
    adapt = ["adapt", "--config", paths["config.json"], "--checkpoint", paths["model.ckpt"],
             "--bank", paths["bank.csv"], "--test-csv", paths["test.csv"],
             "--steps-out", out + ".ndjson"]
    return {
        "--config": ["run", "--config", paths["config.json"], "--outdir", out],
        "--bank": adapt,
        "--checkpoint": adapt,
        "--test-csv": adapt,
        "--steps": ["eval", "--steps", paths["steps.ndjson"], "--num-known", "3",
                    "--report-out", out + ".json"],
    }


@pytest.mark.parametrize("flag", ["--config", "--bank", "--checkpoint", "--test-csv", "--steps"])
def test_cli_reports_a_directory_given_as_a_file(tmp_path, capfd, flag):
    paths = _adapt_inputs(tmp_path)
    argv = _commands(paths, tmp_path)[flag]
    directory = str(tmp_path / "a-directory")
    os.mkdir(directory)
    argv[argv.index(flag) + 1] = directory
    assert main(argv) == 1
    err = capfd.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == f"[Errno 21] Is a directory: {directory!r}"
    assert sorted(os.listdir(tmp_path)) == sorted([*map(os.path.basename, paths.values()),
                                                   "a-directory"])  # no new file


@pytest.mark.parametrize("flag, artifact", [
    ("--checkpoint", "bank.csv"), ("--bank", "model.ckpt"), ("--test-csv", "model.ckpt"),
    ("--config", "model.ckpt"), ("--steps", "model.ckpt"), ("--config", "steps.ndjson"),
    ("--test-csv", "bank.csv"),
])
def test_cli_names_another_kind_of_artifact_given_as_a_file(tmp_path, capfd, flag, artifact):
    paths = _adapt_inputs(tmp_path)
    argv = _commands(paths, tmp_path)[flag]
    argv[argv.index(flag) + 1] = paths[artifact]
    assert main(argv) == 1
    err = capfd.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert paths[artifact] in json.loads(err)["error"]
    assert sorted(os.listdir(tmp_path)) == sorted(map(os.path.basename, paths.values()))  # no new file


@pytest.mark.parametrize("flag", ["--test-csv", "--steps"])
def test_cli_names_a_binary_file(tmp_path, capsys, flag):
    paths = _adapt_inputs(tmp_path)
    argv = _commands(paths, tmp_path)[flag]
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00\x01 not text\n")
    argv[argv.index(flag) + 1] = str(binary)
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{binary}: not a text file")


def test_cli_names_the_steps_path_given_when_its_directory_is_missing(tmp_path, capsys):
    paths = _adapt_inputs(tmp_path)
    argv = _commands(paths, tmp_path)["--bank"]
    steps_out = str(tmp_path / "nodir" / "s.ndjson")
    argv[argv.index("--steps-out") + 1] = steps_out
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"] == (
        f"[Errno 2] No such file or directory: {steps_out!r}")


def test_cli_adapt_over_a_6000_row_bank(tmp_path, capsys):
    # a bank this large answers the stream's KNN queries in blocks of 21 rows,
    # so the engine's multi-row top-k runs from the CLI
    config = tmp_path / "big.json"
    config.write_text(json.dumps({"blob": {"samples_per_cluster": 2000}, "train": {"epochs": 1}}))
    data_dir, work, steps = tmp_path / "data", tmp_path / "work", tmp_path / "steps.ndjson"
    assert main(["gen-data", "--config", str(config), "--outdir", str(data_dir)]) == 0
    assert main(["train", "--config", str(config), "--arm", "ugd", "--outdir", str(work)]) == 0
    (ckpt,) = work.glob("model_*.ckpt")
    bank = work / f"bank_{ckpt.stem[len('model_'):]}.csv"
    test_csv = data_dir / "test_shifted.csv"
    assert main(["adapt", "--config", str(config), "--checkpoint", str(ckpt), "--bank", str(bank),
                 "--test-csv", str(test_csv), "--steps-out", str(steps)]) == 0
    assert len(load_bank(str(bank))) == 6000
    records = [json.loads(line) for line in steps.read_text().splitlines()]
    stream = make_stream(data.load_csv(str(test_csv)), 0)  # adapt's default --stream-seed
    assert len(records) == len(stream)
    # an agreed step takes its source match
    agreed = [r for r in records if r["route"] == "agreed"]
    assert agreed and all(r["pred"] == r["source_match"] for r in agreed)

    # one-sample calls on a fresh engine repeat the bulk pass's first 200 records
    def fresh():
        return init_tur(load_bank(str(bank)), load_checkpoint(str(ckpt)), load_config(str(config)).tur)
    one = fresh()
    _, centroids, _ = embed(one, np.stack([s.features for s in stream]))  # the bulk pass's rows
    for i, (record, sample) in enumerate(zip(records[:200], stream)):
        (p,) = run_stream(one, [sample])
        assert p == tuple(record[key] for key in ("pred", "route", "source_match", "target_match")), i
        # the 1-D call's neighbourhood centroid, as bits: a block row with other neighbours differs
        assert embed(one, sample.features)[1].tobytes() == centroids[i].tobytes(), i
    # one bulk call over those rows leaves the same prototype tables and step count
    bulk = fresh()
    run_stream(bulk, stream[:200])
    for name in ("target_prototypes", "followup_prototypes"):
        assert getattr(bulk, name).tobytes() == getattr(one, name).tobytes(), name
    assert bulk.step_count == one.step_count == 200


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """The stage-by-stage commands' inputs: gen-data on the default config
    trained for 5 epochs, then `train --arm ugd`, in a tmp dir."""
    root = tmp_path_factory.mktemp("stages")
    config = root / "stages.json"
    config.write_text(json.dumps({"train": {"epochs": 5}}))
    data_dir, work = root / "data", root / "work"
    assert main(["gen-data", "--config", str(config), "--outdir", str(data_dir)]) == 0
    assert main(["train", "--config", str(config), "--arm", "ugd", "--outdir", str(work)]) == 0
    (ckpt,) = work.glob("model_*.ckpt")
    return {"config": config, "data": data_dir, "checkpoint": ckpt,
            "bank": work / f"bank_{ckpt.stem[len('model_'):]}.csv"}


def test_cli_train_writes_each_bank_row_with_the_bits_of_its_1d_forward(stages):
    features, _ = data.read_labelled_csv(str(stages["data"] / "train.csv"))
    rows = load_bank(str(stages["bank"])).embeddings
    params = load_checkpoint(str(stages["checkpoint"]))
    assert len(rows) == len(features) == 300
    bad = [i for i, (x, z) in enumerate(zip(features, rows))
           if forward(params, x).z.tobytes() != z.tobytes()]
    assert not bad, f"{len(bad)} of {len(rows)} bank rows differ, the first at {bad[0]}"


def test_cli_adapt_writes_a_format_5_snapshot_of_prototypes_only(stages, tmp_path):
    snapshot, steps = tmp_path / "snapshot.json", tmp_path / "steps.ndjson"
    assert main(["adapt", "--config", str(stages["config"]), "--checkpoint", str(stages["checkpoint"]),
                 "--bank", str(stages["bank"]), "--test-csv", str(stages["data"] / "test_shifted.csv"),
                 "--steps-out", str(steps), "--snapshot-out", str(snapshot)]) == 0
    assert len(steps.read_text().splitlines()) == 400  # one line per test row
    payload = json.loads(snapshot.read_text())
    assert payload["format"] == 5
    assert not {"memory_sum", "memory_count"} & payload.keys()
    state = load_snapshot(str(snapshot), load_bank(str(stages["bank"])),
                          load_checkpoint(str(stages["checkpoint"])))
    assert state.step_count == 400


def test_cli_grid_writes_a_header_and_one_line_per_lattice_point(stages, tmp_path):
    grid_out = tmp_path / "grid.csv"
    assert main(["grid", "--checkpoint", str(stages["checkpoint"]), "--xmin", "-10", "--xmax", "10",
                 "--ymin", "-10", "--ymax", "10", "--resolution", "12",
                 "--grid-out", str(grid_out)]) == 0
    lines = grid_out.read_bytes().split(b"\r\n")
    assert lines[0] == b"x,y,label"
    assert lines[-1] == b"" and len(lines) - 1 == 12 * 12 + 1
