import dataclasses
import json
import os
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
    _checkpoint_hash,
    _train_cached,
    _write_steps,
    config_from_dict,
    main,
    run_experiment,
)
from ostta import data
from ostta.data import UNKNOWN, BlobSpec, ShiftSpec, generate_blobs
from ostta.losses import OBJECTIVES
from ostta.metrics import Grid, evaluate, save_grid
from ostta.model import init_model, save_checkpoint
from ostta.trainer import TrainConfig
from ostta.tur import Prediction, TurConfig


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
    ({"grid_resolution": 1}, "grid_resolution=1 must be >= 2"),
    ({"tur": {"k": 0}}, "k=0 must be >= 1"),
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


def test_arm_train_configs(tmp_path, monkeypatch):
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
    models = _train_cached(cfg, arms, generate_blobs(cfg.blob)[0], str(tmp_path))
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


def test_run_experiment_reuses_cache(tmp_path):
    cfg = _small_config(arms=("ugd",))
    outdir = tmp_path / "out"
    run_experiment(cfg, str(outdir))
    ckpts = [n for n in os.listdir(outdir) if n.endswith(".ckpt")]
    assert len(ckpts) == 1
    stamp = os.path.getmtime(outdir / ckpts[0])
    run_experiment(cfg, str(outdir), force=True)
    assert os.path.getmtime(outdir / ckpts[0]) == stamp


def test_run_experiment_retrains_when_bank_missing(tmp_path):
    cfg = _small_config(arms=("ugd",))
    outdir = tmp_path / "out"
    run_experiment(cfg, str(outdir))
    bank = next(n for n in os.listdir(outdir)
                if n.startswith("bank_") and n.endswith(".csv") and not n.endswith(".proto.csv"))
    before = (outdir / bank).read_bytes()
    os.remove(outdir / bank)
    run_experiment(cfg, str(outdir), force=True)
    assert (outdir / bank).read_bytes() == before


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
    bank = next(str(work / n) for n in os.listdir(work)
                if n.startswith("bank_") and n.endswith(".csv")
                and not n.endswith(".proto.csv"))

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
    os.remove(outdir / f"bank_{ce}.csv.proto.csv")
    again = run_experiment(_small_config(arms=ARMS), str(outdir), force=True)
    assert calls[1:] == [["ce"]]
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
    assert os.listdir(outdir) == []


def test_cli_eval_rejects_label_outside_the_classes(tmp_path, capsys):
    steps = tmp_path / "steps.ndjson"
    steps.write_text("".join(json.dumps({"pred": k, "true": k}) + "\n" for k in (2, 0, 1)))
    code = main(["eval", "--steps", str(steps), "--num-known", "2",
                 "--report-out", str(tmp_path / "report.json")])
    assert code == 1
    assert "label 2 " in json.loads(capsys.readouterr().err)["error"]
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
