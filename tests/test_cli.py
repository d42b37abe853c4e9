import dataclasses
import json
import os
from pathlib import Path

import pytest

from ostta.cli import (
    ARMS,
    ExperimentConfig,
    ModelSpec,
    _arm_train_config,
    _checkpoint_hash,
    config_from_dict,
    config_to_dict,
    main,
    run_experiment,
)
from ostta.data import BlobSpec, ShiftSpec
from ostta.trainer import TrainConfig
from ostta.tur import TurConfig


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
    payload = config_to_dict(cfg)
    restored = config_from_dict(json.loads(json.dumps(payload)))
    assert restored == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"blob": {"seed": 0}, "optimizer": "adam"})
    with pytest.raises(ValueError, match="config.train"):
        config_from_dict({"train": {"nesterov": True}})


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(arms=("svm",)).validate()
    with pytest.raises(ValueError):
        _small_config(stream_seeds=()).validate()


def test_arm_train_configs():
    base = TrainConfig()
    assert _arm_train_config(base, "ce").objective == "ce"
    assert _arm_train_config(base, "ugd").objective == "ugd"
    no_ua = _arm_train_config(base, "ugd_no_ua")
    assert not no_ua.loss.enable_ua and no_ua.loss.enable_sce
    no_sce = _arm_train_config(base, "ugd_no_sce")
    assert no_sce.loss.enable_ua and not no_sce.loss.enable_sce
    # art shares the full ugd objective
    assert _arm_train_config(base, "art") == _arm_train_config(base, "ugd")


def test_checkpoint_hash_sensitivity():
    cfg = _small_config()
    h_ugd = _checkpoint_hash(cfg, _arm_train_config(cfg.train, "ugd"))
    h_ce = _checkpoint_hash(cfg, _arm_train_config(cfg.train, "ce"))
    h_art = _checkpoint_hash(cfg, _arm_train_config(cfg.train, "art"))
    assert h_ugd != h_ce
    assert h_ugd == h_art  # identical training config -> shared cache
    other = dataclasses.replace(cfg, blob=BlobSpec(samples_per_cluster=10, seed=1))
    assert _checkpoint_hash(other, _arm_train_config(other.train, "ugd")) != h_ugd


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
    config_path.write_text(json.dumps(config_to_dict(_small_config())))
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
    config_path.write_text(json.dumps(config_to_dict(_small_config())))
    outdir = tmp_path / "out"
    assert main(["ablate", "--config", str(config_path),
                 "--outdir", str(outdir), "--arms", "ce,ugd"]) == 0
    out = capsys.readouterr().out
    assert "ce" in out and "ugd" in out
    assert not any(n.startswith("report_art") for n in os.listdir(outdir))


def test_cli_error_reporting(tmp_path, capsys):
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "occupied.txt").write_text("x")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(_small_config())))
    code = main(["run", "--config", str(config_path), "--outdir", str(outdir)])
    assert code == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"]


def test_cli_arm_choices_enforced(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["train", "--arm", "resnet", "--outdir", str(tmp_path)])
    assert ARMS == ("ce", "ugd_no_ua", "ugd_no_sce", "ugd", "art")
