"""Acceptance suite.

Each test prints an `ACCEPTANCE <id>: PASS/FAIL` line so the criteria can be
audited from the test log directly. Criteria 3 and 6 and the artifact check
share one reference experiment run (module-scoped fixture) so the expensive
trainings happen once.

`python tests/test_acceptance.py` reruns the reference experiment and rewrites
the artifact fixture, for a change that moves answers on purpose.
"""
import csv
import dataclasses
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from ostta.cli import ExperimentConfig, run_experiment
from ostta.data import UNKNOWN_TOKEN, apply_shift, generate_blobs, make_stream
from ostta.knn import build_index, query
from ostta.losses import LossConfig, ce_loss, sce_loss, ua_loss, ugd_loss
from ostta.metrics import h_score
from ostta.model import backward, forward, init_model
from ostta.numeric import l2_normalize
from ostta.trainer import EmbeddingBank, extract_bank, train
from ostta.tur import init_tur, run_stream


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {cid}: {detail}"


# ------------------------------------------------------------------ shared run

REFERENCE = dataclasses.replace(ExperimentConfig(), stream_seeds=(0, 1, 2, 3))
ARTIFACTS = Path(__file__).with_name("reference_artifacts.json")


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """Default experiment, all arms, 4 stream permutations."""
    outdir = tmp_path_factory.mktemp("reference")
    t0 = time.time()
    reports = run_experiment(REFERENCE, str(outdir))
    elapsed = time.time() - t0
    return REFERENCE, outdir, reports, elapsed


def _grid_labels(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [row[2] for row in reader]


# ------------------------------------------------------------------ criterion 1

def test_criterion_1_gradient_suite():
    """Parameter gradients of every loss composed with the model match
    central finite differences (eps = 1e-5, rel err <= 1e-4, >= 20 cases)."""
    eps = 1e-5
    cfg = LossConfig(tau=2.0, lam=0.05)
    losses = {
        "ce": lambda lg, y: ce_loss(lg, y),
        "ua": lambda lg, y: ua_loss(lg, y),
        "sce": lambda lg, y: sce_loss(lg, y, cfg),
        "ugd": lambda lg, y: ugd_loss(lg, y, cfg),
    }
    rng = np.random.default_rng(0)
    t0 = time.time()
    worst = 0.0
    cases = 0
    for name, loss in losses.items():
        for trial in range(6):
            params = init_model(2, 4, 3, seed=trial, hidden=(6, 5))
            x = rng.normal(size=2)
            y = int(rng.integers(3))
            trace = forward(params, x)
            _, dlogits = loss(trace.logits, y)
            grads = backward(params, trace, dlogits)

            def value_at(p):
                return loss(forward(p, x).logits, y)[0]

            analytic, numeric = [], []
            tensors = [
                *((params.weights[i], grads.weights[i]) for i in range(len(params.weights))),
                *((params.biases[i], grads.biases[i]) for i in range(len(params.biases))),
                (params.head, grads.head),
            ]
            for tensor, grad in tensors:
                flat = tensor.reshape(-1)
                gflat = grad.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    hi = value_at(params)
                    flat[i] = orig - eps
                    lo = value_at(params)
                    flat[i] = orig
                    numeric.append((hi - lo) / (2 * eps))
                    analytic.append(gflat[i])
            analytic = np.array(analytic)
            numeric = np.array(numeric)
            err = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
            )
            worst = max(worst, err)
            cases += 1
    elapsed = time.time() - t0
    _report(
        "1",
        worst <= 1e-4 and cases >= 20 and elapsed < 10,
        f"{cases} cases, max rel err {worst:.2e}, {elapsed:.1f}s (< 10s)",
    )


# ------------------------------------------------------------------ criterion 2

def test_criterion_2_loss_algebra():
    rng = np.random.default_rng(1)
    t0 = time.time()
    ok_zero = ok_neg = True
    for _ in range(1000):
        logits = rng.normal(size=5) * 3
        y = int(rng.integers(4))
        _, grad = ua_loss(logits, y)
        ok_zero &= grad[y] == 0.0
        ok_neg &= grad[-1] < 0.0
    cfg = LossConfig(tau=1.0, lam=0.0)
    max_dev = 0.0
    for _ in range(50):
        logits = rng.normal(size=5) * 3
        y = int(rng.integers(4))
        v_sce, g_sce = sce_loss(logits, y, cfg)
        v_ce, g_ce = ce_loss(logits, y)
        max_dev = max(max_dev, abs(v_sce - v_ce), np.abs(g_sce - g_ce).max())
    elapsed = time.time() - t0
    _report(
        "2",
        ok_zero and ok_neg and max_dev <= 1e-12 and elapsed < 1,
        f"grad@y==0: {ok_zero}, grad@u<0: {ok_neg}, "
        f"sce(tau=1,lam=0) vs ce max dev {max_dev:.1e}, {elapsed:.2f}s (< 1s)",
    )


# ------------------------------------------------------------------ criterion 3

def test_criterion_3a_unknown_region(reference_run):
    _, outdir, _, elapsed = reference_run
    ce_labels = _grid_labels(outdir / "grid_ce.csv")
    ugd_labels = _grid_labels(outdir / "grid_ugd.csv")
    ce_unknown = sum(lab == UNKNOWN_TOKEN for lab in ce_labels)
    ugd_unknown = sum(lab == UNKNOWN_TOKEN for lab in ugd_labels)
    _report(
        "3a",
        ce_unknown == 0 and ugd_unknown > 0,
        f"unknown grid cells: ce={ce_unknown} (expect 0), "
        f"ugd={ugd_unknown} (expect > 0); shared run took {elapsed:.1f}s",
    )


def test_criterion_3b_ablation_ordering(reference_run):
    cfg, _, reports, elapsed = reference_run
    hs = {
        arm: float(np.mean([reports[(arm, s)].h_score for s in cfg.stream_seeds]))
        for arm in ("ce", "ugd", "art")
    }
    _report(
        "3b",
        hs["ce"] < hs["ugd"] < hs["art"],
        f"mean hs over {len(cfg.stream_seeds)} orders: "
        f"ce={hs['ce']:.3f} < ugd={hs['ugd']:.3f} < art={hs['art']:.3f}; "
        f"shared run took {elapsed:.1f}s",
    )


# ------------------------------------------------------------------ criterion 4

def test_criterion_4_no_training_contract():
    cfg = ExperimentConfig()
    train_set, test_set = generate_blobs(cfg.blob)
    params = init_model(
        cfg.blob.dim, cfg.model.embed_dim, cfg.blob.num_known,
        cfg.model.seed, hidden=cfg.model.hidden,
    )
    quick = dataclasses.replace(cfg.train, epochs=5)
    params, _ = train(params, train_set, quick)
    bank = extract_bank(params, train_set)
    stream = make_stream(apply_shift(test_set, cfg.shift), 0)
    assert len(stream) == 400
    before = params.param_bytes()
    t0 = time.time()
    state = init_tur(bank, params, cfg.tur)
    run_stream(state, stream)
    elapsed = time.time() - t0
    ok = state.params.param_bytes() == before and params.param_bytes() == before
    _report(
        "4",
        ok and elapsed < 5,
        f"params byte-identical after 400-sample stream: {ok}, "
        f"{elapsed:.2f}s (< 5s)",
    )


# ------------------------------------------------------------------ criterion 5

def test_criterion_5_knn_oracle():
    rng = np.random.default_rng(2)
    emb = np.stack([l2_normalize(v) for v in rng.normal(size=(200, 8))])
    bank = EmbeddingBank(emb, np.zeros(200, dtype=np.int64),
                         l2_normalize(emb.mean(axis=0))[None, :])
    index = build_index(bank, k=10)
    t0 = time.time()
    mismatches = 0
    for _ in range(100):
        z = l2_normalize(rng.normal(size=8))
        # independent oracle: the first k of a full stable sort
        oracle = np.argsort(-(emb @ z), kind="stable")[:10]
        if not np.array_equal(query(index, z).indices, oracle):
            mismatches += 1
    elapsed = time.time() - t0
    _report(
        "5",
        mismatches == 0 and elapsed < 5,
        f"{mismatches}/100 queries disagree with a full stable sort (ids+order), "
        f"{elapsed:.2f}s (< 5s)",
    )


# ------------------------------------------------------------------ criterion 6

def test_criterion_6_order_insensitivity(reference_run):
    cfg, _, reports, elapsed = reference_run
    scores = [reports[("art", s)].h_score for s in cfg.stream_seeds]
    std = float(np.std(scores))
    _report(
        "6",
        len(scores) == 4 and std <= 0.015,
        f"hs over 4 stream permutations: {[round(s, 3) for s in scores]}, "
        f"std {std:.4f} (<= 0.015); shared run took {elapsed:.1f}s",
    )


# ------------------------------------------------------------------ criterion 7

def test_criterion_7_h_score_spot_check():
    value = h_score(0.821, 0.752)
    _report("7", abs(value - 0.785) <= 0.001, f"h_score(0.821, 0.752) = {value:.4f}")


# ------------------------------------------------------------------ artifacts

def _environment() -> dict:
    """What the artifact bytes depend on besides the code: the Python minor
    version, numpy, its BLAS, and the CPU features by which numpy and a
    dynamic-arch BLAS pick their kernels."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {"python": "%d.%d" % sys.version_info[:2], "numpy": np.__version__, "blas": blas,
            "cpu": " ".join(sorted(name for name, on in __cpu_features__.items() if on))}


def _digests(outdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())}


def test_reference_artifacts_match_the_fixture(reference_run):
    """The reference run writes the fixture's artifacts by name always (the
    names come from config hashes), and byte for byte by sha256 in the
    fixture's environment. A change of answers on purpose rewrites the
    fixture in the same commit and names the changed files."""
    _, outdir, _, _ = reference_run
    fixture = json.loads(ARTIFACTS.read_text())
    got = _digests(outdir)
    assert sorted(got) == sorted(fixture["artifacts"]), "artifact names differ from the fixture"
    if _environment() != fixture["environment"]:
        print(f"ARTIFACTS: {len(got)} names match; contents not compared outside "
              f"{fixture['environment']}")
        return
    moved = sorted(name for name, digest in got.items() if fixture["artifacts"][name] != digest)
    print(f"ARTIFACTS: {len(got)} names match, bytes differ in {moved or 'none'}")
    assert not moved, f"artifact bytes differ from the fixture: {moved}"


# ------------------------------------------------------------------ criterion 8

def test_criterion_8_run_determinism(tmp_path):
    cfg = dataclasses.replace(
        ExperimentConfig(),
        train=dataclasses.replace(ExperimentConfig().train, epochs=20),
        arms=("ce", "art"),
        grid_resolution=20,
    )
    run_experiment(cfg, str(tmp_path / "a"))
    run_experiment(cfg, str(tmp_path / "b"))
    names = sorted(p.name for p in (tmp_path / "a").iterdir()
                   if p.name.endswith(".json"))
    diffs = [
        n for n in names
        if (tmp_path / "a" / n).read_bytes() != (tmp_path / "b" / n).read_bytes()
    ]
    _report(
        "8",
        len(names) > 0 and not diffs,
        f"{len(names)} JSON reports compared, byte-diffs: {diffs or 'none'}",
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(REFERENCE, tmp)
        fixture = {"environment": _environment(), "artifacts": _digests(Path(tmp))}
    ARTIFACTS.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(fixture['artifacts'])} artifact digests to {ARTIFACTS}")
