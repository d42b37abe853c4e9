import csv
import hashlib
import io
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ostta import numeric
from ostta.data import BlobSpec, Sample, generate_blobs
from ostta.losses import OBJECTIVES, LossConfig
from ostta.model import forward, init_model
from ostta.trainer import (
    EmbeddingBank,
    TrainConfig,
    extract_bank,
    load_bank,
    save_bank,
    train,
    train_many,
)


def _tiny_set():
    return [
        Sample(np.array([1.0, 0.0]), 0),
        Sample(np.array([-1.0, 0.5]), 1),
        Sample(np.array([0.0, -1.0]), 2),
        Sample(np.array([1.2, 0.1]), 0),
        Sample(np.array([-0.8, 0.6]), 1),
        Sample(np.array([0.1, -1.1]), 2),
    ]


def test_train_reduces_loss():
    train_set, _ = generate_blobs(BlobSpec(seed=0, samples_per_cluster=30))
    params = init_model(2, 8, 3, 0)
    _, history = train(params, train_set, TrainConfig(epochs=30), "ce")
    assert len(history) == 30
    assert history[-1] < history[0]
    assert np.mean(history[-5:]) < np.mean(history[:5])


def test_train_does_not_mutate_input_params():
    params = init_model(2, 4, 3, 0, hidden=(8,))
    before = params.param_bytes()
    train(params, _tiny_set(), TrainConfig(epochs=2))
    assert params.param_bytes() == before


def test_train_deterministic():
    params = init_model(2, 4, 3, 0, hidden=(8,))
    cfg = TrainConfig(epochs=3)
    p1, h1 = train(params, _tiny_set(), cfg)
    p2, h2 = train(params, _tiny_set(), cfg)
    assert p1.param_bytes() == p2.param_bytes()
    assert h1 == h2


def test_train_shuffle_seed_changes_trajectory():
    train_set, _ = generate_blobs(BlobSpec(seed=1, samples_per_cluster=20))
    params = init_model(2, 4, 3, 0, hidden=(8,))
    _, h1 = train(params, train_set, TrainConfig(epochs=2, shuffle_seed=0))
    _, h2 = train(params, train_set, TrainConfig(epochs=2, shuffle_seed=1))
    assert h1 != h2


def test_train_zero_epochs_returns_copy():
    params = init_model(2, 4, 3, 0, hidden=(8,))
    out, history = train(params, _tiny_set(), TrainConfig(epochs=0))
    assert history == []
    assert out.param_bytes() == params.param_bytes()


def test_train_momentum_matches_manual_single_step():
    """One sample, one epoch, batch 1: p' = p - lr * grad."""
    params = init_model(2, 3, 2, 0, hidden=(4,))
    sample = Sample(np.array([0.5, -0.5]), 0)
    cfg = TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, momentum=0.9)
    out, _ = train(params, [sample], cfg, "ce")
    from ostta.losses import ce_loss
    from ostta.model import backward

    trace = forward(params, sample.features)
    _, dlogits = ce_loss(trace.logits, sample.label)
    g = backward(params, trace, dlogits)
    np.testing.assert_allclose(out.head, params.head - 0.1 * g.head, atol=1e-12)
    np.testing.assert_allclose(
        out.weights[0], params.weights[0] - 0.1 * g.weights[0], atol=1e-12
    )


def test_train_rejects_unknown_labels():
    bad = [Sample(np.array([0.0, 0.0]), -1)]
    with pytest.raises(ValueError):
        train(init_model(2, 4, 3, 0), bad, TrainConfig(epochs=1))


def test_train_rejects_labels_beyond_the_known_classes():
    bad = _tiny_set() + [Sample(np.array([0.5, 0.5]), 3)]
    with pytest.raises(ValueError, match=r"known range \[0, 3\): \[3\]"):
        train(init_model(2, 4, 3, 0), bad, TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="known range"):  # checked even with no epochs to run
        train_many(init_model(2, 4, 3, 0), bad, TrainConfig(epochs=0), ["ugd", "ce"])


def test_train_set_of_the_wrong_width_is_not_a_divergence():
    narrow = [Sample(np.ones(2), 0), Sample(np.full(2, 0.5), 1)]
    params = init_model(3, 4, 2, 0)
    with pytest.raises(ValueError, match="2 features per sample, the model takes 3"):
        train(params, narrow, TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="2 features per sample, the model takes 3"):
        extract_bank(params, narrow)


def test_train_many_rejects_no_configs():
    with pytest.raises(ValueError, match="at least one objective"):
        train_many(init_model(2, 4, 3, 0, hidden=(8,)), _tiny_set(), TrainConfig(), [])


def test_train_many_rejects_an_unknown_objective():
    with pytest.raises(ValueError, match=r"unknown objective in \['ugd', 'svm'\]"):
        train_many(init_model(2, 4, 3, 0, hidden=(8,)), _tiny_set(), TrainConfig(), ["ugd", "svm"])
    with pytest.raises(ValueError, match="unknown objective"):
        train(init_model(2, 4, 3, 0, hidden=(8,)), _tiny_set(), TrainConfig(), "art")


@pytest.mark.parametrize("loss, what", [
    # logits / tau overflow: the loss itself goes non-finite
    (LossConfig(tau=1e-320), "non-finite loss at epoch 0"),
    # a huge penalty gradient overflows the parameters: the next forward fails
    (LossConfig(lam=1e300), "diverged at epoch 0"),
])
def test_train_many_names_the_diverging_config(loss, what):
    # ce takes tau 1 and lam 0 whatever the config says, so only ugd diverges
    params = init_model(2, 4, 3, 0, hidden=(8,))
    config = TrainConfig(epochs=3, batch_size=2, loss=loss)
    with pytest.raises(RuntimeError, match=f"{what} for objective 'ugd'") as info:
        train_many(params, _tiny_set(), config, ["ce", "ugd", "ce"])
    assert "'ce'" not in str(info.value)
    train_many(params, _tiny_set(), config, ["ce", "ce"])  # the healthy slices alone train


def test_disabled_loss_term_cannot_make_the_loss_non_finite():
    # logits / tau overflow in the SCE term, which ugd_no_sce leaves out
    params = init_model(2, 4, 3, 0, hidden=(8,))
    want, want_history = train(params, _tiny_set(), TrainConfig(epochs=2), "ugd_no_sce")
    overflowing = TrainConfig(epochs=2, loss=LossConfig(tau=1e-320))
    for got, history in train_many(params, _tiny_set(), overflowing, ["ugd_no_sce"] * 2):
        assert got.param_bytes() == want.param_bytes() and history == want_history


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan, 1e200])
def test_train_many_diverges_on_a_bad_h_row_without_warning(bad):
    # one input feature, no hidden layer, zero bias: the bad feature makes a
    # bad h row, which forward rejects before any product can warn
    params = init_model(1, 1, 2, 0, hidden=())
    train_set = [Sample(np.array([v]), i % 2) for i, v in enumerate([0.5, -1.0, bad, 2.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="diverged at epoch 0 for objective 'ce'"):
            train_many(params, train_set, TrainConfig(epochs=2, batch_size=2), ["ce", "ugd"])


# sha256 of each objective's trained parameter bytes and the hex of its
# per-epoch mean losses, recorded before the training loop was reworked for
# speed; any change to the arithmetic of forward, loss, backward or the update
# changes them. They hold for one numpy and BLAS build: on another, compare
# against the same run of a known-good commit first.
_PINNED = {
    "ce": ("d0c38dda7e5c9c3e291b53a9d5f4b12e49ec44d93ff79118f8bdd444875cc79c",
           ["0x1.5e44fb21223e3p+0", "0x1.29a2925e85d9ep+0", "0x1.b45b331b959e5p-1",
            "0x1.0d06981897e0fp-1"]),
    "ugd_no_ua": ("0423a0f0801a346a31900109545ff90a8ace098e41a166f4f5a5c02ea9f0174f",
                  ["0x1.665aa9086f314p+0", "0x1.59d0a6a3ca399p+0", "0x1.4977bc969c229p+0",
                   "0x1.3526d73a79e1ap+0"]),
    "ugd_no_sce": ("6e170918d63ec698f2aaea0139e1cb89c2a2e500c990b4fbb3f27c7a5e840b0c",
                   ["0x1.1b248195a47f1p+0", "0x1.03ba22bc6b972p+0", "0x1.b92314c7f399ep-1",
                    "0x1.3b3f202ef5411p-1"]),
    "ugd": ("1de314f9e33a8b02cd448cc03277c1756b562f541fd42fbc9cfe57369b39ce21",
            ["0x1.3fd2557da0acep+1", "0x1.2b0d6020ccf63p+1", "0x1.0ef593c7231d6p+1",
             "0x1.d419298df7777p+0"]),
}


def test_train_many_bits_are_pinned():
    train_set, _ = generate_blobs(BlobSpec(seed=5, samples_per_cluster=20))
    params = init_model(2, 8, 3, 1, hidden=(16, 16))
    trained = train_many(params, train_set, TrainConfig(epochs=4, batch_size=8), list(OBJECTIVES))
    got = {name: (hashlib.sha256(p.param_bytes()).hexdigest(), [h.hex() for h in history])
           for name, (p, history) in zip(OBJECTIVES, trained)}
    assert got == _PINNED


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0).validate()
    with pytest.raises(ValueError, match=r"^config\.train\.loss\.tau=0\.0 must be > 0$"):
        TrainConfig(loss=LossConfig(tau=0.0)).validate()
    with pytest.raises(ValueError, match=r"^config\.train\.learning_rate=nan must be finite$"):
        TrainConfig(learning_rate=math.nan).validate()


def test_train_diverging_raises():
    params = init_model(2, 4, 3, 0, hidden=(8,))
    cfg = TrainConfig(epochs=200, learning_rate=1e6)
    with pytest.raises(RuntimeError):
        train(params, _tiny_set(), cfg, "ce")


def test_train_zero_embedding_row_raises():
    # zero biases map the origin to a zero embedding, in any batch position
    zero = Sample(np.array([0.0, 0.0]), 0)
    params = init_model(2, 4, 3, 0, hidden=(8,))
    with pytest.raises(RuntimeError, match="diverged"):
        train(params, _tiny_set() + [zero], TrainConfig(epochs=1, batch_size=4))


def test_train_ugd_vs_ce_differ():
    params = init_model(2, 4, 3, 0, hidden=(8,))
    p_ce, _ = train(params, _tiny_set(), TrainConfig(epochs=2), "ce")
    p_ugd, _ = train(params, _tiny_set(), TrainConfig(epochs=2), "ugd")
    assert p_ce.param_bytes() != p_ugd.param_bytes()


def test_train_loss_config_flags_respected():
    params = init_model(2, 4, 3, 0, hidden=(8,))
    trained = train_many(params, _tiny_set(), TrainConfig(epochs=2), list(OBJECTIVES))
    assert len({p.param_bytes() for p, _ in trained}) == len(OBJECTIVES)
    # tau and lam reach the SCE term: not ce (tau 1, lam 0), not ugd_no_sce (no SCE term)
    other = TrainConfig(epochs=2, loss=LossConfig(tau=3.0, lam=0.2))
    for objective, (p, _) in zip(OBJECTIVES, trained):
        q, _ = train(params, _tiny_set(), other, objective)
        assert (p.param_bytes() == q.param_bytes()) == (objective in ("ce", "ugd_no_sce"))


def test_extract_bank_properties():
    train_set = _tiny_set()
    params = init_model(2, 4, 3, 0, hidden=(8,))
    bank = extract_bank(params, train_set)
    assert bank.embeddings.shape == (6, 4)
    assert np.array_equal(bank.labels, [0, 1, 2, 0, 1, 2])
    np.testing.assert_allclose(
        np.linalg.norm(bank.embeddings, axis=1), 1.0, atol=1e-12
    )
    np.testing.assert_allclose(
        np.linalg.norm(bank.prototypes, axis=1), 1.0, atol=1e-12
    )
    # embeddings preserve input order
    np.testing.assert_allclose(
        bank.embeddings[0], forward(params, train_set[0].features).z, atol=1e-12
    )
    # prototype = renormalized class mean
    mean0 = bank.embeddings[[0, 3]].mean(axis=0)
    np.testing.assert_allclose(
        bank.prototypes[0], mean0 / np.linalg.norm(mean0), atol=1e-12
    )


@pytest.mark.parametrize("budget", [1000, 1 << 17])  # blocks of 45 rows, or one block
def test_extract_bank_spans_blocks_in_input_order(budget):
    train_set, _ = generate_blobs(BlobSpec(seed=2, samples_per_cluster=200))
    params = init_model(2, 4, 3, 0, hidden=(8,))
    with mock.patch.object(numeric, "_BLOCK_BUDGET", budget):
        bank = extract_bank(params, train_set)
    assert bank.embeddings.shape == (600, 4)
    one_by_one = np.stack([forward(params, s.features).z for s in train_set])
    assert bank.embeddings.tobytes() == one_by_one.tobytes()  # each row its 1-D forward's bits
    assert bank.labels.tolist() == [s.label for s in train_set]


def test_extract_bank_missing_class():
    params = init_model(2, 4, 3, 0, hidden=(8,))
    with pytest.raises(ValueError):
        extract_bank(params, [Sample(np.array([1.0, 0.0]), 0)])


def test_bank_round_trip(tmp_path):
    params = init_model(2, 4, 3, 0, hidden=(8,))
    bank = extract_bank(params, _tiny_set())
    path = tmp_path / "bank.csv"
    save_bank(bank, str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bank.csv"]  # one file
    loaded = load_bank(str(path))
    assert np.array_equal(bank.embeddings, loaded.embeddings)
    assert np.array_equal(bank.labels, loaded.labels)
    # the prototypes are computed from the loaded rows, to the bit
    assert bank.prototypes.tobytes() == loaded.prototypes.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 40))
def test_loaded_prototypes_equal_extracted_ones_bit_for_bit(tmp_path_factory, seed, num_known, spc):
    spec = BlobSpec(num_known=num_known, samples_per_cluster=spc, seed=seed)
    train_set, _ = generate_blobs(spec)
    bank = extract_bank(init_model(2, 6, num_known, seed % 7, hidden=(8,)), train_set)
    path = tmp_path_factory.mktemp("bank") / "bank.csv"
    save_bank(bank, str(path))
    assert load_bank(str(path)).prototypes.tobytes() == bank.prototypes.tobytes()


def test_load_bank_ignores_a_stale_prototype_sidecar(tmp_path):
    bank = extract_bank(init_model(2, 4, 3, 0, hidden=(8,)), _tiny_set())
    path = tmp_path / "bank.csv"
    save_bank(bank, str(path))
    (tmp_path / "bank.csv.proto.csv").write_text("z0,label\r\nnot a number,9\r\n")
    assert load_bank(str(path)).prototypes.tobytes() == bank.prototypes.tobytes()


def test_load_bank_rejects_malformed_rows(tmp_path):
    params = init_model(2, 4, 3, 0, hidden=(8,))
    path = tmp_path / "bank.csv"
    save_bank(extract_bank(params, _tiny_set()), str(path))
    good = path.read_text().splitlines()
    short = good[:2] + [good[2].rsplit(",", 2)[0]]  # a row cut at a comma
    path.write_text("\n".join(short) + "\n")
    with pytest.raises(ValueError, match="bank.csv, row 3: 3 columns, the header has 5"):
        load_bank(str(path))
    lines = list(good)
    lines[1] = "nan" + lines[1][lines[1].index(","):]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="bank.csv, row 2: non-finite"):
        load_bank(str(path))


@pytest.mark.parametrize("labels, message", [
    ([0, 2, 0, 2, 0, 2], r"no rows of class 1: no prototype"),
    ([0, 1, 2, 0, 1, 10**12], r"no rows of class 3: no prototype"),
    ([0, 1, -1, 0, 1, 2], r"label outside known range \[0, 3\): \[-1\]"),
    ([0, 1, 2, 0, 1, "unknown"], r"label outside known range \[0, 3\): \[-1\]"),
], ids=["missing-class", "huge-label", "negative-label", "unknown-label"])
def test_load_bank_names_the_file_for_labels_that_are_not_every_class(tmp_path, labels, message):
    path = tmp_path / "bank.csv"
    rows = extract_bank(init_model(2, 4, 3, 0, hidden=(8,)), _tiny_set()).embeddings
    path.write_text("z0,z1,z2,z3,label\n" + "".join(
        ",".join(map(repr, z)) + f",{lab}\n" for z, lab in zip(rows.tolist(), labels)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        load_bank(str(path))


def test_load_bank_names_the_file_for_a_header_only_bank(tmp_path):
    path = tmp_path / "bank.csv"
    path.write_text("z0,z1,label\r\n")
    message = rf"^{re.escape(str(path))}: no rows of class 0: no prototype$"
    with pytest.raises(ValueError, match=message):
        load_bank(str(path))


def test_save_bank_failing_mid_write_keeps_the_old_files(tmp_path):
    params = init_model(2, 4, 3, 0, hidden=(8,))
    bank = extract_bank(params, _tiny_set())
    path = tmp_path / "bank.csv"
    save_bank(bank, str(path))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    broken = EmbeddingBank(bank.embeddings * 2, [0, 1, None], bank.prototypes)
    with pytest.raises(TypeError):  # int(None) on the third row
        save_bank(broken, str(path))
    for name, data in before.items():
        assert (tmp_path / name).read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)  # no .tmp left
    assert np.array_equal(load_bank(str(path)).embeddings, bank.embeddings)


def _csv_writer_bytes(vectors, labels) -> bytes:
    """A bank file as csv.writer writes it, with repr floats."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow([f"z{i}" for i in range(vectors.shape[1])] + ["label"])
    for z, lab in zip(vectors, labels):
        writer.writerow([repr(float(v)) for v in z] + [str(int(lab))])
    return out.getvalue().encode()


_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308,
                                -1e308, 1.7976931348623157e308, 0.1, 1e16, 123456789.125])


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)),
              elements=st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS),
       st.integers(1, 4))
def test_save_bank_bytes_equal_csv_writer(tmp_path_factory, embeddings, num_known):
    labels = np.arange(len(embeddings)) % num_known
    prototypes = embeddings[:num_known]
    path = tmp_path_factory.mktemp("bank") / "bank.csv"
    save_bank(EmbeddingBank(embeddings, labels, prototypes), str(path))
    assert path.read_bytes() == _csv_writer_bytes(embeddings, labels)
    assert [p.name for p in path.parent.iterdir()] == ["bank.csv"]  # no prototype sidecar
