import tracemalloc

import numpy as np
import pytest

from csasr import ctc as ctc_mod
from csasr.ctc import ctc_loss
from csasr.features import write_feat
from csasr.model import forward, init_model
from csasr.training import (
    AllInfeasible,
    Diverged,
    EmptyBatch,
    Example,
    MalformedManifest,
    ManifestEntry,
    SgdTrainer,
    TrainConfig,
    load_examples,
    load_manifest,
    make_batches,
    run_finetune,
    run_joint_training,
    save_manifest,
    stratified_subset,
    train_epochs,
)
from csasr.vocab import GraphemeVocab

VOCAB = GraphemeVocab(("<blank>", "a", "b"))


def _example(rng, t, target, duration=None, language="L1"):
    frames = rng.normal(size=(t, 3))
    return Example(frames, tuple(target), duration if duration is not None else t, language)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    # momentum 1 or more never decays the velocity; below 0 it flips sign
    for momentum in (-1.0, -0.1, 1.0, 5.0, float("nan")):
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig(momentum=momentum)
    assert TrainConfig(momentum=0.0).momentum == 0.0


def test_manifest_round_trip(tmp_path):
    entries = [
        ManifestEntry("a.feat", "ab", "L1", 120),
        ManifestEntry("b.feat", "你 好", "mixed", 240),
    ]
    path = tmp_path / "manifest.csv"
    save_manifest(entries, path)
    assert load_manifest(path) == entries
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "path,transcript,language,duration_ms"


def test_load_manifest_rejects_wrong_header(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("file,text\nx,y\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_manifest(path)


def test_load_manifest_rejects_short_row_with_path_and_line(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text(
        "path,transcript,language,duration_ms\na.feat,ab,L1,120\nb.feat,ab\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedManifest) as info:
        load_manifest(path)
    assert info.value.line_number == 3
    assert str(info.value).startswith(f"{path}: line 3: ")


def test_load_manifest_rejects_non_integer_duration_with_path_and_line(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text(
        "path,transcript,language,duration_ms\na.feat,ab,L1,12.5\n", encoding="utf-8"
    )
    with pytest.raises(MalformedManifest) as info:
        load_manifest(path)
    assert info.value.line_number == 2
    assert str(info.value) == f"{path}: line 2: duration_ms '12.5' is not an integer"


def test_load_examples_reads_feat_files(tmp_path):
    rng = np.random.default_rng(0)
    frames = rng.normal(size=(4, 3))
    write_feat(frames, tmp_path / "u.feat")
    entries = [ManifestEntry("u.feat", "ab", "L1", 80)]
    examples = load_examples(entries, VOCAB, base_dir=tmp_path)
    np.testing.assert_array_equal(examples[0].frames, frames)
    assert examples[0].target == (1, 2)
    assert examples[0].language == "L1"


def test_make_batches_sorts_by_duration_then_shuffles_buckets():
    rng = np.random.default_rng(1)
    examples = [_example(rng, 3, [1], duration=d) for d in (50, 10, 40, 20, 30)]
    batches = make_batches(examples, 2, seed=0)
    assert sorted(len(b) for b in batches) == [1, 2, 2]
    for batch in batches:
        durations = [e.duration_ms for e in batch]
        assert durations == sorted(durations)
    flat = sorted(e.duration_ms for b in batches for e in b)
    assert flat == [10, 20, 30, 40, 50]


def test_make_batches_is_seed_deterministic():
    rng = np.random.default_rng(2)
    examples = [_example(rng, 3, [1], duration=d) for d in range(12)]
    a = make_batches(examples, 3, seed=5)
    b = make_batches(examples, 3, seed=5)
    assert [[e.duration_ms for e in batch] for batch in a] == [
        [e.duration_ms for e in batch] for batch in b
    ]


def test_stratified_subset_size_and_determinism():
    rng = np.random.default_rng(3)
    examples = [_example(rng, 3, [1], duration=d) for d in range(20)]
    half = stratified_subset(examples, 0.5)
    assert len(half) == 10
    assert [e.duration_ms for e in half] == [e.duration_ms for e in stratified_subset(examples, 0.5)]
    assert len(stratified_subset(examples, 0.1)) == 2
    assert stratified_subset(examples, 1.0) == list(examples)
    with pytest.raises(ValueError):
        stratified_subset(examples, 0.0)


def test_stratified_subset_spreads_over_durations():
    rng = np.random.default_rng(4)
    examples = [_example(rng, 3, [1], duration=d) for d in range(100)]
    tenth = stratified_subset(examples, 0.1)
    durations = [e.duration_ms for e in tenth]
    # systematic stride over the sorted order: one pick per block of ten
    assert len(durations) == 10
    assert all(10 * k <= d < 10 * (k + 1) for k, d in enumerate(sorted(durations)))


def test_sgd_without_momentum_is_vanilla():
    rng = np.random.default_rng(5)
    batch = [_example(rng, 5, [1, 2]) for _ in range(3)]
    m1 = init_model(3, 3, hidden_dim=4, seed=6)
    m2 = m1.copy()

    plain = SgdTrainer(m1, TrainConfig(learning_rate=0.1, momentum=0.0, nesterov=True))
    plain.step(batch)

    total = {k: np.zeros_like(v) for k, v in m2.params.items()}
    from csasr.model import backward, forward_states
    from csasr.ctc import PosteriorGrid

    for ex in batch:
        hs, logp = forward_states(m2, ex.frames)
        res = ctc_loss(PosteriorGrid(logp), ex.target)
        grads = backward(m2, ex.frames, hs, res.grad)
        for k in total:
            total[k] += grads[k]
    for k, p in m2.params.items():
        p -= 0.1 * total[k] / len(batch)

    for k in m1.params:
        np.testing.assert_allclose(m1.params[k], m2.params[k], atol=1e-12)


def test_nesterov_differs_from_heavy_ball_after_first_step():
    rng = np.random.default_rng(6)
    batch = [_example(rng, 5, [1]) for _ in range(2)]
    nesterov = init_model(3, 3, hidden_dim=4, seed=7)
    heavy = nesterov.copy()
    SgdTrainer(nesterov, TrainConfig(learning_rate=0.1, momentum=0.9, nesterov=True)).step(batch)
    SgdTrainer(heavy, TrainConfig(learning_rate=0.1, momentum=0.9, nesterov=False)).step(batch)
    assert any(
        not np.allclose(nesterov.params[k], heavy.params[k]) for k in nesterov.params
    )


def test_step_skips_infeasible_and_counts_them():
    rng = np.random.default_rng(7)
    good = _example(rng, 6, [1, 2])
    bad = _example(rng, 1, [1, 1, 2, 2])  # far too short
    trainer = SgdTrainer(init_model(3, 3, hidden_dim=4, seed=8), TrainConfig())
    _, skipped, _ = trainer.step([good, bad])
    assert skipped == 1
    with pytest.raises(AllInfeasible):
        trainer.step([bad])
    with pytest.raises(EmptyBatch):
        trainer.step([])


@pytest.mark.parametrize("batch_size", [1, 2])
def test_training_skips_a_batch_of_only_infeasible_items(batch_size, caplog):
    """Duration bucketing can put an unalignable item in a batch of its
    own; whether training runs must not depend on the batch size."""
    rng = np.random.default_rng(7)
    good = _example(rng, 6, [1, 2])
    bad = _example(rng, 1, [1, 1, 2, 2])  # far too short, and sorted first
    cfg = TrainConfig(batch_size=batch_size, epochs=2)
    model = init_model(3, 3, hidden_dim=4, seed=8)
    with caplog.at_level("INFO", logger="csasr.training"):
        history = train_epochs(model, [good, bad], cfg, tag="probe")
    assert len(history) == 2 and np.isfinite(history).all()
    assert caplog.text.count("skipped=1") == 2
    with pytest.raises(AllInfeasible, match="probe epoch 1: all 2 items infeasible"):
        train_epochs(model, [bad, bad], cfg, tag="probe")


def _rows_checked(monkeypatch):
    """The row counts of each call to the row check from now on."""
    calls = []
    check = ctc_mod._check_rows

    def counted(rows):
        calls.append(len(rows))
        check(rows)

    monkeypatch.setattr(ctc_mod, "_check_rows", counted)
    return calls


def test_step_checks_each_row_reaching_ctc_once(monkeypatch):
    rng = np.random.default_rng(9)
    batch = [_example(rng, t, [1]) for t in (1, 4, 2)] + [_example(rng, 1, [1, 2])]
    calls = _rows_checked(monkeypatch)
    _, skipped, _ = SgdTrainer(init_model(3, 3, hidden_dim=4, seed=1), TrainConfig()).step(batch)
    assert skipped == 1  # the infeasible item's rows are checked too
    assert calls == [8]


@pytest.mark.parametrize("bad", range(3))
def test_step_refuses_a_non_finite_row_in_any_utterance(bad):
    rng = np.random.default_rng(10)
    batch = [_example(rng, t, [1]) for t in (1, 4, 2)]
    batch[bad].frames[-1, 0] = np.nan  # only the utterance's last row is NaN
    model = init_model(3, 3, hidden_dim=4, seed=1)
    before = model.copy()
    with pytest.raises(ValueError, match="not normalized: logsumexp = nan"):
        SgdTrainer(model, TrainConfig()).step(batch)
    for k in model.params:
        assert model.params[k].tobytes() == before.params[k].tobytes()


def test_large_vocabulary_step_holds_few_stacked_arrays():
    """Forward, CTC and BPTT hand one (sum of T, V) array along, so with
    thousands of units that array and CTC's gamma dominate the step's
    memory. A padded copy, a gradient concatenate or a (T, B, V) gather
    would each add about one more; the traced peak was 4.04 arrays with
    all of them and 2.07 without."""
    rng = np.random.default_rng(12)
    V, T, B = 3029, 60, 4
    batch = [
        Example(rng.normal(size=(T, 12)), tuple(rng.integers(1, V, 10).tolist()), T, "L1")
        for _ in range(B)
    ]
    trainer = SgdTrainer(init_model(12, V, hidden_dim=16, seed=3), TrainConfig())
    tracemalloc.start()
    try:
        trainer.step(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = peak / (B * T * V * 8)
    assert arrays < 2.5, f"peak {arrays:.2f} stacked arrays"


def test_training_overfits_a_tiny_set():
    rng = np.random.default_rng(8)
    examples = [_example(rng, 8, [1, 2]), _example(rng, 8, [2, 1])]
    model = init_model(3, 3, hidden_dim=16, seed=9)
    cfg = TrainConfig(learning_rate=0.05, momentum=0.9, epochs=150, batch_size=2, seed=0)
    history = train_epochs(model, examples, cfg)
    assert history[-1] < 0.1 * history[0]


def _divergence_probe(lr):
    rng = np.random.default_rng(8)
    examples = [_example(rng, 8, t) for t in ([1, 2], [2, 1], [1], [2, 2])]
    model = init_model(3, 3, hidden_dim=16, seed=9)
    cfg = TrainConfig(learning_rate=lr, epochs=6, batch_size=2, seed=0)
    with np.errstate(all="ignore"), pytest.raises(Diverged) as caught:
        train_epochs(model, examples, cfg, tag="probe")
    return caught.value


def test_epoch_loss_far_above_the_first_raises_diverged():
    err = _divergence_probe(5.0)  # epoch losses 19.3, then 128.3
    assert (err.tag, err.epoch, err.batch) == ("probe", 2, 2)
    assert "probe diverged at epoch 2, batch 2" in str(err)
    assert "above 2x the first epoch's" in str(err)


def test_non_finite_update_raises_diverged_at_its_batch():
    err = _divergence_probe(1e308)
    assert (err.tag, err.epoch, err.batch) == ("probe", 1, 1)
    assert "non-finite parameters" in str(err)


def test_non_finite_batch_loss_raises_diverged_at_its_batch(monkeypatch):
    losses = iter([1.0, 1.0, 1.0, float("nan")])
    monkeypatch.setattr(SgdTrainer, "step", lambda self, batch: (next(losses), 0, {}))
    rng = np.random.default_rng(8)
    examples = [_example(rng, 4, [1]) for _ in range(4)]
    cfg = TrainConfig(epochs=2, batch_size=2)
    with pytest.raises(Diverged, match="at epoch 2, batch 2: batch loss is nan"):
        train_epochs(init_model(3, 3, hidden_dim=4, seed=0), examples, cfg, tag="probe")


def test_single_utterance_loss_decreases_over_every_window():
    rng = np.random.default_rng(14)
    example = _example(rng, 10, [1, 2, 1])
    model = init_model(3, 3, hidden_dim=16, seed=15)
    trainer = SgdTrainer(model, TrainConfig(learning_rate=3e-4))
    losses = [trainer.step([example])[0] for _ in range(200)]
    for i in range(len(losses) - 50):
        assert losses[i + 50] < losses[i]


def test_per_language_losses_reported():
    rng = np.random.default_rng(9)
    batch = [
        _example(rng, 5, [1], language="L1"),
        _example(rng, 5, [2], language="L2"),
    ]
    trainer = SgdTrainer(init_model(3, 3, hidden_dim=4, seed=10), TrainConfig())
    _, _, by_language = trainer.step(batch)
    assert set(by_language) == {"L1", "L2"}
    assert all(len(losses) == 1 for losses in by_language.values())


def test_logged_language_losses_are_per_utterance_means(caplog):
    # two batches of three, one with one L1 and two L2 utterances and one
    # with two L1 and one L2, so a mean of batch means weighs them unequally
    rng = np.random.default_rng(16)
    languages = ("L1", "L2", "L2", "L1", "L1", "L2")
    examples = [
        _example(rng, 6 + i, [1, 2] if i % 2 else [2], duration=i, language=lang)
        for i, lang in enumerate(languages)
    ]
    model = init_model(3, 3, hidden_dim=4, seed=17)
    losses = {"L1": [], "L2": []}
    for ex in examples:
        losses[ex.language].append(ctc_loss(forward(model, ex.frames), ex.target).loss)
    with caplog.at_level("INFO", logger="csasr.training"):
        train_epochs(model, examples, TrainConfig(learning_rate=0.0, batch_size=3))
    (message,) = caplog.messages
    want = {lang: np.mean(v) for lang, v in losses.items()}
    assert f"L1={want['L1']:.4f} L2={want['L2']:.4f} " in message
    # the mean of the two batch means differs at the logged precision
    l1 = losses["L1"]
    assert f"{(l1[0] + np.mean(l1[1:])) / 2:.4f}" != f"{want['L1']:.4f}"


def test_joint_training_learns_both_languages():
    from csasr.decoder import greedy_decode
    from csasr.metrics import corpus_cer
    from csasr.model import forward
    from csasr.synth import make_spec, synth_corpus
    from csasr.training import load_examples
    from csasr.vocab import build_vocab, decode_ids

    spec = make_spec("abcd", "你我他", feature_dim=8, sigma=0.4, seed=0)
    vocab = build_vocab(["".join(sorted(spec.templates))])

    def corpus(language, count, tag, tmp):
        entries = synth_corpus(spec, language, count, tmp, tag=tag)
        return load_examples(entries, vocab, tmp), [e.transcript for e in entries]

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        l1_train, _ = corpus("L1", 50, "l1_train", tmp)
        l2_train, _ = corpus("L2", 50, "l2_train", tmp)
        l1_test, l1_refs = corpus("L1", 15, "l1_test", tmp)
        l2_test, l2_refs = corpus("L2", 15, "l2_test", tmp)

        model = init_model(8, len(vocab), hidden_dim=16, seed=16)
        cfg = TrainConfig(learning_rate=0.01, momentum=0.9, epochs=8, batch_size=20, seed=0)
        run_joint_training(model, l1_train, l2_train, cfg)

        for test_set, refs in ((l1_test, l1_refs), (l2_test, l2_refs)):
            hyps = [
                decode_ids(greedy_decode(forward(model, ex.frames)), vocab)
                for ex in test_set
            ]
            assert corpus_cer(refs, hyps).rate < 50.0


def test_joint_training_requires_both_pools():
    rng = np.random.default_rng(10)
    examples = [_example(rng, 5, [1])]
    model = init_model(3, 3, hidden_dim=4, seed=11)
    with pytest.raises(ValueError):
        run_joint_training(model, examples, [], TrainConfig())


def test_finetune_fraction_uses_subset():
    rng = np.random.default_rng(11)
    examples = [_example(rng, 6, [1, 2], duration=d) for d in range(10)]
    model = init_model(3, 3, hidden_dim=4, seed=12)
    history = run_finetune(model, examples, TrainConfig(epochs=1, batch_size=4), 0.5)
    assert len(history) == 1


def test_train_epochs_deterministic_given_seed():
    rng = np.random.default_rng(12)
    examples = [_example(rng, 6, [1, 2]) for _ in range(6)]
    cfg = TrainConfig(learning_rate=0.01, epochs=3, batch_size=2, seed=4)
    m1 = init_model(3, 3, hidden_dim=4, seed=13)
    m2 = m1.copy()
    h1 = train_epochs(m1, examples, cfg)
    h2 = train_epochs(m2, examples, cfg)
    assert h1 == h2
    for k in m1.params:
        np.testing.assert_array_equal(m1.params[k], m2.params[k])
