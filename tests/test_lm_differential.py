"""Differential test: the per-context backoff row (`lm.log10_row`) and the
`score`, `sentence_log10` and `perplexity` built on it, against the
verbatim per-word recursion they replaced (tests/reference_lm.py).

Equality is exact: a row element is the same `bow + lower` sum, in the
same association, as the recursion computes for that word.
"""

import itertools

import numpy as np
import pytest

from csasr import lm as lm_mod
from csasr.lm import BOS, EOS, UNK, LmState, read_arpa, train_kn

import reference_lm

ORDERS = (1, 2, 3, 5)
LATIN = ("a", "ab", "ba", "b'a", "abba")
CJK = ("你", "好", "他", "说")
OOV = ("zz", "龍")


def _corpus(rng, n=30):
    pool = LATIN + CJK
    return [
        [str(w) for w in rng.choice(pool, size=int(rng.integers(1, 7)))]
        for _ in range(n)
    ]


def _contexts(model, rng):
    """Every stored context, random contexts (most absent from the model,
    some holding OOV words or `<unk>`), and `<s>`-initial ones."""
    n = model.order - 1
    stored = {g for k in range(1, model.order) for g in model.tables[k]}
    pool = sorted(model.vocabulary - {BOS}) + list(OOV)
    drawn = set()
    for _ in range(150):
        length = int(rng.integers(0, n + 1))
        ctx = tuple(str(w) for w in rng.choice(pool, size=length))
        drawn.add(ctx)
        if length:
            drawn.add((BOS,) + ctx[1:])
    return sorted(c for c in stored | drawn if len(c) <= n)


def _mapped(ctx, model):
    return tuple(w if w in model.vocabulary else UNK for w in ctx)


def _check_rows(model, contexts):
    words = tuple(sorted(model.vocabulary)) + (UNK,)
    shared = {}
    for ctx in contexts:
        want = [reference_lm._cond_log10(model, ctx, w) for w in words]
        assert lm_mod.log10_row(model, ctx, words, shared) == want, ctx
        assert lm_mod.log10_row(model, ctx, words, {}) == want, ctx
        for w, lp in zip(words, want):
            assert lm_mod.log10_row(model, ctx, (w,), {}) == [lp], (ctx, w)


def _check_score(model, contexts):
    tokens = sorted(model.vocabulary) + list(OOV) + [UNK]
    longer = [(BOS,) * model.order + c for c in contexts[:20]]
    for ctx, token in itertools.product(contexts + longer, tokens):
        state = LmState(ctx, -1.25)
        assert lm_mod.score(model, state, token) == reference_lm.score(
            model, state, token
        ), (ctx, token)


def _check_sentences(model, sentences):
    for s in sentences:
        assert lm_mod.sentence_log10(model, s) == reference_lm.sentence_log10(model, s)
    assert lm_mod.perplexity(model, sentences) == reference_lm.perplexity(
        model, sentences
    )


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", range(3))
def test_kn_rows_and_scores_equal_the_recursion(order, seed):
    rng = np.random.default_rng(100 * order + seed)
    corpus = _corpus(rng)
    model = train_kn(corpus, order)
    contexts = _contexts(model, rng)
    if order > 1:
        assert any(c not in model.tables[len(c)] for c in contexts if c)
        assert any(c[:1] == (BOS,) for c in contexts)
    _check_rows(model, [_mapped(c, model) for c in contexts])
    _check_score(model, contexts)
    unseen = _corpus(rng, 10) + [["zz", "你", "龍"], []]
    _check_sentences(model, corpus + unseen)


# trigram ARPA where "b a" heads a 3-gram but is no listed 2-gram, and
# "b", "a b" and "你 a" are listed with no backoff weight
ARPA = """\\data\\
ngram 1=6
ngram 2=4
ngram 3=3

\\1-grams:
-1.0\t<unk>
-99\t<s>\t-0.5
-0.7\ta\t-0.3
-0.8\tb
-0.9\t</s>
-1.1\t你\t-0.2

\\2-grams:
-0.4\t<s> a\t-0.1
-0.3\ta b
-0.6\tb 你\t-0.25
-0.2\t你 a

\\3-grams:
-0.1\t<s> a b
-0.15\tb a 你
-0.05\ta b 你

\\end\\
"""


def test_arpa_with_unlisted_context_and_missing_bows(tmp_path):
    path = tmp_path / "m.arpa"
    path.write_text(ARPA, encoding="utf-8")
    model = read_arpa(path)
    assert ("b", "a") not in model.tables[2]
    assert model.tables[1][("b",)][1] is None
    assert model.tables[2][("a", "b")][1] is None
    vocab = sorted(model.vocabulary)
    contexts = [()] + [(w,) for w in vocab + [UNK]]
    contexts += [tuple(p) for p in itertools.product(vocab + [UNK], repeat=2)]
    _check_rows(model, contexts)
    _check_score(model, contexts)
    _check_sentences(
        model, [["a", "b", "你"], ["b", "a", "你"], ["你", "a", "b"], ["zz"], []]
    )
