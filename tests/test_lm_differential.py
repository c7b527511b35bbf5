"""Differential tests against the verbatim code that `csasr.lm` replaced
(tests/reference_lm.py):
- the LM state queries (`lm.log10`, `lm.score`) and the `sentence_log10`
  and `perplexity` built on them, against the per-word recursion over
  full contexts;
- `train_kn`, which streams its orders, against the one that held every
  order's counts at once: the same tables, keys, float bits and
  insertion order, discounts and degenerate orders.

Equality is exact: a score differs from the recursion's at most in the
sign of a zero, which `==` ignores and no sum keeps, and the state after
a word is the state of the recursion's next context (the `lm` module
docstring says why).
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from csasr import lm as lm_mod
from csasr.lm import BOS, EOS, UNK, read_arpa, train_kn
from conftest import CLOSURE_ARPA, random_lms

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


def _check_log10(model):
    """`log10` of every word at each state against the recursion over the
    state; at `()` it is to the bit the word's stored unigram, and where
    another state's n-gram is not stored, the state's backoff weight plus
    the word's value at the suffix state."""
    words = tuple(sorted(model.vocabulary)) + (UNK,)
    for state, w in itertools.product(sorted(model.states), words):
        got = lm_mod.log10(model, state, w)
        assert got == reference_lm._cond_log10(model, state, w), (state, w)
        if not state:
            assert got.hex() == model.tables[1][(w,)][0].hex(), w
        elif state + (w,) not in model.tables[len(state) + 1]:
            bow = model.tables[len(state)].get(state, (0.0, None))[1]
            lower = lm_mod.log10(model, lm_mod.state_of(model, state[1:]), w)
            assert got.hex() == ((0.0 if bow is None else bow) + lower).hex(), (state, w)


def _state_of(model, context):
    """The longest suffix of context in `model.states`."""
    suffixes = (context[i:] for i in range(len(context) + 1))
    return next(c for c in suffixes if c in model.states)


def _check_score(model, contexts):
    tokens = sorted(model.vocabulary) + list(OOV) + [UNK]
    longer = [(BOS,) * model.order + c for c in contexts[:20]]
    for ctx, token in itertools.product(contexts + longer, tokens):
        lp, want = reference_lm.score(model, reference_lm.LmState(ctx), token)
        assert lm_mod.score(model, ctx, token) == (
            lp,
            _state_of(model, want.context),
        ), (ctx, token)


def _check_sentences(model, sentences):
    """Sums and perplexity to the bit, the sign of a zero included."""
    for s in sentences:
        got = lm_mod.sentence_log10(model, s)
        assert got.hex() == reference_lm.sentence_log10(model, s).hex(), s
    got = lm_mod.perplexity(model, sentences)
    assert got.hex() == reference_lm.perplexity(model, sentences).hex()


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
    _check_log10(model)
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
    _check_log10(model)
    _check_score(model, contexts)
    _check_sentences(
        model, [["a", "b", "你"], ["b", "a", "你"], ["你", "a", "b"], ["zz"], []]
    )


def test_arpa_whose_contexts_need_the_prefix_closure(tmp_path):
    path = tmp_path / "closure.arpa"
    path.write_text(CLOSURE_ARPA, encoding="utf-8")
    model = read_arpa(path)
    # "你" is a state only as the prefix of the stored 3-grams "你 好 ·"
    assert ("你",) in model.states and not any(g[0] == "你" for g in model.tables[2])
    vocab = sorted(model.vocabulary)
    contexts = [()] + [(w,) for w in vocab + [UNK]]
    contexts += [tuple(p) for p in itertools.product(vocab + [UNK], repeat=2)]
    _check_log10(model)
    _check_score(model, contexts)
    _check_sentences(
        model,
        [["你", "好", "a"], ["a", "你", "好", "你", "好", "a"], ["b", "你", "好"], []],
    )


def test_a_state_backs_off_past_the_contexts_that_are_no_states():
    # "a b" is a state by its weight -0.0, and "b" has neither a weight nor
    # a follower, so "a b" backs off straight to (): a walk through "b", as
    # the recursion over full contexts takes, adds +0.0 to the -0.0 of 你
    tables = {
        1: {(UNK,): (-1.0, None), ("a",): (-0.5, None), ("b",): (-0.5, None),
            ("你",): (-0.0, None)},
        2: {("a", "b"): (-0.3, -0.0)},
        3: {},
    }
    model = lm_mod.NGramModel(3, tables)
    assert ("a", "b") in model.states and ("b",) not in model.states
    assert lm_mod.log10(model, ("a", "b"), "你").hex() == "-0x0.0p+0"
    assert reference_lm._cond_log10(model, ("a", "b"), "你").hex() == "0x0.0p+0"
    _check_log10(model)


_SENTENCE_TOKENS = ("a", "b", "ab", "ba'", "你", "好", "zz")


@settings(max_examples=60, deadline=None)
@given(
    model=random_lms(),
    contexts=st.lists(st.lists(st.sampled_from(_SENTENCE_TOKENS + (BOS,)), max_size=5)),
    sentences=st.lists(st.lists(st.sampled_from(_SENTENCE_TOKENS), max_size=8)),
)
def test_random_lm_tables_score_as_the_recursion(model, contexts, sentences):
    _check_log10(model)
    _check_score(model, sorted({()} | set(map(tuple, contexts))))
    _check_sentences(model, sentences + [["你", "好", "a"]])


def _kn_rows(model):
    """Everything `train_kn` returns, floats as their bits, dicts in
    insertion order."""
    def bits(x):
        return None if x is None else x.hex()

    tables = [
        (k, [(gram, bits(logp), bits(bow)) for gram, (logp, bow) in table.items()])
        for k, table in model.tables.items()
    ]
    discounts = [(k, bits(d)) for k, d in model.discounts.items()]
    return model.order, tables, discounts, model.degenerate_orders


def _assert_kn_equals_reference(corpus, order):
    assert _kn_rows(train_kn(corpus, order)) == _kn_rows(
        reference_lm.train_kn(corpus, order)
    )


# a corpus </s> and <unk> mid-sentence: <unk>'s own probability overwrites
# the leftover mass, and its weight is dropped
_KN_TOKENS = ("a", "b", "ab", "你", "好", EOS, UNK)


@settings(max_examples=150, deadline=None)
@given(
    corpus=st.lists(st.lists(st.sampled_from(_KN_TOKENS), max_size=7), min_size=1, max_size=12),
    order=st.integers(1, 5),
)
@example(corpus=[[UNK, "a", UNK]], order=2)
def test_kn_tables_equal_the_reference_on_random_corpora(corpus, order):
    _assert_kn_equals_reference(corpus, order)


@pytest.mark.parametrize(
    "corpus",
    [[[]], [["a"]], [["a", "a", "a"]] * 4, [["a", "b"], ["b", "a"]]],
    ids=["empty", "single-token", "repeated-token", "no-repeated-bigram"],
)
@pytest.mark.parametrize("order", (1, 2, 3, 4, 5))
def test_kn_tables_equal_the_reference_where_an_order_degenerates(corpus, order):
    # every one of these has an order whose count-of-counts give no discount
    assert train_kn(corpus, order).degenerate_orders
    _assert_kn_equals_reference(corpus, order)


@pytest.mark.parametrize("order", (1, 2, 3, 5))
@pytest.mark.parametrize("seed", (0, 1, 7))
def test_kn_tables_equal_the_reference_on_larger_corpora(order, seed):
    rng = np.random.default_rng(seed)
    _assert_kn_equals_reference(_corpus(rng, 400), order)

