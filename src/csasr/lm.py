"""Interpolated Kneser-Ney n-gram language model over hybrid tokens.

Tokens are Latin words (maximal [a-z']+ runs) and single CJK characters,
so one tokenizer serves both LM scoring and word counting. Probabilities
are stored base-10 to match the ARPA backoff-table format: the table keeps
the full interpolated probability of every observed n-gram plus a backoff
weight per observed context, which reproduces the interpolated model
exactly under standard ARPA lookup semantics.

Counting conventions: the top order uses raw counts; every lower order
uses continuation counts (number of distinct predecessor types), except
that grams starting with `<s>` keep raw counts since nothing can precede
them. `<s>` is context-only (placeholder -99 unigram), `</s>` is a
predicted event, and the leftover unigram discount mass goes to `<unk>`.

LM states. Every query looks a context up as its state (`state_of`): its
longest suffix in `NGramModel.states`, the contexts that can still change
a score, as in KenLM (Heafield 2011). `log10` gives a word's log10
probability at a state, one backoff level at a time: a stored n-gram's
probability, else the state's backoff weight plus the word's value at
its suffix state. `score` gives it at any context, with the next state.
States stand exactly for the contexts they replace:
- A context that is not a state has no follower and no backoff weight,
  so each of its scores is that of its suffix plus 0.0. By induction on
  the length, every score of a state differs from the backoff walk over
  the full context at most in the sign of a zero, and
  no log10 sum can hold -0.0: each starts from +0.0, and a sum is -0.0
  only when both terms are. So every sum of scores, and every perplexity,
  is the full context's to the bit.
- Prefix closure makes the state after w of any context equal the state
  after w of its state: if u + (w,) is the longest suffix of the next
  context that is a state, u is a state and a suffix of the context,
  hence of its state.
- Without the closure this breaks on ARPA files whose n-grams lack
  their prefixes, which `read_arpa` accepts: with a stored 3-gram
  "x y z" and no weight and no follower on "x", a context ending in "x"
  would become one without it, the context after y would be "y" rather
  than "x y", and z would lose the 3-gram's probability.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .vocab import LATIN_RUN, MalformedFile, is_cjk, read_utf8

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

# gram -> (log10 probability, log10 backoff weight or None)
NGramTable = dict[tuple[str, ...], tuple[float, float | None]]


class MalformedArpa(MalformedFile):
    pass


def tokenize_lm(text: str) -> list[str]:
    """Split normalized text into Latin-word and CJK-char tokens."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == " ":
            i += 1
            continue
        if is_cjk(ch):
            tokens.append(ch)
            i += 1
            continue
        m = LATIN_RUN.match(text, i)
        if not m:
            raise ValueError(f"unexpected character {ch!r} in normalized text")
        tokens.append(m.group(0))
        i = m.end()
    return tokens


@dataclass
class NGramModel:
    """Immutable after construction; score concurrently at will.

    Its decoding tables fill lazily and deterministically: each decode
    with the model adds the rows and transitions of the LM states it
    reaches, every one a function of the model alone, so the order of
    the decodes changes no value, and decodes in several threads may
    share the model.
    """

    order: int
    tables: dict[int, NGramTable]
    discounts: dict[int, float] | None = None
    # orders whose count-of-counts gave no discount in (0,1); D=0.5 was used
    degenerate_orders: tuple[int, ...] = ()
    # decoder tables, one table per model and vocabulary, keyed by the
    # vocabulary; none of them refers to the model, so a model is freed as
    # soon as its last reference goes
    decoding_tables: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @cached_property
    def vocabulary(self) -> frozenset[str]:
        """The words of the 1-grams; `score` takes any other as `UNK`."""
        return frozenset(g[0] for g in self.tables[1])

    @cached_property
    def states(self) -> frozenset[tuple[str, ...]]:
        """Every context of at most order-1 tokens with a stored follower
        or a backoff weight, plus `()`, closed under prefixes."""
        states = {()}
        for table in self.tables.values():
            for gram, (_, bow) in table.items():
                # gram's context, or gram itself if it is a weighted context,
                # then each prefix down to the first one already added
                head = gram if bow is not None and len(gram) < self.order else gram[:-1]
                while head not in states:
                    states.add(head)
                    head = head[:-1]
        return frozenset(states)


def train_kn(corpus: Iterable[Sequence[str]], order: int = 5) -> NGramModel:
    """Interpolated Kneser-Ney with one discount per order.

    Discounts use the Ney/Essen/Kneser estimate D = n1/(n1+2*n2) over the
    count-of-counts of the counts actually used at that order; any order
    where that estimate is undefined or falls outside (0,1) falls back to
    D = 0.5 and is reported in degenerate_orders.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    sentences = [list(s) for s in corpus]
    if not sentences:
        raise ValueError("empty corpus")

    raw: dict[int, Counter] = {k: Counter() for k in range(1, order + 1)}
    for sent in sentences:
        padded = ([BOS] if order > 1 else []) + sent + [EOS]
        for k in range(1, order + 1):
            for i in range(len(padded) - k + 1):
                raw[k][tuple(padded[i : i + k])] += 1

    adjusted: dict[int, dict[tuple[str, ...], int]] = {}
    for k in range(1, order + 1):
        if k == order:
            adj = {g: c for g, c in raw[k].items()}
        else:
            continuation = Counter()
            for gram in raw[k + 1]:
                continuation[gram[1:]] += 1
            adj = {}
            for gram, c in raw[k].items():
                adj[gram] = c if gram[0] == BOS else continuation[gram]
        adj.pop((BOS,), None)
        adjusted[k] = adj

    discounts: dict[int, float] = {}
    degenerate = []
    for k in range(1, order + 1):
        n1 = sum(1 for c in adjusted[k].values() if c == 1)
        n2 = sum(1 for c in adjusted[k].values() if c == 2)
        if n1 > 0 and n2 > 0:
            discounts[k] = n1 / (n1 + 2 * n2)
        else:
            # count-of-counts give no discount in (0,1) at this order
            discounts[k] = 0.5
            degenerate.append(k)

    # linear-domain interpolated probabilities, built bottom-up
    prob: dict[tuple[str, ...], float] = {}
    bows: dict[int, dict[tuple[str, ...], float]] = {}

    d1 = discounts[1]
    total1 = sum(adjusted[1].values())
    prob[(UNK,)] = d1 * len(adjusted[1]) / total1
    for gram, a in adjusted[1].items():
        prob[gram] = (a - d1) / total1

    for k in range(2, order + 1):
        dk = discounts[k]
        ctx_total: Counter = Counter()
        ctx_types: Counter = Counter()
        for gram, a in adjusted[k].items():
            ctx_total[gram[:-1]] += a
            ctx_types[gram[:-1]] += 1
        bows[k - 1] = {
            h: dk * ctx_types[h] / ctx_total[h] for h in ctx_total
        }
        for gram, a in adjusted[k].items():
            h = gram[:-1]
            prob[gram] = (a - dk) / ctx_total[h] + bows[k - 1][h] * prob[gram[1:]]

    tables: dict[int, NGramTable] = {k: {} for k in range(1, order + 1)}
    for k in range(1, order + 1):
        kbows = bows.get(k, {})
        for gram in adjusted[k]:
            tables[k][gram] = (math.log10(prob[gram]), _log10_bow(kbows.get(gram)))
    tables[1][(UNK,)] = (math.log10(prob[(UNK,)]), None)
    if order > 1:
        tables[1][(BOS,)] = (-99.0, _log10_bow(bows.get(1, {}).get((BOS,))))

    return NGramModel(order, tables, discounts, tuple(degenerate))


def _log10_bow(b: float | None) -> float | None:
    return None if b is None else math.log10(b)


def state_of(model: NGramModel, context: tuple[str, ...]) -> tuple[str, ...]:
    """The longest suffix of context in `model.states`. No state is longer
    than order-1 tokens, so it is a suffix of the last order-1 of them."""
    states = model.states
    while context not in states:
        context = context[1:]
    return context


def initial_state(model: NGramModel) -> tuple[str, ...]:
    return state_of(model, (BOS,))


def log10(model: NGramModel, state: tuple[str, ...], w: str) -> float:
    """log10 p(w | state) under ARPA backoff semantics.

    w must be in the vocabulary or be `UNK`. A stored n-gram state + (w,)
    gives its probability, and `()` falls back to the `UNK` unigram; any
    other state gives its backoff weight (0.0 when it has none) plus w's
    value at `state_of(model, state[1:])`.
    """
    entry = model.tables[len(state) + 1].get(state + (w,))
    if entry is not None:
        return entry[0]
    if not state:
        return model.tables[1][(UNK,)][0]
    bow = model.tables[len(state)].get(state, (0.0, None))[1]
    if bow is None:
        bow = 0.0
    return bow + log10(model, state_of(model, state[1:]), w)


def score(
    model: NGramModel, context: tuple[str, ...], w: str
) -> tuple[float, tuple[str, ...]]:
    """(log10 p(w | context), the state after w); a word outside the
    vocabulary is scored as `UNK`."""
    if w not in model.vocabulary:
        w = UNK
    state = state_of(model, context)
    return log10(model, state, w), state_of(model, state + (w,))


def tokens_log10(model: NGramModel, tokens: Iterable[str]) -> float:
    """Sum of the token scores, each given `<s>` and the tokens before it."""
    total, state = 0.0, initial_state(model)
    for token in tokens:
        lp, state = score(model, state, token)
        total += lp
    return total


def sentence_log10(model: NGramModel, sentence: Sequence) -> float:
    """`tokens_log10` of the sentence and its end event."""
    return tokens_log10(model, [*sentence, EOS])


def perplexity(model: NGramModel, corpus: Iterable[Sequence]) -> float:
    """10^(-mean log10 prob); `</s>` counts as an event, `<s>` does not."""
    total = 0.0
    n_events = 0
    for sentence in corpus:
        total += sentence_log10(model, sentence)
        n_events += len(sentence) + 1
    if n_events == 0:
        raise ValueError("empty corpus")
    return 10.0 ** (-total / n_events)


def write_arpa(model: NGramModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\\data\\\n")
        for k in range(1, model.order + 1):
            f.write(f"ngram {k}={len(model.tables[k])}\n")
        for k in range(1, model.order + 1):
            f.write(f"\n\\{k}-grams:\n")
            for gram in sorted(model.tables[k]):
                logp, bow = model.tables[k][gram]
                line = f"{logp:.7f}\t{' '.join(gram)}"
                if bow is not None:
                    line += f"\t{bow:.7f}"
                f.write(line + "\n")
        f.write("\n\\end\\\n")


def read_arpa(path) -> NGramModel:
    lines = read_utf8(path).splitlines()

    def fail(i: int, reason: str):
        raise MalformedArpa(path, i + 1, reason)

    i = 0
    while i < len(lines) and lines[i].strip() != "\\data\\":
        if lines[i].strip():
            fail(i, f"expected \\data\\, got {lines[i]!r}")
        i += 1
    if i == len(lines):
        fail(max(len(lines) - 1, 0), "missing \\data\\ section")
    i += 1

    declared: dict[int, int] = {}
    while i < len(lines):
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line.startswith("\\"):
            break
        m = re.match(r"^ngram (\d+)=(\d+)$", line)
        if not m:
            fail(i, f"bad count line {line!r}")
        if int(m.group(1)) in declared:
            fail(i, f"second count for {m.group(1)}-grams")
        declared[int(m.group(1))] = int(m.group(2))
        i += 1
    if not declared or sorted(declared) != list(range(1, max(declared) + 1)):
        fail(i if i < len(lines) else len(lines) - 1, "incomplete ngram count header")
    order = max(declared)

    tables: dict[int, NGramTable] = {k: {} for k in range(1, order + 1)}
    first: dict[tuple[str, ...], int] = {}
    unigram_line = len(lines)
    # k is the order of the section being read, None after a blank line
    k, sections, seen_end = None, set(), False
    for i, raw in enumerate(lines[i:], i):
        line = raw.strip()
        if not line:
            k = None
        elif seen_end:
            fail(i, f"text after \\end\\: {line!r}")
        elif k is not None and not line.startswith("\\"):
            fields = line.split()
            if len(fields) not in (k + 1, k + 2):
                fail(i, f"expected {k + 1} or {k + 2} fields, got {len(fields)}")
            try:
                logp = float(fields[0])
                bow = float(fields[k + 1]) if len(fields) == k + 2 else None
            except ValueError:
                fail(i, "non-numeric probability field")
            if not math.isfinite(logp):
                fail(i, "non-finite probability field")
            if logp > 0:
                fail(i, f"log10 probability {fields[0]} is above 0")
            if bow is not None and not math.isfinite(bow):
                fail(i, "non-finite backoff field")
            gram = tuple(fields[1 : k + 1])
            if first.setdefault(gram, i + 1) != i + 1:
                fail(i, f"repeated {k}-gram, first at line {first[gram]}")
            tables[k][gram] = (logp, bow)
        elif line == "\\end\\":
            seen_end = True
        else:
            m = re.match(r"^\\(\d+)-grams:$", line)
            if not m:
                fail(i, f"unexpected line {line!r}")
            k = int(m.group(1))
            if k not in tables:
                fail(i, f"section order {k} not declared")
            if k in sections:
                fail(i, f"second \\{k}-grams: section")
            sections.add(k)
            if k == 1:
                unigram_line = i + 1
    if not seen_end:
        raise MalformedArpa(path, len(lines), "missing \\end\\ marker")
    for k, n in declared.items():
        if len(tables[k]) != n:
            raise MalformedArpa(
                path, len(lines), f"declared {n} {k}-grams, found {len(tables[k])}"
            )
    if (UNK,) not in tables[1]:
        raise MalformedArpa(path, unigram_line, f"1-grams lack {UNK}")
    return NGramModel(order, tables)
