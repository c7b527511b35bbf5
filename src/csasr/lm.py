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

Training streams its orders (`train_kn` says how): it holds one
order's raw counts or context totals at a time, never a second dict of
every n-gram, and its tables are those of counting every order first.

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
from dataclasses import dataclass
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
    """Immutable after construction; score concurrently at will."""

    order: int
    tables: dict[int, NGramTable]
    discounts: dict[int, float] | None = None
    # orders whose count-of-counts gave no discount in (0,1); D=0.5 was used
    degenerate_orders: tuple[int, ...] = ()

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

    Orders stream, as in Heafield et al. (2013): counts run from the top
    order down and probabilities from the bottom up. Each order's counts
    are one dict, rewritten in place from raw counts to counts in use and
    then to probabilities, and freed once its table is written. Live at
    once, beside the tables written:
    - while order k is counted: its raw counts and the counts in use of
      every order above, the next order down being made from order k's;
    - while order k's probabilities are made: order k-1's, which they
      interpolate with, and order k's context totals and backoff weights.
      Order k-1's table is written then, its weights being order k's.
    So no second dict of every n-gram is ever live. Every table is the
    one that counting every order first gave, to the bit and in insertion
    order: each value is the same float expression of the same counts,
    and each dict is filled in the same order.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    padded = [([BOS] if order > 1 else []) + list(s) + [EOS] for s in corpus]
    if not padded:
        raise ValueError("empty corpus")

    # top-down: order k's raw counts, then its counts in use. The top order
    # and grams starting with <s> keep raw counts; any other gram's
    # continuation count is the number of distinct grams above ending in
    # it; none ends in a gram starting with <s>, which begins sentences only
    adjusted: dict[int, dict[tuple[str, ...], int]] = {}
    for k in range(order, 0, -1):
        counts: dict[tuple[str, ...], int] = {}
        for sent in padded:
            for gram in zip(*(sent[i:] for i in range(k))):
                counts[gram] = counts.get(gram, 0) + 1
        if k < order:
            for gram in counts:
                if gram[0] != BOS:
                    counts[gram] = 0
            for gram in adjusted[k + 1]:
                counts[gram[1:]] += 1
        counts.pop((BOS,), None)
        adjusted[k] = counts
    del padded

    # bottom-up: order k's counts become its linear-domain interpolated
    # probabilities, read from order k-1's, whose table is then written
    discounts: dict[int, float] = {}
    degenerate = []
    tables: dict[int, NGramTable] = {}
    for k in range(1, order + 1):
        adj = adjusted.pop(k)
        n1 = sum(1 for c in adj.values() if c == 1)
        n2 = sum(1 for c in adj.values() if c == 2)
        if n1 > 0 and n2 > 0:
            discounts[k] = n1 / (n1 + 2 * n2)
        else:
            # count-of-counts give no discount in (0,1) at this order
            discounts[k] = 0.5
            degenerate.append(k)
        dk = discounts[k]
        if k == 1:
            total1 = sum(adj.values())
            unk = dk * len(adj) / total1
            for gram, a in adj.items():
                adj[gram] = (a - dk) / total1
            # a corpus <unk> overwrites the leftover mass
            unk = adj.get((UNK,), unk)
        else:
            ctx_total: dict[tuple[str, ...], int] = {}
            bows: dict[tuple[str, ...], float] = {}
            for gram, a in adj.items():
                h = gram[:-1]
                ctx_total[h] = ctx_total.get(h, 0) + a
                bows[h] = bows.get(h, 0) + 1
            for h, types in bows.items():
                bows[h] = dk * types / ctx_total[h]
            for gram, a in adj.items():
                h = gram[:-1]
                adj[gram] = (a - dk) / ctx_total[h] + bows[h] * probs[gram[1:]]
            del ctx_total
            tables[k - 1] = _table(probs, bows)
            if k == 2:
                bos = (-99.0, _log10_bow(bows.get((BOS,))))
        probs = adj
    tables[order] = _table(probs, {})
    tables[1][(UNK,)] = (math.log10(unk), None)
    if order > 1:
        tables[1][(BOS,)] = bos

    return NGramModel(order, tables, discounts, tuple(degenerate))


def _table(
    probs: dict[tuple[str, ...], float], bows: dict[tuple[str, ...], float]
) -> NGramTable:
    """Table rows of probs, each gram with its weight as a context in bows."""
    return {gram: (math.log10(p), _log10_bow(bows.get(gram))) for gram, p in probs.items()}


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

    w must be in the vocabulary or be `UNK`, so at `()` it is a stored
    unigram. A stored n-gram state + (w,) gives its probability; any other
    state gives its backoff weight (0.0 when it has none) plus w's value at
    `state_of(model, state[1:])`.
    """
    entry = model.tables[len(state) + 1].get(state + (w,))
    if entry is not None:
        return entry[0]
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
    unigram_line = len(lines)
    # k is the order of the section being read, None after a blank line,
    # and every line after its header at index head is one of its n-grams
    k, head, sections, seen_end = None, None, set(), False
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
            if gram in tables[k]:
                first = next(
                    j for j in range(head + 1, i) if tuple(lines[j].split()[1 : k + 1]) == gram
                )
                fail(i, f"repeated {k}-gram, first at line {first + 1}")
            tables[k][gram] = (logp, bow)
        elif line == "\\end\\":
            seen_end = True
        else:
            m = re.match(r"^\\(\d+)-grams:$", line)
            if not m:
                fail(i, f"unexpected line {line!r}")
            k, head = int(m.group(1)), i
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
