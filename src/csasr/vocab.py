"""Mixed-script grapheme inventory, transcript encoding, and the typed
error and UTF-8 reader that every file reader shares.

Output units are graphemes: lowercase Latin letters, space, apostrophe,
and single CJK code points. Id 0 is always the reserved CTC blank. Text
must already be normalized to these units; nothing here rewrites it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

BLANK_TOKEN = "<blank>"
BLANK_ID = 0

SCRIPT_LATIN = "latin"
SCRIPT_CJK = "cjk"
SCRIPT_SEPARATOR = "separator"
SCRIPT_BLANK = "blank"

# CJK Unified Ideographs + Extension A
_CJK_RANGES = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF))

LATIN_RUN = re.compile(r"[a-z']+")


class MalformedFile(ValueError):
    """An input file breaks its format; the message is `PATH: line N: reason`."""

    def __init__(self, path, line_number: int, reason: str):
        super().__init__(f"{path}: line {line_number}: {reason}")
        self.path = path
        self.line_number = line_number
        self.reason = reason


def read_utf8(path) -> str:
    """The text of a UTF-8 file, line ends untranslated; bytes that are
    not UTF-8 raise MalformedFile at the line holding the first of them."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = len((data[: e.start].decode("utf-8") + "x").splitlines())
        raise MalformedFile(path, line, "not UTF-8") from None


class UnknownGrapheme(ValueError):
    """A character has no id in the vocabulary."""

    def __init__(self, char: str, byte_offset: int):
        super().__init__(f"unknown grapheme {char!r} at byte offset {byte_offset}")
        self.char = char
        self.byte_offset = byte_offset


class InvalidId(ValueError):
    """An id is out of range or is the blank id inside a transcript."""


def is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def script_of(unit: str) -> str:
    if unit == BLANK_TOKEN:
        return SCRIPT_BLANK
    if unit == " ":
        return SCRIPT_SEPARATOR
    if unit == "'" or (len(unit) == 1 and "a" <= unit <= "z"):
        return SCRIPT_LATIN
    if len(unit) == 1 and is_cjk(unit):
        return SCRIPT_CJK
    raise ValueError(f"not a recognized grapheme unit: {unit!r}")


@dataclass(frozen=True)
class GraphemeVocab:
    """Ordered grapheme inventory; ``units[0]`` is the reserved blank."""

    units: tuple[str, ...]

    def __post_init__(self):
        if not self.units or self.units[0] != BLANK_TOKEN:
            raise ValueError(f"units[0] must be {BLANK_TOKEN!r}")
        if len(set(self.units)) != len(self.units):
            raise ValueError("duplicate units in vocabulary")
        for u in self.units[1:]:
            script_of(u)  # raises on anything outside the grapheme inventory
        object.__setattr__(self, "_ids", {u: i for i, u in enumerate(self.units)})

    def __len__(self) -> int:
        return len(self.units)

    def id_of(self, unit: str) -> int | None:
        return self._ids.get(unit)

    def unit_of(self, i: int) -> str:
        if not 0 <= i < len(self.units):
            raise InvalidId(f"id {i} out of range for vocab of size {len(self.units)}")
        return self.units[i]

    def script_of_id(self, i: int) -> str:
        return script_of(self.unit_of(i))


def encode(text: str, vocab: GraphemeVocab) -> list[int]:
    """Map normalized text to grapheme ids, one id per character."""
    ids = []
    offset = 0
    for ch in text:
        i = vocab.id_of(ch)
        if i is None or i == BLANK_ID:
            raise UnknownGrapheme(ch, offset)
        ids.append(i)
        offset += len(ch.encode("utf-8"))
    return ids


def decode_ids(ids: Sequence[int], vocab: GraphemeVocab) -> str:
    """Map grapheme ids back to text. Blank ids are invalid in transcripts."""
    out = []
    for i in ids:
        if i == BLANK_ID:
            raise InvalidId(f"blank id {i} inside a transcript")
        out.append(vocab.unit_of(i))
    return "".join(out)


def build_vocab(corpus: Iterable[str]) -> GraphemeVocab:
    """Blank + full Latin base set + all CJK code points seen, sorted.

    The base set (a-z, space, apostrophe) is always present; CJK units are
    collected from the corpus and ordered by code point, so the result is
    independent of corpus order.
    """
    base = [BLANK_TOKEN] + [chr(c) for c in range(ord("a"), ord("z") + 1)] + [" ", "'"]
    base_set = set(base)
    cjk: set[str] = set()
    for line in corpus:
        for ch in line:
            if ch in base_set:
                continue
            if is_cjk(ch):
                cjk.add(ch)
            else:
                raise ValueError(f"corpus not normalized: unexpected character {ch!r}")
    return GraphemeVocab(tuple(base + sorted(cjk)))


def save_vocab(vocab: GraphemeVocab, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(vocab.units) + "\n")


def load_vocab(path) -> GraphemeVocab:
    lines = read_utf8(path).splitlines()
    if not lines or lines[0] != BLANK_TOKEN:
        raise MalformedFile(path, 1, f"expected the literal line {BLANK_TOKEN!r}")
    first: dict[str, int] = {}
    for n, unit in enumerate(lines, 1):
        if first.setdefault(unit, n) != n:
            raise MalformedFile(path, n, f"unit {unit!r} repeats line {first[unit]}")
        try:
            script_of(unit)
        except ValueError as e:
            raise MalformedFile(path, n, str(e)) from None
    return GraphemeVocab(tuple(lines))
