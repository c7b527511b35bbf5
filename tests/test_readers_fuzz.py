"""Fuzz every file reader on arbitrary text and on valid files with lines
swapped for noise: each either parses or raises a ValueError (its typed
`Malformed*` error, or a plain ValueError), never anything else.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from csasr.ctc import read_grid
from csasr.features import read_feat
from csasr.lm import read_arpa
from csasr.model import CHECKPOINT_FORMAT, PARAM_NAMES, load_checkpoint
from csasr.training import load_manifest
from csasr.vocab import load_vocab

FEAT_LINES = ("FEAT v1 T=2 F=2", "FEAT v1 T=0 F=3", "0.5 -1", "inf 1e308", "nan -0")
GRID_LINES = (
    "CTCGRID v1 T=1 V=2",
    "CTCGRID v1 T=2 V=2",
    "-0.69314718055994529 -0.69314718055994529",
    "0 -inf",
    "-inf -inf",
)
MANIFEST_LINES = (
    "path,transcript,language,duration_ms",
    "a.feat,ab,L1,120",
    'b.feat,"a, b",mixed,-3',
    'c.feat,"x\ny",L2,1',
    "d.feat,ab,L1",
    '"unterminated,ab',
)
ARPA_LINES = (
    "\\data\\",
    "ngram 1=3",
    "ngram 2=1",
    "\\1-grams:",
    "\\2-grams:",
    "-0.5\t<unk>",
    "-0.3\ta\t-0.1",
    "-99\t<s>",
    "-0.2\t<s> a",
    "\\end\\",
)

VOCAB_LINES = ("<blank>", "a", "b", " ", "'", "你", "A", "<unk>", "")
CHECKPOINT_LINES = (
    "{",
    "}",
    f' "format": "{CHECKPOINT_FORMAT}",',
    ' "params": {',
    '  "b_h": {"data": "AAAAAAAAAAA=", "shape": [1]}',
    ' "version": 1',
)

# JSON values, and objects shaped like a checkpoint whose fields may be any
# of them: each field check is reached, not only the JSON parser
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# one float64 each: 0.0 and +inf
_DATA = st.sampled_from(("AAAAAAAAAAA=", "AAAAAAAA8H8=", "", "not base64!"))
_PARAM = st.fixed_dictionaries(
    {
        "shape": st.lists(st.integers(-1, 2), max_size=3) | _JSON,
        "data": _DATA | _JSON,
    }
)
_CHECKPOINTS = st.fixed_dictionaries(
    {
        "format": st.sampled_from((CHECKPOINT_FORMAT, "other")),
        "version": st.sampled_from((1, 1.0, 2, "1")),
        "params": st.dictionaries(st.sampled_from(PARAM_NAMES), _PARAM) | _JSON,
    }
).map(json.dumps)


def _texts(pieces):
    noise = st.text(max_size=12)
    headers = st.builds(
        "{} T={} {}={}".format,
        st.sampled_from(("FEAT v1", "CTCGRID v1")),
        st.integers(0, 4),
        st.sampled_from(("F", "V")),
        st.integers(0, 4),
    )
    line = st.one_of(st.sampled_from(pieces), noise, headers)
    sep = st.sampled_from(("\n", "\r\n", "\r"))
    return st.one_of(
        st.text(max_size=60),
        st.builds(lambda ls, s: s.join(ls), st.lists(line, max_size=8), sep),
    )


def _fuzz(reader, tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(text.encode("utf-8"))
    try:
        reader(path)
    except ValueError:
        pass


FUZZ = settings(
    max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@FUZZ
@given(_texts(FEAT_LINES))
def test_read_feat_raises_only_value_errors(tmp_path_factory, text):
    _fuzz(read_feat, tmp_path_factory, text)


@FUZZ
@given(_texts(GRID_LINES))
def test_read_grid_raises_only_value_errors(tmp_path_factory, text):
    _fuzz(read_grid, tmp_path_factory, text)


@FUZZ
@given(_texts(MANIFEST_LINES))
def test_load_manifest_raises_only_value_errors(tmp_path_factory, text):
    _fuzz(load_manifest, tmp_path_factory, text)


@FUZZ
@given(_texts(ARPA_LINES))
def test_read_arpa_raises_only_value_errors(tmp_path_factory, text):
    _fuzz(read_arpa, tmp_path_factory, text)


@FUZZ
@given(_texts(VOCAB_LINES))
def test_load_vocab_raises_only_value_errors(tmp_path_factory, text):
    _fuzz(load_vocab, tmp_path_factory, text)


@FUZZ
@given(_texts(CHECKPOINT_LINES) | _CHECKPOINTS)
def test_load_checkpoint_raises_only_value_errors(tmp_path_factory, text):
    _fuzz(load_checkpoint, tmp_path_factory, text)
