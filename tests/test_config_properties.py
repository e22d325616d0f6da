"""Property tests of the config-file parser over generated files.

Files of known keys round-trip through read_config_file and build_config; a
line without `=` or with an unknown key is rejected with its file and line;
and no input, valid or not, raises anything but ConfigurationError. The
examples are derandomized, so the suite draws the same files on every run.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulpsim import cli
from ulpsim.errors import ConfigurationError
from ulpsim.precoder import LABELS

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100, database=None)


def floats(low, high, **kwargs):
    return st.floats(low, high, **kwargs).map(lambda v: (v, repr(v)))


def counts(high):
    return st.integers(1, high).map(lambda v: (v, str(v)))


BOOL_WORDS = [(word, value) for value, words in ((True, ("1", "true", "yes", "on")),
                                                  (False, ("0", "false", "no", "off")))
              for word in words + tuple(w.upper() for w in words[1:])]


def booleans():
    return st.sampled_from(BOOL_WORDS).map(lambda wv: (wv[1], wv[0]))


# SNRs sit on distinct milli-dB keys, and with the offset their noise
# variance stays finite.
snr_lists = st.lists(st.integers(-300_000, 300_000), min_size=1, max_size=4, unique=True).map(
    lambda ms: (tuple(v / 1000 for v in ms), ", ".join(repr(v / 1000) for v in ms)))
scheme_lists = st.lists(st.sampled_from(LABELS), min_size=1, unique=True).map(
    lambda labels: (tuple(labels), ",".join(labels)))

# Each known key but the geometry, as (parsed value, text) pairs.
VALUES = {
    # Seeds lie in [0, 2**64). An odd seed past 2**53 has no exact float, so
    # it must be parsed as an int.
    "seed": st.one_of(st.integers(0, 2**31), st.integers(2**53, 2**64 - 1).map(lambda v: v | 1)
                      ).map(lambda v: (v, str(v))),
    "realizations": counts(10**9),
    "frames": counts(10**6),
    "symbols_per_frame": counts(10**6),
    "snr_offset_db": floats(-100.0, 100.0),
    # A u or m of 0 is rejected for a label that needs it (test_cli).
    "u": floats(0.0, 1e6, exclude_min=True),
    "m": floats(0.0, 1e6, exclude_min=True),
    "normalize_data_block_only": booleans(),
    "snr_db": snr_lists,
    "schemes": scheme_lists,
}
geometries = st.integers(1, 16).flatmap(lambda n: st.integers(n, 64).map(
    lambda pool: {"tx_antennas": (n, str(n)), "active_users": (n, str(n)),
                  "pool_users": (pool, str(pool))}))
spaces = st.sampled_from(["", " ", "  ", "\t"])
comments = st.sampled_from(["", "# note", "  # a = b", "#"])


@st.composite
def config_files(draw):
    """(lines, values): a valid config file's lines and the values read_config_file gives."""
    entries = draw(st.fixed_dictionaries({}, optional=VALUES))
    if draw(st.booleans()):
        entries.update(draw(geometries))
    lines = [f"{draw(spaces)}{key}{draw(spaces)}={draw(spaces)}{text}{draw(spaces)}{draw(comments)}"
             for key, (_, text) in draw(st.permutations(sorted(entries.items())))]
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "# comment", " "]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    return lines, {key: value for key, (value, _) in entries.items()}


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "run.cfg"


@PROPERTY
@given(file=config_files())
def test_known_keys_round_trip(path, file):
    lines, values = file
    path.write_text("\n".join(lines) + "\n")
    assert cli.read_config_file(path) == values
    config = cli.build_config(dict(values))
    for key, value in values.items():
        if key not in ("u", "m", "schemes"):
            assert getattr(config, key) == value, key
    labels = values.get("schemes", ("LZFP", "LMMSEP", "ULZFP", "ULMMSEP"))
    assert [s.label for s in config.schemes] == list(labels)
    for scheme in config.schemes:
        assert scheme.u in (0.0, values.get("u", 1.0))
        assert scheme.m in (0.0, values.get("m", 1.0))


@pytest.mark.parametrize("word,value", BOOL_WORDS)
def test_every_boolean_word(path, word, value):
    path.write_text(f"normalize_data_block_only = {word}\n")
    assert cli.read_config_file(path) == {"normalize_data_block_only": value}


no_equals = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="=#"),
                    min_size=1).filter(str.strip)
unknown_keys = st.from_regex(r"[a-z_][a-z0-9_]{0,15}", fullmatch=True).filter(
    lambda key: key not in cli.KNOWN_KEYS)
bad_lines = st.one_of(
    st.tuples(no_equals, comments).map(lambda t: (f"{t[0]}{t[1]}", "expected key=value")),
    st.tuples(unknown_keys, spaces).map(lambda t: (f"{t[0]}{t[1]}= 1", "unknown key")),
)


@PROPERTY
@given(file=config_files(), bad=bad_lines, data=st.data())
def test_bad_line_is_named_by_file_and_line(path, file, bad, data):
    lines, _ = file
    line, message = bad
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, line)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}:{at + 1}: {message}"):
        cli.read_config_file(path)


# Lines of any text, and known keys with any value, to reach every parser.
any_lines = st.lists(st.one_of(
    st.text(),
    st.tuples(st.sampled_from(sorted(cli.KNOWN_KEYS)), st.text()).map(lambda kv: "=".join(kv)),
), max_size=6).map("\n".join)


@PROPERTY
@given(content=st.one_of(any_lines.map(str.encode), st.binary()))
def test_any_input_fails_only_as_a_configuration_error(path, content):
    path.write_bytes(content)
    try:
        cli.build_config(cli.read_config_file(path))
    except ConfigurationError:
        pass
