import re
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ologkit.ordering import natural_key, natural_order

# ASCII letters and digits, "_", a superscript two (a digit to str.isdigit
# but not to \d) and two non-ASCII decimal digits: ARABIC-INDIC NINE (U+0669)
# sorts after EXTENDED ARABIC-INDIC ONE (U+06F1) numerically but before it
# by code point.
ALPHABET = string.ascii_letters + string.digits + "_²٩۱"


def _natural_sort(keys):
    return sorted(keys, key=natural_key)


@st.composite
def id_lists(draw):
    """Unique ids in sorted, reversed, shuffled or natural-key order.

    Free text over ALPHABET (leading zeros, mixed widths, non-ASCII digits);
    ASCII ids of one length whose digit/non-digit layouts differ; or
    prefixes with zero-padded numbers of one width, the shape of generated
    element ids, which the no-sort check accepts.
    """
    kind = draw(st.sampled_from(["free", "one length", "padded"]))
    if kind == "free":
        keys = draw(st.lists(st.text(ALPHABET, max_size=6), unique=True, max_size=30))
    elif kind == "one length":
        width = draw(st.integers(2, 3))
        text = st.text("ab019", min_size=width, max_size=width)
        keys = draw(st.lists(text, unique=True, min_size=2, max_size=30))
    else:
        width = draw(st.integers(1, 3))
        prefixes = draw(
            st.lists(st.text(string.ascii_letters + "_", max_size=2), min_size=1, max_size=3)
        )
        numbers = st.integers(0, 10**width - 1)
        pairs = draw(st.lists(st.tuples(st.sampled_from(prefixes), numbers), max_size=30))
        keys = list(dict.fromkeys(f"{prefix}{n:0{width}d}" for prefix, n in pairs))
    order = draw(st.sampled_from(["sorted", "reversed", "shuffled", "natural"]))
    if order == "sorted":
        keys.sort()
    elif order == "reversed":
        keys.sort(reverse=True)
    elif order == "shuffled":
        keys = draw(st.permutations(keys))
    else:
        keys = _natural_sort(keys)
    return keys


@given(id_lists())
def test_natural_order_equals_the_natural_key_sort(keys):
    assert natural_order(keys) == _natural_sort(keys)


def _int_key(ident):
    """natural_key as it was: each digit run read as an int."""
    runs = re.findall(r"\d+|\D+", ident)
    return tuple((0, int(run)) if run.isdecimal() else (1, run) for run in runs)


# Digit runs with leading zeros and non-ASCII digits (ARABIC-INDIC and
# EXTENDED ARABIC-INDIC, FULLWIDTH, DEVANAGARI), up to 200 digits.
_DIGITS = string.digits + "٠٣٩۰۱۹０５९"
_runs = st.one_of(st.text(_DIGITS, min_size=1, max_size=200), st.text("ab_²", min_size=1, max_size=3))


@given(st.lists(st.lists(_runs, max_size=4).map("".join), max_size=30))
def test_natural_key_orders_as_the_int_key_below_its_limit(keys):
    # Equal keys on either side are ties, kept in input order by the sort.
    assert sorted(keys, key=natural_key) == sorted(keys, key=_int_key)


def test_natural_key_reads_a_digit_run_past_the_int_limit():
    huge = "9" * 5000
    keys = ["x" + huge, "x1" + huge, "x0" + huge, "x" + "0" * 6000 + "1", "x10"]
    assert natural_order(keys) == [keys[3], "x10", keys[0], keys[2], keys[1]]


@pytest.mark.parametrize(
    "keys, want",
    [
        (["a1", "a10", "a2"], ["a1", "a2", "a10"]),
        # a natural-key tie: the input order is kept
        (["a01", "a1"], ["a01", "a1"]),
        (["a1", "a01"], ["a1", "a01"]),
        (["x٩", "x۱"], ["x۱", "x٩"]),
        (["1", "2", "10"], ["1", "2", "10"]),
        (["b2", "a9"], ["a9", "b2"]),
        # ascending as strings, one length, but digit runs of different widths
        (["a10", "a9b"], ["a9b", "a10"]),
        # ascending as strings, one joined layout, but keys of different lengths
        (["00", "010", "1"], ["00", "1", "010"]),
        ([], []),
        ([""], [""]),
        # '²' is a digit to str.isdigit but not to \d: a text run, after numbers
        (["²", "1²", "1"], ["1", "1²", "²"]),
    ],
)
def test_natural_order_fixed_cases(keys, want):
    assert natural_order(keys) == want == _natural_sort(keys)

