"""Round-trip property over random pushout gluings (needs hypothesis)."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from precubical import parse, serialize

from conftest import random_glued_complex, reference_text


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_gluings_round_trip(seed):
    K = random_glued_complex(random.Random(seed))
    text = serialize(K)
    assert text == reference_text(K)
    back = parse(text)
    assert back == K
    assert serialize(back) == text
