"""Property test: tier-3 compiled execution == precise interpretation.

Views onto the equivalence lattice (``test_lattice.py``): the tier-3
corners on random short programs from the lattice's ``short_program()``.
The translator constant-folds register indices and immediates into
generated Python, so this is the fuzz gate on the emitted code itself.
"""

from hypothesis import given, settings, strategies as st

from .test_lattice import Functional, Timed, assert_random, short_program


@settings(max_examples=30, deadline=None)
@given(short_program(), st.booleans())
def test_tier3_matches_precise(source, compress):
    assert_random(source, compress, Functional(3, cache="cold"))


@settings(max_examples=10, deadline=None)
@given(short_program())
def test_tier3_timing_stats_match_precise(source):
    """CoreStats comparables are tier-invariant: the stream model fed by
    ``trace(tier=3)`` counts what the oracle counts from tier 1."""
    assert_random(source, False, Timed(3))
