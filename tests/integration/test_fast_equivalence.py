"""Property test: block-translated execution == precise interpretation.

A view onto the equivalence lattice (``test_lattice.py``): the tier-2
corner on random short programs from the lattice's ``short_program()``.
"""

from hypothesis import given, settings, strategies as st

from .test_lattice import Functional, assert_random, short_program


@settings(max_examples=30, deadline=None)
@given(short_program(), st.booleans())
def test_fast_matches_precise(source, compress):
    assert_random(source, compress, Functional(2))
