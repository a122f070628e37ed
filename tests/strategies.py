"""Hypothesis strategies shared by the property tests."""
import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from ndeb.cloner import CloneParams
from ndeb.sim import ProtocolConfig


@st.composite
def clone_params(draw, n):
    """A random member of the symmetric attack family in dimension n."""
    v, x, y = (draw(st.floats(0.0, 1.0)) for _ in range(3))
    norm = math.sqrt(v * v + (n - 1) * x * x + n * (n - 1) * y * y)
    assume(norm > 1e-3)
    return CloneParams(n, v / norm, x / norm, y / norm)


@st.composite
def protocol_configs(draw):
    """N 2..6, rounds 1..2000, weights with zeros (some never sift), attack on or off."""
    n = draw(st.integers(2, 6))
    parts = draw(st.lists(st.integers(0, 10), min_size=4, max_size=4))
    assume(sum(parts) > 0)
    attack = draw(st.one_of(st.none(), clone_params(n)))
    return ProtocolConfig(
        n=n,
        rounds=draw(st.integers(1, 2000)),
        basis_weights=tuple(k / sum(parts) for k in parts),
        attack=attack,
        seed=draw(st.integers(0, 2 ** 64 - 1)),
    )


def bad_scalars(kind):
    """Scalars that an argument of ``kind`` must reject with ValueError.

    Every kind rejects bools (Python and numpy), strings, None, nan and
    +-inf.  "real" and "int" also reject complex numbers, and "int"
    rejects every float, integral or not.  "complex" is a matrix entry,
    for which floats and complex numbers are valid.
    """
    bad = [
        st.booleans(),
        st.sampled_from([np.True_, np.False_]),
        st.text(max_size=4),
        st.none(),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    ]
    if kind in ("real", "int"):
        bad.append(st.complex_numbers(allow_nan=False, allow_infinity=False))
    if kind == "int":
        bad.append(st.floats(allow_nan=False, allow_infinity=False))
    return st.one_of(bad)
