"""Hypothesis strategies shared by the property tests."""
import math

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
