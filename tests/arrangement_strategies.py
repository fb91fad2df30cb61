"""Hypothesis strategies for random arrangements, shared by the test modules."""

from hypothesis import strategies as st

from varchenko.geometry import Arrangement, Hyperplane

SHAPES = ("central", "affine", "parallel")


def line_key(h):
    """(normal, offset) divided by the first nonzero normal entry: the same
    tuple for proportional equations, so one key per affine set."""
    first = next(a for a in h.normal if a)
    return tuple(v / first for v in (*h.normal, h.offset))


@st.composite
def small_arrangements(draw, max_dim=3, shapes=SHAPES):
    """Integer arrangements in dimension 1-max_dim: central, affine, or
    affine with a parallel partner drawn for some hyperplanes."""
    dim = draw(st.integers(1, max_dim))
    shape = draw(st.sampled_from(shapes))
    coef = st.integers(-2, 2)
    normals = draw(st.lists(st.tuples(*[coef] * dim).filter(any), min_size=1, max_size=4))
    hyps, keys = [], set()
    for normal in normals:
        offsets = [0] if shape == "central" else [draw(coef)]
        if shape == "parallel" and draw(st.booleans()):
            offsets.append(draw(coef))
        for offset in offsets:
            h = Hyperplane.make(list(normal), offset, f"w{len(hyps)}")
            if line_key(h) not in keys:
                keys.add(line_key(h))
                hyps.append(h)
    return Arrangement(dim, hyps)
