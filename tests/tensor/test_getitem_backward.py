"""Differential test: ``Tensor.__getitem__`` backward against an
``np.add.at`` scatter oracle, compared bit for bit.

Basic indices (ints, slices, ``Ellipsis``, ``None``) scatter with an
in-place add; advanced ones (arrays, lists, masks, ``bool`` scalars) keep
``np.add.at``.  Both must equal the oracle in every bit, ``-0.0`` included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor
from repro.tensor.tensor import _is_basic_index

shapes = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple)


@st.composite
def basic_item(draw, size):
    kind = draw(st.sampled_from(["int", "np_int", "slice"]))
    if kind == "slice":
        bound = st.one_of(st.none(), st.integers(-size - 1, size + 1))
        step = draw(st.one_of(st.none(), st.integers(-3, 3).filter(bool)))
        return slice(draw(bound), draw(bound), step)
    i = draw(st.integers(-size, size - 1))
    return np.int64(i) if kind == "np_int" else i


@st.composite
def basic_index(draw, shape):
    """Items over a prefix of ``shape``, optionally an ``Ellipsis`` and
    items over a suffix, with up to two ``None`` anywhere; sometimes a
    bare item instead of a tuple."""
    n_head = draw(st.integers(0, len(shape)))
    items = [draw(basic_item(size)) for size in shape[:n_head]]
    if draw(st.booleans()):
        n_tail = draw(st.integers(0, len(shape) - n_head))
        items.append(Ellipsis)
        items += [draw(basic_item(size))
                  for size in shape[len(shape) - n_tail:]]
    for _ in range(draw(st.integers(0, 2))):
        items.insert(draw(st.integers(0, len(items))), None)
    if len(items) == 1 and draw(st.booleans()):
        return items[0]
    return tuple(items)


def repeated_ints(size):
    return st.lists(st.integers(-size, size - 1), min_size=1, max_size=6)


@st.composite
def advanced_index(draw, shape):
    kind = draw(st.sampled_from(["array", "list", "mask", "bool", "mixed"]))
    if kind == "array":      # repeats allowed: the scatter must add them
        return np.array(draw(repeated_ints(shape[0])))
    if kind == "list":
        return draw(repeated_ints(shape[0]))
    if kind == "mask":
        return np.array(draw(st.lists(st.booleans(), min_size=shape[0],
                                      max_size=shape[0])))
    if kind == "bool":
        return draw(st.sampled_from([True, False, np.True_, np.False_]))
    # Mixed basic + advanced: a slice or Ellipsis, then a repeated-int array.
    lead = Ellipsis if len(shape) == 1 else draw(st.sampled_from(
        [slice(None), slice(None, None, -1), Ellipsis]))
    size = shape[-1] if lead is Ellipsis else shape[1]
    return (lead, np.array(draw(repeated_ints(size))))


def _check(shape, index, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
    out = x[index]
    g = rng.normal(size=out.shape).astype(np.float32)
    g[rng.random(size=g.shape) < 0.3] = -0.0
    out.backward(g)
    want = np.zeros(shape, dtype=np.float32)
    np.add.at(want, index, g)
    np.testing.assert_array_equal(x.grad.view(np.uint32),
                                  want.view(np.uint32))


@given(st.data(), shapes, st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_basic_index_backward_matches_add_at(data, shape, seed):
    index = data.draw(basic_index(shape))
    assert _is_basic_index(index)
    _check(shape, index, seed)


@given(st.data(), shapes, st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_advanced_index_backward_matches_add_at(data, shape, seed):
    index = data.draw(advanced_index(shape))
    assert not _is_basic_index(index)
    _check(shape, index, seed)

