"""The one shape rule, `tensors.check_shape`.

An entry's shape is a tuple of non-negative ints under `check_int`'s int rule
(no bool, no numpy integer), two of them for a pruned or SVD entry, and its
class is a `ModuleClass`. Each entry kind holds both whether it is built
directly or through `dataclasses.replace`, a list passed as a shape is copied,
and `storage_ratio` prices only a shape that passes the same rule. Loaded
shapes go through it too, in `container.shape_field` (see test_checkpoints.py).
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from skillpack.classify import ModuleClass
from skillpack.packs import DenseEntry, PrunedSparseEntry, QuantizedSvdEntry, entry_stats, storage_ratio
from skillpack.plans import BitGroup, DenseStrategy, PruneStrategy, SvdQuantStrategy
from skillpack.tensors import check_shape


def _entry(kind: str, shape, dims: tuple[int, int], mclass=ModuleClass.MLP):
    """A valid entry of `kind` whose arrays have `dims`, built with `shape` and `mclass` as given."""
    rows, cols = dims
    if kind == "dense":
        return DenseEntry(shape=shape, mclass=mclass, values=np.arange(rows * cols, dtype=np.float32).reshape(dims))
    if kind == "pruned":
        keep = (rows * cols + 1) // 2
        return PrunedSparseEntry(shape=shape, mclass=mclass, alpha=0.5, value_bits=4, indices=np.arange(keep),
                                 codes=np.ones(keep, np.int8), scales=np.ones(rows, np.float32))
    return QuantizedSvdEntry(shape=shape, mclass=mclass, rank=1, groups=(BitGroup(0, 1, 4),),
                             sigma=np.ones(1, np.float32), u_codes=np.ones((rows, 1), np.int8),
                             u_scales=np.ones(1, np.float32), v_codes=np.ones((1, cols), np.int8),
                             v_scales=np.ones(1, np.float32))


def _direct(kind: str):
    return lambda shape, mclass, dims: _entry(kind, shape, dims, mclass)


def _replaced(kind: str):
    return lambda shape, mclass, dims: replace(_entry(kind, dims, dims), shape=shape, mclass=mclass)


def _priced(strategy):
    return lambda shape, mclass, dims: storage_ratio(shape, strategy)


STRATEGIES = {
    "dense": DenseStrategy(),
    "prune": PruneStrategy(alpha=0.5, value_bits=4),
    "svd": SvdQuantStrategy(rank=2, groups=(BitGroup(0, 2, 4),)),
}
# site -> build(shape, class, dims of the arrays): each entry kind, built directly or by `replace` on a valid one
ENTRY_SITES = {f"{kind}-{how.__name__[1:]}": how(kind) for kind in ("dense", "pruned", "svd")
               for how in (_direct, _replaced)}
SITES = {**ENTRY_SITES, **{f"storage_ratio-{name}": _priced(strategy) for name, strategy in STRATEGIES.items()}}
TWO_D = [site for site in SITES if not site.startswith(("dense", "storage_ratio-dense"))]

# (shape, dims of the arrays that go with it): each equals a valid shape as a value, or is a numpy array of one
BAD_SHAPES = {
    "numpy-int": ((np.int64(4), 6), (4, 6)),
    "float": ((4.0, 6), (4, 6)),
    "bool": ((True, 6), (1, 6)),
    "negative": ((-1, 6), (4, 6)),
    "array": (np.array([4, 6]), (4, 6)),
    "string": ("46", (4, 6)),
}


@pytest.mark.parametrize("bad", sorted(BAD_SHAPES))
@pytest.mark.parametrize("site", sorted(SITES))
def test_every_site_refuses_a_shape_outside_the_rule(site, bad):
    shape, dims = BAD_SHAPES[bad]
    with pytest.raises(ValueError, match="non-negative ints, got"):
        SITES[site](shape, ModuleClass.MLP, dims)


@pytest.mark.parametrize("shape", [(4, 6, 1), [24], ()], ids=["3-D", "1-D", "0-D"])
@pytest.mark.parametrize("site", TWO_D)
def test_a_2d_site_refuses_another_number_of_dims(site, shape):
    with pytest.raises(ValueError, match=re.escape("must be 2 non-negative ints")):
        SITES[site](shape, ModuleClass.MLP, (4, 6))


@pytest.mark.parametrize("site", sorted(ENTRY_SITES))
def test_an_entry_holds_a_list_shape_as_a_tuple_the_list_cannot_change(site):
    shape = [4, 6]
    entry = ENTRY_SITES[site](shape, ModuleClass.MLP, (4, 6))
    before = (entry_stats(entry), entry.reconstruct().tobytes())
    assert type(entry.shape) is tuple and entry.shape == (4, 6)
    shape.append(7)
    shape[0] = 3
    assert entry.shape == (4, 6)
    assert (entry_stats(entry), entry.reconstruct().tobytes()) == before


@pytest.mark.parametrize("site", sorted(ENTRY_SITES))
def test_an_entry_holds_its_class_as_a_module_class(site):
    assert ENTRY_SITES[site]((4, 6), "mlp", (4, 6)).mclass is ModuleClass.MLP
    with pytest.raises(ValueError, match="'nonsense' is not a valid ModuleClass"):
        ENTRY_SITES[site]((4, 6), "nonsense", (4, 6))


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_storage_ratio_prices_a_list_shape_as_its_tuple(strategy):
    assert storage_ratio([4, 6], STRATEGIES[strategy]) == storage_ratio((4, 6), STRATEGIES[strategy])


def test_check_shape_returns_a_tuple_and_names_what_it_checked():
    assert check_shape([0, 3], "x") == (0, 3) and check_shape((), "x") == ()
    assert check_shape([2, 3], "x", 2) == (2, 3)
    with pytest.raises(ValueError, match=re.escape("kernel shape must be 2 non-negative ints, got [1, 2, 3]")):
        check_shape([1, 2, 3], "kernel shape", 2)
    with pytest.raises(ValueError, match=re.escape("kernel shape must be some non-negative ints, got None")):
        check_shape(None, "kernel shape")
