"""Property: any entry or router that builds saves and loads back bit for bit.

Entries are drawn by hand, not compressed: dense entries of any shape, pruned
entries that keep `retained_count(alpha, N)` values, and SVD entries with
random contiguous bit groups and in-range codes. A pack of them must load back
to the same arrays and save to the same bytes, with stats equal to the
per-class sums of `storage_ratio(entry.shape, entry.strategy)`. Those stats
are the bits of the entry's blobs in the file, less the byte padding of each
packed segment. Entries and packs stay what their checks passed: no field can
be assigned, no array written, and an entry built from a caller's arrays does
not change when the caller writes them or their owners.
"""

import json
import math
import struct
from contextlib import suppress
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skillpack.classify import ModuleClass
from skillpack.errors import IntegrityError
from skillpack.packs import (
    DenseEntry,
    PrunedSparseEntry,
    QuantizedSvdEntry,
    SkillPack,
    StatLine,
    entry_stats,
    load_pack,
    save_pack,
    storage_ratio,
)
from skillpack.plans import BitGroup
from skillpack.quantize import MAX_BITS, MIN_BITS, packed_size, qmax
from skillpack.routing import LinearClassifier, TaskTable, load_router, save_router
from skillpack.tensors import retained_count

EXAMPLES = 150
FLOATS = st.floats(width=32, allow_nan=False, allow_infinity=False)
BITS = st.integers(MIN_BITS, MAX_BITS)
CLASSES = st.sampled_from(list(ModuleClass))
DIM = st.integers(1, 6)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


def f32(draw, shape):
    return draw(arrays(np.float32, shape, elements=FLOATS))


def codes(draw, shape, bits):
    return draw(arrays(np.int32, shape, elements=st.integers(-qmax(bits), qmax(bits))))


@st.composite
def dense_entries(draw):
    shape = tuple(draw(st.lists(DIM, min_size=1, max_size=3)))
    return DenseEntry(shape=shape, mclass=draw(CLASSES), values=f32(draw, shape))


@st.composite
def pruned_entries(draw):
    shape = (draw(DIM), draw(DIM))
    n = shape[0] * shape[1]
    alpha = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    keep = retained_count(alpha, n)
    indices = sorted(draw(st.sets(st.integers(0, n - 1), min_size=keep, max_size=keep)))
    bits = draw(BITS)
    return PrunedSparseEntry(
        shape=shape, mclass=draw(CLASSES), alpha=alpha, value_bits=bits,
        indices=np.array(indices, dtype=np.int64), codes=codes(draw, keep, bits), scales=f32(draw, shape[0]),
    )


@st.composite
def svd_entries(draw):
    rows, cols = draw(DIM), draw(DIM)
    rank = draw(st.integers(1, min(rows, cols)))
    cuts = sorted(draw(st.sets(st.integers(1, rank - 1)))) if rank > 1 else []
    bounds = [0, *cuts, rank]
    groups = tuple(BitGroup(begin, end, draw(BITS)) for begin, end in zip(bounds, bounds[1:]))
    u_codes = np.concatenate([codes(draw, (rows, g.length), g.bits) for g in groups], axis=1)
    v_codes = np.concatenate([codes(draw, (g.length, cols), g.bits) for g in groups], axis=0)
    return QuantizedSvdEntry(
        shape=(rows, cols), mclass=draw(CLASSES), rank=rank, groups=groups, sigma=f32(draw, rank),
        u_codes=u_codes, u_scales=f32(draw, rank), v_codes=v_codes, v_scales=f32(draw, rank),
    )


@st.composite
def wide_pruned_entries(draw):
    """Pruned entries of up to 2**17 values, whose positions take up to 17 bits, drawn from a seed."""
    shape = (draw(st.integers(1, 64)), draw(st.integers(1, 2048)))
    n = shape[0] * shape[1]
    alpha, bits = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)), draw(BITS)
    keep = retained_count(alpha, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return PrunedSparseEntry(
        shape=shape, mclass=ModuleClass.EMBEDDING_OR_HEAD, alpha=alpha, value_bits=bits,
        indices=np.sort(rng.choice(n, keep, replace=False)), codes=rng.integers(-qmax(bits), qmax(bits) + 1, keep),
        scales=np.ones(shape[0], np.float32),
    )


ARRAYS = {
    DenseEntry: ("values",),
    PrunedSparseEntry: ("indices", "codes", "scales"),
    QuantizedSvdEntry: ("sigma", "u_codes", "u_scales", "v_codes", "v_scales"),
}
FIELDS = {DenseEntry: (), PrunedSparseEntry: ("alpha", "value_bits"), QuantizedSvdEntry: ("rank", "groups")}


def assert_same_entry(loaded, built):
    assert type(loaded) is type(built)
    assert (loaded.shape, loaded.mclass) == (built.shape, built.mclass)
    for name in FIELDS[type(built)]:
        assert getattr(loaded, name) == getattr(built, name), name
    for name in ARRAYS[type(built)]:
        a, b = getattr(loaded, name), getattr(built, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def assert_frozen(obj):
    for f in fields(obj):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


def reconstructed(entry) -> bytes:
    with np.errstate(all="ignore"):  # drawn codes times drawn scales may overflow float32
        return entry.reconstruct().tobytes()


def assert_held(entry):
    """The entry cannot change: its fields cannot be assigned, and an entry built again from writable views of
    its arrays cannot be written, nor changed by writing to those views or their owners. `replace` checks again."""
    assert_frozen(entry)
    before, kind = reconstructed(entry), type(entry)
    given = [{name: getattr(entry, name) for name in ARRAYS[kind]}]
    if kind is PrunedSparseEntry:  # and from positions, which the constructor packs
        given.append({**given[0], "indices": entry.positions(), "index_width": None})
    for arrays in given:
        owners = {name: np.stack([arrays[name], arrays[name]]) for name in ARRAYS[kind]}
        built = replace(entry, **{**arrays, **{name: owner[0] for name, owner in owners.items()}})
        for name, owner in owners.items():
            with pytest.raises(ValueError, match="read-only"):
                getattr(built, name)[...] = 0
            for caller in (owner[0], owner):
                with suppress(ValueError):
                    caller[...] = 0
        assert reconstructed(built) == before
    if kind is DenseEntry:
        with pytest.raises(ValueError, match="finite"):
            replace(entry, values=np.full(entry.shape, np.nan, np.float32))
    else:
        name, bits = ("codes", entry.value_bits) if kind is PrunedSparseEntry else ("u_codes", MAX_BITS)
        with pytest.raises(IntegrityError):
            replace(entry, **{name: np.full(getattr(entry, name).shape, qmax(bits) + 1, np.int32)})


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
@given(entries=st.lists(st.one_of(dense_entries(), pruned_entries(), svd_entries()), max_size=4))
def test_drawn_entries_round_trip_bit_for_bit(root, entries):
    for entry in entries:
        assert_held(entry)
    pack = SkillPack("base", "tuned", "tag", {}, {f"t{i}.weight": entry for i, entry in enumerate(entries)})
    assert_frozen(pack)
    path, again = root / "p.skpk", root / "q.skpk"
    save_pack(pack, path)
    loaded = load_pack(path)
    assert list(loaded.entries) == list(pack.entries)
    for name, entry in pack.entries.items():
        assert_same_entry(loaded.entries[name], entry)
    save_pack(loaded, again)
    assert again.read_bytes() == path.read_bytes()

    per_class = {cls.value: StatLine(0, 0, 0) for cls in ModuleClass}
    for entry in entries:
        per_class[entry.mclass.value] += storage_ratio(entry.shape, entry.strategy)
    assert loaded.stats.per_class == per_class
    assert loaded.stats.total == sum(per_class.values(), StatLine(0, 0, 0))


def packed_segments(entry) -> list[tuple[int, int]]:
    """(count, bits) of each bit-packed segment of the entry's blobs, each padded to a byte."""
    if isinstance(entry, PrunedSparseEntry):
        n = math.prod(entry.shape)
        return [(len(entry.codes), math.ceil(math.log2(n)) if n > 1 else 0), (len(entry.codes), entry.value_bits)]
    if isinstance(entry, QuantizedSvdEntry):
        return [(size * g.length, g.bits) for size in entry.shape for g in entry.groups]
    return []


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
@given(entry=st.one_of(dense_entries(), pruned_entries(), wide_pruned_entries(), svd_entries()))
def test_entry_stats_are_the_bits_of_its_blobs(root, entry):
    path = root / "s.skpk"
    save_pack(SkillPack("base", "tuned", "tag", {}, {"t.weight": entry}), path)
    raw = path.read_bytes()
    header = json.loads(raw[16 : 16 + struct.unpack_from("<Q", raw, 8)[0]])
    blob_bits = 8 * sum(blob["byte_len"] for blob in header["entries"][0]["blobs"])
    padding = sum(8 * packed_size(count, bits) - count * bits for count, bits in packed_segments(entry))
    line = entry_stats(entry)
    assert line.stored_value_bits + line.stored_overhead_bits == blob_bits - padding


# Router fields are drawn wider than the constructors accept: whatever builds must round-trip.
IDS = st.one_of(st.text(max_size=4), st.integers(-2, 2), st.none())
ID_LISTS = st.one_of(st.lists(IDS, max_size=3), st.lists(st.text(max_size=4), max_size=3, unique=True), IDS)


def built_or_none(make):
    try:
        return make()
    except ValueError:
        return None


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
@given(table=st.dictionaries(st.one_of(st.text(max_size=4), st.integers(0, 3)), ID_LISTS, max_size=3))
def test_task_table_that_builds_round_trips(root, table):
    router = built_or_none(lambda: TaskTable(table=table))
    if router is None:
        return
    save_router(router, root / "table.json")
    loaded = load_router(root / "table.json")
    assert isinstance(loaded, TaskTable) and loaded.table == router.table


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
@given(data=st.data())
def test_linear_classifier_that_builds_round_trips(root, data):
    classes, dim = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    weights = data.draw(arrays(np.float64, (classes, dim), elements=floats))
    bias = data.draw(arrays(np.float64, classes, elements=floats))
    class_to_pack = data.draw(st.one_of(st.lists(st.text(max_size=4), min_size=classes, max_size=classes), ID_LISTS))
    router = built_or_none(lambda: LinearClassifier(weights=weights, bias=bias, class_to_pack=class_to_pack))
    if router is None:
        return
    save_router(router, root / "classifier.json")
    loaded = load_router(root / "classifier.json")
    assert isinstance(loaded, LinearClassifier) and loaded.class_to_pack == router.class_to_pack
    assert loaded.weights.tobytes() == router.weights.tobytes() and loaded.bias.tobytes() == router.bias.tobytes()
    assert json.loads((root / "classifier.json").read_text())["d"] == dim
