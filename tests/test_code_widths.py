"""Codes live at their width, and a loaded pack holds little more than its file.

Codes of up to 8 bits are int8 and of up to 16 bits int16 (`code_dtype`), from
the quantizers through compressed, hand-built and loaded entries. A pruned
entry holds its flat positions packed at ceil(log2 N) bits, as the file does,
and a loaded one keeps them as a view of the mapped file.
"""

import math
import mmap
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from skillpack.checkpoints import diff
from skillpack.classify import ModuleClass, default_manifest
from skillpack.compress import compress_delta, compress_entry
from skillpack.packs import PrunedSparseEntry, QuantizedSvdEntry, SkillPack, index_bits, load_pack, save_pack
from skillpack.plans import BitGroup, CompressionPlan, DenseStrategy, PruneStrategy, SvdQuantStrategy, default_plan
from skillpack.quantize import (
    MAX_BITS,
    MIN_BITS,
    code_dtype,
    encode,
    pack_codes,
    pack_fields,
    qmax,
    quantize_gptq,
    quantize_rtn,
    unpack_codes,
)
from skillpack.toy import ToySpec, gen_toy

BITS = st.integers(MIN_BITS, MAX_BITS)


def test_code_dtype_is_the_narrowest_that_holds_the_width():
    assert [code_dtype(bits) for bits in (2, 8, 9, 16)] == [np.int8, np.int8, np.int16, np.int16]


def _plan(value_bits: int, widths: tuple[int, int]) -> CompressionPlan:
    groups = (BitGroup(0, 2, widths[0]), BitGroup(2, 4, widths[1]))
    return CompressionPlan(strategies={
        ModuleClass.EMBEDDING_OR_HEAD: PruneStrategy(alpha=0.5, value_bits=value_bits),
        ModuleClass.MLP: SvdQuantStrategy(rank=4, groups=groups),
        ModuleClass.ATTENTION: SvdQuantStrategy(rank=4, groups=groups),
        ModuleClass.PASSTHROUGH: DenseStrategy(),
    })


def _assert_typed(entry):
    if isinstance(entry, PrunedSparseEntry):
        assert entry.codes.dtype == code_dtype(entry.value_bits)
        assert entry.indices.dtype == np.uint8 and entry.index_width == index_bits(math.prod(entry.shape))
    else:
        widest = code_dtype(max(g.bits for g in entry.groups))
        assert entry.u_codes.dtype == widest and entry.v_codes.dtype == widest


@settings(max_examples=25, derandomize=True, deadline=None)
@given(bits=BITS, other=BITS, seed=st.integers(0, 2**16))
def test_every_path_holds_codes_at_their_width(tmp_path_factory, bits, other, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((6, 5))
    x = rng.standard_normal((5, 8))
    want = code_dtype(bits)
    assert encode(m, 0.1, bits).dtype == want
    assert quantize_rtn(m, bits).codes.dtype == want
    assert quantize_gptq(m, x, bits).codes.dtype == want
    assert quantize_gptq(m, np.zeros_like(x), bits).codes.dtype == want  # no signal: the RTN path
    codes = rng.integers(-qmax(bits), qmax(bits) + 1, size=11)
    assert unpack_codes(pack_codes(codes, bits), 11, bits).dtype == want

    plan = _plan(bits, (bits, other))
    compressed = {
        name: compress_entry(name, rng.standard_normal((6, 5)), mclass, plan)
        for name, mclass in (("e", ModuleClass.EMBEDDING_OR_HEAD), ("m", ModuleClass.MLP))
    }
    # hand-built from int64 codes and indices
    groups = (BitGroup(0, 1, bits), BitGroup(1, 2, other))
    compressed["h"] = PrunedSparseEntry(
        shape=(2, 3), mclass=ModuleClass.EMBEDDING_OR_HEAD, alpha=0.5, value_bits=bits,
        indices=np.array([0, 2, 5]), codes=np.array([1, -1, 0]), scales=np.ones(2))
    compressed["s"] = QuantizedSvdEntry(
        shape=(3, 2), mclass=ModuleClass.MLP, rank=2, groups=groups, sigma=np.ones(2),
        u_codes=np.ones((3, 2), np.int64), u_scales=np.ones(2), v_codes=np.ones((2, 2), np.int64),
        v_scales=np.ones(2))
    path = tmp_path_factory.mktemp("widths") / "p.skpk"
    save_pack(SkillPack("b", "t", "", {}, compressed), path)
    for entry in (*compressed.values(), *load_pack(path).entries.values()):
        _assert_typed(entry)


def test_narrow_types_copy_nothing_in_the_constructor():
    # positions are always packed, so the no-copy path for them is a buffer packed already, as a load gives
    codes = np.array([1, -1, 0], np.int8)
    indices = pack_fields([0, 2, 5], 3)
    entry = PrunedSparseEntry(shape=(2, 3), mclass=ModuleClass.EMBEDDING_OR_HEAD, alpha=0.5, value_bits=4,
                              indices=indices, codes=codes, scales=np.ones(2, np.float32), index_width=3)
    assert entry.codes is codes and entry.indices is indices


def test_a_loaded_pruned_entry_keeps_its_indices_in_the_file_map(tmp_path):
    delta = np.random.default_rng(0).standard_normal((16, 8))
    entry = compress_entry("e", delta, ModuleClass.EMBEDDING_OR_HEAD, default_plan())
    save_pack(SkillPack("b", "t", "", {}, {"e": entry}), tmp_path / "p.skpk")
    indices = load_pack(tmp_path / "p.skpk").entries["e"].indices
    view = indices
    while isinstance(view, np.ndarray):
        view = view.base
    assert isinstance(view.obj, mmap.mmap)
    assert np.shares_memory(indices, np.frombuffer(view.obj, np.uint8))
    assert not indices.flags.writeable
    assert np.array_equal(indices, entry.indices)


def test_a_loaded_quantized_pack_holds_less_than_its_file(tmp_path):
    # int32 codes and an int64 copy of the indices held 3.8 times the file here
    base, tuned = gen_toy(ToySpec(seed=5, layers=1, hidden=128, mlp_width=352, vocab=1024))
    path = tmp_path / "p.skpk"
    save_pack(compress_delta(diff(base, tuned), default_manifest(), default_plan()), path)
    tracemalloc.start()
    try:
        pack = load_pack(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert {entry.kind for entry in pack.entries.values()} >= {"pruned_sparse", "quantized_svd"}
    assert held <= path.stat().st_size
