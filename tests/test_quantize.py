import inspect
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import skillpack.quantize as quantize_module
from skillpack.checkpoints import Checkpoint, diff, load_checkpoint, save_checkpoint
from skillpack.classify import ModuleClass, classify, default_manifest
from skillpack.compress import compress_delta, compress_entry
from skillpack.packs import QuantizedSvdEntry, SkillPack, save_pack
from skillpack.plans import (
    BitGroup,
    CompressionPlan,
    DenseStrategy,
    PruneStrategy,
    SvdQuantStrategy,
    check_groups,
    groups_from_json,
    groups_to_json,
)
from skillpack.quantize import (
    GPTQ_BLOCK,
    QuantizedMatrix,
    calibration_error,
    code_dtype,
    hessian_factor,
    pack_codes,
    pack_fields,
    packed_size,
    qmax,
    quantize_gptq,
    quantize_rtn,
    rtn_scales,
    unpack_codes,
    unpack_fields,
)
from skillpack.tensors import svd
from skillpack.toy import DeltaRecipe, ToySpec, gen_toy


def test_rtn_zero_matrix():
    qm = quantize_rtn(np.zeros((3, 4)), 4)
    assert np.all(qm.codes == 0)
    assert np.all(qm.scales == 0)
    assert np.all(qm.dequantize() == 0)


@pytest.mark.parametrize("axis", ["row", "column"])
def test_dequantize_is_float64_codes_times_scales(axis):
    m = np.random.default_rng(3).standard_normal((5, 7)).astype(np.float32)
    qm = quantize_rtn(m, 4, axis)
    scales = qm.scales.astype(np.float64)
    expected = qm.codes * (scales[:, None] if axis == "row" else scales[None, :])
    got = qm.dequantize()
    assert got.dtype == np.float64
    assert np.array_equal(got, expected)


def test_rtn_row_example():
    qm = quantize_rtn(np.array([[-1.0, 1.0, 0.5]]), 8)
    assert qm.codes.tolist() == [[-127, 127, 64]]
    assert qm.scales[0] == pytest.approx(1.0 / 127.0)
    err = np.max(np.abs(qm.dequantize() - [[-1.0, 1.0, 0.5]]))
    assert err <= 1.0 / 254.0 + 1e-9


def test_rtn_widens_ints_before_taking_their_magnitude():
    # int8's -128 has no int8 magnitude; widened first, it gives the scale 128/127
    qm = quantize_rtn(np.array([[-128, 1]], dtype=np.int8), 8)
    assert qm.scales[0] == np.float32(128 / 127)
    assert qm.codes.tolist() == [[-127, 1]]


def test_rtn_per_element_error_bound():
    rng = np.random.default_rng(0)
    for bits in (2, 4, 8):
        m = rng.standard_normal((16, 16))
        qm = quantize_rtn(m, bits)
        err = np.abs(qm.dequantize() - m)
        bound = qm.scales.astype(np.float64)[:, None] / 2.0
        assert np.all(err <= bound + 1e-12)


def test_rtn_error_nonincreasing_in_bits():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((16, 16))
        errs = [np.linalg.norm(quantize_rtn(m, k).dequantize() - m) for k in (2, 4, 8)]
        assert errs[2] <= errs[1] <= errs[0]


def test_rtn_column_axis():
    m = np.array([[1.0, 10.0], [-2.0, 5.0]])
    qm = quantize_rtn(m, 8, axis="column")
    assert qm.scales.shape == (2,)
    assert qm.scales[0] == pytest.approx(2.0 / 127.0)
    assert np.max(np.abs(qm.dequantize() - m)) <= max(qm.scales) / 2 + 1e-12


@pytest.mark.parametrize("axis", ["rows", "columns", "col", ""])
def test_rtn_scales_refuse_an_unknown_axis(axis):
    with pytest.raises(ValueError, match="unknown scale axis"):
        rtn_scales(np.ones((2, 3)), 4, axis=axis)
    with pytest.raises(ValueError, match="unknown scale axis"):
        QuantizedMatrix(codes=np.zeros((2, 3), np.int8), scales=np.zeros(2, np.float32), axis=axis)


def test_rtn_rejects_small_bits():
    with pytest.raises(ValueError):
        quantize_rtn(np.ones((2, 2)), 1)


def test_round_half_away_from_zero():
    # scale = 0.75/3 = 0.25 exactly, so 0.125/scale is an exact half-step
    m = np.array([[0.75, 0.125, -0.125]])
    qm = quantize_rtn(m, 3)
    assert qm.scales[0] == 0.25
    np.testing.assert_array_equal(qm.codes, [[3, 1, -1]])


def test_gptq_identity_calibration_matches_rtn():
    rng = np.random.default_rng(123)
    for _ in range(20):
        m = rng.standard_normal((4, 4))
        rtn = quantize_rtn(m, 4)
        gq = quantize_gptq(m, np.eye(4), 4)
        assert np.array_equal(rtn.codes, gq.codes)
        assert np.array_equal(rtn.scales, gq.scales)


def test_gptq_zero_matrix():
    qm = quantize_gptq(np.zeros((4, 4)), np.eye(4), 3)
    assert np.all(qm.codes == 0)


def test_gptq_beats_rtn_on_calibration_error():
    for k in (2, 3, 4):
        wins = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            m = rng.standard_normal((32, 32))
            x = rng.standard_normal((32, 16))
            e_rtn = calibration_error(m, quantize_rtn(m, k).dequantize(), x)
            e_gptq = calibration_error(m, quantize_gptq(m, x, k).dequantize(), x)
            wins += e_gptq <= e_rtn
        assert wins >= 27


def correlated_activations(rng, mix, samples):
    """Rank-r mixing of standard-normal sources plus 0.1 noise: width x samples."""
    return mix @ rng.standard_normal((mix.shape[1], samples)) + 0.1 * rng.standard_normal((mix.shape[0], samples))


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), cols=st.integers(32, 64), rank=st.integers(4, 16),
       rows=st.integers(4, 32), extra=st.integers(0, 64), bits=st.integers(2, 4))
def test_gptq_beats_rtn_held_out_on_correlated_activations(seed, cols, rank, rows, extra, bits):
    """Where GPTQ earns its cost: fitted to at least as many correlated samples as
    columns, its error on a held-out draw of the same activations is below RTN's."""
    rng = np.random.default_rng(seed)
    mix = rng.standard_normal((cols, rank))
    x = correlated_activations(rng, mix, cols + extra)
    held_out = correlated_activations(rng, mix, 1024)
    m = rng.standard_normal((rows, cols))
    e_rtn = calibration_error(m, quantize_rtn(m, bits).dequantize(), held_out)
    e_gptq = calibration_error(m, quantize_gptq(m, x, bits).dequantize(), held_out)
    assert e_gptq < e_rtn


def test_gptq_column_scales():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 4))
    x = rng.standard_normal((4, 8))
    qm = quantize_gptq(m, x, 4, scale_axis="column")
    assert qm.scales.shape == (4,)
    assert qm.axis == "column"
    expected = np.max(np.abs(m), axis=0) / qmax(4)
    assert np.allclose(qm.scales, expected.astype(np.float32))


def test_gptq_dimension_mismatch():
    with pytest.raises(ValueError):
        quantize_gptq(np.ones((3, 4)), np.ones((5, 2)), 4)


def test_gptq_zero_calibration_falls_back_to_rtn():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4))
    qm = quantize_gptq(m, np.zeros((4, 2)), 4)
    assert np.array_equal(qm.codes, quantize_rtn(m, 4).codes)


def test_gptq_deterministic():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((16, 16))
    x = rng.standard_normal((16, 8))
    a = quantize_gptq(m, x, 3)
    b = quantize_gptq(m.copy(), x.copy(), 3)
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(a.scales, b.scales)


@pytest.mark.parametrize("bits", [2, 3, 4, 5, 7, 8, 11, 16])
def test_pack_unpack_roundtrip(bits):
    rng = np.random.default_rng(bits)
    limit = qmax(bits)
    codes = rng.integers(-limit, limit + 1, size=257)
    buf = pack_codes(codes, bits)
    assert len(buf) == packed_size(257, bits)
    back = unpack_codes(buf, 257, bits)
    assert np.array_equal(back, codes)


def test_pack_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack_codes(np.array([8]), 4)  # qmax(4) = 7


@pytest.mark.parametrize("codes", [np.array([1.7, -2.9, 3.5]), np.array([1.0, 2.0]), np.array([True, False])])
def test_pack_rejects_codes_that_are_not_integers(codes):
    # floats were truncated, so [1.7, -2.9, 3.5] unpacked to [1, -2, 3]; bools packed as 0 and 1
    with pytest.raises(ValueError, match=f"codes must be integers, got {codes.dtype}"):
        pack_codes(codes, 4)


def test_unpack_surfaces_reserved_code():
    # -2^(k-1) is encodable at width k but outside the symmetric range;
    # unpack returns it so loaders can flag corruption
    buf = pack_codes(np.array([0, 0]), 4)
    tampered = bytes([0x08])  # low nibble = -8 two's complement
    back = unpack_codes(tampered + buf[1:], 2, 4)
    assert back[0] == -8


def _reference_pack(codes, bits) -> bytes:
    """The bit-matrix codec the word-level one replaced: one row of `bits` bits per code."""
    unsigned = (np.asarray(codes, dtype=np.int64).reshape(-1) & ((1 << bits) - 1)).astype(np.uint32)
    bit_matrix = ((unsigned[:, None] >> np.arange(bits, dtype=np.uint32)) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.reshape(-1), bitorder="little").tobytes()


def _reference_unpack(buf, count, bits) -> np.ndarray:
    raw = np.frombuffer(buf, dtype=np.uint8, count=(count * bits + 7) // 8)
    flat_bits = np.unpackbits(raw, bitorder="little")[: count * bits]
    unsigned = flat_bits.reshape(count, bits).astype(np.int64) @ (1 << np.arange(bits, dtype=np.int64))
    unsigned[unsigned >= (1 << (bits - 1))] -= 1 << bits
    return unsigned.astype(np.int32)


@pytest.mark.parametrize("bits", range(2, 17))
def test_codec_matches_the_bit_matrix_reference(bits):
    rng = np.random.default_rng(100 + bits)
    limit = qmax(bits)
    for count in [*range(18), 3001]:
        codes = rng.integers(-limit, limit + 1, size=count).astype(np.int32)
        buf = pack_codes(codes, bits)
        assert buf == _reference_pack(codes, bits)
        assert np.array_equal(unpack_codes(buf, count, bits), codes)
        # arbitrary bytes, reserved code -2^(bits-1) included, with trailing bytes after the codes
        noise = rng.integers(0, 256, size=len(buf) + 3, dtype=np.uint8).tobytes()
        got = unpack_codes(noise, count, bits)
        assert got.dtype == code_dtype(bits) and np.array_equal(got, _reference_unpack(noise, count, bits))


def test_pack_codes_pinned_bytes():
    codes = np.array([-2047, 2047, -1, 0, 1, 5, -300, 300, 1000])
    assert pack_codes(codes, 12).hex() == "01f87fff0f00015000d4ce12e803"


def test_unpack_codes_has_no_per_bit_temporaries():
    import tracemalloc

    count = 720_896  # a 1408 x 512 factor's codes
    buf = pack_codes(np.arange(count) % 255 - 127, 8)
    tracemalloc.start()
    try:
        codes = unpack_codes(buf, count, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * codes.nbytes
    assert np.array_equal(codes, np.arange(count) % 255 - 127)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(bits=st.integers(0, 64), count=st.integers(0, 70_000), seed=st.integers(0, 2**16))
@example(bits=21, count=8 * 8192 + 3, seed=0)  # more than one block of groups, and a partial last group
def test_fields_round_trip_at_every_width(bits, count, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**64, size=count, dtype=np.uint64, endpoint=False) >> np.uint64(64 - bits)  # 0 at 0 bits
    packed = pack_fields(values, bits)
    assert len(packed) == packed_size(count, bits)
    bit_matrix = (values[:, None] >> np.arange(bits, dtype=np.uint64)) & np.uint64(1)
    assert packed.tobytes() == np.packbits(bit_matrix.astype(np.uint8).reshape(-1), bitorder="little").tobytes()
    if bits in (32, 64):
        assert packed.tobytes() == values.astype(f"<u{bits // 8}").tobytes()
    trailing = packed.tobytes() + bytes(rng.integers(0, 256, size=5, dtype=np.uint8))
    assert np.array_equal(unpack_fields(trailing, count, bits, np.uint64), values)


def test_unpack_rejects_short_buffer():
    with pytest.raises(ValueError, match="too short"):
        unpack_codes(b"\x00" * 4, 3, 11)


def test_bit_groups_validate():
    with pytest.raises(ValueError):
        BitGroup(3, 3, 4)
    with pytest.raises(ValueError):
        BitGroup(0, 4, 1)
    with pytest.raises(ValueError):
        check_groups((BitGroup(0, 2, 4), BitGroup(3, 5, 4)), 5)
    with pytest.raises(ValueError):
        check_groups((BitGroup(0, 2, 4),), 5)
    check_groups((BitGroup(0, 2, 8), BitGroup(2, 5, 2)), 5)


def test_groups_json_round_trips():
    groups = (BitGroup(0, 2, 8), BitGroup(2, 5, 2))
    assert groups_to_json(groups) == [[0, 2, 8], [2, 5, 2]]
    assert groups_from_json(groups_to_json(groups)) == groups


@pytest.mark.parametrize("value", [1.5, [[0, 8]], [[0, 8, 4, 1]], "x", [(0, 8, 4)], None])
def test_groups_from_json_names_groups(value):
    with pytest.raises(ValueError, match="groups must be a list of"):
        groups_from_json(value)


def chained_factor(x):
    """The inverse-Hessian factor by the cholesky -> cho_solve -> cholesky chain,
    damped by GPTQ's 1% of the mean diagonal."""
    cols = x.shape[0]
    hess = x @ x.T
    hess[np.diag_indices(cols)] += 0.01 * np.trace(hess) / cols
    hess_inv = scipy.linalg.cho_solve((np.linalg.cholesky(hess), True), np.eye(cols))
    return scipy.linalg.cholesky((hess_inv + hess_inv.T) / 2.0, lower=False)


def per_column_gptq(m, x, bits, scale_axis, factor=None):
    """Reference GPTQ: one full-width rank-1 update per column, no lazy batches.
    A zero scale gives codes 0, as in `encode`. An identity `factor` passes no
    error on to later columns, so the result is plain RTN."""
    s64 = rtn_scales(m, bits, scale_axis).astype(np.float64)
    factor = chained_factor(x) if factor is None else factor
    w = m.astype(np.float64)
    codes = np.zeros(m.shape, dtype=np.int32)
    limit = qmax(bits)
    for j in range(m.shape[1]):
        s_j = s64 if scale_axis == "row" else s64[j]
        ratio = np.divide(w[:, j], s_j, out=np.zeros(m.shape[0]), where=s_j != 0)
        codes[:, j] = np.clip(np.trunc(ratio + np.copysign(0.5, ratio)), -limit, limit)
        err = (w[:, j] - codes[:, j] * s_j) / factor[j, j]
        w[:, j + 1 :] -= np.outer(err, factor[j, j + 1 :])
    return codes, s64.astype(np.float32)


def assert_sweep_matches_per_column_loop(m, x, scale_axes=("row", "column")):
    for scale_axis in scale_axes:
        for bits in (2, 3, 8):
            codes, scales = per_column_gptq(m, x, bits, scale_axis)
            qm = quantize_gptq(m, x, bits, scale_axis=scale_axis)
            np.testing.assert_array_equal(qm.codes, codes)
            np.testing.assert_array_equal(qm.scales, scales)


@pytest.mark.parametrize("cols", [1, GPTQ_BLOCK - 1, GPTQ_BLOCK, GPTQ_BLOCK + 1, 300, 3 * GPTQ_BLOCK + 5])
@pytest.mark.parametrize("scale_axis", ["row", "column"])
def test_lazy_batch_sweep_matches_per_column_loop(cols, scale_axis):
    rng = np.random.default_rng(cols)
    m = rng.standard_normal((9, cols))
    x = rng.standard_normal((cols, 64))
    assert_sweep_matches_per_column_loop(m, x, (scale_axis,))


@pytest.mark.parametrize("cols", [GPTQ_BLOCK + 1, 3 * GPTQ_BLOCK + 5])
def test_lazy_batch_sweep_matches_per_column_loop_on_long_vectors(cols):
    """300 values per column, so the in-block products run on long rows."""
    rng = np.random.default_rng([cols, 300])
    assert_sweep_matches_per_column_loop(rng.standard_normal((300, cols)), rng.standard_normal((cols, 64)))


def test_lazy_batch_sweep_matches_per_column_loop_with_zero_scales():
    rng = np.random.default_rng(16)
    m = rng.standard_normal((20, GPTQ_BLOCK + 7))
    m[5] = 0.0  # a zero scale on the row axis
    m[:, 3] = m[:, GPTQ_BLOCK + 2] = 0.0  # zero scales on the column axis, one per block
    assert rtn_scales(m, 2, "row")[5] == 0.0
    assert rtn_scales(m, 2, "column")[[3, GPTQ_BLOCK + 2]].tolist() == [0.0, 0.0]
    assert_sweep_matches_per_column_loop(m, rng.standard_normal((GPTQ_BLOCK + 7, 64)))


def svd_plan(svd_quant):
    return CompressionPlan(strategies={
        ModuleClass.EMBEDDING_OR_HEAD: PruneStrategy(alpha=0.5),
        ModuleClass.MLP: svd_quant,
        ModuleClass.ATTENTION: svd_quant,
        ModuleClass.PASSTHROUGH: DenseStrategy(),
    })


def test_pack_codes_match_per_column_loop(tmp_path):
    """Every V-side and U-side code of a two-group pack calibrated on a file equals the reference sweep's."""
    spec = ToySpec(seed=3, layers=1, hidden=32, mlp_width=48, vocab=100,
                   recipe=DeltaRecipe(rank=8, sparse_nnz=16, noise_std=2**-10))
    deltas = diff(*gen_toy(spec))
    rng = np.random.default_rng(3)
    activations = {name: rng.standard_normal((d.shape[1], 40)) for name, d in deltas.deltas.items() if d.ndim == 2}
    save_checkpoint(Checkpoint(model_id="calib", tensors={n: x.astype(np.float32) for n, x in activations.items()}),
                    tmp_path / "calib.gltc")
    svd_quant = SvdQuantStrategy(rank=32, groups=(BitGroup(0, 4, 8), BitGroup(4, 32, 2)))
    pack = compress_delta(deltas, default_manifest(), svd_plan(svd_quant),
                          activations=load_checkpoint(tmp_path / "calib.gltc").tensors)
    checked = 0
    for name, entry in pack.entries.items():
        if not isinstance(entry, QuantizedSvdEntry):
            continue
        factors = svd(deltas.deltas[name])
        x = activations[name].astype(np.float32).astype(np.float64)
        assert entry.rank == 32 and entry.groups == svd_quant.groups
        for g in entry.groups:
            v_codes, v_scales = per_column_gptq(factors.vt[g.begin : g.end], x, g.bits, "row")
            np.testing.assert_array_equal(entry.v_codes[g.begin : g.end], v_codes)
            np.testing.assert_array_equal(entry.v_scales[g.begin : g.end], v_scales)
            vt_hat = v_codes * v_scales.astype(np.float64)[:, None]
            u_inputs = factors.sigma[g.begin : g.end, None] * (vt_hat @ x)
            u_codes, u_scales = per_column_gptq(factors.u[:, g.begin : g.end], u_inputs, g.bits, "column")
            np.testing.assert_array_equal(entry.u_codes[:, g.begin : g.end], u_codes)
            np.testing.assert_array_equal(entry.u_scales[g.begin : g.end], u_scales)
        checked += 1
    assert checked == 7  # four attention and three MLP matrices


# int8 and int16 groups: 8, 3, 2 and 16 bits.
MIXED_GROUPS = (BitGroup(0, 3, 8), BitGroup(3, 7, 3), BitGroup(7, 9, 2), BitGroup(9, 12, 16))


def _row_widths(groups):
    return [g.bits for g in groups for _ in range(g.length)]


def test_one_sweep_with_a_width_per_row_matches_the_per_column_loop_per_group():
    """Rows of four widths, int8 and int16 codes alike, share one sweep, and each
    group's codes and scales equal the reference sweep of that group alone."""
    rng = np.random.default_rng(23)
    cols = GPTQ_BLOCK + 9
    m = rng.standard_normal((12, cols))
    m[8] = 0.0  # an all-zero row of the 2-bit group: scale 0, codes 0
    x = rng.standard_normal((cols, 48))
    qm = quantize_gptq(m, x, _row_widths(MIXED_GROUPS))
    assert qm.codes.dtype == np.int16 and qm.scales[8] == 0.0 and not qm.codes[8].any()
    assert np.abs(qm.codes[9:]).max() > qmax(8)  # the 16-bit rows need int16
    for g in MIXED_GROUPS:
        codes, scales = per_column_gptq(m[g.begin : g.end], x, g.bits, "row")
        np.testing.assert_array_equal(qm.codes[g.begin : g.end], codes)
        np.testing.assert_array_equal(qm.scales[g.begin : g.end], scales)


def test_a_signal_free_svd_entry_with_mixed_widths_is_per_group_rtn():
    """With no calibration signal each V row and U column is RTN at its group's
    width: the reference sweep with an identity factor, group by group."""
    import skillpack.compress as compress_module

    rng = np.random.default_rng(24)
    delta = rng.standard_normal((20, 14))
    x = np.zeros((14, 8))
    strategy = SvdQuantStrategy(rank=12, groups=MIXED_GROUPS)
    entry = compress_module._compress_svd(delta, ModuleClass.MLP, strategy, x)
    factors = svd(delta)
    assert entry.groups == MIXED_GROUPS and entry.v_codes.dtype == np.int16
    for g in MIXED_GROUPS:
        part = slice(g.begin, g.end)
        v_codes, v_scales = per_column_gptq(factors.vt[part], x, g.bits, "row", factor=np.eye(14))
        np.testing.assert_array_equal(entry.v_codes[part], v_codes)
        np.testing.assert_array_equal(entry.v_scales[part], v_scales)
        u_codes, u_scales = per_column_gptq(factors.u[:, part], np.zeros((g.length, 8)), g.bits, "column",
                                            factor=np.eye(g.length))
        np.testing.assert_array_equal(entry.u_codes[:, part], u_codes)
        np.testing.assert_array_equal(entry.u_scales[part], u_scales)


def test_a_plan_without_a_calibration_file_rounds_to_nearest_and_runs_no_gptq(tmp_path, monkeypatch):
    """Without activations each V row and U column of an SVD entry is RTN at
    its group's width, and no Hessian factor is built nor GPTQ called."""
    import skillpack.compress as compress_module

    def fail(*args, **kwargs):
        raise AssertionError("GPTQ ran without activations")

    for owner, name in ((quantize_module, "hessian_factor"), (quantize_module, "quantize_gptq"),
                        (compress_module, "quantize_gptq")):
        monkeypatch.setattr(owner, name, fail)
    plan = svd_plan(SvdQuantStrategy(rank=12, groups=MIXED_GROUPS))
    delta = np.random.default_rng(25).standard_normal((20, 14)).astype(np.float32)
    entry = compress_entry("m", delta, ModuleClass.MLP, plan)
    factors = svd(delta)
    assert entry.groups == MIXED_GROUPS and entry.v_codes.dtype == entry.u_codes.dtype == np.int16
    for g in MIXED_GROUPS:
        part = slice(g.begin, g.end)
        v_rtn, u_rtn = quantize_rtn(factors.vt[part], g.bits), quantize_rtn(factors.u[:, part], g.bits, "column")
        np.testing.assert_array_equal(entry.v_codes[part], v_rtn.codes)
        np.testing.assert_array_equal(entry.v_scales[part], v_rtn.scales)
        np.testing.assert_array_equal(entry.u_codes[:, part], u_rtn.codes)
        np.testing.assert_array_equal(entry.u_scales[part], u_rtn.scales)

    # a whole toy delta: compress_delta runs no GPTQ either, and its pack is compress_entry's
    deltas = diff(*gen_toy(ToySpec(seed=4, layers=1, hidden=16, mlp_width=24, vocab=32)))
    pack = compress_delta(deltas, default_manifest(), plan)
    entries = {name: compress_entry(name, d, classify(name, default_manifest()), plan) for name, d in deltas.deltas.items()}
    save_pack(pack, tmp_path / "delta.skpk")
    save_pack(SkillPack(pack.base_model_id, pack.tuned_model_id, pack.task_tag, pack.plan_snapshot, entries),
              tmp_path / "entries.skpk")
    assert (tmp_path / "delta.skpk").read_bytes() == (tmp_path / "entries.skpk").read_bytes()


@pytest.mark.parametrize("bits", [[4, 4], [4, 4, 4, 4], [4, 1, 4], [4, 3.0, 4], (17, 2, 2)])
def test_a_width_per_row_needs_one_valid_width_per_row(bits):
    m = np.ones((3, 5))
    with pytest.raises(ValueError, match="quantizer width"):
        quantize_gptq(m, np.ones((5, 4)), bits)
    with pytest.raises(ValueError, match="quantizer width"):
        quantize_rtn(m, bits)


def _src_lines():
    """(file name, line number, line) of every line of `src/skillpack`."""
    for path in sorted(Path(quantize_module.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            yield path.name, number, line


def test_codes_are_rounded_only_in_encode():
    """One code encoder: rounding to a code appears in `src/` only inside
    `quantize.encode`, and nothing clips through `np.clip`'s Python wrapper."""
    lines, first = inspect.getsourcelines(quantize_module.encode)
    assert "np.trunc" in "".join(lines) and "copysign(0.5" in "".join(lines)
    found = []
    for name, number, line in _src_lines():
        in_encode = name == "quantize.py" and first <= number < first + len(lines)
        if "np.clip" in line or (not in_encode and re.search(r"np\.trunc|copysign\(0\.5", line)):
            found.append(f"{name}:{number}: {line.strip()}")
    assert not found, "\n".join(found)


def test_each_layout_has_one_owner():
    """Bit groups are defined only in `plans`, and the pruned layout only by
    `packs.PrunedSparseEntry`: no second sparse type or scatter in `src/`."""
    definition = re.compile(r"^\s*(?:class|def)\s+(BitGroup|check_groups|groups_to_json|groups_from_json)\b"
                            r"|^(BitGroup|check_groups|groups_to_json|groups_from_json)\s*=")
    defined, found = set(), []
    for name, number, line in _src_lines():
        match = definition.search(line)
        if match and name == "plans.py":
            defined.add(match.group(1) or match.group(2))
        elif match or re.search(r"SparseEntries|densify", line):
            found.append(f"{name}:{number}: {line.strip()}")
    assert not found, "\n".join(found)
    assert defined == {"BitGroup", "check_groups", "groups_to_json", "groups_from_json"}


@pytest.mark.parametrize("cols", [1, 2, 7, 130, 400])
def test_in_place_factor_matches_chain(cols):
    rng = np.random.default_rng(cols)
    x = rng.standard_normal((cols, 96))
    factor = hessian_factor(x)
    reference = chained_factor(np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1]))  # x scaled to max|x| in [0.5, 1)
    assert np.max(np.abs(factor - reference)) <= 1e-10 * np.max(np.abs(reference))
    assert np.array_equal(hessian_factor(np.ldexp(x, 600)), factor)
    assert np.all(np.tril(factor, -1) == 0.0)


def test_hessian_factor_none_without_signal():
    assert hessian_factor(np.zeros((5, 3))) is None


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(k=st.integers(-1100, 1100), peak=st.sampled_from([None, 1e160]))
@example(k=-536, peak=None)
@example(k=-540, peak=None)
@example(k=0, peak=1e160)
def test_gptq_codes_do_not_depend_on_a_power_of_two_scale(k, peak):
    # the float64 Hessian overflowed at entries of 1e160 (refused), and underflowed near 2^-536:
    # LAPACK refused it, and below 2^-540 its trace was 0 and the codes were RTN's
    rng = np.random.default_rng(30)
    m = rng.standard_normal((4, 8))
    x = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 16))  # rank 3
    if peak is not None:
        x *= peak / np.max(np.abs(x))
    with np.errstate(over="ignore", under="ignore"):
        scaled = np.ldexp(x, k)
    assume(np.all(np.isfinite(scaled)) and np.all(scaled != 0))
    assert np.array_equal(quantize_gptq(m, scaled, 3).codes, quantize_gptq(m, x, 3).codes)


@pytest.mark.parametrize("step", ["dpotrf", "dtrtri"])
def test_a_damped_hessian_lapack_refuses_is_a_value_error_with_its_info(monkeypatch, step):
    monkeypatch.setattr(quantize_module.lapack, step, lambda a, **kwargs: (a, 3))
    with pytest.raises(ValueError, match=re.escape("damped Hessian could not be factored (LAPACK info 3)")):
        hessian_factor(np.random.default_rng(0).standard_normal((4, 6)))


def test_an_empty_calibration_is_refused_naming_it():
    # a width of 0 divided by zero (ZeroDivisionError), and no samples at all passed as plain RTN
    for x, m in ((np.zeros((0, 3)), None), (np.ones((0, 2)), np.ones((3, 0))), (np.ones((3, 0)), np.ones((2, 3)))):
        message = re.escape(f"calibration activations must not be empty, got shape {x.shape}")
        with pytest.raises(ValueError, match=message):
            hessian_factor(x) if m is None else quantize_gptq(m, x, 4)


def test_gptq_leaves_inputs_untouched():
    rng = np.random.default_rng(13)
    for m in (rng.standard_normal((30, 12)), np.asfortranarray(rng.standard_normal((30, 12)))):
        x = rng.standard_normal((12, 16))
        before = m.copy()
        quantize_gptq(m, x, 3, scale_axis="column")
        np.testing.assert_array_equal(m, before)
