import numpy as np
import pytest
import scipy.linalg

from skillpack.checkpoints import diff
from skillpack.classify import ModuleClass, default_manifest
from skillpack.compress import compress_delta, synthetic_calibration
from skillpack.packs import QuantizedSvdEntry
from skillpack.plans import CompressionPlan, DenseStrategy, PruneStrategy, SvdQuantStrategy
from skillpack.quantize import (
    GPTQ_BLOCK,
    BitGroup,
    calibration_error,
    check_groups,
    groups_from_json,
    groups_to_json,
    hessian_factor,
    pack_codes,
    packed_size,
    qmax,
    quantize_gptq,
    quantize_rtn,
    rtn_scales,
    unpack_codes,
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


def test_gptq_singular_hessian_without_damping():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4))
    x = np.zeros((4, 3))
    x[0, :] = rng.standard_normal(3)  # rank-1 Hessian
    with pytest.raises(ValueError, match="[Ss]ingular|damping"):
        quantize_gptq(m, x, 4, damping=0.0)


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
        assert got.dtype == np.int32 and np.array_equal(got, _reference_unpack(noise, count, bits))


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


def chained_factor(x, damping=0.01):
    """The inverse-Hessian factor by the cholesky -> cho_solve -> cholesky chain."""
    cols = x.shape[0]
    hess = x @ x.T
    hess[np.diag_indices(cols)] += damping * np.trace(hess) / cols
    hess_inv = scipy.linalg.cho_solve((np.linalg.cholesky(hess), True), np.eye(cols))
    return scipy.linalg.cholesky((hess_inv + hess_inv.T) / 2.0, lower=False)


def per_column_gptq(m, x, bits, scale_axis):
    """Reference GPTQ: one full-width rank-1 update per column, no lazy batches.
    A zero scale gives codes 0, as in `encode`."""
    s64 = rtn_scales(m, bits, scale_axis).astype(np.float64)
    factor = chained_factor(x)
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


def test_pack_codes_match_per_column_loop():
    """Every V-side and U-side code of a two-group pack equals the reference sweep's."""
    spec = ToySpec(seed=3, layers=1, hidden=32, mlp_width=48, vocab=100,
                   recipe=DeltaRecipe(rank=8, sparse_nnz=16, noise_std=2**-10))
    deltas = diff(*gen_toy(spec))
    svd_quant = SvdQuantStrategy(rank=32, groups=(BitGroup(0, 4, 8), BitGroup(4, 32, 2)))
    plan = CompressionPlan(strategies={
        ModuleClass.EMBEDDING_OR_HEAD: PruneStrategy(alpha=0.5),
        ModuleClass.MLP: svd_quant,
        ModuleClass.ATTENTION: svd_quant,
        ModuleClass.PASSTHROUGH: DenseStrategy(),
    })
    pack = compress_delta(deltas, default_manifest(), plan)
    checked = 0
    for name, entry in pack.entries.items():
        if not isinstance(entry, QuantizedSvdEntry):
            continue
        delta = deltas.deltas[name]
        factors = svd(delta)
        x = synthetic_calibration(plan.calibration.seed, delta.shape[1], plan.calibration.samples)
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


@pytest.mark.parametrize("cols", [1, 2, 7, 130, 400])
def test_in_place_factor_matches_chain(cols):
    rng = np.random.default_rng(cols)
    x = rng.standard_normal((cols, 96))
    factor = hessian_factor(x, 0.01)
    reference = chained_factor(x)
    assert np.max(np.abs(factor - reference)) <= 1e-10 * np.max(np.abs(reference))
    assert np.all(np.tril(factor, -1) == 0.0)


def test_hessian_factor_none_without_signal():
    assert hessian_factor(np.zeros((5, 3))) is None


def test_gptq_given_factor_matches_computed():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((20, 150))
    x = rng.standard_normal((150, 40))
    factor = hessian_factor(x, 0.05)
    a = quantize_gptq(m, x, 3, damping=0.05, factor=factor)
    b = quantize_gptq(m, x, 3, damping=0.05)
    np.testing.assert_array_equal(a.codes, b.codes)


def test_gptq_leaves_inputs_untouched():
    rng = np.random.default_rng(13)
    for m in (rng.standard_normal((30, 12)), np.asfortranarray(rng.standard_normal((30, 12)))):
        x = rng.standard_normal((12, 16))
        before = m.copy()
        quantize_gptq(m, x, 3, scale_axis="column")
        np.testing.assert_array_equal(m, before)
