import hashlib
import inspect
import json
import re
import struct
import zlib
from fractions import Fraction

import numpy as np
import pytest

import skillpack.container as container_module
import skillpack.tensors as tensors_module
from skillpack.checkpoints import Checkpoint, apply_pack
from skillpack.classify import ModuleClass
from skillpack.compress import compress_entry
from skillpack.errors import FormatError, IntegrityError
from skillpack.packs import (
    _KINDS,
    DenseEntry,
    PrunedSparseEntry,
    QuantizedSvdEntry,
    SkillPack,
    StatLine,
    entry_stats,
    inspect_pack,
    load_pack,
    pack_stats,
    save_pack,
    storage_ratio,
)
from skillpack.plans import BitGroup, DenseStrategy, PruneStrategy, SvdQuantStrategy, default_plan
from skillpack.quantize import pack_fields


def random_entry(rng, kind):
    if kind == "dense":
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        return DenseEntry(shape=shape, mclass=ModuleClass.PASSTHROUGH,
                          values=rng.standard_normal(shape).astype(np.float32))
    if kind == "pruned":
        shape = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        n = shape[0] * shape[1]
        keep = int(rng.integers(1, n + 1))
        indices = np.sort(rng.choice(n, size=keep, replace=False)).astype(np.int64)
        bits = int(rng.choice([2, 3, 4, 8]))
        limit = (1 << (bits - 1)) - 1
        return PrunedSparseEntry(
            shape=shape, mclass=ModuleClass.EMBEDDING_OR_HEAD, alpha=keep / n, value_bits=bits,
            indices=indices,
            codes=rng.integers(-limit, limit + 1, size=keep).astype(np.int32),
            scales=np.abs(rng.standard_normal(shape[0])).astype(np.float32),
        )
    shape = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
    rank = int(rng.integers(1, min(shape) + 1))
    split = int(rng.integers(1, rank + 1))
    if split == rank:
        groups = (BitGroup(0, rank, 8),)
    else:
        groups = (BitGroup(0, split, 8), BitGroup(split, rank, 3))
    u_codes = np.zeros((shape[0], rank), np.int32)
    v_codes = np.zeros((rank, shape[1]), np.int32)
    for g in groups:
        limit = (1 << (g.bits - 1)) - 1
        u_codes[:, g.begin:g.end] = rng.integers(-limit, limit + 1, size=(shape[0], g.length))
        v_codes[g.begin:g.end, :] = rng.integers(-limit, limit + 1, size=(g.length, shape[1]))
    mclass = ModuleClass.MLP if rng.integers(2) else ModuleClass.ATTENTION
    return QuantizedSvdEntry(
        shape=shape, mclass=mclass, rank=rank, groups=groups,
        sigma=np.abs(rng.standard_normal(rank)).astype(np.float32),
        u_codes=u_codes, u_scales=np.abs(rng.standard_normal(rank)).astype(np.float32),
        v_codes=v_codes, v_scales=np.abs(rng.standard_normal(rank)).astype(np.float32),
    )


def random_pack(seed):
    rng = np.random.default_rng(seed)
    entries = {}
    for i in range(int(rng.integers(1, 6))):
        kind = ["dense", "pruned", "svd"][int(rng.integers(3))]
        entries[f"t{i}.weight"] = random_entry(rng, kind)
    return SkillPack(base_model_id=f"base{seed}", tuned_model_id=f"tuned{seed}",
                     task_tag=f"tag{seed % 3}", plan_snapshot={"note": seed}, entries=entries)


def entries_equal(a, b) -> bool:
    if type(a) is not type(b) or a.shape != b.shape or a.mclass is not b.mclass:
        return False
    if isinstance(a, DenseEntry):
        return np.array_equal(a.values, b.values)
    if isinstance(a, PrunedSparseEntry):
        return (a.value_bits == b.value_bits and np.array_equal(a.indices, b.indices)
                and np.array_equal(a.codes, b.codes) and np.array_equal(a.scales, b.scales))
    return (a.rank == b.rank and a.groups == b.groups
            and np.array_equal(a.sigma, b.sigma)
            and np.array_equal(a.u_codes, b.u_codes) and np.array_equal(a.u_scales, b.u_scales)
            and np.array_equal(a.v_codes, b.v_codes) and np.array_equal(a.v_scales, b.v_scales))


def test_roundtrip_randomized(tmp_path):
    for seed in range(25):
        pack = random_pack(seed)
        path = tmp_path / f"p{seed}.skpk"
        save_pack(pack, path)
        loaded = load_pack(path)
        assert loaded.base_model_id == pack.base_model_id
        assert loaded.tuned_model_id == pack.tuned_model_id
        assert loaded.task_tag == pack.task_tag
        assert loaded.plan_snapshot == pack.plan_snapshot
        assert list(loaded.entries) == list(pack.entries)
        for name in pack.entries:
            assert entries_equal(loaded.entries[name], pack.entries[name])
        # resave must be byte-identical
        path2 = tmp_path / f"p{seed}b.skpk"
        save_pack(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_bit_flip_names_entry(tmp_path):
    pack = random_pack(3)
    path = tmp_path / "p.skpk"
    save_pack(pack, path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x40
    path.write_bytes(bytes(raw))
    last_entry = list(pack.entries)[-1]
    with pytest.raises(IntegrityError, match=last_entry):
        load_pack(path)


def _rewrite_header(path, mutate):
    raw = path.read_bytes()
    magic, version, header_len = struct.unpack_from("<4sIQ", raw)
    header = json.loads(raw[16 : 16 + header_len])
    mutate(header)
    blob = json.dumps(header).encode()
    path.write_bytes(struct.pack("<4sIQ", magic, version, len(blob)) + blob + raw[16 + header_len :])


def _svd_pack_file(tmp_path):
    entry = random_entry(np.random.default_rng(21), "svd")
    path = tmp_path / "p.skpk"
    save_pack(SkillPack("b", "t", "", {}, {"mlp.weight": entry}), path)
    return path


def test_missing_header_field_names_entry(tmp_path):
    path = _svd_pack_file(tmp_path)
    _rewrite_header(path, lambda header: header["entries"][0].pop("kind"))
    with pytest.raises(FormatError, match="mlp.weight.*'kind'"):
        load_pack(path)


@pytest.mark.parametrize("field, value", [
    ("rank", "3"), ("rank", 10**6), ("shape", [2]), ("shape", None),
    ("groups", [[0, 1]]), ("groups", 7), ("class", "nonsense"), ("blobs", [{"role": 1}]), ("groups", [[0, 8]]),
    ("kind", "mystery"),
])
def test_ill_typed_header_field_is_format_error(tmp_path, field, value):
    path = _svd_pack_file(tmp_path)

    def mutate(header):
        header["entries"][0][field] = value

    _rewrite_header(path, mutate)
    with pytest.raises(FormatError, match="mlp.weight"):
        load_pack(path)


@pytest.mark.parametrize("field, value", [
    ("base_model_id", 7), ("tuned_model_id", None), ("task_tag", ["x"]), ("plan", "zzz"),
    ("format_version", "one"), ("format_version", True), ("task_tag", "<missing>"), ("plan", "<missing>"),
])
def test_ill_typed_top_level_field_is_format_error(tmp_path, field, value):
    path = _svd_pack_file(tmp_path)

    def mutate(header):
        if value == "<missing>":
            del header[field]
        else:
            header[field] = value

    _rewrite_header(path, mutate)
    with pytest.raises(FormatError, match=f"header field '{field}'"):
        load_pack(path)


def test_pack_without_entries_is_format_error(tmp_path):
    path = _svd_pack_file(tmp_path)

    def mutate(header):
        del header["entries"]
        header["stats"] = pack_stats({}).to_dict()  # the stats of the empty pack it would otherwise load as

    _rewrite_header(path, mutate)
    with pytest.raises(FormatError, match="header field 'entries' must be a list"):
        load_pack(path)


def test_other_format_version_is_format_error(tmp_path):
    path = _svd_pack_file(tmp_path)
    _rewrite_header(path, lambda header: header.update(format_version=99))
    with pytest.raises(FormatError, match="format_version"):
        load_pack(path)


SVD_ROLES = ["sigma", "codes_u", "scales_u", "codes_v", "scales_v"]


def roles_error(got: list) -> str:
    """The load error of the `_svd_pack_file` entry when its blob roles are `got`."""
    return re.escape(f"entry 'mlp.weight': quantized_svd blob roles must be {SVD_ROLES}, got {got}")


@pytest.mark.parametrize("drop", ["sigma", "codes_v"])
def test_missing_blob_names_entry_and_blob(tmp_path, drop):
    path = _svd_pack_file(tmp_path)

    def mutate(header):
        blobs = header["entries"][0]["blobs"]
        blobs[:] = [b for b in blobs if b["role"] != drop]

    _rewrite_header(path, mutate)
    with pytest.raises(FormatError, match=roles_error([role for role in SVD_ROLES if role != drop])):
        load_pack(path)


def test_repeated_blob_role_is_format_error(tmp_path):
    """A second 'sigma' blob over the 'scales_v' bytes has a valid CRC and would replace the first."""
    path = _svd_pack_file(tmp_path)

    def mutate(header):
        blobs = header["entries"][0]["blobs"]
        blobs.append({**next(b for b in blobs if b["role"] == "scales_v"), "role": "sigma"})

    _rewrite_header(path, mutate)
    with pytest.raises(FormatError, match=roles_error(SVD_ROLES + ["sigma"])):
        load_pack(path)


@pytest.mark.parametrize("blob", [{"role": "extra", "offset": "x"}, {"role": "indices"}], ids=["malformed-extra", "indices"])
def test_blob_role_the_kind_never_reads_is_format_error(tmp_path, blob):
    path = _svd_pack_file(tmp_path)

    def mutate(header):
        blobs = header["entries"][0]["blobs"]
        blobs.append({**blobs[0], **blob})

    _rewrite_header(path, mutate)
    with pytest.raises(FormatError, match=roles_error(SVD_ROLES + [blob["role"]])):
        load_pack(path)


def test_permuted_blob_roles_are_format_error(tmp_path):
    """Every blob is there with a valid CRC, but not in the kind's role order."""
    path = _svd_pack_file(tmp_path)

    def mutate(header):
        blobs = header["entries"][0]["blobs"]
        blobs[1], blobs[2] = blobs[2], blobs[1]

    _rewrite_header(path, mutate)
    with pytest.raises(FormatError, match=roles_error(["sigma", "scales_u", "codes_u", "codes_v", "scales_v"])):
        load_pack(path)


def _pruned_pack_file(tmp_path):
    entry = PrunedSparseEntry(
        shape=(4, 6), mclass=ModuleClass.EMBEDDING_OR_HEAD, alpha=0.25, value_bits=4,
        indices=np.array([0, 1, 5, 7, 20, 23], dtype=np.int64), codes=np.array([1, -3, 7, 0, -7, 2], np.int32),
        scales=np.array([0.5, 0.25, 1.0, 0.125], np.float32),
    )
    path = tmp_path / "p.skpk"
    save_pack(SkillPack("b", "t", "", {}, {"e.weight": entry}), path)
    return path


def test_pruned_entry_keeps_exactly_retained_count_values():
    def entry(shape, alpha, indices):
        return PrunedSparseEntry(
            shape=shape, mclass=ModuleClass.EMBEDDING_OR_HEAD, alpha=alpha, value_bits=4,
            indices=np.array(indices, dtype=np.int64), codes=np.ones(len(indices), np.int32),
            scales=np.ones(shape[0], np.float32),
        )

    assert entry((2, 3), 1 / 3, [1, 5]).strategy.alpha == 1 / 3  # ceil(6 / 3) = 2 values
    for shape, alpha, indices in [((2, 3), 0.5, [1, 5]), ((2, 3), 0.1, [1, 5]), ((4, 4), 0.5, [3])]:
        with pytest.raises(ValueError, match=f"alpha={alpha} keeps"):
            entry(shape, alpha, indices)


def test_edited_alpha_is_format_error_naming_the_entry(tmp_path):
    path = _pruned_pack_file(tmp_path)
    _rewrite_header(path, lambda header: header["entries"][0].update(alpha=0.9))
    with pytest.raises(FormatError, match=r"entry 'e.weight': blob 'values': buffer too short: 3 bytes for 22 x 4-bit"):
        load_pack(path)


def test_missing_index_width_names_the_entry(tmp_path):
    path = _pruned_pack_file(tmp_path)
    _rewrite_header(path, lambda header: header["entries"][0].pop("index_width"))
    with pytest.raises(FormatError, match=r"entry 'e.weight': header field 'index_width' must be int, got missing"):
        load_pack(path)


def test_an_index_width_of_16_names_the_entry(tmp_path):
    path = _pruned_pack_file(tmp_path)
    _rewrite_header(path, lambda header: header["entries"][0].update(index_width=16))
    with pytest.raises(FormatError, match=r"entry 'e.weight': bad index width 16"):
        load_pack(path)


def _multi_block_pack_file(tmp_path, rows=512):
    """A pack of one pruned entry that keeps every other value of a rows x 512 matrix: positions that span
    several blocks of the constructor's order check (65,536 each)."""
    keep = rows * 256
    entry = PrunedSparseEntry(
        shape=(rows, 512), mclass=ModuleClass.EMBEDDING_OR_HEAD, alpha=0.5, value_bits=2,
        indices=np.arange(0, 2 * keep, 2), codes=np.ones(keep, np.int8), scales=np.ones(rows, np.float32),
    )
    path = tmp_path / "p.skpk"
    save_pack(SkillPack("b", "t", "", {}, {"e.weight": entry}), path)
    return path, entry


def test_a_load_checks_positions_without_decoding_them_all(tmp_path):
    import tracemalloc

    path, entry = _multi_block_pack_file(tmp_path, rows=2048)  # 524,288 positions
    tracemalloc.start()
    try:
        loaded = load_pack(path).entries["e.weight"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(entry.codes)  # below the positions decoded to uint64 at once
    assert loaded.positions().tobytes() == entry.positions().tobytes()


def test_positions_repeated_across_a_check_block_name_the_entry(tmp_path):
    path, entry = _multi_block_pack_file(tmp_path)  # 131,072 positions: two blocks
    positions = entry.positions()
    positions[65536] = positions[65535]  # each block alone is strictly increasing
    _overwrite_blob_start(path, "indices", pack_fields(positions, entry.index_width).tobytes())
    with pytest.raises(FormatError, match=r"entry 'e.weight': indices must be strictly increasing"):
        load_pack(path)


def _with_wide_indices(path, out, width):
    """`path` rewritten to `out` with the first entry's positions as little-endian u32 or u64
    values, as files held them before indices were packed at their own width."""
    raw = path.read_bytes()
    magic, version, header_len = struct.unpack_from("<4sIQ", raw)
    header = json.loads(raw[16 : 16 + header_len])
    payload = bytearray(raw[16 + header_len :])
    wide = load_pack(path).entries["e.weight"].positions().astype(f"<u{width // 8}").tobytes()
    meta = next(b for b in header["entries"][0]["blobs"] if b["role"] == "indices")
    payload += bytes(-len(payload) % 64)  # the wide blob goes at the next aligned offset
    meta.update(offset=len(payload), byte_len=len(wide), crc32=zlib.crc32(wide))
    header["entries"][0]["index_width"] = width
    blob = json.dumps(header).encode()
    out.write_bytes(struct.pack("<4sIQ", magic, version, len(blob)) + blob + bytes(payload) + wide)


def test_u64_indices_load_like_u32(tmp_path):
    """u32 and u64 indices, as earlier files hold them, load and compose like the fresh file's packed ones,
    and save back at their own width."""
    path = _pruned_pack_file(tmp_path)
    native = load_pack(path)
    assert native.entries["e.weight"].index_width == 5  # ceil(log2(24))
    base = Checkpoint(model_id="b", tensors={"e.weight": np.ones((4, 6), np.float32)})
    for width in (32, 64):
        wide = tmp_path / f"u{width}.skpk"
        _with_wide_indices(path, wide, width)
        pack = load_pack(wide)
        entry, fresh = pack.entries["e.weight"], native.entries["e.weight"]
        assert entry.index_width == width and entry.positions().tolist() == [0, 1, 5, 7, 20, 23]
        for name in ("codes", "scales"):
            a, b = getattr(fresh, name), getattr(entry, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert entry.reconstruct().tobytes() == fresh.reconstruct().tobytes()
        assert apply_pack(base, pack).tensors["e.weight"].tobytes() == apply_pack(base, native).tensors["e.weight"].tobytes()
        save_pack(pack, tmp_path / "again.skpk")
        again = load_pack(tmp_path / "again.skpk").entries["e.weight"]
        assert again.index_width == width and again.indices.tobytes() == entry.indices.tobytes()


def _entry_arrays(entries) -> list[np.ndarray]:
    return [
        entries["dense"].values,
        entries["pruned"].indices, entries["pruned"].codes, entries["pruned"].scales,
        entries["svd"].sigma, entries["svd"].u_codes, entries["svd"].u_scales,
        entries["svd"].v_codes, entries["svd"].v_scales,
    ]


def _three_kinds(seed=5) -> dict:
    rng = np.random.default_rng(seed)
    return {kind: random_entry(rng, kind) for kind in ("dense", "pruned", "svd")}


def test_loaded_entry_arrays_are_read_only_and_bit_equal(tmp_path):
    entries = _three_kinds()
    save_pack(SkillPack("b", "t", "", {}, entries), tmp_path / "p.skpk")
    loaded = load_pack(tmp_path / "p.skpk").entries
    for arr, saved in zip(_entry_arrays(loaded), _entry_arrays(entries)):
        assert arr.dtype == saved.dtype and arr.shape == saved.shape
        assert arr.tobytes() == saved.tobytes()
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    with pytest.raises(ValueError, match="read-only"):
        loaded["pruned"].codes[0] = 100  # codes stay as their range check at load saw them


def test_entry_float_fields_are_float32_once_built(tmp_path):
    """float64 sigma and scales from a caller are stored as float32, so the entry
    reconstructs, composes and round-trips as float32; float32 arrays are kept."""
    entries = _three_kinds()
    wide = {
        "pruned": PrunedSparseEntry(**{**vars(entries["pruned"]), "scales": entries["pruned"].scales.astype(np.float64)}),
        "svd": QuantizedSvdEntry(**{**vars(entries["svd"]), **{
            name: getattr(entries["svd"], name).astype(np.float64) for name in ("sigma", "u_scales", "v_scales")}}),
    }
    for kind, entry in wide.items():
        assert entry.reconstruct().dtype == np.float32
        assert entry.reconstruct().tobytes() == entries[kind].reconstruct().tobytes()
    assert all(getattr(wide["svd"], name).dtype == np.float32 for name in ("sigma", "u_scales", "v_scales"))
    assert wide["pruned"].scales.dtype == np.float32
    svd = entries["svd"]
    assert QuantizedSvdEntry(**vars(svd)).sigma is svd.sigma  # no copy of a float32 array

    shape = svd.shape
    base = Checkpoint(model_id="b", tensors={"x.weight": np.ones(shape, np.float32)})
    pack = SkillPack("b", "t", "", {}, {"x.weight": wide["svd"]})
    composed = apply_pack(base, pack).tensors["x.weight"]
    save_pack(pack, tmp_path / "p.skpk")
    reloaded = apply_pack(base, load_pack(tmp_path / "p.skpk")).tensors["x.weight"]
    assert composed.dtype == reloaded.dtype == np.float32
    assert composed.tobytes() == reloaded.tobytes()


def test_loaded_pack_outlives_its_file(tmp_path):
    path = tmp_path / "p.skpk"
    entries = _three_kinds()
    save_pack(SkillPack("b", "t", "", {}, entries), path)
    old = load_pack(path).entries
    save_pack(SkillPack("b", "t", "other", {}, _three_kinds(seed=6)), path)  # replaces the file
    assert load_pack(path).task_tag == "other"
    path.unlink()
    for arr, saved in zip(_entry_arrays(old), _entry_arrays(entries)):
        assert arr.tobytes() == saved.tobytes()


def test_dense_pack_load_maps_the_file_instead_of_copying_it(tmp_path):
    import tracemalloc

    values = np.arange(2048 * 2048, dtype=np.float32).reshape(2048, 2048)
    entry = DenseEntry(shape=values.shape, mclass=ModuleClass.PASSTHROUGH, values=values)
    save_pack(SkillPack("b", "t", "", {}, {"w": entry}), tmp_path / "big.skpk")  # 16 MB
    tracemalloc.start()
    try:
        loaded = load_pack(tmp_path / "big.skpk")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.array_equal(loaded.entries["w"].values, values)


@pytest.mark.parametrize("dtype", [np.uint32, np.int64])
def test_positions_cannot_change_after_their_checks(dtype):
    indices = np.array([1, 5], dtype)
    entry = _pruned(indices=indices, alpha=1 / 3)
    before = entry.reconstruct()
    indices[:] = [0, 1]
    assert entry.reconstruct().tobytes() == before.tobytes()
    assert entry.positions().tolist() == [1, 5] and not entry.indices.flags.writeable


def test_pruned_entry_must_be_2d():
    with pytest.raises(ValueError, match="2-D"):
        PrunedSparseEntry(shape=(6,), mclass=ModuleClass.MLP, alpha=0.5, value_bits=4,
                          indices=np.array([1, 3]), codes=np.array([1, -1], np.int32), scales=np.ones(6, np.float32))


def _overwrite_blob_start(path, role, data: bytes):
    """Overwrite the first bytes of the first entry's `role` blob and recompute its CRC."""
    raw = path.read_bytes()
    magic, version, header_len = struct.unpack_from("<4sIQ", raw)
    header = json.loads(raw[16 : 16 + header_len])
    payload = bytearray(raw[16 + header_len :])
    meta = next(b for b in header["entries"][0]["blobs"] if b["role"] == role)
    payload[meta["offset"] : meta["offset"] + len(data)] = data
    meta["crc32"] = zlib.crc32(bytes(payload[meta["offset"] : meta["offset"] + meta["byte_len"]]))
    blob = json.dumps(header).encode()
    path.write_bytes(struct.pack("<4sIQ", magic, version, len(blob)) + blob + bytes(payload))


def test_nan_sigma_is_integrity_error(tmp_path):
    path = _svd_pack_file(tmp_path)
    _overwrite_blob_start(path, "sigma", np.float32(np.nan).tobytes())
    with pytest.raises(IntegrityError, match="mlp.weight.*'sigma'.*non-finite"):
        load_pack(path)


def test_corrupt_svd_code_range_names_entry(tmp_path):
    # the first group is 8-bit; byte 0x80 decodes to -128, outside [-127, 127]
    path = _svd_pack_file(tmp_path)
    _overwrite_blob_start(path, "codes_u", b"\x80")
    with pytest.raises(IntegrityError, match="mlp.weight.*corrupted codes"):
        load_pack(path)


def _hand_built(values=(0.0, 1.0, 2.0), scales=(1.0,), sigma=(1.0,), u_scales=(1.0,), v_scales=(1.0,),
                codes=(1, 1), u_codes=((1,),)):
    """Per entry kind, a function that builds one small entry; by default each composes finite values."""
    emb = ModuleClass.EMBEDDING_OR_HEAD
    return {
        "dense": lambda: DenseEntry(shape=(3,), mclass=ModuleClass.PASSTHROUGH, values=np.array(values)),
        "pruned": lambda: PrunedSparseEntry(shape=(1, 4), mclass=emb, alpha=0.5, value_bits=4,
                                            indices=np.array([0, 1]), codes=np.array(codes), scales=np.array(scales)),
        "svd": lambda: QuantizedSvdEntry(shape=(1, 1), mclass=ModuleClass.MLP, rank=1, groups=(BitGroup(0, 1, 8),),
                                         sigma=np.array(sigma), u_codes=np.array(u_codes), u_scales=np.array(u_scales),
                                         v_codes=np.ones((1, 1), np.int8), v_scales=np.array(v_scales)),
    }


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "inf", "-inf", "past-float32"])
def test_a_hand_built_entry_with_a_non_finite_float_is_refused(value):
    base = Checkpoint("b", {"w": np.ones(3, np.float32), "e": np.ones((1, 4), np.float32),
                            "m": np.ones((1, 1), np.float32)})
    built = {name: build() for name, build in zip(("w", "e", "m"), _hand_built().values())}
    assert all(np.isfinite(t).all() for t in apply_pack(base, SkillPack("b", "t", "", {}, built)).tensors.values())
    # values [nan, 1, 2] composed to [nan, 2, 3], and pruned scales [nan] to NaN rows, with no error
    builds = {
        "dense values": _hand_built(values=(value, 1.0, 2.0))["dense"],
        "pruned scales": _hand_built(scales=(value,))["pruned"],
        "sigma": _hand_built(sigma=(value,))["svd"],
        "U scales": _hand_built(u_scales=(value,))["svd"],
        "V scales": _hand_built(v_scales=(value,))["svd"],
    }
    for what, build in builds.items():
        with pytest.raises(ValueError, match=re.escape(f"{what} must be finite in float32")):
            build()


@pytest.mark.parametrize("values", [np.array([np.nan, 1, 2], np.float32), np.array([1e39, 1, 2])],
                         ids=["nan", "past-float32"])
def test_no_argument_lets_a_hand_built_dense_entry_skip_the_float32_rule(values):
    """A `values_checked=True` argument built [nan, 1, 2], which composed onto ones as [nan, 2, 3],
    and left 1e39 float64. Only compress and load, which scan the values themselves, skip the check."""
    dense = {"shape": (3,), "mclass": ModuleClass.PASSTHROUGH, "values": values}
    for name in (p for p in inspect.signature(DenseEntry).parameters if p not in dense):
        for flag in (True, 1, "yes", object()):
            with pytest.raises(ValueError, match=re.escape("dense values must be finite in float32")):
                DenseEntry(**dense, **{name: flag})


def test_a_dense_blob_is_scanned_once_on_compress_and_on_load(tmp_path, monkeypatch):
    values = np.arange(6, dtype=np.float32).reshape(2, 3)
    scanned, real = [], tensors_module.all_finite

    def counting(a):
        scanned.append(a.shape)
        return real(a)

    monkeypatch.setattr(tensors_module, "all_finite", counting)
    monkeypatch.setattr(container_module, "all_finite", counting)
    entry = compress_entry("d", values, ModuleClass.PASSTHROUGH, default_plan())
    assert scanned == [(2, 3)]
    save_pack(SkillPack("b", "t", "", {}, {"d": entry}), tmp_path / "p.skpk")
    scanned.clear()
    assert load_pack(tmp_path / "p.skpk").entries["d"].values.tobytes() == values.tobytes()
    assert scanned == [(2, 3)]


@pytest.mark.parametrize("code", [8, -8, 2**31 - 1, -2**31])
def test_a_hand_built_code_out_of_range_is_refused_before_it_is_narrowed(code):
    # narrowed to int8 first, 2**31 - 1 would wrap to -1 and -2**31 to 0; -8 is the reserved 4-bit code
    with pytest.raises(IntegrityError, match="out of range for 4-bit values"):
        _hand_built(codes=np.array([1, code], np.int64))["pruned"]()
    with pytest.raises(IntegrityError, match="out of range for 8-bit values"):
        _hand_built(u_codes=np.array([[code * 16]], np.int64))["svd"]()


def test_hand_built_codes_and_indices_must_be_integers():
    with pytest.raises(ValueError, match="codes must be integers, got float64 for values"):
        _hand_built(codes=(1.0, 1.5))["pruned"]()
    with pytest.raises(ValueError, match="indices must be strictly increasing integers"):
        PrunedSparseEntry(shape=(1, 4), mclass=ModuleClass.EMBEDDING_OR_HEAD, alpha=0.5, value_bits=4,
                          indices=np.array([0.0, 1.0]), codes=np.ones(2, np.int8), scales=np.ones(1))


def test_a_corrupt_8_bit_code_of_minus_128_is_refused():
    # |int8(-128)| is -128, so a check by magnitude would let it through
    with pytest.raises(IntegrityError, match="out of range for 8-bit values"):
        _hand_built(u_codes=np.array([[-128]], np.int8))["svd"]()


def test_forged_sparse_shape_is_rejected_before_reconstruct(tmp_path, monkeypatch):
    def entry(shape, alpha=0.5):
        return PrunedSparseEntry(
            shape=shape, mclass=ModuleClass.EMBEDDING_OR_HEAD, alpha=alpha, value_bits=4,
            indices=np.array([0, 3], dtype=np.int64), codes=np.array([1, 2], dtype=np.int32),
            scales=np.ones(1, dtype=np.float32),
        )

    save_pack(SkillPack("b", "t", "", {}, {"e.weight": entry((1, 4))}), tmp_path / "p.skpk")
    path = tmp_path / "wide.skpk"
    _with_wide_indices(tmp_path / "p.skpk", path, 64)  # 2-bit indices do not fit the forged shape, u64 ones do
    forged = (1, 2**40)
    forged_alpha = 2 / 2**40  # keeps the same two values of the forged shape

    def mutate(header):
        header["entries"][0]["shape"] = list(forged)
        header["entries"][0]["alpha"] = forged_alpha
        header["stats"] = pack_stats({"e.weight": entry(forged, forged_alpha)}).to_dict()

    _rewrite_header(path, mutate)
    pack = load_pack(path)
    assert pack.entries["e.weight"].shape == forged

    def never(self):
        raise AssertionError("reconstruct must not run")

    monkeypatch.setattr(PrunedSparseEntry, "reconstruct", never)
    base = Checkpoint(model_id="b", tensors={"e.weight": np.zeros((1, 4), np.float32)})
    with pytest.raises(ValueError, match="e.weight.*shape"):
        apply_pack(base, pack)


def test_stats_tamper_detected(tmp_path):
    pack = random_pack(5)
    path = tmp_path / "p.skpk"
    save_pack(pack, path)

    def mutate(header):
        header["stats"]["total"]["stored_value_bits"] += 8

    _rewrite_header(path, mutate)
    with pytest.raises(IntegrityError, match="stats"):
        load_pack(path)


def test_corrupt_code_range_detected(tmp_path):
    # a 4-bit field holding -8 is encodable but outside the symmetric range
    entry = PrunedSparseEntry(
        shape=(2, 2), mclass=ModuleClass.EMBEDDING_OR_HEAD, alpha=0.5, value_bits=4,
        indices=np.array([0, 3], dtype=np.int64),
        codes=np.array([1, 2], dtype=np.int32),
        scales=np.ones(2, dtype=np.float32),
    )
    pack = SkillPack("b", "t", "", {}, {"e.weight": entry})
    path = tmp_path / "p.skpk"
    save_pack(pack, path)
    raw = path.read_bytes()
    magic, version, header_len = struct.unpack_from("<4sIQ", raw)
    header = json.loads(raw[16 : 16 + header_len])
    values_meta = next(b for b in header["entries"][0]["blobs"] if b["role"] == "values")
    payload_start = 16 + header_len
    raw = bytearray(raw)
    raw[payload_start + values_meta["offset"]] = 0x28  # codes become [-8, 2]
    import zlib

    values_meta["crc32"] = zlib.crc32(bytes(raw[payload_start + values_meta["offset"]:
                                              payload_start + values_meta["offset"] + values_meta["byte_len"]]))
    blob = json.dumps(header).encode()
    # header length unchanged only if same size; rebuild the file to be safe
    rebuilt = struct.pack("<4sIQ", magic, version, len(blob)) + blob + bytes(raw[payload_start:])
    path.write_bytes(rebuilt)
    with pytest.raises(IntegrityError, match="corrupted codes"):
        load_pack(path)


def test_storage_ratio_prune_exact():
    line = storage_ratio((4096, 4096), PruneStrategy(alpha=0.5, value_bits=4))
    assert line.ratio_value_only == 0.125
    # overhead: ceil(log2(N)) bits per index + 32 per row scale
    n = 4096 * 4096
    retained = n // 2
    assert line.stored_overhead_bits == retained * 24 + 32 * 4096


def test_storage_ratio_svd_small_example():
    # 4x4, rank 2, one 8-bit group: value bits = 2*(4+4)*8 + 32*2 = 192
    line = storage_ratio((4, 4), SvdQuantStrategy(rank=2, groups=(BitGroup(0, 2, 8),)))
    assert line.stored_value_bits == 192
    assert line.ratio_value_only == 192 / 256
    assert (line.stored_value_bits - 32 * 2) / (16 * 16) == 0.5  # codes only
    assert line.stored_overhead_bits == 32 * 4


def test_storage_ratio_default_plan_rows():
    plan = default_plan()
    mlp = storage_ratio((4096, 14336), plan.strategies[ModuleClass.MLP])
    attn = storage_ratio((4096, 4096), plan.strategies[ModuleClass.ATTENTION])
    mlp_expected = Fraction(1400 * (4096 + 14336) * 3100 // 1400 + 32 * 1400, 16 * 4096 * 14336)
    attn_expected = Fraction(1000 * (4096 + 4096) * 2120 // 1000 + 32 * 1000, 16 * 4096 * 4096)
    assert abs(mlp.ratio_value_only - float(mlp_expected)) < 1e-12
    assert abs(attn.ratio_value_only - float(attn_expected)) < 1e-12


def test_storage_ratio_rank_clamps():
    strat = SvdQuantStrategy(rank=1000, groups=(BitGroup(0, 20, 8), BitGroup(20, 1000, 2)))
    line = storage_ratio((16, 64), strat)
    assert line.stored_value_bits == 16 * (16 + 64) * 8 + 32 * 16  # all 16 vectors in the 8-bit group


@pytest.mark.parametrize("shape, strategy, error", [
    ((8,), PruneStrategy(alpha=0.5), ValueError),
    ((8,), SvdQuantStrategy(rank=2, groups=(BitGroup(0, 2, 8),)), ValueError),
    ((4, 4), "svd", TypeError),
], ids=["prune-1d", "svd-1d", "unknown-strategy"])
def test_storage_ratio_refuses_what_it_cannot_price(shape, strategy, error):
    with pytest.raises(error, match="2-D shapes|unknown strategy 'svd'"):
        storage_ratio(shape, strategy)


def test_storage_ratio_dense_is_two():
    assert storage_ratio((7, 3), DenseStrategy()).ratio_value_only == 2.0


def test_ratio_total_dominates_and_decreases_with_bits():
    shape = (64, 96)
    hi = storage_ratio(shape, SvdQuantStrategy(rank=16, groups=(BitGroup(0, 16, 8),)))
    lo = storage_ratio(shape, SvdQuantStrategy(rank=16, groups=(BitGroup(0, 16, 4),)))
    for line in (hi, lo):
        assert line.ratio_total >= line.ratio_value_only
    assert lo.ratio_value_only < hi.ratio_value_only
    assert lo.ratio_total < hi.ratio_total


def test_entry_stats_matches_storage_ratio_closed_form():
    rng = np.random.default_rng(0)
    entry = random_entry(rng, "pruned")
    line = entry_stats(entry)
    n = entry.shape[0] * entry.shape[1]
    assert line.stored_value_bits == len(entry.codes) * entry.value_bits
    dense = random_entry(rng, "dense")
    assert entry_stats(dense).ratio_value_only == 2.0


def test_pack_stats_empty():
    stats = pack_stats({})
    assert stats.total.original_bits == 0
    assert stats.total.ratio_total == 0.0


def test_statline_addition():
    a = StatLine(16, 4, 2)
    b = StatLine(32, 8, 4)
    c = a + b
    assert (c.original_bits, c.stored_value_bits, c.stored_overhead_bits) == (48, 12, 6)


def test_inspect_empty_pack():
    pack = SkillPack("b", "t", "", {}, {})
    report = inspect_pack(pack)
    assert "entries: 0" in report
    assert "ratio_total=0.0000%" in report


def test_inspect_dense_only_is_200_percent():
    entry = DenseEntry(shape=(3, 3), mclass=ModuleClass.PASSTHROUGH, values=np.ones((3, 3), np.float32))
    pack = SkillPack("b", "t", "", {}, {"x": entry})
    assert "ratio_value=200.0000%" in inspect_pack(pack)


def test_inspect_rows_match_storage_ratio():
    pack = random_pack(8)
    report = inspect_pack(pack)
    for cls in ModuleClass:
        line = pack.stats.per_class[cls.value]
        assert f"{cls.value}: original_bits={line.original_bits}" in report


def test_reconstruct_dense_exact():
    values = np.random.default_rng(1).standard_normal((4, 4)).astype(np.float32)
    entry = DenseEntry(shape=(4, 4), mclass=ModuleClass.PASSTHROUGH, values=values)
    assert np.array_equal(entry.reconstruct(), values)


def test_reconstruct_pruned_places_values():
    entry = PrunedSparseEntry(
        shape=(2, 3), mclass=ModuleClass.EMBEDDING_OR_HEAD, alpha=1 / 3, value_bits=4,
        indices=np.array([1, 5], dtype=np.int64),
        codes=np.array([7, -3], dtype=np.int32),
        scales=np.array([0.5, 2.0], dtype=np.float32),
    )
    dense = entry.reconstruct()
    assert dense[0, 1] == np.float32(3.5)
    assert dense[1, 2] == np.float32(-6.0)
    assert np.count_nonzero(dense) == 2


def test_inspect_report_pinned():
    pack = SkillPack("base-m", "tuned-m", "math", {}, {
        "model.norm.weight": DenseEntry(shape=(3,), mclass=ModuleClass.PASSTHROUGH,
                                        values=np.zeros(3, np.float32)),
        "lm_head.weight": PrunedSparseEntry(
            shape=(4, 8), mclass=ModuleClass.EMBEDDING_OR_HEAD, alpha=0.25, value_bits=4,
            indices=np.arange(0, 32, 4, dtype=np.int64), codes=np.ones(8, np.int32),
            scales=np.ones(4, np.float32)),
        "mlp.up_proj.weight": QuantizedSvdEntry(
            shape=(6, 5), mclass=ModuleClass.MLP, rank=3,
            groups=(BitGroup(0, 1, 8), BitGroup(1, 3, 3)), sigma=np.ones(3, np.float32),
            u_codes=np.zeros((6, 3), np.int32), u_scales=np.ones(3, np.float32),
            v_codes=np.zeros((3, 5), np.int32), v_scales=np.ones(3, np.float32)),
    })
    assert inspect_pack(pack) == "\n".join([
        "SkillPack  base='base-m'  tuned='tuned-m'  tag='math'",
        "entries: 3",
        "  model.norm.weight  kind=dense  class=passthrough  shape=3"
        "  ratio_value=200.0000%  ratio_total=200.0000%",
        "  lm_head.weight  kind=pruned_sparse  class=embedding_or_head  shape=4x8"
        "  alpha=0.25  value_bits=4  retained=8  ratio_value=6.2500%  ratio_total=39.0625%",
        "  mlp.up_proj.weight  kind=quantized_svd  class=mlp  shape=6x5"
        "  rank=3  groups=[0:1@8b, 1:3@3b]  ratio_value=52.0833%  ratio_total=92.0833%",
        "per-class storage:",
        "  embedding_or_head: original_bits=512  value_bits=32  overhead_bits=168"
        "  ratio_value=6.2500%  ratio_total=39.0625%",
        "  mlp: original_bits=480  value_bits=250  overhead_bits=192"
        "  ratio_value=52.0833%  ratio_total=92.0833%",
        "  attention: original_bits=0  value_bits=0  overhead_bits=0"
        "  ratio_value=0.0000%  ratio_total=0.0000%",
        "  passthrough: original_bits=48  value_bits=96  overhead_bits=0"
        "  ratio_value=200.0000%  ratio_total=200.0000%",
        "total: original_bits=1040  value_bits=378  overhead_bits=360"
        "  ratio_value=36.3462%  ratio_total=70.9615%",
    ])


def test_saved_pack_bytes_pinned(tmp_path):
    """Header key order, blob order and bytes of a .skpk file, one entry of each kind, stay as first written."""
    entries = {
        "model.norm.weight": DenseEntry(shape=(2, 3), mclass=ModuleClass.PASSTHROUGH,
                                        values=np.linspace(-1.0, 1.5, 6, dtype=np.float32).reshape(2, 3)),
        "lm_head.weight": PrunedSparseEntry(
            shape=(4, 6), mclass=ModuleClass.EMBEDDING_OR_HEAD, alpha=0.25, value_bits=4,
            indices=np.array([0, 1, 5, 7, 20, 23], np.int64), codes=np.array([1, -3, 7, 0, -7, 2], np.int32),
            scales=np.array([0.5, 0.25, 1.0, 0.125], np.float32)),
        "mlp.up_proj.weight": QuantizedSvdEntry(
            shape=(6, 5), mclass=ModuleClass.MLP, rank=3,
            groups=(BitGroup(0, 1, 8), BitGroup(1, 3, 3)), sigma=np.array([4.0, 2.0, 0.5], np.float32),
            u_codes=(np.arange(18, dtype=np.int32).reshape(6, 3) % 7 - 3) * np.array([30, 1, 1], np.int32),
            u_scales=np.array([0.01, 0.2, 0.3], np.float32),
            v_codes=(np.arange(15, dtype=np.int32).reshape(3, 5) % 5 - 2) * np.array([[50], [1], [1]], np.int32),
            v_scales=np.array([0.02, 0.4, 0.6], np.float32)),
    }
    assert {entry.kind for entry in entries.values()} == set(_KINDS)
    path = tmp_path / "k.skpk"
    save_pack(SkillPack("base-m", "tuned-m", "math", {"damping": 0.01}, entries), path)
    raw = path.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == "62ac48448f2d5a4808f2f0e0557006cac670609d899cfeb23c6f7aea9e0d0f0f"
    header = json.loads(raw[16 : 16 + struct.unpack_from("<Q", raw, 8)[0]])
    for head in header["entries"]:
        assert [blob["role"] for blob in head["blobs"]] == list(_KINDS[head["kind"]].roles)
    loaded = load_pack(path).entries
    assert list(loaded) == list(entries) and all(entries_equal(loaded[name], e) for name, e in entries.items())


def _pruned(**change):
    fields = dict(
        shape=(2, 3), mclass=ModuleClass.EMBEDDING_OR_HEAD, alpha=0.5, value_bits=4,
        indices=np.array([1, 5], dtype=np.int64), codes=np.array([7, -3], dtype=np.int32),
        scales=np.ones(2, dtype=np.float32),
    )
    return PrunedSparseEntry(**{**fields, **change})


def _svd(**change):
    fields = dict(
        shape=(3, 2), mclass=ModuleClass.MLP, rank=2, groups=(BitGroup(0, 2, 8),),
        sigma=np.ones(2, np.float32), u_codes=np.zeros((3, 2), np.int32), u_scales=np.ones(2, np.float32),
        v_codes=np.zeros((2, 2), np.int32), v_scales=np.ones(2, np.float32),
    )
    return QuantizedSvdEntry(**{**fields, **change})


@pytest.mark.parametrize("build", [
    lambda: DenseEntry(shape=(4, 4), mclass=ModuleClass.PASSTHROUGH, values=np.ones((1, 4), np.float32)),
    lambda: _pruned(indices=np.array([5, 1], dtype=np.int64)),
    lambda: _pruned(indices=np.array([1, 1], dtype=np.int64)),
    lambda: _pruned(indices=np.array([1, 6], dtype=np.int64)),
    lambda: _pruned(indices=np.array([-1, 5], dtype=np.int64)),
    lambda: _pruned(codes=np.array([7], dtype=np.int32)),
    lambda: _pruned(scales=np.ones(3, dtype=np.float32)),
    lambda: _pruned(value_bits=17),
    lambda: _svd(rank=3, groups=(BitGroup(0, 3, 8),), sigma=np.ones(3, np.float32),
                 u_codes=np.zeros((3, 3), np.int32), u_scales=np.ones(3, np.float32),
                 v_codes=np.zeros((3, 2), np.int32), v_scales=np.ones(3, np.float32)),
    lambda: _svd(u_codes=np.zeros((2, 2), np.int32)),
    lambda: _svd(v_codes=np.zeros((2, 3), np.int32)),
    lambda: _svd(sigma=np.ones(3, np.float32)),
    lambda: _pruned(alpha=7.0),
    lambda: _pruned(alpha=float("nan")),
], ids=[
    "dense-values-shape", "pruned-unsorted", "pruned-repeated", "pruned-past-end", "pruned-negative",
    "pruned-codes-per-index", "pruned-scales-per-row", "pruned-value-bits-17",
    "svd-rank-above-min-shape", "svd-u-codes-shape", "svd-v-codes-shape", "svd-sigma-length",
    "pruned-alpha-7", "pruned-alpha-nan",
])
def test_broken_entry_is_rejected_when_built(build):
    with pytest.raises(ValueError):
        build()


def test_nonfinite_entry_is_refused_on_save_and_keeps_previous_file(tmp_path):
    # an entry's arrays are read-only, but memory they view that another object can write is not
    path = tmp_path / "p.skpk"
    save_pack(random_pack(1), path)
    before = path.read_bytes()
    memory = bytearray(np.ones(2, np.float32).tobytes())
    entry = _svd(sigma=np.frombuffer(memory, np.float32))
    memory[4:] = np.float32(np.nan).tobytes()
    with pytest.raises(ValueError, match=r"entry 'mlp.weight' blob 'sigma': non-finite"):
        save_pack(SkillPack("b", "t", "", {}, {"mlp.weight": entry}), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["p.skpk"]


def test_nonfinite_plan_snapshot_is_refused_on_save_and_keeps_previous_file(tmp_path):
    path = tmp_path / "p.skpk"
    save_pack(random_pack(1), path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_pack(SkillPack("b", "t", "", {"damping": float("nan")}, {"mlp.weight": _svd()}), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["p.skpk"]


def test_a_plan_snapshot_json_cannot_hold_is_refused_on_save_and_keeps_previous_file(tmp_path):
    path = tmp_path / "p.skpk"
    save_pack(random_pack(1), path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="header is not JSON: Object of type ndarray is not JSON serializable"):
        save_pack(SkillPack("b", "t", "", {"scales": np.ones(2)}, {"mlp.weight": _svd()}), path)
    # JSON would give an int key back as a str and a tuple as a list
    for snapshot, back in (({1: "a"}, {"1": "a"}), ({"k": (1, 2)}, {"k": [1, 2]})):
        message = f"pack field 'plan_snapshot' would load back different, as {back!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            save_pack(SkillPack("b", "t", "", snapshot, {"mlp.weight": _svd()}), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["p.skpk"]


def test_a_big_endian_blob_is_read_back_native_read_only_and_equal():
    values = np.array([1.5, -2.25, 3e38, 0.0], np.float32)
    payload = container_module.Payload()
    meta = payload.add(values.astype(">f4"))  # `add_array` writes little-endian; these bytes are big-endian
    out = container_module.read_array(memoryview(b"".join(bytes(part) for part in payload.parts)), meta, ">f4")
    assert out.dtype == np.float32 and out.dtype.isnative and not out.flags.writeable
    assert np.array_equal(out, values)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_json_constant_in_header_is_format_error(tmp_path, value):
    path = _svd_pack_file(tmp_path)
    _rewrite_header(path, lambda header: header["plan"].update(damping=value))
    with pytest.raises(FormatError, match="not valid JSON"):
        load_pack(path)
