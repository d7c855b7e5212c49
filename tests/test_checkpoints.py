import numpy as np
import pytest

from skillpack.checkpoints import (
    Checkpoint,
    apply_pack,
    diff,
    load_checkpoint,
    load_delta,
    save_checkpoint,
    save_delta,
)
from skillpack.classify import ModuleClass, classify, default_manifest, ClassificationManifest
from skillpack.errors import FormatError, IntegrityError
from skillpack.packs import DenseEntry, SkillPack


def small_checkpoint(seed=0, model_id="m") -> Checkpoint:
    rng = np.random.default_rng(seed)
    return Checkpoint(
        model_id=model_id,
        tensors={
            "a.weight": rng.standard_normal((4, 6)).astype(np.float32),
            "b.weight": rng.standard_normal((3,)).astype(np.float16),
        },
    )


def payload_bytes(path) -> bytes:
    import struct

    raw = open(path, "rb").read()
    _, _, header_len = struct.unpack_from("<4sIQ", raw)
    return raw[16 + header_len :]


def test_roundtrip_bytes(tmp_path):
    ckpt = small_checkpoint()
    p1 = tmp_path / "a.gltc"
    p2 = tmp_path / "b.gltc"
    save_checkpoint(ckpt, p1)
    loaded = load_checkpoint(p1)
    assert loaded.model_id == "m"
    for name in ckpt.tensors:
        assert loaded.tensors[name].dtype == ckpt.tensors[name].dtype
        assert np.array_equal(loaded.tensors[name], ckpt.tensors[name])
    save_checkpoint(loaded, p2)
    assert payload_bytes(p1) == payload_bytes(p2)


def test_empty_checkpoint(tmp_path):
    path = tmp_path / "e.gltc"
    save_checkpoint(Checkpoint(model_id="empty"), path)
    loaded = load_checkpoint(path)
    assert loaded.model_id == "empty"
    assert loaded.tensors == {}


def test_flipped_payload_bit_names_tensor(tmp_path):
    path = tmp_path / "c.gltc"
    save_checkpoint(small_checkpoint(), path)
    raw = bytearray(open(path, "rb").read())
    raw[-1] ^= 0x01
    open(path, "wb").write(bytes(raw))
    with pytest.raises(IntegrityError, match="b.weight"):
        load_checkpoint(path)


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.gltc"
    save_checkpoint(small_checkpoint(), path)
    raw = bytearray(open(path, "rb").read())
    good = bytes(raw)

    raw[0] = ord("X")
    open(path, "wb").write(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)

    raw = bytearray(good)
    raw[4] = 9
    open(path, "wb").write(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "t.gltc"
    save_checkpoint(small_checkpoint(), path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[: len(raw) - 7])
    with pytest.raises((FormatError, IntegrityError)):
        load_checkpoint(path)


def test_duplicate_names_rejected(tmp_path):
    import json
    import struct

    path = tmp_path / "d.gltc"
    save_checkpoint(Checkpoint(model_id="m", tensors={"x": np.zeros((2,), np.float32)}), path)
    raw = open(path, "rb").read()
    _, version, header_len = struct.unpack_from("<4sIQ", raw)
    header = json.loads(raw[16 : 16 + header_len])
    header["tensors"].append(dict(header["tensors"][0]))
    blob = json.dumps(header).encode()
    open(path, "wb").write(struct.pack("<4sIQ", b"GLTC", version, len(blob)) + blob + raw[16 + header_len :])
    with pytest.raises(FormatError, match="duplicate"):
        load_checkpoint(path)


def test_nonfinite_rejected_on_save(tmp_path):
    bad = Checkpoint(model_id="m", tensors={"x": np.array([np.inf], dtype=np.float32)})
    with pytest.raises(ValueError, match="non-finite"):
        save_checkpoint(bad, tmp_path / "x.gltc")


def test_diff_identity():
    ckpt = small_checkpoint()
    d = diff(ckpt, ckpt)
    assert all(np.all(v == 0) for v in d.deltas.values())
    assert d.base_id == d.tuned_id == "m"


def test_diff_name_mismatch_lists_symmetric_difference():
    a = Checkpoint(model_id="a", tensors={"x": np.zeros((2,), np.float32), "y": np.zeros((2,), np.float32)})
    b = Checkpoint(model_id="b", tensors={"x": np.zeros((2,), np.float32), "z": np.zeros((2,), np.float32)})
    with pytest.raises(ValueError) as excinfo:
        diff(a, b)
    assert "y" in str(excinfo.value) and "z" in str(excinfo.value)


def test_diff_shape_mismatch():
    a = Checkpoint(model_id="a", tensors={"x": np.zeros((2, 2), np.float32)})
    b = Checkpoint(model_id="b", tensors={"x": np.zeros((2, 3), np.float32)})
    with pytest.raises(ValueError, match="shape"):
        diff(a, b)


def test_delta_file_roundtrip(tmp_path):
    base = small_checkpoint(seed=0)
    tuned = small_checkpoint(seed=1, model_id="m2")
    d = diff(base, tuned)
    path = tmp_path / "d.gltc"
    save_delta(d, path)
    loaded = load_delta(path)
    assert loaded.base_id == "m" and loaded.tuned_id == "m2"
    for name in d.deltas:
        assert np.array_equal(loaded.deltas[name], d.deltas[name])
    with pytest.raises(FormatError, match="delta"):
        save_checkpoint(base, tmp_path / "c.gltc")
        load_delta(tmp_path / "c.gltc")


def test_classify_default_manifest():
    manifest = default_manifest()
    assert classify("model.embed_tokens.weight", manifest) is ModuleClass.EMBEDDING_OR_HEAD
    assert classify("lm_head.weight", manifest) is ModuleClass.EMBEDDING_OR_HEAD
    assert classify("model.layers.0.mlp.gate_proj.weight", manifest) is ModuleClass.MLP
    assert classify("model.layers.3.self_attn.q_proj.weight", manifest) is ModuleClass.ATTENTION
    assert classify("model.layers.0.input_layernorm.weight", manifest) is ModuleClass.PASSTHROUGH
    assert classify("anything.else", manifest) is ModuleClass.PASSTHROUGH


def test_classify_first_match_wins_and_globs():
    manifest = ClassificationManifest(
        rules=(("*.bias", ModuleClass.PASSTHROUGH), ("attn", ModuleClass.ATTENTION)),
        default=ModuleClass.MLP,
    )
    assert classify("x.attn.bias", manifest) is ModuleClass.PASSTHROUGH
    assert classify("x.attn.weight", manifest) is ModuleClass.ATTENTION
    assert classify("plain", manifest) is ModuleClass.MLP


def test_classify_empty_manifest_uses_default():
    manifest = ClassificationManifest(rules=(), default=ModuleClass.ATTENTION)
    assert classify("whatever", manifest) is ModuleClass.ATTENTION


def zero_pack(base: Checkpoint, names=None) -> SkillPack:
    entries = {}
    for name, arr in base.tensors.items():
        if names is not None and name not in names:
            continue
        entries[name] = DenseEntry(
            shape=tuple(arr.shape), mclass=ModuleClass.PASSTHROUGH, values=np.zeros(arr.shape, np.float32)
        )
    return SkillPack(
        base_model_id=base.model_id, tuned_model_id="t", task_tag="", plan_snapshot={}, entries=entries
    )


def bit_equal(a: Checkpoint, b: Checkpoint) -> bool:
    if a.tensors.keys() != b.tensors.keys():
        return False
    for name in a.tensors:
        x, y = a.tensors[name], b.tensors[name]
        if x.dtype != y.dtype or not np.array_equal(x.view(np.uint8), y.view(np.uint8)):
            return False
    return True


def test_apply_zero_pack_is_identity():
    base = small_checkpoint()
    base.tensors["a.weight"][0, 0] = np.float32(-0.0)  # sign of zero must survive
    out = apply_pack(base, zero_pack(base), scale=1.0)
    assert bit_equal(out, base)


def test_apply_scale_zero_is_identity():
    base = small_checkpoint()
    pack = zero_pack(base)
    pack.entries["a.weight"].values += 5.0
    out = apply_pack(base, pack, scale=0.0)
    assert bit_equal(out, base)


def test_apply_never_mutates_base():
    base = small_checkpoint()
    before = {k: v.copy() for k, v in base.tensors.items()}
    pack = zero_pack(base)
    pack.entries["a.weight"].values += 1.0
    apply_pack(base, pack, scale=2.0)
    assert bit_equal(base, Checkpoint(model_id="m", tensors=before))


def test_apply_uncovered_names_copied_bit_exact():
    base = small_checkpoint()
    pack = zero_pack(base, names=["a.weight"])
    pack.entries["a.weight"].values += 1.0
    out = apply_pack(base, pack)
    assert np.array_equal(out.tensors["b.weight"].view(np.uint8), base.tensors["b.weight"].view(np.uint8))
    assert np.allclose(out.tensors["a.weight"], base.tensors["a.weight"] + 1.0)


def test_apply_model_id_checked_and_forced():
    base = small_checkpoint()
    pack = zero_pack(base)
    pack.base_model_id = "other"
    with pytest.raises(ValueError, match="force"):
        apply_pack(base, pack)
    out = apply_pack(base, pack, force=True)
    assert bit_equal(out, base)


def test_apply_shape_mismatch():
    base = small_checkpoint()
    pack = zero_pack(base)
    pack.entries["a.weight"].values = np.zeros((2, 2), np.float32)
    pack.entries["a.weight"].shape = (2, 2)
    with pytest.raises(ValueError, match="shape"):
        apply_pack(base, pack)


def test_untagged_pack_labelled_in_errors():
    base = small_checkpoint()
    pack = zero_pack(base)
    pack.entries["a.weight"].shape = (2, 2)
    with pytest.raises(ValueError, match=r"^pack <untagged> entry 'a.weight' shape \(2, 2\) does not match"):
        apply_pack(base, pack)
    pack.task_tag = "math"
    with pytest.raises(ValueError, match=r"^pack 'math' entry 'a.weight'"):
        apply_pack(base, pack)


def test_failed_write_keeps_previous_file(tmp_path):
    from skillpack import container

    path = tmp_path / "a.gltc"
    save_checkpoint(small_checkpoint(), path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        # the prefix and header are written before the payload write fails
        container.write_container(path, b"GLTC", 1, {"note": "partial"}, "not bytes")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.gltc"]
    save_checkpoint(small_checkpoint(seed=1), path)
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == ["a.gltc"]
