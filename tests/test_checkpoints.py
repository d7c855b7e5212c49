import re
from dataclasses import replace

import numpy as np
import pytest

from skillpack.checkpoints import (
    Checkpoint,
    apply_pack,
    compose,
    diff,
    load_checkpoint,
    load_delta,
    save_checkpoint,
    save_delta,
)
from skillpack.classify import ModuleClass, classify, default_manifest, ClassificationManifest
from skillpack.errors import CompatibilityError, FormatError, IntegrityError, SkillPackError
from skillpack.compress import compress_delta
from skillpack.packs import DenseEntry, PrunedSparseEntry, SkillPack, load_pack, save_pack
from skillpack.toy import ToySpec, budget_plan, gen_toy, toy_param_shapes


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

    raw = path.read_bytes()
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
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match="b.weight"):
        load_checkpoint(path)


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.gltc"
    save_checkpoint(small_checkpoint(), path)
    raw = bytearray(path.read_bytes())
    good = bytes(raw)

    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)

    raw = bytearray(good)
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "t.gltc"
    save_checkpoint(small_checkpoint(), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises((FormatError, IntegrityError)):
        load_checkpoint(path)


def test_a_header_that_is_json_but_not_an_object_is_format_error(tmp_path):
    path = tmp_path / "h.gltc"
    save_checkpoint(small_checkpoint(), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:8] + (3).to_bytes(8, "little") + b"[1]")
    with pytest.raises(FormatError, match="header must be a JSON object"):
        load_checkpoint(path)


def test_duplicate_names_rejected(tmp_path):
    path = tmp_path / "d.gltc"
    save_checkpoint(Checkpoint(model_id="m", tensors={"x": np.zeros((2,), np.float32)}), path)
    rewrite_header(path, lambda header: header["tensors"].append(dict(header["tensors"][0])))
    with pytest.raises(FormatError, match="duplicate"):
        load_checkpoint(path)


def rewrite_header(path, mutate) -> None:
    """Re-encode a .gltc header after `mutate(header)`; payload offsets are relative, so they stay valid."""
    import json
    import struct

    raw = path.read_bytes()
    _, version, header_len = struct.unpack_from("<4sIQ", raw)
    header = json.loads(raw[16 : 16 + header_len])
    mutate(header)
    blob = json.dumps(header).encode()
    path.write_bytes(struct.pack("<4sIQ", b"GLTC", version, len(blob)) + blob + raw[16 + header_len :])


def _set_first(key, value):
    return lambda header: header["tensors"][0].__setitem__(key, value)


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda header: header["tensors"][0].pop("name"), r"tensor #0: header field 'name' must be str, got missing"),
        (_set_first("shape", "ab"), r"tensor 'a.weight': header field 'shape' must be list, got str"),
        (_set_first("shape", [-2, -3]), r"tensor 'a.weight': header field 'shape' must be some non-negative ints"),
        (lambda header: header.__setitem__("tensors", [1]), r"tensor #0: header must be a JSON object"),
        (_set_first("offset", "0"), r"tensor 'a.weight': malformed blob metadata"),
        (lambda header: header.__setitem__("tensors", {}), r"header field 'tensors' must be a list"),
        (lambda header: header.__setitem__("model_id", [1, 2]), r"header field 'model_id' must be str, got list"),
        (lambda header: header.pop("model_id"), r"header field 'model_id' must be str, got missing"),
        (lambda header: header.pop("tensors"), r"header field 'tensors' must be a list"),
    ],
    ids=[
        "missing-name", "string-shape", "negative-shape", "non-object-entry", "string-offset", "non-list-tensors",
        "list-model-id", "missing-model-id", "missing-tensors",
    ],
)
def test_malformed_tensor_header_is_format_error(tmp_path, mutate, match):
    path = tmp_path / "h.gltc"
    save_checkpoint(small_checkpoint(), path)
    rewrite_header(path, mutate)
    with pytest.raises(FormatError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value", [("delta_base_id", {"x": 1}), ("delta_tuned_id", 5), ("delta_base_id", None)])
def test_ill_typed_delta_id_is_format_error(tmp_path, field, value):
    path = tmp_path / "d.gltc"
    save_delta(diff(small_checkpoint(), small_checkpoint(seed=1, model_id="m2")), path)
    rewrite_header(path, lambda header: header.__setitem__(field, value))
    with pytest.raises(FormatError, match=f"header field '{field}' must be str"):
        load_delta(path)


def test_loaded_tensors_are_read_only_and_bit_equal(tmp_path):
    base, tuned = small_checkpoint(), small_checkpoint(seed=1, model_id="m2")
    delta = diff(base, tuned)
    save_checkpoint(base, tmp_path / "c.gltc")
    save_delta(delta, tmp_path / "d.gltc")
    pairs = [(load_checkpoint(tmp_path / "c.gltc").tensors, base.tensors),
             (load_delta(tmp_path / "d.gltc").deltas, delta.deltas)]
    for loaded, saved in pairs:
        assert list(loaded) == list(saved)
        for name, arr in loaded.items():
            assert arr.dtype == saved[name].dtype and arr.shape == saved[name].shape
            assert arr.tobytes() == saved[name].tobytes()
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0


def test_loaded_tensors_outlive_their_file(tmp_path):
    path = tmp_path / "c.gltc"
    saved = small_checkpoint()
    save_checkpoint(saved, path)
    old = load_checkpoint(path)
    save_checkpoint(small_checkpoint(seed=1, model_id="other"), path)  # replaces the file
    assert load_checkpoint(path).model_id == "other"
    path.unlink()
    for name, arr in old.tensors.items():
        assert arr.tobytes() == saved.tensors[name].tobytes()


@pytest.mark.parametrize("loader", [load_checkpoint, load_delta, load_pack])
def test_empty_file_is_format_error(tmp_path, loader):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    with pytest.raises(FormatError, match="file too short"):
        loader(path)


def test_load_maps_the_file_instead_of_copying_it(tmp_path):
    import tracemalloc

    ckpt = Checkpoint(model_id="m", tensors={"w": np.arange(2048 * 2048, dtype=np.float32).reshape(2048, 2048)})
    save_checkpoint(ckpt, tmp_path / "big.gltc")  # 16 MB
    tracemalloc.start()
    try:
        loaded = load_checkpoint(tmp_path / "big.gltc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.array_equal(loaded.tensors["w"], ckpt.tensors["w"])


def test_nonfinite_tensor_on_load_is_integrity_error(tmp_path):
    import zlib

    path = tmp_path / "n.gltc"
    save_checkpoint(Checkpoint(model_id="m", tensors={"x": np.zeros(2, np.float32)}), path)
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.array([np.nan], "<f4").tobytes()  # the payload is x's 8 bytes, at the end
    path.write_bytes(bytes(raw))
    rewrite_header(path, _set_first("crc32", zlib.crc32(bytes(raw[-8:]))))
    with pytest.raises(IntegrityError, match="tensor 'x': non-finite"):
        load_checkpoint(path)


def test_a_float64_tensor_is_refused_on_save(tmp_path):
    path = tmp_path / "x.gltc"
    with pytest.raises(ValueError, match=re.escape("tensor 'x' has unsupported dtype float64; use float32 or float16")):
        save_checkpoint(Checkpoint(model_id="m", tensors={"x": np.zeros(2)}), path)
    assert not path.exists()


def test_nonfinite_rejected_on_save(tmp_path):
    bad = Checkpoint(model_id="m", tensors={"x": np.array([np.inf], dtype=np.float32)})
    with pytest.raises(ValueError, match="non-finite"):
        save_checkpoint(bad, tmp_path / "x.gltc")


def test_save_checkpoint_does_not_copy_the_tensor(tmp_path):
    import tracemalloc

    ckpt = Checkpoint(model_id="m", tensors={"w": np.ones((2048, 2048), np.float32)})  # 16 MB
    tracemalloc.start()
    try:
        save_checkpoint(ckpt, tmp_path / "big.gltc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert np.array_equal(load_checkpoint(tmp_path / "big.gltc").tensors["w"], ckpt.tensors["w"])


def test_diff_identity():
    ckpt = small_checkpoint()
    d = diff(ckpt, ckpt)
    assert all(np.all(v == 0) for v in d.deltas.values())
    assert d.base_id == d.tuned_id == "m"


def test_diff_is_the_float32_difference_of_any_float_operands():
    rng = np.random.default_rng(2)
    pairs = [(b, t) for b in ("float16", "float32", "float64") for t in ("float16", "float32", "float64")]
    base = Checkpoint("a", {f"{b}-{t}": rng.standard_normal((3, 5)).astype(b) for b, t in pairs})
    tuned = Checkpoint("b", {f"{b}-{t}": rng.standard_normal((3, 5)).astype(t) for b, t in pairs})
    for name, delta in diff(base, tuned).deltas.items():
        want = tuned.tensors[name].astype(np.float32) - base.tensors[name].astype(np.float32)
        assert delta.dtype == np.float32 and delta.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("fields", [
    {"rules": ((5, ModuleClass.MLP),)}, {"rules": (("mlp",),)}, {"rules": (("mlp", "nonsense"),)},
    {"default": "nonsense"},
])
def test_manifest_is_checked_when_built(fields):
    with pytest.raises(ValueError):
        ClassificationManifest(**fields)


def test_manifest_from_dict_reads_its_json_form():
    manifest = ClassificationManifest.from_dict({"rules": [["*.bias", "passthrough"], ["attn", "attention"]],
                                                 "default": "mlp"})
    assert manifest == ClassificationManifest(
        rules=(("*.bias", ModuleClass.PASSTHROUGH), ("attn", ModuleClass.ATTENTION)), default=ModuleClass.MLP)
    assert ClassificationManifest.from_dict({}) == ClassificationManifest()
    with pytest.raises(TypeError):
        ClassificationManifest.from_dict({"rules": [], "defualt": "mlp"})


def zero_pack(base: Checkpoint, names=None, fill=0.0, task_tag="") -> SkillPack:
    """Dense entries of `fill` for the base's tensors (or those in `names`)."""
    entries = {}
    for name, arr in base.tensors.items():
        if names is not None and name not in names:
            continue
        entries[name] = DenseEntry(
            shape=tuple(arr.shape), mclass=ModuleClass.PASSTHROUGH, values=np.full(arr.shape, fill, np.float32)
        )
    return SkillPack(
        base_model_id=base.model_id, tuned_model_id="t", task_tag=task_tag, plan_snapshot={}, entries=entries
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
    pack = zero_pack(base, fill=5.0)
    out = apply_pack(base, pack, scale=0.0)
    assert bit_equal(out, base)


@pytest.mark.parametrize("weight", [float("inf"), -float("inf"), float("nan"), 1e39])
def test_compose_refuses_a_weight_not_finite_in_float32(monkeypatch, weight):
    base = small_checkpoint()
    pack = zero_pack(base, task_tag="skill")

    def reconstruct(self):
        raise AssertionError("reconstructed before the weight was checked")

    monkeypatch.setattr(DenseEntry, "reconstruct", reconstruct)
    if np.isfinite(weight):  # a finite number past the float32 range
        message = "pack 'skill' weight must be finite in float32"
    else:
        message = f"pack 'skill' weight must be a finite number, got {weight!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        apply_pack(base, pack, scale=weight)


@pytest.mark.parametrize("weight", ["2", True])
def test_compose_refuses_a_weight_that_is_not_a_number(weight):
    base = small_checkpoint()
    pack = zero_pack(base, task_tag="skill")
    message = f"pack 'skill' weight {weight!r} is not a number (an int or a float)"
    with pytest.raises(ValueError, match=re.escape(message)):
        apply_pack(base, pack, scale=weight)
    with pytest.raises(ValueError, match=re.escape(message)):
        compose(base, [("skill", pack, weight)])


def test_apply_never_mutates_base():
    base = small_checkpoint()
    before = {k: v.copy() for k, v in base.tensors.items()}
    pack = zero_pack(base, fill=1.0)
    apply_pack(base, pack, scale=2.0)
    assert bit_equal(base, Checkpoint(model_id="m", tensors=before))


def test_apply_uncovered_names_copied_bit_exact():
    base = small_checkpoint()
    pack = zero_pack(base, names=["a.weight"], fill=1.0)
    out = apply_pack(base, pack)
    assert np.array_equal(out.tensors["b.weight"].view(np.uint8), base.tensors["b.weight"].view(np.uint8))
    assert np.allclose(out.tensors["a.weight"], base.tensors["a.weight"] + 1.0)


def test_apply_model_id_checked_and_forced():
    base = small_checkpoint()
    pack = replace(zero_pack(base), base_model_id="other")
    with pytest.raises(ValueError, match="force"):
        apply_pack(base, pack)
    out = apply_pack(base, pack, force=True)
    assert bit_equal(out, base)


def test_compose_mismatch_is_compatibility_error():
    base = small_checkpoint()
    wrong_base, missing, wrong_shape = replace(zero_pack(base), base_model_id="other"), zero_pack(base), zero_pack(base)
    missing.entries["z.weight"] = missing.entries.pop("a.weight")
    wrong_shape.entries["a.weight"] = DenseEntry((2, 2), ModuleClass.MLP, np.zeros((2, 2), np.float32))
    for pack in (wrong_base, missing, wrong_shape):
        with pytest.raises(SkillPackError) as excinfo:
            apply_pack(base, pack)
        assert isinstance(excinfo.value, CompatibilityError) and isinstance(excinfo.value, ValueError)


def test_apply_shape_mismatch():
    base = small_checkpoint()
    pack = zero_pack(base)
    pack.entries["a.weight"] = DenseEntry((2, 2), ModuleClass.PASSTHROUGH, np.zeros((2, 2), np.float32))
    with pytest.raises(ValueError, match="shape"):
        apply_pack(base, pack)


def test_untagged_pack_labelled_in_errors():
    base = small_checkpoint()
    pack = zero_pack(base)
    pack.entries["a.weight"] = DenseEntry((2, 2), ModuleClass.PASSTHROUGH, np.zeros((2, 2), np.float32))
    with pytest.raises(ValueError, match=r"^pack <untagged> entry 'a.weight' shape \(2, 2\) does not match"):
        apply_pack(base, pack)
    pack = replace(pack, task_tag="math")
    with pytest.raises(ValueError, match=r"^pack 'math' entry 'a.weight'"):
        apply_pack(base, pack)


def reference_compose(base: Checkpoint, selected) -> Checkpoint:
    """compose's apply loop as it was when untouched names were copied and
    each summed update was added, then masked back to the base where zero."""
    updates = {}
    for _, pack, weight in selected:
        if weight == 0.0:
            continue
        for name, entry in pack.entries.items():
            contribution = np.float32(weight) * entry.reconstruct()
            if name in updates:
                updates[name] += contribution
            else:
                updates[name] = contribution
    out = {}
    for name, arr in base.tensors.items():
        update = updates.get(name)
        if update is None:
            out[name] = arr.copy()
            continue
        shifted = np.add(arr, update, dtype=np.float32)
        if shifted.dtype != arr.dtype:
            shifted = shifted.astype(arr.dtype)
        np.copyto(shifted, arr, where=update == 0.0)
        out[name] = shifted
    return Checkpoint(model_id=base.model_id, tensors=out)


TOUCHED = ("a.weight", "b.weight", "e.weight")
UNTOUCHED = ("c.weight", "d.weight")


def signed_zero_base() -> Checkpoint:
    """float32, float16 and float64 touched tensors seeded with -0.0 and +0.0."""
    rng = np.random.default_rng(5)
    tensors = {
        "a.weight": rng.standard_normal((4, 6)).astype(np.float32),
        "b.weight": rng.standard_normal((3, 5)).astype(np.float16),
        "c.weight": rng.standard_normal((5,)).astype(np.float32),
        "d.weight": rng.standard_normal((2, 2)).astype(np.float16),
        "e.weight": rng.standard_normal((2, 3)),
    }
    for name in TOUCHED:
        flat = tensors[name].reshape(-1)
        flat[:3] = -0.0
        flat[3:5] = 0.0
    return Checkpoint(model_id="m", tensors=tensors)


def dense_pack(base: Checkpoint, names, seed: int, scale: float = 1.0) -> SkillPack:
    """Random dense updates with +0.0 and -0.0 at fixed positions; scale 0 gives an all-zero pack."""
    rng = np.random.default_rng(seed)
    pack = zero_pack(base, names=names)
    for name, entry in pack.entries.items():
        values = (scale * rng.standard_normal(entry.shape)).astype(np.float32)
        values.reshape(-1)[1::4] = 0.0
        values.reshape(-1)[2::4] = -0.0
        pack.entries[name] = replace(entry, values=values)
    return pack


def negated(pack: SkillPack) -> SkillPack:
    return replace(zero_pack(Checkpoint(model_id=pack.base_model_id)), entries={
        name: DenseEntry(shape=e.shape, mclass=e.mclass, values=-e.values) for name, e in pack.entries.items()
    })


def sparse_pack(base: Checkpoint) -> SkillPack:
    pack = zero_pack(base, names=[])
    pack.entries["a.weight"] = PrunedSparseEntry(
        shape=(4, 6),
        mclass=ModuleClass.MLP,
        alpha=0.25,
        value_bits=4,
        indices=np.array([0, 1, 5, 7, 20, 23], dtype=np.int64),
        codes=np.array([1, -3, 7, 0, -7, 2], dtype=np.int32),
        scales=np.array([0.5, 0.25, 1.0, 0.125], dtype=np.float32),
    )
    return pack


def compose_cases():
    base = signed_zero_base()
    p = dense_pack(base, TOUCHED, seed=1)
    reversed_p = dense_pack(base, TOUCHED, seed=4)
    reversed_p = replace(reversed_p, entries=dict(reversed(reversed_p.entries.items())))
    q = dense_pack(base, ["a.weight", "e.weight"], seed=2)
    zero = dense_pack(base, TOUCHED, seed=3, scale=0.0)
    return base, {
        "empty": [],
        "weight 1": [("p", p, 1.0)],
        "weight 0.5": [("p", p, 0.5)],
        "weight -2": [("p", p, -2.0)],
        "weight 0": [("p", p, 0.0)],
        "all-zero updates": [("z", zero, 1.0)],
        "all-zero updates, weight -2": [("z", zero, -2.0)],
        "overlapping": [("p", p, 1.0), ("q", q, 0.5)],
        "overlapping, mixed weights": [("p", p, -2.0), ("q", q, 1.0), ("z", zero, 0.5), ("s", sparse_pack(base), 1.0)],
        "cancelling": [("p", p, 1.0), ("n", negated(p), 1.0)],
        "cancelling, scaled": [("p", p, 0.5), ("n", negated(p), 0.5)],
        "sparse": [("s", sparse_pack(base), -2.0)],
        "entries in reverse base order": [("r", reversed_p, 0.5), ("p", p, 1.0)],
    }


@pytest.mark.parametrize("case", list(compose_cases()[1]))
def test_compose_bit_identical_to_reference(case):
    base, cases = compose_cases()
    before = {name: arr.copy() for name, arr in base.tensors.items()}
    got = compose(base, cases[case])
    assert bit_equal(got, reference_compose(base, cases[case]))
    assert bit_equal(base, Checkpoint(model_id="m", tensors=before))


def test_compose_matches_the_reference_on_every_float16_bit_pattern():
    """Every non-NaN float16 base value, ±0, subnormals and infinities included, under ±0 and small updates."""
    values = np.arange(1 << 16).astype(np.uint16).view(np.float16)
    values = values[~np.isnan(values)]
    rng = np.random.default_rng(16)
    update = (rng.standard_normal(values.size) * 2.0 ** rng.integers(-30, 0, values.size)).astype(np.float32)
    update[::5], update[1::5] = 0.0, -0.0
    base = Checkpoint(model_id="m", tensors={"w": values})
    pack = SkillPack("m", "t", "", {}, {"w": DenseEntry(shape=values.shape, mclass=ModuleClass.PASSTHROUGH,
                                                        values=update)})
    for weight in (1.0, -0.5):
        assert bit_equal(compose(base, [("p", pack, weight)]), reference_compose(base, [("p", pack, weight)]))


def test_compose_cancelling_packs_keep_negative_zeros():
    base, cases = compose_cases()
    got = compose(base, cases["cancelling"])
    for name in TOUCHED:
        assert np.signbit(got.tensors[name].reshape(-1)[:3]).all()
        assert bit_equal(Checkpoint("m", {name: got.tensors[name]}), Checkpoint("m", {name: base.tensors[name]}))


def test_compose_untouched_names_are_read_only_views_of_the_base():
    base, cases = compose_cases()
    everything = tuple(base.tensors)
    for case, untouched in (("empty", everything), ("weight 0", everything), ("overlapping, mixed weights", UNTOUCHED)):
        out = compose(base, cases[case])
        for name in untouched:
            view = out.tensors[name]
            assert np.shares_memory(view, base.tensors[name])
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[...] = 1.0
        assert all(arr.flags.writeable for arr in base.tensors.values())
    out = compose(base, [])
    base.tensors["c.weight"][0] = 7.0  # the view aliases the base, so a later base change shows
    assert out.tensors["c.weight"][0] == 7.0


def test_compose_touched_names_are_fresh_arrays():
    base, cases = compose_cases()
    for case in ("weight 1", "weight 0.5", "overlapping", "cancelling", "sparse"):
        selected = cases[case]
        owned = list(base.tensors.values())
        for _, pack, _ in selected:
            for entry in pack.entries.values():
                owned += [v for v in vars(entry).values() if isinstance(v, np.ndarray)]
        out = compose(base, selected)
        touched = {name for _, pack, _ in selected for name in pack.entries}
        for name in touched:
            arr = out.tensors[name]
            assert arr.flags.writeable
            assert not any(np.shares_memory(arr, other) for other in owned), (case, name)


@pytest.mark.parametrize("weight", [1.0, 0.5, -2.0])
def test_compose_leaves_dense_entry_values_unchanged(weight):
    base = signed_zero_base()
    pack = dense_pack(base, TOUCHED, seed=1)
    before = {name: e.values.copy() for name, e in pack.entries.items()}
    apply_pack(base, pack, scale=weight)
    compose(base, [("p", pack, weight), ("q", pack, weight)])
    for name, entry in pack.entries.items():
        assert entry.values.tobytes() == before[name].tobytes()


def test_compose_refuses_a_pruned_entry_whose_scales_overflow(tmp_path):
    """Huge but finite scales pass save and load, with valid CRCs; composing
    them must raise, not return inf with an overflow warning."""
    spec = ToySpec(seed=5)
    base, tuned = gen_toy(spec)
    pack = compress_delta(diff(base, tuned), default_manifest(), budget_plan(0.10, toy_param_shapes(spec)))
    name = next(n for n, e in pack.entries.items() if isinstance(e, PrunedSparseEntry))
    pack.entries[name] = replace(pack.entries[name], scales=np.full_like(pack.entries[name].scales, 3e38))
    save_pack(pack, tmp_path / "p.skpk")
    loaded = load_pack(tmp_path / "p.skpk")
    with pytest.raises(IntegrityError, match=re.escape(f"pack <untagged> entry {name!r}: overflow")):
        apply_pack(base, loaded)


def _filled(base: Checkpoint, tag: str, a: float, b: float) -> SkillPack:
    pack = zero_pack(base, task_tag=tag)
    for name, fill in (("a.weight", a), ("b.weight", b)):
        entry = pack.entries[name]
        pack.entries[name] = replace(entry, values=np.full(entry.shape, fill, np.float32))
    return pack


@pytest.mark.parametrize(
    "base_a, base_b, selected, match",
    [
        (0.0, 0.0, [("p", 1e30, 0.0, 1e10)], r"pack 'p' entry 'a.weight': overflow"),
        (0.0, 0.0, [("p", 3e38, 0.0, 1.0), ("q", 3e38, 0.0, 1.0)], r"pack 'q' entry 'a.weight': overflow"),
        (3e38, 0.0, [("p", 3e38, 0.0, 1.0), ("q", 0.0, 0.0, 1.0)], r"pack 'p', 'q' entry 'a.weight' on the base: overflow"),
        (0.0, 6e4, [("p", 0.0, 1e4, 1.0)], r"pack 'p' entry 'b.weight' on the base: overflow"),
        # p overflows on b.weight and q on a.weight: the first base tensor to fail is named
        (0.0, 0.0, [("p", 1.0, 1e30, 1e10), ("q", 1e30, 0.0, 1e10)], r"pack 'q' entry 'a.weight': overflow"),
    ],
    ids=["scale", "sum", "add-float32", "add-float16", "first-base-tensor"],
)
def test_compose_raises_integrity_error_instead_of_a_non_finite_result(base_a, base_b, selected, match):
    base = small_checkpoint()
    base.tensors["a.weight"][...] = base_a
    base.tensors["b.weight"][...] = base_b
    before = {name: arr.copy() for name, arr in base.tensors.items()}
    packs = [(tag, _filled(base, tag, a, b), weight) for tag, a, b, weight in selected]
    with pytest.raises(IntegrityError, match=match):
        compose(base, packs)
    assert bit_equal(base, Checkpoint(model_id="m", tensors=before))


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


def _pack_with(**fields) -> SkillPack:
    return replace(zero_pack(small_checkpoint(), task_tag="t"), **fields)


def _delta_with(**fields):
    return replace(diff(small_checkpoint(), small_checkpoint(1)), **fields)


def _entry_named(name) -> dict:
    return {name: zero_pack(small_checkpoint()).entries["a.weight"]}


# field -> (save an object whose field holds `value` to a path, read that field back from the file,
#           the field's name in the saver's error)
SAVES = {
    "pack-base-id": (lambda v, p: save_pack(_pack_with(base_model_id=v), p), lambda p: load_pack(p).base_model_id,
                     "pack field 'base_model_id'"),
    "pack-tuned-id": (lambda v, p: save_pack(_pack_with(tuned_model_id=v), p), lambda p: load_pack(p).tuned_model_id,
                      "pack field 'tuned_model_id'"),
    "pack-tag": (lambda v, p: save_pack(_pack_with(task_tag=v), p), lambda p: load_pack(p).task_tag,
                 "pack field 'task_tag'"),
    "pack-entry-name": (lambda v, p: save_pack(_pack_with(entries=_entry_named(v)), p),
                        lambda p: next(iter(load_pack(p).entries)), "entry 7 field 'name'"),
    "checkpoint-id": (lambda v, p: save_checkpoint(replace(small_checkpoint(), model_id=v), p),
                      lambda p: load_checkpoint(p).model_id, "checkpoint field 'model_id'"),
    "checkpoint-tensor-name": (
        lambda v, p: save_checkpoint(Checkpoint(model_id="m", tensors={v: np.ones(2, np.float32)}), p),
        lambda p: next(iter(load_checkpoint(p).tensors)), "tensor 7 field 'name'"),
    "delta-base-id": (lambda v, p: save_delta(_delta_with(base_id=v), p), lambda p: load_delta(p).base_id,
                      "delta field 'base_id'"),
    "delta-tuned-id": (lambda v, p: save_delta(_delta_with(tuned_id=v), p), lambda p: load_delta(p).tuned_id,
                       "delta field 'tuned_id'"),
    "delta-tensor-name": (lambda v, p: save_delta(_delta_with(deltas={v: np.ones(2, np.float32)}), p),
                          lambda p: next(iter(load_delta(p).deltas)), "tensor 7 field 'name'"),
}


@pytest.mark.parametrize("field", sorted(SAVES))
def test_a_save_refuses_a_name_or_id_its_load_would_refuse(tmp_path, field):
    save, read_back, what = SAVES[field]
    path = tmp_path / "x.bin"
    with pytest.raises(ValueError, match=re.escape(f"{what} must be str, got int")):
        save(7, path)
    assert list(tmp_path.iterdir()) == []
    save("seven", path)
    assert read_back(path) == "seven"
