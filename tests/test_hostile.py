"""Property: a mutated .gltc, .skpk or router file either raises SkillPackError or
loads to finite arrays (a pack also composes onto its base, to finite arrays of
the base's shapes), and reading it allocates at most a fixed multiple of the
file and base sizes.

Mutations are byte flips, truncations, extensions and JSON header edits:
delete a key, or set it to a value of another type, a huge or a negative int.
A byte flip in the payload always fails its CRC, so pack mutations also
rewrite float values of a blob (huge finite, subnormal or sign-flipped) and
recompute its CRC: these files load, and must compose or raise.
"""

import json
import math
import struct
import tracemalloc
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from skillpack.checkpoints import Checkpoint, apply_pack, diff, load_checkpoint, save_checkpoint
from skillpack.classify import ModuleClass, default_manifest
from skillpack.compress import compress_delta
from skillpack.errors import FormatError, SkillPackError
from skillpack.packs import load_pack, save_pack
from skillpack.plans import BitGroup, CompressionPlan, DenseStrategy, PruneStrategy, SvdQuantStrategy
from skillpack.quantize import packed_size
from skillpack.routing import LinearClassifier, TaskTable, load_router, save_router
from skillpack.tensors import retained_count
from skillpack.toy import ToySpec, gen_toy

PREFIX = struct.Struct("<4sIQ")
VALUES = [None, True, "x", 1.5, [], {}, -1, -(2**40), 2**40, 10**30]
EXAMPLES = 500
FLOAT_ROLES = ("sigma", "scales", "scales_u", "scales_v", "dense")
FLOAT32_MAX = float(np.finfo(np.float32).max)
FLOAT32_TINY = float(np.finfo(np.float32).tiny)  # the smallest normal float32
# Peak Python allocation of one load (and compose) per byte of file plus base.
ALLOC_PER_BYTE = 16
# Every property here bounds a load's tracemalloc peak. Hypothesis's explain phase puts a
# line tracer on each run after a failure, and the tracer's own allocations count, so a
# real failure can be followed by false ALLOC_PER_BYTE ones; the properties run without it.
BOUNDED = settings(max_examples=EXAMPLES, derandomize=True, deadline=None,
                   phases=[phase for phase in Phase if phase is not Phase.explain])


class Files(NamedTuple):
    """The fixture's directory, base checkpoint and file bytes. Hypothesis prints a failing
    example's arguments; their full repr (43 kB) raised a HypothesisWarning, an error under
    `filterwarnings`, which took the place of the falsifying example."""

    root: Path
    base: Checkpoint
    raw: dict[str, bytes]

    def __repr__(self) -> str:
        return f"Files(root={str(self.root)!r})"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The base checkpoint and the bytes of one valid file per format."""
    root = tmp_path_factory.mktemp("hostile")
    base, tuned = gen_toy(ToySpec(seed=1, layers=1, hidden=8, mlp_width=12, vocab=16))
    svd = SvdQuantStrategy(rank=6, groups=(BitGroup(0, 2, 8), BitGroup(2, 6, 3)))
    plan = CompressionPlan(strategies={
        ModuleClass.EMBEDDING_OR_HEAD: PruneStrategy(alpha=0.25),
        ModuleClass.MLP: svd,
        ModuleClass.ATTENTION: svd,
        ModuleClass.PASSTHROUGH: DenseStrategy(),
    })
    save_checkpoint(base, root / "base.gltc")
    save_pack(compress_delta(diff(base, tuned), default_manifest(), plan), root / "pack.skpk")
    classifier = LinearClassifier(weights=np.arange(6.0).reshape(2, 3), bias=np.zeros(2), class_to_pack=["a", "b"])
    save_router(classifier, root / "classifier.json")
    save_router(TaskTable(table={"math": ["a"], "code": ["a", "b"]}), root / "table.json")
    raw = {name: (root / name).read_bytes() for name in ("base.gltc", "pack.skpk", "classifier.json", "table.json")}
    return Files(root, base, raw)


def _paths(node, prefix=()):
    """The path of every value below `node`, a JSON tree."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _edit_json(draw, tree):
    *parent, key = draw(st.sampled_from(list(_paths(tree))))
    if draw(st.booleans()):
        del _at(tree, parent)[key]
    else:
        _at(tree, parent)[key] = draw(st.sampled_from(VALUES))


@st.composite
def mutants(draw, raw: bytes, is_container: bool) -> bytes:
    op = draw(st.sampled_from(["flip", "truncate", "extend", "edit"]))
    if op == "flip":
        i = draw(st.integers(0, len(raw) - 1))
        return raw[:i] + bytes([raw[i] ^ draw(st.integers(1, 255))]) + raw[i + 1 :]
    if op == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if op == "extend":
        return raw + draw(st.binary(min_size=1, max_size=256))
    if not is_container:
        tree = json.loads(raw)
        _edit_json(draw, tree)
        return json.dumps(tree).encode()
    magic, version, header_len = PREFIX.unpack_from(raw)
    header = json.loads(raw[PREFIX.size : PREFIX.size + header_len])
    _edit_json(draw, header)
    text = json.dumps(header).encode()
    return PREFIX.pack(magic, version, len(text)) + text + raw[PREFIX.size + header_len :]


@st.composite
def float_blob_edits(draw, raw: bytes) -> bytes:
    """`raw`, a .skpk, with up to 4 float32 values of one float blob rewritten and its CRC recomputed."""
    magic, version, header_len = PREFIX.unpack_from(raw)
    header = json.loads(raw[PREFIX.size : PREFIX.size + header_len])
    payload = bytearray(raw[PREFIX.size + header_len :])
    blob = draw(st.sampled_from([b for e in header["entries"] for b in e["blobs"] if b["role"] in FLOAT_ROLES]))
    values = np.frombuffer(payload, "<f4", blob["byte_len"] // 4, blob["offset"])  # writes go to `payload`
    huge = st.floats(2.0**100, FLOAT32_MAX, width=32) | st.floats(-FLOAT32_MAX, -(2.0**100), width=32)
    subnormal = st.floats(-FLOAT32_TINY, FLOAT32_TINY, width=32, exclude_min=True, exclude_max=True)
    for i in draw(st.lists(st.integers(0, values.size - 1), min_size=1, max_size=4, unique=True)):
        values[i] = draw(huge | subnormal | st.just(-values[i]))
    blob["crc32"] = zlib.crc32(payload[blob["offset"] : blob["offset"] + blob["byte_len"]])
    text = json.dumps(header).encode()
    return PREFIX.pack(magic, version, len(text)) + text + bytes(payload)


def _finite(arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def _load_and_use(kind: str, path, base) -> None:
    """Load `path`; check what loads. A SkillPackError is the other allowed outcome."""
    if kind == "gltc":
        assert _finite(load_checkpoint(path).tensors.values())
    elif kind == "skpk":
        composed = apply_pack(base, load_pack(path))
        assert {n: t.shape for n, t in composed.tensors.items()} == {n: t.shape for n, t in base.tensors.items()}
        assert _finite(composed.tensors.values())
    else:
        router = load_router(path)
        if isinstance(router, LinearClassifier):
            assert _finite([router.weights, router.bias])


def _check(files, kind: str, data: bytes) -> bool:
    """Whether `data` loaded; a load that fails must raise SkillPackError."""
    root, base, _ = files
    path = root / f"mutant.{kind}"
    path.unlink(missing_ok=True)  # a new file: a view of the last mutant may still map the old one
    path.write_bytes(data)
    base_bytes = sum(t.nbytes for t in base.tensors.values())
    loaded = True
    tracemalloc.start()
    try:
        _load_and_use(kind, path, base)
    except SkillPackError:
        loaded = False
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= ALLOC_PER_BYTE * (len(data) + base_bytes)
    return loaded


def test_valid_files_load(files):
    _, _, raw = files
    for kind, name in (("gltc", "base.gltc"), ("skpk", "pack.skpk"), ("json", "classifier.json"), ("json", "table.json")):
        assert _check(files, kind, raw[name])


@BOUNDED
@given(data=st.data())
def test_mutated_checkpoint(files, data):
    _check(files, "gltc", data.draw(mutants(files[2]["base.gltc"], True)))


@BOUNDED
@given(data=st.data())
def test_mutated_pack(files, data):
    _check(files, "skpk", data.draw(mutants(files[2]["pack.skpk"], True)))


@BOUNDED
@given(data=st.data())
def test_mutated_router(files, data):
    name = data.draw(st.sampled_from(["classifier.json", "table.json"]))
    _check(files, "json", data.draw(mutants(files[2][name], False)))


@BOUNDED
@given(data=st.data())
def test_pack_with_rewritten_float_values(files, data):
    _check(files, "skpk", data.draw(float_blob_edits(files[2]["pack.skpk"])))


@st.composite
def forged_counts(draw, raw: bytes) -> tuple[bytes, str, bool]:
    """`raw`, a .skpk, with the alpha, shape or index width of a pruned entry forged; the entry's name; and
    whether its indices blob is too short or too long for the forged count at the forged width."""
    magic, version, header_len = PREFIX.unpack_from(raw)
    header = json.loads(raw[PREFIX.size : PREFIX.size + header_len])
    entry = draw(st.sampled_from([e for e in header["entries"] if e["kind"] == "pruned_sparse"]))
    entry.update(draw(st.fixed_dictionaries({}, optional={
        "alpha": st.floats(0.0, 1.0, exclude_min=True),
        "shape": st.lists(st.integers(0, 2**40), min_size=2, max_size=2),
        "index_width": st.integers(0, 64),
    })))
    keep = retained_count(entry["alpha"], math.prod(entry["shape"]))
    blob = next(b for b in entry["blobs"] if b["role"] == "indices")
    text = json.dumps(header).encode()
    forged = PREFIX.pack(magic, version, len(text)) + text + raw[PREFIX.size + header_len :]
    return forged, entry["name"], packed_size(keep, entry["index_width"]) != blob["byte_len"]


@settings(BOUNDED, max_examples=200)
@given(data=st.data())
def test_a_forged_count_is_refused_before_it_is_allocated(files, data):
    forged, name, unheld = data.draw(forged_counts(files.raw["pack.skpk"]))
    path = files.root / "forged.skpk"
    path.unlink(missing_ok=True)
    path.write_bytes(forged)
    error = None
    tracemalloc.start()
    try:
        load_pack(path)
    except SkillPackError as exc:
        error = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= ALLOC_PER_BYTE * len(forged)
    if unheld:
        assert isinstance(error, FormatError) and f"entry {name!r}" in str(error)
