import re

import numpy as np
import pytest

from skillpack.checkpoints import Checkpoint, apply_pack
from skillpack.classify import ModuleClass
from skillpack.errors import FormatError
from skillpack.packs import DenseEntry, SkillPack
from skillpack.routing import (
    Features,
    FusionRequest,
    LinearClassifier,
    RouterTrainingSet,
    Tag,
    TaskTable,
    fuse,
    instantiate_task,
    load_router,
    overlapping_names,
    route,
    router_from_dict,
    router_to_dict,
    save_router,
    train_router,
)


def make_base(seed=0):
    rng = np.random.default_rng(seed)
    return Checkpoint(
        model_id="base",
        tensors={
            "x.weight": rng.standard_normal((4, 4)).astype(np.float32),
            "y.weight": rng.standard_normal((4, 4)).astype(np.float32),
        },
    )


def dense_pack(name, value, base_id="base"):
    entry = DenseEntry(shape=(4, 4), mclass=ModuleClass.PASSTHROUGH,
                       values=np.full((4, 4), value, np.float32))
    return SkillPack(base_model_id=base_id, tuned_model_id="t", task_tag="", plan_snapshot={},
                     entries={name: entry})


def bit_equal(a, b):
    return a.tensors.keys() == b.tensors.keys() and all(
        np.array_equal(a.tensors[k].view(np.uint32), b.tensors[k].view(np.uint32)) for k in a.tensors
    )


def test_route_task_table():
    router = TaskTable(table={"math": ["pack_m"]})
    assert route(router, Tag("math")) == [("pack_m", 1.0)]
    with pytest.raises(ValueError, match="unknown task tag"):
        route(router, Tag("code"))
    with pytest.raises(ValueError, match="tag"):
        route(router, Features(np.zeros(3)))


def test_route_classifier_tie_breaks_low_index():
    router = LinearClassifier(weights=np.zeros((3, 4)), bias=np.zeros(3), class_to_pack=["a", "b", "c"])
    assert route(router, Features(np.ones(4))) == [("a", 1.0)]


def test_route_classifier_argmax():
    w = np.zeros((2, 3))
    w[0, 0] = 1.0
    w[1, 0] = -1.0
    router = LinearClassifier(weights=w, bias=np.zeros(2), class_to_pack=["a", "b"])
    assert route(router, Features(np.array([1.0, 0, 0]))) == [("a", 1.0)]
    assert route(router, Features(np.array([-1.0, 0, 0]))) == [("b", 1.0)]
    with pytest.raises(ValueError, match="a linear classifier routes by features, not by tag"):
        route(router, Tag("a"))


def test_route_dimension_mismatch():
    router = LinearClassifier(weights=np.zeros((2, 3)), bias=np.zeros(2), class_to_pack=["a", "b"])
    with pytest.raises(ValueError, match="dimension"):
        route(router, Features(np.zeros(5)))


@pytest.mark.parametrize("values", [[], [np.nan] * 3, [np.inf, -np.inf, 0.0]], ids=["empty", "nan", "inf"])
def test_features_refuse_empty_or_non_finite_values(values):
    """NaN scores would route to class 0 through argmax."""
    with pytest.raises(ValueError, match="non-empty vector of finite values"):
        Features(np.array(values, dtype=np.float64))


def test_route_rescaling_invariance():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((4, 6))
        b = rng.standard_normal(4)
        f = rng.standard_normal(6)
        scale = float(rng.uniform(0.01, 100.0))
        ids = list("abcd")
        assert route(LinearClassifier(w, b, ids), Features(f)) == route(
            LinearClassifier(scale * w, scale * b, ids), Features(f)
        )


def test_fuse_empty_is_base_bit_exact():
    base = make_base()
    base.tensors["x.weight"][0, 0] = np.float32(-0.0)
    router = TaskTable(table={"none": []})
    out = fuse(FusionRequest(base=base, packs={}, router=router, selector=Tag("none")))
    assert bit_equal(out, base)


def test_fuse_single_pack_matches_apply():
    base = make_base()
    pack = dense_pack("x.weight", 0.25)
    router = TaskTable(table={"t": ["p"]})
    fused = fuse(FusionRequest(base=base, packs={"p": pack}, router=router, selector=Tag("t")))
    assert bit_equal(fused, apply_pack(base, pack, 1.0))


def test_fuse_disjoint_packs_match_sequential_apply():
    base = make_base()
    pack_a = dense_pack("x.weight", 0.5)
    pack_b = dense_pack("y.weight", -0.75)
    router = TaskTable(table={"both": ["a", "b"]})
    fused = fuse(FusionRequest(base=base, packs={"a": pack_a, "b": pack_b}, router=router, selector=Tag("both")))
    step = apply_pack(apply_pack(base, pack_a, 1.0), pack_b, 1.0, force=True)
    assert bit_equal(fused, step)


def test_fuse_overlapping_packs_sum():
    base = make_base()
    router = TaskTable(table={"t": ["a", "b"]})
    packs = {"a": dense_pack("x.weight", 1.0), "b": dense_pack("x.weight", 2.0)}
    fused = fuse(FusionRequest(base=base, packs=packs, router=router, selector=Tag("t")))
    assert np.allclose(fused.tensors["x.weight"], base.tensors["x.weight"] + 3.0)
    assert overlapping_names(packs) == {"x.weight": ["a", "b"]}


def test_fuse_order_independent_bytes():
    base = make_base()
    router = TaskTable(table={"t": ["b", "a"]})
    packs_fwd = {"a": dense_pack("x.weight", 1.0), "b": dense_pack("x.weight", 2.0)}
    packs_rev = dict(reversed(list(packs_fwd.items())))
    out1 = fuse(FusionRequest(base=base, packs=packs_fwd, router=router, selector=Tag("t")))
    out2 = fuse(FusionRequest(base=base, packs=packs_rev, router=router, selector=Tag("t")))
    assert bit_equal(out1, out2)


def test_fuse_unknown_pack_and_bad_base_id():
    base = make_base()
    router = TaskTable(table={"t": ["missing"]})
    with pytest.raises(ValueError, match="unknown pack"):
        fuse(FusionRequest(base=base, packs={}, router=router, selector=Tag("t")))
    router = TaskTable(table={"t": ["p"]})
    with pytest.raises(ValueError, match="built against"):
        fuse(FusionRequest(base=base, packs={"p": dense_pack("x.weight", 1.0, base_id="other")},
                           router=router, selector=Tag("t")))


def test_fuse_checks_every_pack_before_reconstructing(monkeypatch):
    base = make_base()
    bad = dense_pack("x.weight", 2.0)
    bad.entries["x.weight"] = DenseEntry(shape=(2, 2), mclass=ModuleClass.PASSTHROUGH,
                                         values=np.ones((2, 2), np.float32))

    def never(self):
        raise AssertionError("reconstruct must not run")

    monkeypatch.setattr(DenseEntry, "reconstruct", never)
    router = TaskTable(table={"t": ["a", "b"]})
    with pytest.raises(ValueError, match="'b'.*x.weight.*shape"):
        fuse(FusionRequest(base=base, packs={"a": dense_pack("x.weight", 1.0), "b": bad},
                           router=router, selector=Tag("t")))


def test_fuse_refuses_dense_entry_with_too_few_rows():
    # Built, the one row of this entry would broadcast to all four rows of the fused x.weight.
    with pytest.raises(ValueError, match="shape"):
        short = DenseEntry(shape=(4, 4), mclass=ModuleClass.PASSTHROUGH, values=np.ones((1, 4), np.float32))
        packs = {"a": dense_pack("x.weight", 1.0), "b": SkillPack("base", "t", "", {}, {"x.weight": short})}
        fuse(FusionRequest(base=make_base(), packs=packs, router=TaskTable(table={"t": ["a", "b"]}),
                           selector=Tag("t")))


def test_classifier_weights_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        LinearClassifier(weights=np.array([[np.inf]]), bias=np.zeros(1), class_to_pack=["a"])
    with pytest.raises(ValueError, match="finite"):
        LinearClassifier(weights=np.ones((1, 1)), bias=np.array([np.nan]), class_to_pack=["a"])


def test_instantiate_task_history_independent():
    base = make_base()
    packs = {"code": dense_pack("x.weight", 0.5), "math": dense_pack("y.weight", -0.5)}
    router = TaskTable(table={"code": ["code"], "math": ["math"], "idle": []})
    after_code = instantiate_task(base, packs, "code", router)
    after_math = instantiate_task(base, packs, "math", router)
    fresh_math = instantiate_task(base, packs, "math", router)
    assert bit_equal(after_math, fresh_math)
    assert bit_equal(instantiate_task(base, packs, "idle", router), base)
    # and the base itself never changed
    assert bit_equal(base, make_base())
    assert not bit_equal(after_code, after_math)


def test_train_router_separable_one_hot():
    feats = np.eye(2).repeat(8, axis=0)
    losses = np.where(feats > 0.5, 0.0, 1.0)
    data = RouterTrainingSet(features=feats, losses=losses, pack_ids=["a", "b"])
    clf, acc = train_router(data, epochs=200, learning_rate=1.0)
    assert acc == 1.0


def test_train_router_single_class_errors():
    feats = np.random.default_rng(0).standard_normal((10, 3))
    losses = np.tile([1.0, 1.0, 1.0], (10, 1))  # argmin ties to index 0 everywhere
    data = RouterTrainingSet(features=feats, losses=losses, pack_ids=["a", "b", "c"])
    with pytest.raises(ValueError, match="TaskTable"):
        train_router(data)


@pytest.mark.parametrize("kwargs, message", [
    ({"learning_rate": "x"}, "learning rate 'x' is not a number (an int or a float)"),
    ({"learning_rate": float("nan")}, "learning rate must be a finite number greater than 0, got nan"),
    ({"epochs": 2.5}, "epochs must be an int >= 1, got 2.5"),
    ({"epochs": True}, "epochs must be an int >= 1, got True"),
], ids=["lr-str", "lr-nan", "epochs-float", "epochs-bool"])
def test_train_router_refuses_a_bad_learning_rate_or_epoch_count(kwargs, message):
    feats = np.eye(2).repeat(4, axis=0)
    data = RouterTrainingSet(features=feats, losses=np.where(feats > 0.5, 0.0, 1.0), pack_ids=["a", "b"])
    with pytest.raises(ValueError, match=re.escape(message)):
        train_router(data, **kwargs)


def test_train_router_five_blobs():
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((5, 8)) * 5.0
    feats, losses = [], []
    for c in range(5):
        feats.append(centers[c] + rng.standard_normal((200, 8)))
        loss = np.ones((200, 5))
        loss[:, c] = 0.0
        losses.append(loss + 0.01 * rng.standard_normal((200, 5)))
    data = RouterTrainingSet(
        features=np.vstack(feats), losses=np.vstack(losses), pack_ids=[f"p{i}" for i in range(5)]
    )
    clf, acc = train_router(data, epochs=300, learning_rate=0.5)
    assert acc >= 0.95


def test_train_router_deterministic():
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((40, 3))
    losses = rng.standard_normal((40, 3))
    data = RouterTrainingSet(features=feats, losses=losses, pack_ids=["a", "b", "c"])
    c1, a1 = train_router(data, epochs=50, learning_rate=0.3)
    c2, a2 = train_router(data, epochs=50, learning_rate=0.3)
    assert a1 == a2
    assert np.array_equal(c1.weights, c2.weights)
    assert np.array_equal(c1.bias, c2.bias)


def test_router_json_roundtrip(tmp_path):
    table = TaskTable(table={"math": ["a", "b"], "code": []})
    path = tmp_path / "r1.json"
    save_router(table, path)
    loaded = load_router(path)
    assert isinstance(loaded, TaskTable) and loaded.table == table.table

    clf = LinearClassifier(
        weights=np.arange(6.0).reshape(2, 3), bias=np.array([0.5, -0.5]), class_to_pack=["a", "b"]
    )
    path2 = tmp_path / "r2.json"
    save_router(clf, path2)
    loaded2 = load_router(path2)
    assert isinstance(loaded2, LinearClassifier)
    assert np.array_equal(loaded2.weights, clf.weights)
    assert np.array_equal(loaded2.bias, clf.bias)
    assert loaded2.class_to_pack == ["a", "b"]

    with pytest.raises(ValueError, match="unknown router"):
        router_from_dict({"kind": "nope"})
    assert router_to_dict(table)["kind"] == "task_table"


def test_failed_router_save_keeps_previous_file(tmp_path):
    path = tmp_path / "r.json"
    save_router(TaskTable(table={"math": ["a"]}), path)
    before = path.read_bytes()
    table = TaskTable(table={"math": ["a"]})
    table.table["math"] = [np.int64(1)]  # after the constructor's check; not JSON-serializable
    with pytest.raises(TypeError):
        save_router(table, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
    assert load_router(path).table == {"math": ["a"]}


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "task_table", "table": {"math": ["a"',  # truncated JSON
        "\xff\xfe",
        "[1, 2]",
        '{"kind": "task_table"}',
        '{"kind": "task_table", "table": ["a"]}',
        '{"kind": "linear_classifier", "weights": [1.0], "bias": [0.0], "class_to_pack": ["a"]}',
        '{"kind": "linear_classifier", "d": 2, "weights": [1.0], "bias": [0.0], "class_to_pack": ["a"]}',
        '{"kind": "linear_classifier", "d": 1, "weights": ["x"], "bias": [0.0], "class_to_pack": ["a"]}',
        '{"kind": "nope"}',
        '{"kind": "task_table", "table": {"t": "abc"}}',
        '{"kind": "task_table", "table": {"t": [1, null]}}',
        '{"kind": "linear_classifier", "d": 1, "weights": [1.0], "bias": [0.0], "class_to_pack": [5]}',
        '{"kind": "linear_classifier", "d": 1, "weights": [NaN], "bias": [0.0], "class_to_pack": ["a"]}',
        '{"kind": "linear_classifier", "d": true, "weights": [1.0], "bias": [0.0], "class_to_pack": ["a"]}',
        '{"kind": "task_table", "table": {"t": ["a"]}, "note": NaN}',
        '{"kind": "task_table", "table": {"t": ["a"]}, "note": -Infinity}',
        '{"kind": "task_table", "table": {"t": ["a"]}, "tabel": {"t": ["b"]}}',
        '{"kind": "linear_classifier", "d": 1, "weights": [1.0], "bias": [0.0], "class_to_pack": ["a"],'
        ' "temperature": 2}',
        '{"kind": "linear_classifier", "d": 2, "weights": [1.0, 0.0, 0.0, 1.0], "bias": [[0.0], [5.0]],'
        ' "class_to_pack": ["a", "b"]}',
    ],
    ids=[
        "truncated", "not-utf8", "not-object", "no-table", "table-list", "no-d", "bad-d", "string-weight", "bad-kind",
        "table-string-ids", "table-non-string-ids", "int-class-to-pack", "nan-weight", "bool-d",
        "nan-constant", "infinity-constant", "misspelt-table-key", "unknown-classifier-key", "nested-bias",
    ],
)
def test_malformed_router_file_is_format_error(tmp_path, text):
    path = tmp_path / "r.json"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(FormatError, match="r.json"):
        load_router(path)


@pytest.mark.parametrize("build", [
    lambda: TaskTable(table={"a": [1, None]}),
    lambda: TaskTable(table={1: ["a"]}),
    lambda: TaskTable(table={"a": "ab"}),
    lambda: LinearClassifier(weights=np.ones((2, 1)), bias=np.zeros(2), class_to_pack=[1, 2]),
], ids=["table-non-string-ids", "table-int-tag", "table-string-ids", "classifier-int-ids"])
def test_router_pack_ids_are_checked_when_built(build):
    with pytest.raises(ValueError, match="pack id strings"):
        build()


@pytest.mark.parametrize("pack_ids", ["abc", ["a", "a", "b"], [1, 2, 3], ("a", "b", "c")],
                         ids=["string", "duplicates", "ints", "tuple"])
def test_router_training_ids_are_a_list_of_distinct_strings(pack_ids):
    with pytest.raises(ValueError, match=re.escape("pack_ids must be a list of distinct pack id strings")):
        RouterTrainingSet(features=np.eye(3), losses=np.eye(3), pack_ids=pack_ids)


@pytest.mark.parametrize("build, message", [
    (lambda: TaskTable(table={"t": ["a", "a"]}), "duplicate pack ids under tag 't'"),
    (lambda: LinearClassifier(weights=np.ones((2, 0)), bias=np.zeros(2), class_to_pack=["a", "b"]), "dim > 0"),
    (lambda: RouterTrainingSet(features=np.ones((3, 2)), losses=np.ones((2, 2)), pack_ids=["a", "b"]),
     "features and losses must have the same number of rows"),
], ids=["table-duplicate-ids", "classifier-width-0", "training-row-counts"])
def test_router_shapes_are_checked_when_built(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("call", [lambda r: route(r, Tag("t")), router_to_dict], ids=["route", "router_to_dict"])
def test_an_unknown_router_is_a_type_error(call):
    with pytest.raises(TypeError, match="unknown router 'table'"):
        call("table")


def test_router_with_nonfinite_weight_is_refused_on_save_and_keeps_previous_file(tmp_path):
    path = tmp_path / "r.json"
    save_router(TaskTable(table={"math": ["a"]}), path)
    before = path.read_bytes()
    clf = LinearClassifier(weights=np.ones((2, 1)), bias=np.zeros(2), class_to_pack=["a", "b"])
    clf.weights[0, 0] = np.inf  # after the constructor's finite check
    with pytest.raises(ValueError):
        save_router(clf, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
