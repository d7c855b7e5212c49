import json
import os
import runpy
import struct
import sys

import numpy as np
import pytest

import skillpack.cli as cli
from skillpack.checkpoints import Checkpoint, load_checkpoint, load_delta, save_checkpoint
from skillpack.classify import ModuleClass, classify, default_manifest
from skillpack.cli import main
from skillpack.compress import compress_delta
from skillpack.packs import load_pack, save_pack
from skillpack.plans import default_plan, plan_to_dict
from skillpack.routing import LinearClassifier, save_router
from skillpack.toy import RetentionReport


def payload_bytes(path) -> bytes:
    raw = path.read_bytes()
    _, _, header_len = struct.unpack_from("<4sIQ", raw)
    return raw[16 + header_len :]


def write_plan(path, plan=None, manifest=None):
    config = {"plan": plan_to_dict(plan or default_plan())}
    if manifest is not None:
        config["manifest"] = manifest
    path.write_text(json.dumps(config))
    return str(path)


def dense_plan_config(tmp_path):
    from skillpack.plans import CompressionPlan, DenseStrategy

    plan = CompressionPlan(strategies={cls: DenseStrategy() for cls in ModuleClass})
    return write_plan(tmp_path / "dense_plan.json", plan)


def gen_pair(tmp_path, seed=0):
    base = tmp_path / "base.gltc"
    tuned = tmp_path / "tuned.gltc"
    rc = main([
        "gen-toy", "--seed", str(seed),
        "--base-out", str(base), "--tuned-out", str(tuned),
    ])
    assert rc == 0
    return base, tuned


def test_gen_toy_diff_compress_graft_roundtrip(tmp_path, capsys):
    base, tuned = gen_pair(tmp_path)
    delta = tmp_path / "d.gltc"
    assert main(["diff", str(base), str(tuned), "-o", str(delta)]) == 0

    pack = tmp_path / "p.skpk"
    plan = dense_plan_config(tmp_path)
    assert main(["compress", str(delta), "--plan", plan, "--tag", "toy", "-o", str(pack)]) == 0

    grafted = tmp_path / "g.gltc"
    assert main(["graft", str(base), str(pack), "-o", str(grafted)]) == 0
    # dense-plan graft must reproduce the tuned payload byte for byte
    assert payload_bytes(grafted) == payload_bytes(tuned)

    assert main(["inspect", str(pack)]) == 0
    out = capsys.readouterr().out
    assert "tag='toy'" in out
    assert "ratio_total" in out


def test_diff_identical_files_zero_delta(tmp_path):
    base, _ = gen_pair(tmp_path)
    delta = tmp_path / "zero.gltc"
    assert main(["diff", str(base), str(base), "-o", str(delta)]) == 0
    from skillpack.checkpoints import load_delta

    dm = load_delta(delta)
    assert all(np.all(v == 0) for v in dm.deltas.values())


def test_compress_requires_plan(tmp_path, capsys):
    base, tuned = gen_pair(tmp_path)
    delta = tmp_path / "d.gltc"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    with pytest.raises(SystemExit) as excinfo:
        main(["compress", str(delta), "-o", str(tmp_path / "p.skpk")])
    assert excinfo.value.code != 0


def test_gen_toy_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen-toy", "--base-out", "x", "--tuned-out", "y"])
    assert excinfo.value.code != 0


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code != 0


def test_error_is_single_line(tmp_path, capsys):
    rc = main(["inspect", str(tmp_path / "missing.skpk")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.strip().count("\n") == 0


def default_plan_text(edit) -> str:
    """A config holding the default plan after `edit(plan_dict)`."""
    plan = plan_to_dict(default_plan())
    edit(plan)
    return json.dumps({"plan": plan})


@pytest.mark.parametrize("command, text", [
    ("compress", '{"plan": [1]}'),
    ("compress", '{"plan": {"strategies": {"mlp": {"kind": "prune"}}}}'),
    ("compress", "[1]"),
    ("compress", '{"plan": '),
    ("route-train", '{"features": [], "losses": []}'),
    ("route-train", "[1]"),
    ("route-train", '{"features": [[1.0]], "losses": [[1.0, "x"]]}'),
    ("compress", default_plan_text(lambda p: p.update(calibration={"kind": "synthetic", "seed": 0, "samples": 128}))),
    ("compress", default_plan_text(lambda p: p["strategies"]["embedding_or_head"].update(value_bits=4.0))),
    ("compress", default_plan_text(
        lambda p: p["strategies"].update(mlp={"kind": "svd_quant", "rank": 8.0, "groups": [[0, 8, 4]]}))),
    ("compress", default_plan_text(lambda p: p.update(damping=float("nan")))),
    ("compress", '{"plna": {}}'),
    ("compress", '{"manifest": {"rule": [["mlp", "mlp"]]}}'),
    ("compress", '{"manifest": {"rules": [["mlp", "mlp"]], "defualt": "mlp"}}'),
    ("compress", '{"manifest": {"rules": [[5, "mlp"]]}}'),
    ("compress", default_plan_text(lambda p: p["strategies"]["mlp"].update(groups=1.5))),
    ("compress", default_plan_text(lambda p: p["strategies"]["mlp"].update(groups=[[0, 8]]))),
    ("compress", default_plan_text(lambda p: p["strategies"]["mlp"].update(groups=[[0, 8, 4, 1]]))),
    ("compress", default_plan_text(lambda p: p["strategies"]["mlp"].update(groups="x"))),
    ("route-train", '{"features": [[1.0], [0.0]], "losses": [[0.0, 1.0], [1.0, 0.0]], "pack_id": ["alpha", "beta"]}'),
    ("route-train", '{"features": [[1.0], [0.0]], "losses": [[0.0, 1.0], [1.0, 0.0]], "pack_ids": []}'),
], ids=["plan-list", "prune-no-alpha", "config-list", "config-truncated", "no-rows", "data-list", "string-loss",
        "synthetic-calibration", "float-value-bits", "float-rank", "nan-damping", "misspelt-config-key",
        "misspelt-manifest-rules", "misspelt-manifest-default", "int-manifest-pattern",
        "float-groups", "short-group", "long-group", "string-groups", "misspelt-pack-ids", "empty-pack-ids"])
def test_bad_json_input_is_one_error_line_naming_the_file(tmp_path, capsys, command, text):
    bad = tmp_path / "bad_input.json"
    bad.write_text(text)
    if command == "compress":
        argv = ["compress", str(tmp_path / "d.gltc"), "--plan", str(bad), "-o", str(tmp_path / "p.skpk")]
    else:
        argv = ["route-train", str(bad), "-o", str(tmp_path / "r.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.strip().count("\n") == 0
    assert "bad_input.json" in err


def test_compress_rejects_an_alpha_past_the_float_range(tmp_path, capsys):
    base, tuned = gen_pair(tmp_path)
    delta, pack = tmp_path / "d.gltc", tmp_path / "p.skpk"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    config = tmp_path / "huge_alpha.json"
    config.write_text(default_plan_text(lambda p: p["strategies"]["embedding_or_head"].update(alpha=10**400)))
    capsys.readouterr()
    assert main(["compress", str(delta), "--plan", str(config), "-o", str(pack)]) == 1
    line = one_error_line(capsys)
    prefix = f"error: config file {str(config)!r}: retention ratio must be in (0, 1], got 1000"
    assert line.startswith(prefix)
    assert len(line) <= len(prefix) + 60  # the 401-digit value is cut to its head and tail
    assert not pack.exists()


def test_compress_prints_its_storage_ratio_line(tmp_path, capsys):
    base, tuned = gen_pair(tmp_path)
    delta, pack = tmp_path / "d.gltc", tmp_path / "p.skpk"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    capsys.readouterr()
    assert main(["compress", str(delta), "--plan", write_plan(tmp_path / "plan.json"), "-o", str(pack)]) == 0
    total = load_pack(pack).stats.total
    expected = f"wrote {pack}  ratio_value={100 * total.ratio_value_only:.4f}%  ratio_total={100 * total.ratio_total:.4f}%\n"
    assert capsys.readouterr().out == expected


def test_compress_with_a_custom_manifest(tmp_path):
    base, tuned = gen_pair(tmp_path)
    delta = tmp_path / "d.gltc"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    manifest = {"rules": [["*.mlp.*", "mlp"], ["embed", "embedding_or_head"]], "default": "passthrough"}
    plan = write_plan(tmp_path / "plan.json", manifest=manifest)
    assert main(["compress", str(delta), "--plan", plan, "-o", str(tmp_path / "p.skpk")]) == 0
    from skillpack.packs import load_pack

    kinds = {name: entry.kind for name, entry in load_pack(tmp_path / "p.skpk").entries.items()}
    assert kinds["model.layers.0.mlp.up_proj.weight"] == "quantized_svd"
    assert kinds["model.embed_tokens.weight"] == "pruned_sparse"
    assert kinds["model.layers.0.self_attn.q_proj.weight"] == "dense"
    assert kinds["lm_head.weight"] == "dense"


def delta_and_activations(tmp_path):
    """A toy delta file and float32 activations (width x 32) for each of its 2-D tensors."""
    base, tuned = gen_pair(tmp_path)
    delta = tmp_path / "d.gltc"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    rng = np.random.default_rng(0)
    acts = {name: rng.standard_normal((d.shape[1], 32)).astype(np.float32)
            for name, d in load_delta(delta).deltas.items() if d.ndim == 2}
    return delta, acts


def test_compress_calibration_flag_gives_the_library_calls_pack(tmp_path):
    delta, acts = delta_and_activations(tmp_path)
    save_checkpoint(Checkpoint(model_id="acts", tensors=acts), tmp_path / "acts.gltc")
    argv = ["compress", str(delta), "--plan", write_plan(tmp_path / "plan.json"), "--tag", "t"]
    assert main([*argv, "--calibration", str(tmp_path / "acts.gltc"), "-o", str(tmp_path / "cli.skpk")]) == 0
    pack = compress_delta(load_delta(delta), default_manifest(), default_plan(), task_tag="t", activations=acts)
    save_pack(pack, tmp_path / "lib.skpk")
    assert (tmp_path / "cli.skpk").read_bytes() == (tmp_path / "lib.skpk").read_bytes()
    assert main([*argv, "-o", str(tmp_path / "rtn.skpk")]) == 0  # without the flag, factors round to nearest
    assert payload_bytes(tmp_path / "rtn.skpk") != payload_bytes(tmp_path / "cli.skpk")


def test_calibrated_pack_bytes_do_not_depend_on_where_the_file_lies(tmp_path, tmp_path_factory, monkeypatch):
    # the plan snapshot in the header held the calibration path, so each file name gave another pack
    delta, acts = delta_and_activations(tmp_path)
    plan = write_plan(tmp_path / "plan.json")
    monkeypatch.chdir(tmp_path)
    paths = ["activations.gltc", str(tmp_path_factory.mktemp("elsewhere") / "calib.gltc")]
    for i, path in enumerate(paths):
        save_checkpoint(Checkpoint(model_id="acts", tensors=acts), path)
        assert main(["compress", str(delta), "--plan", plan, "--calibration", path, "-o", f"{i}.skpk"]) == 0
    assert (tmp_path / "0.skpk").read_bytes() == (tmp_path / "1.skpk").read_bytes()


def test_compress_names_a_missing_calibration_file(tmp_path, capsys):
    delta, _ = delta_and_activations(tmp_path)
    out = tmp_path / "p.skpk"
    capsys.readouterr()
    argv = ["compress", str(delta), "--plan", write_plan(tmp_path / "plan.json"),
            "--calibration", str(tmp_path / "missing.gltc"), "-o", str(out)]
    assert main(argv) == 1
    assert "missing.gltc" in one_error_line(capsys)
    assert not out.exists()


def test_compress_names_a_tensor_without_activations_in_one_plain_line(tmp_path, capsys):
    # the missing name was a KeyError, printed as its repr: error: "no activations for '...'"
    delta, acts = delta_and_activations(tmp_path)
    name = next(n for n in acts if classify(n, default_manifest()) is ModuleClass.MLP)
    del acts[name]
    save_checkpoint(Checkpoint(model_id="acts", tensors=acts), tmp_path / "acts.gltc")
    out = tmp_path / "p.skpk"
    capsys.readouterr()
    argv = ["compress", str(delta), "--plan", write_plan(tmp_path / "plan.json"),
            "--calibration", str(tmp_path / "acts.gltc"), "-o", str(out)]
    assert main(argv) == 1
    assert one_error_line(capsys) == f"error: delta {name!r}: no activations\n"
    assert not out.exists()


@pytest.mark.parametrize("calibration", [None, {"kind": "file", "path": "acts.gltc"}], ids=["null", "file"])
def test_compress_refuses_a_plan_with_a_calibration_key(tmp_path, capsys, calibration):
    """Older plan files held the calibration; it is now `--calibration`, and the key is an error."""
    config = tmp_path / "old_plan.json"
    config.write_text(default_plan_text(lambda p: p.update(calibration=calibration)))
    out = tmp_path / "p.skpk"
    assert main(["compress", str(tmp_path / "d.gltc"), "--plan", str(config), "-o", str(out)]) == 1
    line = one_error_line(capsys)
    assert "old_plan.json" in line and "'calibration'" in line
    assert not out.exists()


def test_compress_refuses_seed(tmp_path, capsys):
    """compress draws no random numbers, so it takes no --seed."""
    with pytest.raises(SystemExit) as excinfo:
        main(["compress", str(tmp_path / "d.gltc"), "--plan", str(tmp_path / "plan.json"), "--seed", "1",
              "-o", str(tmp_path / "p.skpk")])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_route_and_fuse_with_table(tmp_path, capsys):
    base, tuned = gen_pair(tmp_path)
    delta = tmp_path / "d.gltc"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    pack = tmp_path / "math.skpk"
    main(["compress", str(delta), "--plan", dense_plan_config(tmp_path), "--tag", "math", "-o", str(pack)])

    router = tmp_path / "router.json"
    router.write_text(json.dumps({"kind": "task_table", "table": {"math": ["math"], "idle": []}}))

    capsys.readouterr()  # drain output of the setup commands
    assert main(["route", "--router", str(router), "--tag", "math"]) == 0
    assert json.loads(capsys.readouterr().out) == [["math", 1.0]]

    fused = tmp_path / "fused.gltc"
    assert main(["fuse", str(base), "--pack", str(pack), "--router", str(router),
                 "--tag", "math", "-o", str(fused)]) == 0
    assert payload_bytes(fused) == payload_bytes(tuned)

    fused_idle = tmp_path / "idle.gltc"
    assert main(["fuse", str(base), "--pack", str(pack), "--router", str(router),
                 "--tag", "idle", "-o", str(fused_idle)]) == 0
    assert payload_bytes(fused_idle) == payload_bytes(base)


def test_route_train_and_classify(tmp_path, capsys):
    rng = np.random.default_rng(0)
    feats = np.vstack([np.tile([5.0, 0.0], (20, 1)) + rng.standard_normal((20, 2)),
                       np.tile([0.0, 5.0], (20, 1)) + rng.standard_normal((20, 2))])
    losses = np.vstack([np.tile([0.0, 1.0], (20, 1)), np.tile([1.0, 0.0], (20, 1))])
    data = tmp_path / "train.json"
    data.write_text(json.dumps({
        "features": feats.tolist(), "losses": losses.tolist(), "pack_ids": ["alpha", "beta"],
    }))
    router = tmp_path / "clf.json"
    assert main(["route-train", str(data), "-o", str(router), "--epochs", "200", "--lr", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "training_accuracy=1.0000" in out

    capsys.readouterr()
    assert main(["route", "--router", str(router), "--features", "5.0,0.0"]) == 0
    assert json.loads(capsys.readouterr().out) == [["alpha", 1.0]]


def test_fuse_warns_on_overlapping_packs(tmp_path, capsys):
    base, tuned = gen_pair(tmp_path)
    delta = tmp_path / "d.gltc"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    plan = dense_plan_config(tmp_path)
    pack_a, pack_b = tmp_path / "a.skpk", tmp_path / "b.skpk"
    main(["compress", str(delta), "--plan", plan, "-o", str(pack_a)])
    main(["compress", str(delta), "--plan", plan, "-o", str(pack_b)])
    router = tmp_path / "r.json"
    router.write_text(json.dumps({"kind": "task_table", "table": {"both": ["a", "b"]}}))
    capsys.readouterr()
    assert main(["fuse", str(base), "--pack", str(pack_a), "--pack", str(pack_b),
                 "--router", str(router), "--tag", "both", "-o", str(tmp_path / "f.gltc")]) == 0
    assert "touched by multiple packs" in capsys.readouterr().err


def test_fuse_warns_only_about_the_packs_it_sums(tmp_path, capsys):
    base, tuned = gen_pair(tmp_path)
    delta = tmp_path / "d.gltc"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    plan = dense_plan_config(tmp_path)
    pack_a, pack_b = tmp_path / "a.skpk", tmp_path / "b.skpk"
    main(["compress", str(delta), "--plan", plan, "-o", str(pack_a)])
    main(["compress", str(delta), "--plan", plan, "-o", str(pack_b)])
    router = tmp_path / "r.json"
    router.write_text(json.dumps({"kind": "task_table", "table": {"a": ["a"], "b": ["b"]}}))
    capsys.readouterr()
    assert main(["fuse", str(base), "--pack", str(pack_a), "--pack", str(pack_b),
                 "--router", str(router), "--tag", "a", "-o", str(tmp_path / "f.gltc")]) == 0
    assert capsys.readouterr().err == ""


def test_compress_names_a_plan_files_unknown_class_in_one_error_line(tmp_path, capsys):
    base, tuned = gen_pair(tmp_path)
    delta, out = tmp_path / "d.gltc", tmp_path / "p.skpk"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    config = {"plan": plan_to_dict(default_plan())}
    config["plan"]["strategies"]["bogus"] = {"kind": "dense"}
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["compress", str(delta), "--plan", str(plan), "-o", str(out)]) == 1
    assert "plan has a strategy for an unknown module class 'bogus'" in one_error_line(capsys)
    assert not out.exists()


def test_fuse_refuses_two_packs_with_one_file_stem(tmp_path, capsys):
    base, tuned = gen_pair(tmp_path)
    delta = tmp_path / "d.gltc"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    packs = [tmp_path / "a" / "math.skpk", tmp_path / "b" / "math.skpk"]
    for pack in packs:
        pack.parent.mkdir()
        main(["compress", str(delta), "--plan", dense_plan_config(tmp_path), "-o", str(pack)])
    router, out = tmp_path / "r.json", tmp_path / "f.gltc"
    router.write_text(json.dumps({"kind": "task_table", "table": {"math": ["math"]}}))
    capsys.readouterr()
    assert main(["fuse", str(base), "--pack", str(packs[0]), "--pack", str(packs[1]),
                 "--router", str(router), "--tag", "math", "-o", str(out)]) == 1
    assert one_error_line(capsys) == "error: duplicate pack id 'math'; rename one of the files\n"
    assert not out.exists()


def test_eval_prints_report_to_stdout(tmp_path, capsys):
    base, tuned = gen_pair(tmp_path)
    delta = tmp_path / "d.gltc"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    pack = tmp_path / "p.skpk"
    main(["compress", str(delta), "--plan", dense_plan_config(tmp_path), "-o", str(pack)])
    capsys.readouterr()
    assert main(["eval", "--base", str(base), "--tuned", str(tuned), "--pack", str(pack),
                 "--probes", "2", "--seed", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["deviations"] == [0.0, 0.0]


def test_eval_refuses_seq_len_zero_and_writes_nothing(tmp_path, capsys):
    base, tuned = gen_pair(tmp_path)
    delta = tmp_path / "d.gltc"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    pack = tmp_path / "p.skpk"
    main(["compress", str(delta), "--plan", dense_plan_config(tmp_path), "-o", str(pack)])
    report_path = tmp_path / "rep.json"
    capsys.readouterr()
    assert main(["eval", "--base", str(base), "--tuned", str(tuned), "--pack", str(pack),
                 "--seed", "0", "--seq-len", "0", "--out", str(report_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "seq_len" in captured.err
    assert not report_path.exists()


def test_eval_refuses_to_write_a_non_finite_report(tmp_path, capsys, monkeypatch):
    """The report is strict JSON, like headers and router files: a NaN is an error, not a `NaN` token."""
    base, tuned = gen_pair(tmp_path)
    delta = tmp_path / "d.gltc"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    pack = tmp_path / "p.skpk"
    main(["compress", str(delta), "--plan", dense_plan_config(tmp_path), "-o", str(pack)])
    monkeypatch.setattr(cli, "eval_retention", lambda *args, **kwargs: RetentionReport([np.nan], np.nan, np.nan, 1.0))
    report_path = tmp_path / "rep.json"
    capsys.readouterr()
    assert main(["eval", "--base", str(base), "--tuned", str(tuned), "--pack", str(pack),
                 "--seed", "0", "--out", str(report_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not report_path.exists()


Q_PROJ = "model.layers.0.self_attn.q_proj.weight"


UNLIKE_CHECKPOINT_ERRORS = {
    "tuned-lacks-a-tensor": f"checkpoints have different parameters; only in base: [{Q_PROJ!r}], only in tuned: []",
    "tuned-vocab-128": "shape mismatch for 'model.embed_tokens.weight': base (256, 64) vs tuned (128, 64)",
    "tuned-hidden-32": "shape mismatch for 'model.embed_tokens.weight': base (256, 64) vs tuned (256, 32)",
    "both-lack-a-tensor": f"the toy forward needs tensor {Q_PROJ!r}, which the checkpoint lacks",
}


@pytest.mark.parametrize("case", list(UNLIKE_CHECKPOINT_ERRORS))
def test_eval_compares_only_like_checkpoints(tmp_path, capsys, case):
    # a missing tensor printed a bare KeyError repr, vocab 128 against 256 ended in an IndexError
    # traceback, and hidden 32 against 64 exited 0 with a deviation between unrelated models
    base, tuned = gen_pair(tmp_path)
    if case in ("tuned-vocab-128", "tuned-hidden-32"):
        option, size = case.split("-")[1:]
        tuned = tmp_path / "other.gltc"
        assert main(["gen-toy", "--seed", "0", f"--{option}", size, "--base-out", str(tmp_path / "other_base.gltc"),
                     "--tuned-out", str(tuned)]) == 0
    for path in {"tuned-lacks-a-tensor": [tuned], "both-lack-a-tensor": [base, tuned]}.get(case, []):
        ckpt = load_checkpoint(path)
        del ckpt.tensors[Q_PROJ]
        save_checkpoint(ckpt, path)
    delta, pack = tmp_path / "d.gltc", tmp_path / "p.skpk"
    assert main(["diff", str(base), str(base), "-o", str(delta)]) == 0
    assert main(["compress", str(delta), "--plan", dense_plan_config(tmp_path), "-o", str(pack)]) == 0
    capsys.readouterr()
    assert main(["eval", "--base", str(base), "--tuned", str(tuned), "--pack", str(pack), "--seed", "0"]) == 1
    assert one_error_line(capsys) == f"error: {UNLIKE_CHECKPOINT_ERRORS[case]}\n"


@pytest.mark.parametrize("features", ["nan,nan,nan", "inf,-inf,0"])
def test_route_refuses_non_finite_features(tmp_path, capsys, features):
    router = tmp_path / "clf.json"
    save_router(LinearClassifier(np.eye(2, 3), np.zeros(2), ["math", "code"]), router)
    assert main(["route", "--router", str(router), "--features", features]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: features must be a non-empty vector of finite values")


def test_eval_writes_report(tmp_path):
    base, tuned = gen_pair(tmp_path)
    delta = tmp_path / "d.gltc"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    pack = tmp_path / "p.skpk"
    main(["compress", str(delta), "--plan", dense_plan_config(tmp_path), "-o", str(pack)])
    report_path = tmp_path / "report.json"
    assert main(["eval", "--base", str(base), "--tuned", str(tuned), "--pack", str(pack),
                 "--probes", "4", "--seed", "0", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["mean_deviation"] == 0.0
    assert len(report["deviations"]) == 4


def test_eval_out_replaces_the_file_instead_of_rewriting_it(tmp_path):
    base, tuned = gen_pair(tmp_path)
    delta = tmp_path / "d.gltc"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    pack = tmp_path / "p.skpk"
    main(["compress", str(delta), "--plan", dense_plan_config(tmp_path), "-o", str(pack)])
    report_path = tmp_path / "report.json"
    report_path.write_text("old report")
    os.link(report_path, tmp_path / "old.json")
    assert main(["eval", "--base", str(base), "--tuned", str(tuned), "--pack", str(pack),
                 "--probes", "2", "--seed", "0", "--out", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["deviations"] == [0.0, 0.0]
    assert (tmp_path / "old.json").read_text() == "old report"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_route_refuses_features_that_overflow_the_scores(tmp_path, capsys):
    router = tmp_path / "clf.json"
    save_router(LinearClassifier(np.ones((2, 3)), np.zeros(2), ["math", "code"]), router)
    assert main(["route", "--router", str(router), "--features", "1e308,1e308,1e308"]) == 1
    assert "scores overflow" in one_error_line(capsys)


@pytest.mark.parametrize("lr", ["1e308", "inf"])
def test_route_train_refuses_a_learning_rate_that_overflows(tmp_path, capsys, lr):
    rng = np.random.default_rng(0)
    feats = np.vstack([np.tile([5.0, 0.0], (20, 1)), np.tile([0.0, 5.0], (20, 1))]) + rng.standard_normal((40, 2))
    losses = np.vstack([np.tile([0.0, 1.0], (20, 1)), np.tile([1.0, 0.0], (20, 1))])
    data = tmp_path / "train.json"
    data.write_text(json.dumps({"features": feats.tolist(), "losses": losses.tolist()}))
    router = tmp_path / "clf.json"
    assert main(["route-train", str(data), "-o", str(router), "--lr", lr]) == 1
    message = {
        "1e308": "router training overflows at learning rate 1e+308",
        "inf": "learning rate must be a finite number greater than 0, got inf",
    }[lr]
    assert message in one_error_line(capsys)
    assert not router.exists()


@pytest.mark.parametrize("lr", ["0", "-1"])
def test_route_train_refuses_a_learning_rate_that_is_not_positive(tmp_path, capsys, lr):
    data = tmp_path / "train.json"
    data.write_text(json.dumps({"features": [[1.0], [2.0], [-1.0], [-2.0]], "losses": [[0, 1], [0, 1], [1, 0], [1, 0]]}))
    router = tmp_path / "clf.json"
    assert main(["route-train", str(data), "-o", str(router), "--lr", lr]) == 1
    assert f"learning rate must be a finite number greater than 0, got {float(lr)!r}" in one_error_line(capsys)
    assert not router.exists()


def test_gen_toy_and_eval_name_a_negative_seed(tmp_path, capsys):
    base, tuned = tmp_path / "base.gltc", tmp_path / "tuned.gltc"
    assert main(["gen-toy", "--seed", "-1", "--base-out", str(base), "--tuned-out", str(tuned)]) == 1
    assert "toy seed must be an int >= 0, got -1" in one_error_line(capsys)
    assert not base.exists() and not tuned.exists()

    base, tuned = gen_pair(tmp_path)
    delta, pack = tmp_path / "d.gltc", tmp_path / "p.skpk"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    main(["compress", str(delta), "--plan", dense_plan_config(tmp_path), "-o", str(pack)])
    capsys.readouterr()
    assert main(["eval", "--base", str(base), "--tuned", str(tuned), "--pack", str(pack), "--seed", "-1"]) == 1
    assert "eval seed must be an int >= 0, got -1" in one_error_line(capsys)


@pytest.mark.parametrize("flag, value, message", [
    ("--noise", "1e308", "noise_std overflows"),
    ("--noise", "nan", "noise_std must be a finite number >= 0, got nan"),
    ("--noise", "-1", "noise_std must be a finite number >= 0, got -1.0"),
    ("--rank", "-1", "rank must be an int >= 0, got -1"),
    ("--nnz", "-1", "sparse_nnz must be an int >= 0, got -1"),
])
def test_gen_toy_refuses_a_recipe_it_would_ignore_or_overflow(tmp_path, capsys, flag, value, message):
    base, tuned = tmp_path / "base.gltc", tmp_path / "tuned.gltc"
    argv = ["gen-toy", "--seed", "0", "--base-out", str(base), "--tuned-out", str(tuned), flag, value]
    assert main(argv) == 1
    assert message in one_error_line(capsys)
    assert not base.exists() and not tuned.exists()


def test_route_and_fuse_refuse_both_selectors(tmp_path, capsys):
    base, _ = gen_pair(tmp_path)
    router = tmp_path / "r.json"
    router.write_text(json.dumps({"kind": "task_table", "table": {"math": []}}))
    capsys.readouterr()
    assert main(["route", "--router", str(router), "--tag", "math", "--features", "nan"]) == 1
    assert "not both" in one_error_line(capsys)
    fused = tmp_path / "f.gltc"
    assert main(["fuse", str(base), "--pack", str(tmp_path / "p.skpk"), "--router", str(router),
                 "--tag", "math", "--features", "1", "-o", str(fused)]) == 1
    assert "not both" in one_error_line(capsys)
    assert not fused.exists()


def test_route_train_refuses_pack_ids_that_are_not_distinct_strings(tmp_path, capsys):
    data, router = tmp_path / "train.json", tmp_path / "r.json"
    data.write_text(json.dumps({"features": [[1.0], [0.0], [0.5]], "losses": np.eye(3).tolist(), "pack_ids": "abc"}))
    assert main(["route-train", str(data), "-o", str(router)]) == 1
    assert "pack_ids must be a list of distinct pack id strings" in one_error_line(capsys)
    assert not router.exists()


def test_the_module_runs_as_a_script(tmp_path, monkeypatch, capsys):
    pack = tmp_path / "p.skpk"
    base, tuned = gen_pair(tmp_path)
    main(["diff", str(base), str(tuned), "-o", str(tmp_path / "d.gltc")])
    main(["compress", str(tmp_path / "d.gltc"), "--plan", dense_plan_config(tmp_path), "--tag", "toy", "-o", str(pack)])
    capsys.readouterr()
    monkeypatch.delitem(sys.modules, "skillpack.cli")  # else runpy warns that the module is imported already
    monkeypatch.setattr(sys, "argv", ["skillpack", "inspect", str(pack)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("skillpack.cli", run_name="__main__")
    assert exit_info.value.code == 0
    assert "tag='toy'" in capsys.readouterr().out
