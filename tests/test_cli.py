import json
import os
import struct

import numpy as np
import pytest

from skillpack.cli import main
from skillpack.plans import default_plan, plan_to_dict


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
    from skillpack.classify import ModuleClass
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
    ("compress", default_plan_text(lambda p: p["calibration"].update(seed=1.5))),
    ("compress", default_plan_text(lambda p: p["calibration"].update(samples=2.5))),
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
        "float-seed", "float-samples", "float-value-bits", "float-rank", "nan-damping", "misspelt-config-key",
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


def test_compress_seed_override_changes_pack(tmp_path):
    base, tuned = gen_pair(tmp_path)
    delta = tmp_path / "d.gltc"
    main(["diff", str(base), str(tuned), "-o", str(delta)])
    plan = write_plan(tmp_path / "plan.json")
    p1, p2, p3 = (tmp_path / n for n in ("a.skpk", "b.skpk", "c.skpk"))
    assert main(["compress", str(delta), "--plan", plan, "--seed", "1", "-o", str(p1)]) == 0
    assert main(["compress", str(delta), "--plan", plan, "--seed", "2", "-o", str(p2)]) == 0
    assert main(["compress", str(delta), "--plan", plan, "--seed", "1", "-o", str(p3)]) == 0
    assert p1.read_bytes() == p3.read_bytes()
    assert p1.read_bytes() != p2.read_bytes()


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
