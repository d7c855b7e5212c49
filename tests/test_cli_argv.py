"""Property: any value of a numeric CLI flag ends in a clean run or one `error:` line.

Each example runs `cli.main` in-process on small fixed inputs with some of
the command's numeric flags set from a few hostile values. A value the
flag's argparse type refuses ends in argparse's usage error (exit 2).
Every other run exits 0, or exits 1 with exactly one `error:` line on
stderr, and any JSON it prints or writes is finite, strict JSON. Under the
suite's warnings-as-errors setting a numpy `RuntimeWarning` escapes `main`
and fails the property.
"""

import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillpack.classify import ModuleClass
from skillpack.cli import main
from skillpack.plans import CompressionPlan, DenseStrategy, plan_to_dict
from skillpack.routing import LinearClassifier, save_router

VALUES = ["nan", "inf", "-inf", "0", "-1", "1e308", "1.5", "1,2", "", "x"]

# command -> (argv template, numeric flags, path of the JSON the run writes or None)
COMMANDS = {
    "route": (["route", "--router", "{clf}"], ["--features"], None),
    "fuse": (["fuse", "{base}", "--pack", "{pack}", "--router", "{clf}", "-o", "{out}/fused.gltc"],
             ["--features"], None),
    "route-train": (["route-train", "{train}", "-o", "{out}/router.json"], ["--epochs", "--lr"],
                    "{out}/router.json"),
    "graft": (["graft", "{base}", "{pack}", "-o", "{out}/grafted.gltc"], ["--scale"], None),
    "eval": (["eval", "--base", "{base}", "--tuned", "{tuned}", "--pack", "{pack}", "--seed", "0",
              "--out", "{out}/report.json"], ["--probes", "--seed", "--seq-len"], "{out}/report.json"),
    "gen-toy": (["gen-toy", "--seed", "0", "--layers", "1", "--hidden", "8", "--mlp-width", "8", "--vocab", "16",
                 "--base-out", "{out}/b.gltc", "--tuned-out", "{out}/t.gltc"],
                ["--seed", "--layers", "--hidden", "--mlp-width", "--vocab", "--rank", "--nnz", "--noise"], None),
}


def strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    names = {key: str(root / f"{key}.{ext}") for key, ext in
             [("base", "gltc"), ("tuned", "gltc"), ("delta", "gltc"), ("pack", "skpk"), ("clf", "json"),
              ("train", "json"), ("plan", "json")]}
    names["out"] = str(root / "out")
    (root / "out").mkdir()
    assert main(["gen-toy", "--seed", "0", "--layers", "1", "--hidden", "16", "--mlp-width", "16", "--vocab", "32",
                 "--rank", "2", "--nnz", "4", "--base-out", names["base"], "--tuned-out", names["tuned"]]) == 0
    assert main(["diff", names["base"], names["tuned"], "-o", names["delta"]]) == 0
    with open(names["plan"], "w") as fh:
        json.dump({"plan": plan_to_dict(CompressionPlan(strategies={c: DenseStrategy() for c in ModuleClass}))}, fh)
    assert main(["compress", names["delta"], "--plan", names["plan"], "--tag", "math", "-o", names["pack"]]) == 0
    # one feature, so a scalar flag value reaches the scores; weight 2 makes 1e308 overflow them
    save_router(LinearClassifier(np.array([[2.0], [-2.0]]), np.zeros(2), ["pack", "other"]), names["clf"])
    with open(names["train"], "w") as fh:
        json.dump({"features": [[1.0], [2.0], [-1.0], [-2.0]], "losses": [[0, 1], [0, 1], [1, 0], [1, 0]]}, fh)
    return names


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_numeric_flags_end_cleanly_or_in_one_error_line(paths, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    template, flags, written = COMMANDS[command]
    argv = [arg.format(**paths) for arg in template]
    for flag in flags:
        value = data.draw(st.one_of(st.none(), st.sampled_from(VALUES)), label=flag)
        if value is not None:
            argv.append(f"{flag}={value}")
    written = written and written.format(**paths)
    if written:
        with contextlib.suppress(FileNotFoundError):
            os.remove(written)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused a value its type cannot parse
            assert exc.code == 2, (argv, err.getvalue())
            return
    stderr = err.getvalue()
    if code == 1:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, (argv, stderr)
    else:
        assert code == 0, (argv, stderr)
        if command == "route":
            strict_json(out.getvalue())
        if written:
            with open(written) as fh:
                strict_json(fh.read())
