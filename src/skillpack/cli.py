"""Command-line surface: thin wrappers over the library operations.

Every subcommand exits 0 on success and nonzero with a single
"error: ..." line on stderr otherwise. Subcommands that draw random
numbers require an explicit --seed. Plans and manifests travel in one JSON
config file; calibration activations in a checkpoint file of their own.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import container
from .checkpoints import apply_pack, diff, load_checkpoint, load_delta, save_checkpoint, save_delta
from .classify import ClassificationManifest, default_manifest
from .compress import compress_delta
from .errors import SkillPackError
from .packs import fmt_ratios, inspect_pack, load_pack, save_pack
from .plans import default_plan, plan_from_dict
from .routing import (
    Features,
    FusionRequest,
    RouterTrainingSet,
    Tag,
    fuse,
    load_router,
    overlapping_names,
    route,
    save_router,
    train_router,
)
from .toy import DeltaRecipe, ToySpec, eval_retention, gen_toy


def _load_config(path: str, keys: set[str]) -> dict:
    """A JSON object file whose keys are all among `keys`."""
    with open(path, "r", encoding="utf-8") as fh:
        config = container.parse_json(fh.read())
    if not isinstance(config, dict):
        raise ValueError("top level must be a JSON object")
    unknown = sorted(set(config) - keys)
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    return config


def _cmd_gen_toy(args) -> int:
    spec = ToySpec(
        seed=args.seed,
        layers=args.layers,
        hidden=args.hidden,
        mlp_width=args.mlp_width,
        vocab=args.vocab,
        recipe=DeltaRecipe(rank=args.rank, sparse_nnz=args.nnz, noise_std=args.noise),
    )
    base, tuned = gen_toy(spec)
    save_checkpoint(base, args.base_out)
    save_checkpoint(tuned, args.tuned_out)
    print(f"wrote {args.base_out} and {args.tuned_out} (model_id={base.model_id})")
    return 0


def _cmd_diff(args) -> int:
    base = load_checkpoint(args.base)
    tuned = load_checkpoint(args.tuned)
    save_delta(diff(base, tuned), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_compress(args) -> int:
    with container.naming(f"config file {args.plan!r}"):
        config = _load_config(args.plan, {"plan", "manifest"})
        plan = plan_from_dict(config["plan"]) if "plan" in config else default_plan()
        manifest = (ClassificationManifest.from_dict(config["manifest"]) if "manifest" in config
                    else default_manifest())
    deltas = load_delta(args.delta)
    activations = None if args.calibration is None else load_checkpoint(args.calibration).tensors
    pack = compress_delta(deltas, manifest, plan, task_tag=args.tag, activations=activations)
    save_pack(pack, args.out)
    print(f"wrote {args.out}  {fmt_ratios(pack.stats.total)}")
    return 0


def _cmd_inspect(args) -> int:
    print(inspect_pack(load_pack(args.pack)))
    return 0


def _cmd_graft(args) -> int:
    base = load_checkpoint(args.base)
    pack = load_pack(args.pack)
    save_checkpoint(apply_pack(base, pack, scale=args.scale, force=args.force), args.out)
    print(f"wrote {args.out}")
    return 0


def _load_packs(paths: list[str]) -> dict:
    packs = {}
    for path in paths:
        pack_id = Path(path).stem
        if pack_id in packs:
            raise ValueError(f"duplicate pack id {pack_id!r}; rename one of the files")
        packs[pack_id] = load_pack(path)
    return packs


def _selector(args):
    if args.tag is not None and args.features is not None:
        raise ValueError("provide --tag or --features, not both")
    if args.tag is not None:
        return Tag(args.tag)
    if args.features is not None:
        return Features(np.array([float(v) for v in args.features.split(",")]))
    raise ValueError("provide --tag or --features")


def _cmd_fuse(args) -> int:
    selector = _selector(args)
    base = load_checkpoint(args.base)
    packs = _load_packs(args.pack)
    router = load_router(args.router)
    routed = {pack_id: packs[pack_id] for pack_id, _ in route(router, selector) if pack_id in packs}
    overlaps = overlapping_names(routed)  # only the packs that fuse sums
    if overlaps:
        print(f"warning: {len(overlaps)} tensors touched by multiple packs; contributions are summed", file=sys.stderr)
    fused = fuse(FusionRequest(base=base, packs=packs, router=router, selector=selector))
    save_checkpoint(fused, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_route(args) -> int:
    router = load_router(args.router)
    routed = route(router, _selector(args))
    print(json.dumps([[pack_id, weight] for pack_id, weight in routed]))
    return 0


def _cmd_route_train(args) -> int:
    with container.naming(f"training file {args.data!r}"):
        raw = _load_config(args.data, {"features", "losses", "pack_ids"})
        pack_ids = raw["pack_ids"] if "pack_ids" in raw else [f"pack{i}" for i in range(len(raw["losses"][0]))]
        data = RouterTrainingSet(features=raw["features"], losses=raw["losses"], pack_ids=pack_ids)
    classifier, accuracy = train_router(data, epochs=args.epochs, learning_rate=args.lr)
    save_router(classifier, args.out)
    print(f"wrote {args.out}  training_accuracy={accuracy:.4f}")
    return 0


def _cmd_eval(args) -> int:
    base = load_checkpoint(args.base)
    tuned = load_checkpoint(args.tuned)
    pack = load_pack(args.pack)
    report = eval_retention(base, tuned, pack, probe_count=args.probes, seed=args.seed, seq_len=args.seq_len)
    text = json.dumps(asdict(report), indent=2, allow_nan=False)
    if args.out:
        container.write_atomic(args.out, [(text + "\n").encode("utf-8")])
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skillpack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-toy", help="generate a synthetic base/tuned checkpoint pair")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--mlp-width", type=int, default=128)
    p.add_argument("--vocab", type=int, default=256)
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--nnz", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--base-out", required=True)
    p.add_argument("--tuned-out", required=True)
    p.set_defaults(func=_cmd_gen_toy)

    p = sub.add_parser("diff", help="delta = tuned - base")
    p.add_argument("base")
    p.add_argument("tuned")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("compress", help="compress a delta into a SkillPack")
    p.add_argument("delta")
    p.add_argument("--plan", required=True, help="JSON config with plan (and optional manifest)")
    p.add_argument("--tag", default="", help="task tag stored in the pack")
    p.add_argument("--calibration", default=None,
                   help="checkpoint of activations (width x samples) per SVD-compressed tensor, for GPTQ")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("inspect", help="print a pack report")
    p.add_argument("pack")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("graft", help="apply one pack onto a base checkpoint")
    p.add_argument("base")
    p.add_argument("pack")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--force", action="store_true", help="ignore model-id mismatch")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_graft)

    p = sub.add_parser("fuse", help="compose routed packs onto a base checkpoint")
    p.add_argument("base")
    p.add_argument("--pack", action="append", required=True, help="pack file; id is the file stem")
    p.add_argument("--router", required=True)
    p.add_argument("--tag", default=None)
    p.add_argument("--features", default=None, help="comma-separated feature vector")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("route", help="show which packs a router selects")
    p.add_argument("--router", required=True)
    p.add_argument("--tag", default=None)
    p.add_argument("--features", default=None)
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("route-train", help="train a classifier router from loss supervision")
    p.add_argument("data", help="JSON with features, losses, optional pack_ids")
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_route_train)

    p = sub.add_parser("eval", help="retention report for a pack on a toy pair")
    p.add_argument("--base", required=True)
    p.add_argument("--tuned", required=True)
    p.add_argument("--pack", required=True)
    p.add_argument("--probes", type=int, default=64)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seq-len", type=int, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SkillPackError, ValueError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
