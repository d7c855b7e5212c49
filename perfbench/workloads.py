"""The three workloads: pack-default, retention-sweep and task-switch.

Each workload has the same life cycle, driven by run.py:

* `prepare()`  untimed inputs the library does not produce in the run;
* `setup()`    the timed set-up, repeated and reported as its median;
* `round()`    one whole round of timed operations, returning their
               latencies and the attempted/failed counts;
* `memory_body()` the calls whose allocation peaks the traced run records;
* `check()`    the independent checks, returning the quality metrics.

Every input is generated from the run's seed; the library sees only those
inputs. The library is called through the `skillpack` package attributes at
call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time

import numpy as np

import checks
import hostile
import skillpack as sp
from skillpack.classify import ModuleClass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

MID = dict(layers=1, hidden=512, mlp_width=1408, vocab=4096)
SMALL = dict(layers=1, hidden=128, mlp_width=352, vocab=1024)
# Low-rank bump plus dense noise: every singular value is distinct, as in a
# real fine-tuning delta, so full-rank plans do real work on every vector.
RECIPE = sp.DeltaRecipe(rank=16, sparse_nnz=256, noise_std=2.0**-10)


def sub_seed(seed: int, stream: int) -> int:
    """Independent toy seed for one input stream of a run."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def shapes_of(tensors: dict[str, np.ndarray]) -> dict[str, tuple]:
    return {name: tuple(arr.shape) for name, arr in tensors.items()}


class Workload:
    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.digests: dict[str, str] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        pass

    def after_setup(self) -> None:
        pass


# --------------------------------------------------------------------------
# pack-default
# --------------------------------------------------------------------------

class PackDefault(Workload):
    """Load a mid-size delta, compress it with default_plan(), save the pack."""

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.spec = sp.ToySpec(seed=sub_seed(seed, 1), recipe=RECIPE, **MID)

    def setup(self) -> None:
        base, tuned = sp.gen_toy(self.spec)
        delta = sp.diff(base, tuned)
        sp.save_delta(delta, self.path("delta.gltc"))
        self.deltas = delta.deltas

    def round(self):
        start = time.perf_counter()
        delta = sp.load_delta(self.path("delta.gltc"))
        pack = sp.compress_delta(delta, sp.default_manifest(), sp.default_plan(), task_tag="pack-default")
        sp.save_pack(pack, self.path("default.skpk"))
        elapsed = time.perf_counter() - start
        digest = sha256(self.path("default.skpk"))
        checks.require(self.digests.setdefault("default.skpk", digest) == digest, "pack bytes changed between rounds")
        self.pack = pack
        return [elapsed], 1, 0

    def memory_body(self) -> None:
        sp.load_delta(self.path("delta.gltc"))

    def check(self) -> dict[str, float]:
        pack, path = self.pack, self.path("default.skpk")
        checks.check_storage(pack, shapes_of(self.deltas), sp.default_plan())
        checks.check_codes_in_range(pack)
        checks.check_leading_sigma(pack, self.deltas)
        sp.save_pack(sp.load_pack(path), self.path("resaved.skpk"))
        checks.require(sha256(self.path("resaved.skpk")) == self.digests["default.skpk"],
                       "load_pack -> save_pack does not reproduce the pack bytes")
        return {"pack_bytes": os.path.getsize(path), "rel_err": checks.delta_rel_err(pack, self.deltas)}


# --------------------------------------------------------------------------
# retention-sweep
# --------------------------------------------------------------------------

BUDGETS = (0.02, 0.05, 0.10, 0.20)
PROBES = 128  # enough that eval_retention (the toy forward) dominates a round


class RetentionSweep(Workload):
    """budget_plan + compress_delta + eval_retention at four budgets on a small toy."""

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.spec = sp.ToySpec(seed=sub_seed(seed, 2), recipe=RECIPE, **SMALL)
        self.first_deviations = None

    def setup(self) -> None:
        self.base, self.tuned = sp.gen_toy(self.spec)
        delta = sp.diff(self.base, self.tuned)
        sp.save_delta(delta, self.path("delta.gltc"))

    def round(self):
        start = time.perf_counter()
        delta = sp.load_delta(self.path("delta.gltc"))
        shapes = shapes_of(delta.deltas)
        manifest = sp.default_manifest()
        results = []
        for budget in BUDGETS:
            plan = sp.budget_plan(budget, shapes)
            pack = sp.compress_delta(delta, manifest, plan, task_tag=f"budget-{budget}")
            report = sp.eval_retention(self.base, self.tuned, pack, probe_count=PROBES, seed=self.seed)
            results.append((budget, pack, report))
        elapsed = time.perf_counter() - start
        deviations = [r.deviations for _, _, r in results]
        if self.first_deviations is None:
            self.first_deviations = deviations
        checks.require(deviations == self.first_deviations, "retention changed between rounds")
        self.results = results
        return [elapsed], len(BUDGETS), 0

    def memory_body(self) -> None:
        sp.load_delta(self.path("delta.gltc"))

    def check(self) -> dict[str, float]:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xC4EC]))
        vocab = self.base.tensors["model.embed_tokens.weight"].shape[0]
        tokens = rng.integers(0, vocab, size=(256, 8))
        tuned = self.tuned.tensors
        previous = np.inf
        for budget, pack, report in self.results:
            ratio = pack.stats.total.ratio_total
            checks.require(abs(ratio - budget) <= 0.1 * budget, f"budget {budget}: realised ratio {ratio:.4f}")
            checks.require(report.mean_deviation <= previous, f"budget {budget}: deviation grew with budget")
            previous = report.mean_deviation

            graft = {n: a.astype(np.float32) for n, a in self.base.tensors.items()}
            for name, entry in pack.entries.items():
                graft[name] = graft[name] + entry.reconstruct()
            # The library's forward agrees with the batched reference probe by probe ...
            for probe in tokens[:4]:
                for params in (tuned, graft):
                    ckpt = sp.Checkpoint(model_id=self.base.model_id, tensors=params)
                    want = checks.reference_forward(params, probe[None, :])[0]
                    got = sp.toy_forward(ckpt, probe)
                    checks.require(np.allclose(got, want, rtol=1e-9, atol=1e-12 * np.abs(want).max()),
                                   f"budget {budget}: toy_forward disagrees with the reference")
            # ... and the reported mean deviation agrees with the reference on
            # independent probes, within the spread of a 128-probe mean.
            reference = checks.mean_deviation(tuned, graft, tokens)
            checks.require(abs(report.mean_deviation - reference) <= 0.2 * reference,
                           f"budget {budget}: eval_retention {report.mean_deviation:.4g} vs reference {reference:.4g}")
            path = self.path(f"budget-{budget}.skpk")
            sp.save_pack(pack, path)
            self.digests[f"budget-{budget}.skpk"] = sha256(path)
        ten = next(r for b, _, r in self.results if b == 0.10)
        return {"pack_bytes": os.path.getsize(self.path("budget-0.1.skpk")), "rel_err": ten.mean_deviation}


# --------------------------------------------------------------------------
# task-switch
# --------------------------------------------------------------------------

SKILLS = ("math", "code", "style")
TABLE = {
    "idle": [], "math": ["math"], "code": ["code"], "style": ["style"],
    "math+code": ["math", "code"], "code+style": ["code", "style"],
    "math+style": ["math", "style"], "all": ["math", "code", "style"],
}
TAG_REPEATS = 2  # each tag this many times per round
FEATURE_TARGETS = ("math", "code", "style", "math")  # classifier-routed requests per round
FEATURE_DIM = 8
HOSTILE_SEED = 7919  # hostile inputs do not depend on the run's seed


def _skill_plan(skill: str, shapes):
    if skill == "style":
        return sp.CompressionPlan(strategies={cls: sp.DenseStrategy() for cls in ModuleClass})
    return sp.budget_plan(0.10, shapes)


def prepare_task_switch(workdir: str, seed: int) -> None:
    """Write the base, the skill packs and their deltas (run in a child process)."""
    base, _ = sp.gen_toy(sp.ToySpec(seed=sub_seed(seed, 3), recipe=RECIPE, **MID))
    sp.save_checkpoint(base, os.path.join(workdir, "base.gltc"))
    for k, skill in enumerate(SKILLS):
        skill_base, skill_tuned = sp.gen_toy(sp.ToySpec(seed=sub_seed(seed, 10 + k), recipe=RECIPE, **MID))
        deltas = sp.diff(skill_base, skill_tuned).deltas
        if skill == "code":  # an adapter: MLP matrices only
            deltas = {n: d for n, d in deltas.items() if ".mlp." in n}
        delta = sp.DeltaMap(base_id=base.model_id, tuned_id=f"{base.model_id}+{skill}", deltas=deltas)
        sp.save_delta(delta, os.path.join(workdir, f"delta-{skill}.gltc"))
        pack = sp.compress_delta(delta, sp.default_manifest(), _skill_plan(skill, shapes_of(deltas)), task_tag=skill)
        sp.save_pack(pack, os.path.join(workdir, f"{skill}.skpk"))

    small_base, small_tuned = sp.gen_toy(sp.ToySpec(seed=HOSTILE_SEED))
    sp.save_checkpoint(small_base, os.path.join(workdir, "hostile_base.gltc"))
    small = sp.diff(small_base, small_tuned)
    plan = sp.budget_plan(0.10, shapes_of(small.deltas))
    sp.save_pack(sp.compress_delta(small, sp.default_manifest(), plan, "hostile"),
                 os.path.join(workdir, "hostile_valid.skpk"))


class TaskSwitch(Workload):
    """Load a base and skill packs, then switch tasks by tag and by classifier."""

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5717]))
        self.seen: dict[tuple, tuple] = {}

    def prepare(self) -> None:
        # A child process builds the inputs, so pack generation sets
        # neither this process's peak RSS nor its allocator state. It is a
        # plain subprocess, waited for on every path (subprocess.run kills it
        # on a timeout or an exception); multiprocessing's spawn context would
        # also start a resource-tracker process that outlives the run.
        code = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
                "workloads.prepare_task_switch(sys.argv[3], int(sys.argv[4]))")
        subprocess.run([sys.executable, "-c", code, SRC, BENCH_DIR, self.workdir, str(self.seed)],
                       check=True, timeout=150)
        self.hostile_files = hostile.write_all(self.path("hostile_valid.skpk"), self.workdir)
        self.hostile_base = sp.load_checkpoint(self.path("hostile_base.gltc"))
        for skill in SKILLS:
            self.digests[f"{skill}.skpk"] = sha256(self.path(f"{skill}.skpk"))

        centers = self.rng.standard_normal((len(SKILLS), FEATURE_DIM)) * 4.0
        labels = np.repeat(np.arange(len(SKILLS)), 100)
        features = centers[labels] + self.rng.standard_normal((len(labels), FEATURE_DIM))
        losses = np.ones((len(labels), len(SKILLS))) + 0.01 * self.rng.standard_normal((len(labels), len(SKILLS)))
        losses[np.arange(len(labels)), labels] = 0.0
        self.training = sp.RouterTrainingSet(features=features, losses=losses, pack_ids=list(SKILLS))
        self.requests = [centers[SKILLS.index(t)] + 0.5 * self.rng.standard_normal(FEATURE_DIM)
                         for t in FEATURE_TARGETS]
        self.ops = [("tag", tag) for tag in TABLE for _ in range(TAG_REPEATS)]
        self.ops += [("features", i) for i in range(len(self.requests))]

    def setup(self) -> None:
        self.base = sp.load_checkpoint(self.path("base.gltc"))
        self.packs = {skill: sp.load_pack(self.path(f"{skill}.skpk")) for skill in SKILLS}

    def after_setup(self) -> None:
        self.base_digest = checks.digest(self.base.tensors)
        self.classifier, accuracy = sp.train_router(self.training)
        checks.require(accuracy >= 0.95, f"router training accuracy {accuracy:.3f}")
        self.table = sp.TaskTable(table=TABLE)

    def _run(self, op, base=None, packs=None):
        base = self.base if base is None else base
        packs = self.packs if packs is None else packs
        kind, key = op
        if kind == "tag":
            return sp.instantiate_task(base, packs, key, self.table)
        request = sp.FusionRequest(base=base, packs=packs, router=self.classifier,
                                   selector=sp.Features(self.requests[key]))
        return sp.fuse(request)

    def round(self):
        latencies = []
        for i in self.rng.permutation(len(self.ops)):
            op = self.ops[i]
            start = time.perf_counter()
            model = self._run(op)
            latencies.append(time.perf_counter() - start)
            digest = checks.digest(model.tensors)
            checks.require(self.seen.setdefault(op, digest) == digest,
                           f"{op} is not bit-identical to its first instantiation")
        failed = sum(not hostile.attempt(path, self.hostile_base) for path in self.hostile_files)
        return latencies, len(self.ops) + len(self.hostile_files), failed

    def memory_body(self) -> None:
        base = sp.load_checkpoint(self.path("base.gltc"))
        packs = {skill: sp.load_pack(self.path(f"{skill}.skpk")) for skill in SKILLS}
        for op in self.ops:
            self._run(op, base, packs)

    def check(self) -> dict[str, float]:
        base = self.base.tensors
        checks.require(checks.digest(base) == self.base_digest, "base arrays changed during the run")
        models = {tag: self._run(("tag", tag)).tensors for tag in TABLE}
        for tag, model in models.items():
            checks.require(checks.digest(model) == self.seen[("tag", tag)], f"tag {tag!r} changed on re-instantiation")
        checks.require(all(checks.bit_equal(base[n], models["idle"][n]) for n in base), "idle tag is not the base")

        style = sp.load_delta(self.path("delta-style.gltc")).deltas
        for name, b in base.items():
            want = b + style[name].astype(np.float32)
            checks.require(checks.bit_equal(models["style"][name], want), f"dense graft of {name} is not base + delta")
        for tag, members in TABLE.items():
            if len(members) > 1:
                checks.check_fusion_is_sum(base, models[tag], [models[m] for m in members], tag)

        for i, vector in enumerate(self.requests):
            scores = self.classifier.weights @ np.asarray(vector, dtype=np.float64) + self.classifier.bias
            want = SKILLS[int(np.argmax(scores))]
            got = sp.route(self.classifier, sp.Features(vector))
            checks.require(got == [(want, 1.0)], f"request {i} routed to {got}, argmax says {want!r}")
            checks.require(self.seen[("features", i)] == self.seen[("tag", want)],
                           f"request {i} is not the graft of {want!r}")

        errors = []
        for skill in ("math", "code"):
            deltas = sp.load_delta(self.path(f"delta-{skill}.gltc")).deltas
            num = sum(float(np.sum((models[skill][n].astype(np.float64) - base[n] - d) ** 2)) for n, d in deltas.items())
            den = sum(float(np.sum(d.astype(np.float64) ** 2)) for d in deltas.values())
            errors.append(np.sqrt(num / den))
        pack_bytes = sum(os.path.getsize(self.path(f"{skill}.skpk")) for skill in SKILLS)
        return {"pack_bytes": pack_bytes, "rel_err": float(np.mean(errors))}


WORKLOADS = {"pack-default": PackDefault, "retention-sweep": RetentionSweep, "task-switch": TaskSwitch}
