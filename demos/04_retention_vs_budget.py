"""Retention against storage budget.

Compresses one toy delta under four storage budgets and reports how the
compressed model's outputs deviate from the fully tuned model. More budget
buys higher factor ranks, wider code widths, and higher pruning retention,
so the deviation falls monotonically as spend grows.
"""

import skillpack as sp
from skillpack.classify import ModuleClass
from skillpack.toy import toy_param_shapes

spec = sp.ToySpec(seed=0)
base, tuned = sp.gen_toy(spec)
delta = sp.diff(base, tuned)
shapes = toy_param_shapes(spec)
manifest = sp.default_manifest()

budgets = (0.02, 0.05, 0.10, 0.20)
plans = [sp.budget_plan(budget, shapes) for budget in budgets]
packs = [sp.compress_delta(delta, manifest, plan, task_tag="sweep") for plan in plans]
# one sweep draws the probes and runs the tuned model once for all four packs
reports = sp.retention_sweep(base, tuned, packs, probe_count=64, seed=0)

print(f"{'budget':>7}  {'actual':>7}  {'mean dev':>9}  {'max dev':>9}   plan")
for budget, plan, report in zip(budgets, plans, reports):
    attn = plan.strategies[ModuleClass.ATTENTION]
    emb = plan.strategies[ModuleClass.EMBEDDING_OR_HEAD]
    desc = f"rank {attn.rank} @ {attn.groups[0].bits}b, alpha {emb.alpha:.3f} @ {emb.value_bits}b"
    print(
        f"{100 * budget:>6.0f}%  {100 * report.storage_ratio_total:>6.2f}%"
        f"  {100 * report.mean_deviation:>8.3f}%  {100 * report.max_deviation:>8.3f}%   {desc}"
    )

print("\nat a ~10% budget the compressed skill is near-lossless on this toy")
