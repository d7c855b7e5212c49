"""Correctness checks computed apart from the library.

Each check recomputes what it verifies from first principles (closed-form
storage formulas, numpy's own SVD, a batched re-implementation of the toy
forward map, float32 sums done here) instead of calling the library code
under test. A failed check raises `CheckFailed`, which fails the run.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

import skillpack as sp


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def qmax(bits: int) -> int:
    return 2 ** (bits - 1) - 1


def digest(tensors: dict[str, np.ndarray]) -> tuple:
    """Order-sensitive fingerprint of a tensor map: names, shapes and bytes."""
    return tuple(
        (name, arr.dtype.str, arr.shape, zlib.crc32(np.ascontiguousarray(arr).view(np.uint8)))
        for name, arr in tensors.items()
    )


# --------------------------------------------------------------------------
# Storage accounting, from shapes and plan alone
# --------------------------------------------------------------------------

def toy_class(name: str, shape) -> str:
    """Class of a toy parameter by its name, as the toy's naming intends."""
    if len(shape) != 2:
        return "dense"
    if "embed" in name or "lm_head" in name:
        return "embedding_or_head"
    if ".mlp." in name:
        return "mlp"
    if ".self_attn." in name:
        return "attention"
    return "dense"


def expected_bits(shapes: dict[str, tuple], plan) -> tuple[int, int, int]:
    """(original, value, overhead) bits a plan must produce on these shapes.

    SVD: sum over groups of len*(m+n)*bits plus 32 bits per singular value,
    and two 32-bit scales per rank as overhead. Pruning: ceil(alpha*N)
    values at value_bits, each with a ceil(log2 N)-bit index, plus one
    32-bit scale per row. Dense: 32 bits per element. Baseline: 16 bits.
    """
    strategies = {cls.value: s for cls, s in plan.strategies.items()}
    original = value = overhead = 0
    for name, shape in shapes.items():
        n = int(np.prod(shape))
        original += 16 * n
        cls = toy_class(name, shape)
        strategy = None if cls == "dense" else strategies[cls]
        if isinstance(strategy, sp.SvdQuantStrategy):
            m, k = shape
            r = min(strategy.rank, m, k)
            for g in strategy.groups:
                if g.begin < r:
                    value += (min(g.end, r) - g.begin) * (m + k) * g.bits
            value += 32 * r
            overhead += 64 * r
        elif isinstance(strategy, sp.PruneStrategy):
            kept = math.ceil(strategy.alpha * n - 1e-9)
            value += kept * strategy.value_bits
            overhead += kept * math.ceil(math.log2(n)) + 32 * shape[0]
        else:
            value += 32 * n
    return original, value, overhead


def check_storage(pack, shapes, plan) -> None:
    total = pack.stats.total
    got = (total.original_bits, total.stored_value_bits, total.stored_overhead_bits)
    want = expected_bits(shapes, plan)
    require(got == want, f"storage bits {got} differ from the closed form {want}")


# --------------------------------------------------------------------------
# Entries against the delta they encode
# --------------------------------------------------------------------------

def check_codes_in_range(pack) -> None:
    for name, entry in pack.entries.items():
        if entry.kind == "quantized_svd":
            for g in entry.groups:
                limit = qmax(g.bits)
                u = entry.u_codes[:, g.begin : g.end]
                v = entry.v_codes[g.begin : g.end, :]
                require(
                    int(np.abs(u).max()) <= limit and int(np.abs(v).max()) <= limit,
                    f"{name}: codes outside the {g.bits}-bit range in group [{g.begin}, {g.end})",
                )
        elif entry.kind == "pruned_sparse" and entry.codes.size:
            require(
                int(np.abs(entry.codes).max()) <= qmax(entry.value_bits),
                f"{name}: pruned codes outside the {entry.value_bits}-bit range",
            )


def check_leading_sigma(pack, deltas: dict[str, np.ndarray], count: int = 16) -> None:
    """Leading stored singular values match numpy's SVD to float32 precision."""
    for name, entry in pack.entries.items():
        if entry.kind != "quantized_svd":
            continue
        reference = np.linalg.svd(deltas[name].astype(np.float64), compute_uv=False)
        k = min(count, entry.rank)
        err = np.abs(entry.sigma[:k].astype(np.float64) - reference[:k])
        require(
            bool(np.all(err <= 1e-6 * reference[0])),
            f"{name}: leading sigma off by {err.max():.3g} (sigma_0 {reference[0]:.6g})",
        )


def delta_rel_err(pack, deltas: dict[str, np.ndarray]) -> float:
    """Relative Frobenius error of the whole reconstructed delta.

    Also checks that each entry moves its tensor toward the tuned model,
    that is, its own relative error is below 1 (exact for zero deltas).
    """
    num = den = 0.0
    for name, entry in pack.entries.items():
        target = deltas[name].astype(np.float64)
        err = float(np.sum((entry.reconstruct().astype(np.float64) - target) ** 2))
        norm = float(np.sum(target**2))
        require(err < norm or err == norm == 0.0, f"{name}: entry does not move toward the tuned model")
        num += err
        den += norm
    return math.sqrt(num / den)


# --------------------------------------------------------------------------
# Retention: a batched reference for the toy forward map
# --------------------------------------------------------------------------

def reference_forward(tensors: dict[str, np.ndarray], tokens: np.ndarray) -> np.ndarray:
    """Mean logit vector per probe for a (probes x seq_len) token batch.

    Same map as the toy documents (h = embed[token]; per layer an
    attention-like and a gated MLP residual; logits = head @ (ln * h)),
    computed for all tokens at once with float64 matrix products.
    """
    t = {name: arr.astype(np.float64) for name, arr in tensors.items()}
    h = t["model.embed_tokens.weight"][tokens]  # probes x seq x d
    i = 0
    while f"model.layers.{i}.input_layernorm.weight" in t:
        p = f"model.layers.{i}"
        hn = t[f"{p}.input_layernorm.weight"] * h
        mixed = sum(hn @ t[f"{p}.self_attn.{q}.weight"].T for q in ("q_proj", "k_proj", "v_proj"))
        h = h + np.tanh(mixed) @ t[f"{p}.self_attn.o_proj.weight"].T
        hm = t[f"{p}.post_attention_layernorm.weight"] * h
        gate = np.tanh(hm @ t[f"{p}.mlp.gate_proj.weight"].T)
        up = np.tanh(hm @ t[f"{p}.mlp.up_proj.weight"].T)
        h = h + (gate * up) @ t[f"{p}.mlp.down_proj.weight"].T
        i += 1
    logits = (t["model.norm.weight"] * h) @ t["lm_head.weight"].T
    return logits.mean(axis=1)


def mean_deviation(tuned: dict, compressed: dict, tokens: np.ndarray) -> float:
    y_full = reference_forward(tuned, tokens)
    y_comp = reference_forward(compressed, tokens)
    return float(np.mean(np.linalg.norm(y_comp - y_full, axis=1) / np.linalg.norm(y_full, axis=1)))


# --------------------------------------------------------------------------
# Composition
# --------------------------------------------------------------------------

def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8)
    )


def check_fusion_is_sum(base: dict, fused: dict, singles: list[dict], label: str) -> None:
    """fused - base equals the sum of single-pack updates within float32 rounding."""
    eps = float(np.finfo(np.float32).eps)
    for name, b in base.items():
        b64 = b.astype(np.float64)
        updates = [s[name].astype(np.float64) - b64 for s in singles]
        want = b64 + sum(updates)
        scale = np.abs(b64) + sum(np.abs(u) for u in updates)
        err = np.abs(fused[name].astype(np.float64) - want)
        require(
            bool(np.all(err <= 4 * eps * scale)),
            f"{label}: {name} differs from base + sum of single-pack updates by {err.max():.3g}",
        )
