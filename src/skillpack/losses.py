"""Reference loss functions over supplied log-probabilities.

No model forward passes, no gradients: these are pure scoring functions
for desk-scale verification and workbench experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import check_number


def sft_nll(token_logps, aggregate: str = "mean") -> float:
    """Negative log-likelihood of a reference continuation.

    `token_logps` holds per-token log-probabilities (all <= 0). The default
    aggregation is the per-token mean; pass aggregate="sum" for the
    unnormalized variant.
    """
    logps = np.asarray(token_logps, dtype=np.float64)
    if logps.size == 0:
        raise ValueError("sft_nll needs at least one token log-probability")
    if not np.all(np.isfinite(logps)):
        raise ValueError("log-probabilities must be finite")
    if np.any(logps > 0):
        raise ValueError("log-probabilities must be <= 0")
    if aggregate == "mean":
        return float(-np.mean(logps) + 0.0)  # + 0.0 avoids returning -0.0
    if aggregate == "sum":
        return float(-np.sum(logps) + 0.0)
    raise ValueError(f"unknown aggregation {aggregate!r}")


@dataclass(frozen=True)
class PreferenceScores:
    """Sequence log-probabilities for a preferred/dispreferred response pair."""

    logp_w_policy: float
    logp_l_policy: float
    logp_w_ref: float
    logp_l_ref: float
    beta: float

    def __post_init__(self):
        for name in ("logp_w_policy", "logp_l_policy", "logp_w_ref", "logp_l_ref"):
            check_number(getattr(self, name), name)
        check_number(self.beta, "beta", 0)

    @property
    def margin(self) -> float:
        """Policy-vs-reference log-ratio gap between preferred and dispreferred."""
        return (self.logp_w_policy - self.logp_w_ref) - (self.logp_l_policy - self.logp_l_ref)


def dpo_loss(scores: PreferenceScores) -> float:
    """-log sigmoid(beta * margin), computed as softplus(-z) for stability."""
    z = scores.beta * scores.margin
    return float(np.logaddexp(0.0, -z))
