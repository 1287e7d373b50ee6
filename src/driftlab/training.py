"""Deterministic gradient-based training loop.

One run is a pure function of (config, corpus, objective, initial policy):
per-epoch shuffles come from seeds derived as (seed, epoch), the optimizer is
plain numpy, and reruns are bit-identical. Batches use the mean record loss;
gradients are globally norm-clipped before each update.

The learning-rate schedule is linear warmup followed by cosine decay to zero.
The first warmup step gets lr * 1/warmup_steps (not zero), and the step at the
end of warmup gets the full learning rate.

Weight decay (decoupled, adam-style) is available as a parity flag but is
never applied to tabular logit tables: shrinking logits just biases the policy
toward uniform and would confound objective comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import ObjectiveSpec, TraceBatch, batch_loss, gkd_step
from .objectives import evaluate_objective  # noqa: F401 -- bench/tracer.py wraps this name here
from .policy import ParametricPolicy, PolicyError, TabularPolicy
from .streams import permutations, uniform_block
from .task import TraceCorpus


# the GKD steps whose draws one uniform_block holds: it bounds the block's memory
_GKD_BLOCK_STEPS = 32


class TrainError(ValueError):
    pass


class TrainAbortError(RuntimeError):
    """Non-finite loss; carries the step index where training stopped."""

    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 6
    batch_size: int = 16
    warmup_fraction: float = 0.05
    clip_norm: float = 1.0
    optimizer: str = "sgd"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise TrainError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise TrainError("epochs and batch_size must be >= 1")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise TrainError("warmup_fraction must lie in [0, 1)")
        if self.clip_norm <= 0:
            raise TrainError("clip_norm must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise TrainError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_policy(cls, policy: ParametricPolicy) -> "OptimizerState":
        return cls(m=np.zeros_like(policy.params), v=np.zeros_like(policy.params))


@dataclass
class StepRecord:
    step: int
    lr: float
    loss: float
    grad_norm_pre: float
    grad_norm_post: float
    mean_weight: float
    weight_min: float
    weight_max: float


@dataclass
class RunHistory:
    steps: list[StepRecord] = field(default_factory=list)

    def losses(self) -> np.ndarray:
        return np.array([s.loss for s in self.steps])


def clip_global_norm(grad: np.ndarray, clip_norm: float) -> float:
    """Scale the gradient to at most ``clip_norm`` in L2, in place; returns the pre-clip norm."""
    if clip_norm <= 0:
        raise TrainError("clip_norm must be positive")
    if not np.all(np.isfinite(grad)):
        raise PolicyError("gradient buffer contains non-finite entries")
    norm = float(np.linalg.norm(grad))
    if norm > clip_norm:
        grad *= clip_norm / norm
    return norm


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    if not 0 <= step < total_steps:
        raise TrainError(f"step {step} outside [0, {total_steps})")
    warmup_steps = int(round(cfg.warmup_fraction * total_steps))
    if step < warmup_steps:
        return cfg.learning_rate * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = (step - warmup_steps) / span
    return cfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * progress))


def _apply_update(policy: ParametricPolicy, grad: np.ndarray, lr: float, cfg: TrainConfig, state: OptimizerState) -> None:
    state.step += 1
    if cfg.optimizer == "sgd":
        policy.params -= lr * grad
    else:
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        state.m = b1 * state.m + (1.0 - b1) * grad
        state.v = b2 * state.v + (1.0 - b2) * grad**2
        m_hat = state.m / (1.0 - b1**state.step)
        v_hat = state.v / (1.0 - b2**state.step)
        policy.params -= lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    if cfg.weight_decay > 0.0 and not isinstance(policy, TabularPolicy):
        policy.params -= lr * cfg.weight_decay * policy.params


def _batches(n: int, batch_size: int, perm: np.ndarray):
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def train(
    cfg: TrainConfig,
    corpus: TraceCorpus,
    objective: ObjectiveSpec,
    init_policy: ParametricPolicy,
    teacher=None,
    max_len: int = 24,
    arrays: TraceBatch | None = None,
    *,
    seed: int,
) -> tuple[ParametricPolicy, RunHistory]:
    """Train a copy of ``init_policy`` on the corpus; returns (snapshot, history).

    ``arrays`` is the corpus as one ``TraceBatch`` for students of this order,
    with the teacher's targets for a KL base, when the caller shares one among
    runs; it is built here otherwise. Each
    offline step gathers its records' rows from it and makes one
    ``batch_loss`` call; an online step makes one ``gkd_step``, on the first
    uniforms of stream (``seed``, 5, step), drawn for up to 32 steps at once.
    """
    if len(corpus) == 0:
        raise TrainError("corpus is empty")
    if objective.base in ("forward-kl", "reverse-kl", "symmetric-kl", "gkd") and teacher is None:
        raise TrainError(f"objective {objective.base!r} requires the analytic teacher")
    policy = init_policy.clone()
    records = corpus.records
    n = len(records)
    if objective.base != "gkd":
        if arrays is None:
            arrays = TraceBatch.of_corpus(corpus, policy, teacher if objective.base != "sft" else None)
        elif arrays.windows is None or arrays.windows.shape[1] != policy.order or arrays.offsets.size != n + 1:
            raise TrainError("the corpus arrays were built for another corpus or student order")
        elif objective.base != "sft" and arrays.teacher_targets is None:
            raise TrainError(f"objective {objective.base!r} needs corpus arrays built with the teacher")
    n_batches = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * n_batches
    state = OptimizerState.for_policy(policy)
    history = RunHistory()
    step = 0
    for perm in permutations(seed, cfg.epochs, n):
        for k, batch in enumerate(_batches(n, cfg.batch_size, perm)):
            if objective.base == "gkd":
                if k % _GKD_BLOCK_STEPS == 0:
                    # one row per step: B source uniforms, then room for a (B, max_len) token block
                    rows = np.arange(step, step + min(_GKD_BLOCK_STEPS, n_batches - k))
                    draws = uniform_block((seed, 5, rows), cfg.batch_size * (1 + max_len))
                result, _ = gkd_step(
                    policy,
                    teacher,
                    [records[i] for i in batch],
                    objective.gkd_lambda,
                    objective.gkd_beta,
                    draws[k % _GKD_BLOCK_STEPS],
                    max_len=max_len,
                )
            else:
                result = batch_loss(policy, arrays.take(batch), objective, teacher)
            grad, weights = result.grad, result.token_weights
            scale = 1.0 / len(batch)
            loss = result.loss * scale
            grad *= scale
            if not np.isfinite(loss):
                raise TrainAbortError(step, f"non-finite loss at step {step}")
            pre_norm = clip_global_norm(grad, cfg.clip_norm)
            lr = lr_at(step, total_steps, cfg)
            _apply_update(policy, grad, lr, cfg, state)
            history.steps.append(
                StepRecord(
                    step=step,
                    lr=lr,
                    loss=float(loss),
                    grad_norm_pre=pre_norm,
                    grad_norm_post=min(pre_norm, cfg.clip_norm),
                    mean_weight=float(weights.mean()) if weights.size else 1.0,
                    weight_min=float(weights.min()) if weights.size else 1.0,
                    weight_max=float(weights.max()) if weights.size else 1.0,
                )
            )
            step += 1
    return policy, history
