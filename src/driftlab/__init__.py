"""Desk-scale lab for offline distillation of autoregressive token policies.

Trains small students on cached teacher traces under plain, divergence-based,
and density-ratio-corrected objectives, and measures how far inference-time
behavior drifts from the training distribution.
"""

from .vocab import ADD, ANSWER_MARK, BOS, EOS, MUL, TokenSequence, Vocabulary
from .policy import (
    FeedForwardPolicy,
    TabularPolicy,
    finite_difference_check,
    greedy_decode,
    load_policy,
    sample_sequence,
    save_policy,
)
from .task import (
    ChainTeacher,
    CorpusRecord,
    ProblemInstance,
    TaskConfig,
    TeacherSpec,
    TraceCorpus,
    filter_teacher_correct,
    generate_corpus,
    generate_problem,
    generate_problems,
    teacher_policy,
)
from .objectives import (
    ObjectiveSpec,
    WeightTransform,
    apply_transform,
    gkd_step,
    nce_identity_residual,
    sequence_weight,
    sft_loss,
    token_delta,
)
from .training import RunHistory, TrainConfig, clip_global_norm, lr_at, train
from .metrics import (
    ExAccErrCurve,
    TraceQualityReport,
    exaccerr,
    exaccerr_exact,
    final_answer_accuracy,
    prefix_drift_eval,
    repeated_4gram_fraction,
    trace_quality,
)
from .config import ExperimentConfig, config_hash, default_config, load_config, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
