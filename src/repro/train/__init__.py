"""Training harness: trainer loop, evaluation metrics, grid tuner."""

from repro.train.metrics import (
    accuracy,
    top_k_accuracy,
    perplexity_from_loss,
    corpus_bleu,
    ngram_counts,
)
from repro.train.trainer import Trainer, TrainResult
from repro.train.accumulate import accumulate_gradients
from repro.train.resilience import RecoverySchedule, Rollback
from repro.train.tuner import GridTuner, TuningOutcome
from repro.train.callbacks import (
    Callback,
    BestMetric,
    EarlyStopping,
    CheckpointEveryN,
    LambdaCallback,
)

__all__ = [
    "accumulate_gradients",
    "accuracy",
    "top_k_accuracy",
    "perplexity_from_loss",
    "corpus_bleu",
    "ngram_counts",
    "Trainer",
    "TrainResult",
    "Rollback",
    "RecoverySchedule",
    "GridTuner",
    "TuningOutcome",
    "Callback",
    "BestMetric",
    "EarlyStopping",
    "CheckpointEveryN",
    "LambdaCallback",
]
