"""Small trainable encoder: masked-LM pre-training, vocabulary warm start,
and token-classification fine-tuning."""

from .checkpoint import (
    Checkpoint,
    export_embeddings,
    init_model,
    load_checkpoint,
    resize_for_vocab,
    save_checkpoint,
)
from .config import ModelConfig
from .gradcheck import DEFAULT_TINY_CONFIG, GradCheckResult, grad_check
from .model import forward_hidden
from .predict import predict, predict_corpus
from .training import (
    Adam,
    FinetuneConfig,
    TrainRecord,
    finetune_ner,
    format_trace,
    masked_accuracy,
    pretrain_mlm,
)

__all__ = [
    "Adam",
    "Checkpoint",
    "DEFAULT_TINY_CONFIG",
    "FinetuneConfig",
    "GradCheckResult",
    "ModelConfig",
    "TrainRecord",
    "export_embeddings",
    "finetune_ner",
    "format_trace",
    "forward_hidden",
    "grad_check",
    "init_model",
    "load_checkpoint",
    "masked_accuracy",
    "predict",
    "predict_corpus",
    "pretrain_mlm",
    "resize_for_vocab",
    "save_checkpoint",
]
