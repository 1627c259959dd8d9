"""ViT model zoo for the ViTCoD reproduction."""

from .config import (
    StageSpec,
    ModelConfig,
    MODEL_REGISTRY,
    NLP_BERT_BASE,
    get_config,
)
from .attention import MultiHeadSelfAttention
from .vit import TransformerBlock, VisionTransformer, build_vit
from .levit import TokenPool, LeViT, build_levit
from .strided import StridedTransformer, build_strided
from .extraction import extract_average_attention
from .zoo import (
    TrainResult,
    train_classifier,
    train_pose_model,
    pretrained,
    evaluate_classifier,
    evaluate_pose,
)

__all__ = [
    "StageSpec",
    "ModelConfig",
    "MODEL_REGISTRY",
    "NLP_BERT_BASE",
    "get_config",
    "MultiHeadSelfAttention",
    "TransformerBlock",
    "VisionTransformer",
    "build_vit",
    "TokenPool",
    "LeViT",
    "build_levit",
    "StridedTransformer",
    "build_strided",
    "extract_average_attention",
    "TrainResult",
    "train_classifier",
    "train_pose_model",
    "pretrained",
    "evaluate_classifier",
    "evaluate_pose",
]
