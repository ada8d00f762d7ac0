"""Reverse-mode autodiff, network layers, optimizer, and context features."""

from .tensor import Tensor, constant, param  # noqa: F401
from .layers import (  # noqa: F401
    FeedForward,
    LSTM,
    OutputLayer,
    block_dropout_mask,
)
from .optim import Adam, OptimError  # noqa: F401
from .features import (  # noqa: F401
    bulk_context_features,
    context_features,
    feature_width,
    normalize_features,
)
