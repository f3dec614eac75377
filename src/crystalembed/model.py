"""Grouping of every trainable tensor in the pretraining model."""

from dataclasses import dataclass

import numpy as np

from .autograd import ParameterGroup, Tensor
from .contrastive import ProjectorParams, init_projector
from .decoders import (
    DEFAULT_CLASS_WEIGHTS,
    AdjDecoderParams,
    NodeDecoderParams,
    init_adj_decoder,
    init_node_decoder,
)
from .encoder import EncoderParams, init_encoder_params
from .errors import ValidationError


@dataclass
class ModelParams(ParameterGroup):
    """Encoder, both reconstruction heads, and the contrastive projector."""

    encoder: EncoderParams
    node_decoder: NodeDecoderParams
    adj_decoder: AdjDecoderParams
    projector: ProjectorParams

    def named(self) -> dict[str, Tensor]:
        """Name -> tensor in a stable order; names must be unique."""
        out: dict[str, Tensor] = {}
        for t in self.tensors():
            if t.name is None or t.name in out:
                raise ValidationError(f"parameter name missing or duplicated: {t.name}")
            out[t.name] = t
        return out


def init_model_params(
    rng: np.random.Generator,
    dim: int = 64,
    num_layers: int = 2,
    rbf_count: int = 16,
    cutoff: float = 5.0,
    temperature: float = 0.1,
    class_weights=DEFAULT_CLASS_WEIGHTS,
) -> ModelParams:
    return ModelParams(
        encoder=init_encoder_params(rng, dim, num_layers, rbf_count, cutoff),
        node_decoder=init_node_decoder(rng, dim),
        adj_decoder=init_adj_decoder(rng, dim, class_weights),
        projector=init_projector(rng, dim, temperature=temperature),
    )
