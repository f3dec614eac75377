"""Message-passing encoder from atomic numbers and periodic edges to node embeddings.

Initial node features come from a learned per-element table (or a learned mask
vector for feature-masked nodes); edges are featurized with Gaussian radial
basis values plus the raw unit direction. Each layer adds a gated message sum
over incoming directed edges to the running node state (residual form), so a
node with no neighbors adds an empty sum; an edgeless graph runs every layer.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import ParameterGroup, Tensor
from .elements import MAX_Z
from .errors import ValidationError
from .periodic_graph import GraphBatch, PeriodicGraph


@dataclass
class LayerParams(ParameterGroup):
    """One message-passing layer: a message MLP and a gate MLP.

    Both are two-layer SiLU MLPs over [h_i || h_j || e_ij]; the gate output
    is squashed with a sigmoid before multiplying the message.
    """

    msg_w1: Tensor
    msg_b1: Tensor
    msg_w2: Tensor
    msg_b2: Tensor
    gate_w1: Tensor
    gate_b1: Tensor
    gate_w2: Tensor
    gate_b2: Tensor


@dataclass
class EncoderParams(ParameterGroup):
    atom_table: Tensor  # (118, d)
    mask_vector: Tensor  # (d,)
    layers: list[LayerParams] = field(default_factory=list)
    dim: int = 64
    rbf_count: int = 16
    cutoff: float = 5.0

    def __post_init__(self):
        if self.atom_table.data.shape != (MAX_Z, self.dim):
            raise ValidationError(
                f"atom_table must be ({MAX_Z}, {self.dim}), "
                f"got {self.atom_table.data.shape}"
            )
        if self.mask_vector.data.shape != (self.dim,):
            raise ValidationError("mask_vector dimension mismatch")
        if self.cutoff <= 0.0:
            raise ValidationError("cutoff must be positive")
        if self.rbf_count < 1:
            raise ValidationError("rbf_count must be >= 1")


def _mlp_pair(rng, in_dim: int, hidden: int, out_dim: int, prefix: str):
    w1 = ag.parameter(rng.normal(0.0, in_dim ** -0.5, size=(in_dim, hidden)),
                      f"{prefix}_w1")
    b1 = ag.parameter(np.zeros(hidden), f"{prefix}_b1")
    w2 = ag.parameter(rng.normal(0.0, hidden ** -0.5, size=(hidden, out_dim)),
                      f"{prefix}_w2")
    b2 = ag.parameter(np.zeros(out_dim), f"{prefix}_b2")
    return w1, b1, w2, b2


# Largest dim, num_layers or rbf_count a config takes. The widest weight,
# (dim, 6, dim) float64s, stays under the 2**63 bytes past which NumPy raises
# ValueError instead of MemoryError; no memory holds 2**28 layers either.
MAX_SIZE = 2**28


def init_layers(
    rng: np.random.Generator,
    dim: int,
    num_layers: int,
    rbf_count: int,
    prefix: str = "encoder",
) -> list[LayerParams]:
    in_dim = 2 * dim + rbf_count + 3
    layers = []
    for ell in range(num_layers):
        pre = f"{prefix}.layer{ell}"
        layers.append(LayerParams(
            *_mlp_pair(rng, in_dim, dim, dim, f"{pre}.msg"),
            *_mlp_pair(rng, in_dim, dim, dim, f"{pre}.gate"),
        ))
    return layers


def init_encoder_params(
    rng: np.random.Generator,
    dim: int = 64,
    num_layers: int = 2,
    rbf_count: int = 16,
    cutoff: float = 5.0,
) -> EncoderParams:
    """Random initialization: unit-scale embeddings, 1/sqrt(fan-in) weights."""
    atom_table = ag.parameter(rng.normal(size=(MAX_Z, dim)), "encoder.atom_table")
    mask_vector = ag.parameter(rng.normal(size=dim), "encoder.mask_vector")
    layers = init_layers(rng, dim, num_layers, rbf_count, "encoder")
    return EncoderParams(atom_table, mask_vector, layers, dim, rbf_count, cutoff)


def edge_features(
    distances: np.ndarray,
    directions: np.ndarray,
    rbf_count: int,
    cutoff: float,
) -> np.ndarray:
    """Featurize edges: rbf_count Gaussians over distance plus the direction.

    Centers are evenly spaced on [0, cutoff], width sigma = cutoff / rbf_count;
    output is (E, rbf_count + 3).
    """
    distances = np.asarray(distances, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    if np.any(distances <= 0.0) or np.any(distances > cutoff):
        raise ValidationError("edge distance outside (0, cutoff]")
    centers = np.linspace(0.0, cutoff, rbf_count)
    sigma = cutoff / rbf_count
    rbf = np.exp(-((distances[:, None] - centers[None, :]) ** 2)
                 / (2.0 * sigma * sigma))
    return np.concatenate([rbf, directions.reshape(-1, 3)], axis=1)


def initial_embeddings(
    params: EncoderParams,
    atomic_numbers: np.ndarray,
    masked_nodes=(),
) -> Tensor:
    """Per-node starting features: table row Z-1, or the mask vector if masked."""
    numbers = np.asarray(atomic_numbers, dtype=np.int64)
    idx = numbers - 1
    if idx.size and (idx.min() < 0 or idx.max() >= MAX_Z):
        raise ValidationError("atomic number outside 1..118")
    masked = np.asarray(masked_nodes, dtype=np.int64)
    if masked.size and (masked.min() < 0 or masked.max() >= numbers.shape[0]):
        raise ValidationError("masked node index out of range")
    idx[masked] = MAX_Z  # row appended below; idx is a new array
    table = ag.concat(
        [params.atom_table, ag.reshape(params.mask_vector, (1, params.dim))],
        axis=0,
    )
    return ag.row_gather(table, idx)


def apply_layers(
    layers: list[LayerParams],
    graph: PeriodicGraph,
    h0: Tensor,
    rbf_count: int,
    cutoff: float,
) -> Tensor:
    """Run residual gated layers on initial node states h0 (N, d), one
    `ag.gated_message` tape entry per layer."""
    feats = ag.constant(edge_features(
        graph.distances, graph.directions, rbf_count, cutoff))
    h = h0
    for layer in layers:
        h = ag.gated_message(h, feats, graph.src, graph.dst, layer.tensors())
    return h


def encode_graph(
    params: EncoderParams,
    graph: PeriodicGraph,
    masked_nodes=(),
) -> Tensor:
    """Embed every node of a (possibly augmented) graph; returns (N, d)."""
    h0 = initial_embeddings(params, graph.atomic_numbers, masked_nodes)
    return apply_layers(params.layers, graph, h0, params.rbf_count,
                        params.cutoff)


def encode(params: EncoderParams, batch: GraphBatch) -> Tensor:
    """Embed a batch of views, hiding the features of its masked nodes."""
    return encode_graph(params, batch.graph, batch.masked_nodes)
