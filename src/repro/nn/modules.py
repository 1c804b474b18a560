"""Neural-network module system built on :mod:`repro.nn.tensor`.

Provides the layer vocabulary needed by the paper's Transformer workloads:
``Linear``, ``Embedding``, ``LayerNorm``, ``Dropout`` plus the ``Module``
container protocol (parameter registration, train/eval mode, state dicts).
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from repro.nn.tensor import Parameter, Tensor

__all__ = [
    "Module",
    "ModuleList",
    "Sequential",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "GELU",
    "ReLU",
    "Tanh",
]


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered automatically for optimization and
    serialization, mirroring the familiar torch.nn.Module protocol.
    """

    def __init__(self) -> None:
        self.training = True

    # -- forward ---------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- parameter discovery ----------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full_name = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full_name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full_name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    # -- gradient & mode management ----------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- serialization ------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array keyed by dotted path."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {param.data.shape} vs {state[name].shape}"
                )
            param.data = state[name].astype(param.data.dtype).copy()


class ModuleList(Module):
    """Hold an ordered list of sub-modules with proper registration."""

    def __init__(self, modules: list[Module] | None = None) -> None:
        super().__init__()
        self._items: list[Module] = list(modules or [])

    def append(self, module: Module) -> None:
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __setitem__(self, index: int, module: Module) -> None:
        self._items[index] = module

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for i, module in enumerate(self._items):
            yield from module.named_parameters(prefix=f"{prefix}{i}.")

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, Module]]:
        yield prefix.rstrip("."), self
        for i, module in enumerate(self._items):
            yield from module.named_modules(prefix=f"{prefix}{i}.")


class Sequential(Module):
    """Apply sub-modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = ModuleList(list(modules))

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


def _kaiming_uniform(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    bound = math.sqrt(1.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    """Affine map ``y = x @ W.T + b`` with weight of shape (out, in).

    The (out, in) layout matches the paper's description of storing the
    transposed weight so an input row-vector multiplies it directly, and is
    the layout consumed by :mod:`repro.svd` and :mod:`repro.rram.mapping`.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_kaiming_uniform(rng, in_features, (out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class Embedding(Module):
    """Token-id to dense-vector lookup table."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim)))

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return self.weight.embedding_lookup(indices)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.normalized_shape = normalized_shape
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normed = (x - mean) / (var + self.eps).sqrt()
        return normed * self.weight + self.bias


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return x.dropout(self.p, self.rng, training=self.training)


class _Activation(Module):
    _fn: Callable[[Tensor], Tensor]

    def forward(self, x: Tensor) -> Tensor:
        return type(self)._fn(x)


class GELU(_Activation):
    _fn = staticmethod(Tensor.gelu)


class ReLU(_Activation):
    _fn = staticmethod(Tensor.relu)


class Tanh(_Activation):
    _fn = staticmethod(Tensor.tanh)
