"""Reverse-mode automatic differentiation on numpy arrays.

This module is the computational substrate of the reproduction.  The paper's
gradient-redistribution technique (Section 4.2) requires gradients of the task
loss with respect to the *singular values* of decomposed weight matrices, so
the whole fine-tuning stack is built on this small, explicit autograd engine.

Design notes
------------
- A :class:`Tensor` wraps a ``numpy.ndarray`` and optionally records the
  backward closure and parent tensors needed for reverse-mode AD.
- Gradients are plain ``numpy.ndarray`` objects accumulated into ``.grad``.
- All operations support numpy broadcasting; :func:`_unbroadcast` folds
  gradients back onto the operand shapes.
- There is no implicit global state: random operations (e.g. dropout) take an
  explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import special as _special

__all__ = [
    "Tensor",
    "Parameter",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "concatenate",
    "stack",
    "where",
]

#: dtypes the autograd engine supports as its default compute precision.
_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_default_dtype = np.dtype(np.float64)


def get_default_dtype() -> np.dtype:
    """The dtype new tensors (and accumulated gradients) are created with."""
    return _default_dtype


def set_default_dtype(dtype) -> np.dtype:
    """Set the process-wide tensor dtype; returns the previous one.

    float64 (the historical default) is the reproduction's accuracy ground
    truth; float32 halves training-memory traffic and is what the perf-tuned
    fine-tuning loops use (``svd.finetune(compute_dtype="float32")``) — the
    convergence tolerance between the two is unit-tested.
    """
    resolved = np.dtype(dtype)
    if resolved not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"default dtype must be float32 or float64, got {resolved.name}"
        )
    global _default_dtype
    previous = _default_dtype
    _default_dtype = resolved
    return previous


class default_dtype:
    """Context manager scoping a default-dtype override.

    ``default_dtype(None)`` is a no-op scope, so callers with an optional
    dtype parameter can always write ``with default_dtype(maybe_dtype):``.

    >>> with default_dtype(np.float32):
    ...     Tensor([1.0]).dtype
    dtype('float32')
    """

    def __init__(self, dtype) -> None:
        self._dtype = dtype

    def __enter__(self) -> np.dtype:
        self._previous = None if self._dtype is None else set_default_dtype(self._dtype)
        return get_default_dtype()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._previous is not None:
            set_default_dtype(self._previous)


class _GradMode:
    """Process-wide switch used by :func:`no_grad` (explicit, not magical)."""

    enabled = True


class no_grad:
    """Context manager disabling graph construction, mirroring torch.no_grad.

    >>> x = Tensor([1.0], requires_grad=True)
    >>> with no_grad():
    ...     y = x * 2
    >>> y.requires_grad
    False
    """

    def __enter__(self) -> "no_grad":
        self._previous = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _GradMode.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded for backprop."""
    return _GradMode.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were added or broadcast to reach ``shape``.

    numpy broadcasting aligns trailing dimensions; the gradient of a broadcast
    operand is the sum over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Remove leading axes that were introduced by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes where the original dimension was 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Coerce ``value`` (Tensor, array-like or scalar) into a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_default_dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but severed from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            # Accumulate in the tensor's own dtype: without the cast, a
            # float64 contribution would silently promote a float32 grad.
            self.grad = self.grad + np.asarray(grad, dtype=self.grad.dtype)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode AD from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to ones (and must be omitted only for
            scalar outputs in typical loss usage).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
            )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(
                        _unbroadcast(np.expand_dims(grad, -1) * other.data, self.shape)
                    )
                else:
                    self._accumulate(
                        _unbroadcast(grad @ np.swapaxes(other.data, -1, -2), self.shape)
                    )
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(
                        _unbroadcast(np.outer(self.data, grad).reshape(other.shape), other.shape)
                        if other.data.ndim == 2
                        else _unbroadcast(self.data * grad, other.shape)
                    )
                else:
                    other._accumulate(
                        _unbroadcast(np.swapaxes(self.data, -1, -2) @ grad, other.shape)
                    )

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def erf(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (2.0 / np.sqrt(np.pi)) * np.exp(-self.data**2))

        return Tensor._make(_special.erf(self.data), (self,), backward)

    def gelu(self) -> "Tensor":
        """Exact GELU, x * Phi(x), matching the paper's Transformer FFNs."""
        x = self.data
        phi = 0.5 * (1.0 + _special.erf(x / np.sqrt(2.0)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                pdf = np.exp(-0.5 * x**2) / np.sqrt(2.0 * np.pi)
                self._accumulate(grad * (phi + x * pdf))

        return Tensor._make(x * phi, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / count

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            full = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                full = np.expand_dims(out_data, axis=axis)
            mask = self.data == full
            # Split the gradient among ties, matching subgradient convention.
            counts = mask.sum(axis=axis if axis is not None else None, keepdims=True)
            self._accumulate(np.where(mask, g / counts, 0.0))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        out_data = np.transpose(self.data, axes)
        if axes is None:
            inverse: Sequence[int] | None = None
        else:
            inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        out_data = np.swapaxes(self.data, axis1, axis2)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(grad, axis1, axis2))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Composite neural-network functions
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True).detach()
        exp = shifted.exp()
        return exp / exp.sum(axis=axis, keepdims=True)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True).detach()
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        mask = np.asarray(mask, dtype=bool)
        out_data = np.where(mask, value, self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(np.where(mask, 0.0, grad), self.shape))

        return Tensor._make(out_data, (self,), backward)

    def dropout(self, p: float, rng: np.random.Generator, training: bool = True) -> "Tensor":
        """Inverted dropout with explicit randomness source."""
        if not training or p <= 0.0:
            return self
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        keep = (rng.random(self.shape) >= p) / (1.0 - p)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * keep)

        return Tensor._make(self.data * keep, (self,), backward)

    def embedding_lookup(self, indices: np.ndarray) -> "Tensor":
        """Row gather used by embedding tables; indices are not differentiated."""
        indices = np.asarray(indices)
        out_data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, indices.reshape(-1), grad.reshape(-1, self.data.shape[-1]))
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)


class Parameter(Tensor):
    """A tensor registered as a learnable parameter of a module."""

    __slots__ = ()

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        # Parameters stay trainable even when constructed under no_grad.
        self.requires_grad = True


# ----------------------------------------------------------------------
# Free functions over multiple tensors
# ----------------------------------------------------------------------
def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.moveaxis(grad, axis, 0)
        for tensor, piece in zip(tensors, slices):
            if tensor.requires_grad:
                tensor._accumulate(piece)

    return Tensor._make(out_data, tensors, backward)


def where(condition: np.ndarray, if_true: Tensor, if_false: Tensor) -> Tensor:
    """Differentiable elementwise select; ``condition`` is a constant mask."""
    condition = np.asarray(condition, dtype=bool)
    if_true = as_tensor(if_true)
    if_false = as_tensor(if_false)
    out_data = np.where(condition, if_true.data, if_false.data)

    def backward(grad: np.ndarray) -> None:
        if if_true.requires_grad:
            if_true._accumulate(_unbroadcast(np.where(condition, grad, 0.0), if_true.shape))
        if if_false.requires_grad:
            if_false._accumulate(_unbroadcast(np.where(condition, 0.0, grad), if_false.shape))

    return Tensor._make(out_data, (if_true, if_false), backward)
