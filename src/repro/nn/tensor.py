"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the ``repro.nn`` package.  It provides a
:class:`Tensor` class that wraps a numpy array and records the operations
applied to it so that gradients can be propagated backwards through the
resulting computation graph — the same define-by-run model that PyTorch uses,
which the original WSCCL artifact depends on.

The engine intentionally supports only the operations the WSCCL pipeline and
its baselines need (dense linear algebra, element-wise math, reductions,
indexing, concatenation and stacking), but supports them with full
broadcasting semantics so that model code reads like idiomatic numpy.

Tensor data is always float64: lists, scalars and integer or boolean arrays
are converted on construction, and float64 arrays are wrapped without a
copy.  The 1e-10 serving-equivalence checks rely on float64 throughout.

Gradients accumulate as in PyTorch.  A tensor's first gradient is stored as
a fresh array that the tensor owns (never the caller's array, nor a view of
another tensor's gradient); every later one is added into it in place, so a
reference to a non-scalar tensor's ``.grad`` held across a second
:meth:`Tensor.backward` sees the sum.  :meth:`Tensor.zero_grad` drops the
array instead of zeroing it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "no_grad"]


_GRAD_ENABLED = [True]


class no_grad:
    """Context manager that disables gradient tracking.

    Used during evaluation and during expert inference in the curriculum
    stage, where building the autograd graph would only waste memory.
    """

    def __enter__(self):
        self._previous = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        _GRAD_ENABLED[0] = self._previous
        return False


def is_grad_enabled():
    """Return True when operations should record gradient information."""
    return _GRAD_ENABLED[0]


def _as_array(data):
    if isinstance(data, np.ndarray) and data.dtype == np.float64:
        return data
    return np.asarray(data, dtype=np.float64)


def scatter_sum(shape, index, values):
    """The gradient of ``x[index]`` for an ``x`` of ``shape``: ``values``
    summed into zeros at the positions that ``x[index]`` reads.

    numpy's own indexing maps each read to its flat position, so every index
    kind (slices, masks, repeated or negative integers) becomes one bincount.
    It adds the values in read order into zeros: each element gets the same
    additions, in the same order, as an unbuffered scatter-add.
    """
    size = int(np.prod(shape))
    positions = np.arange(size).reshape(shape)[index]
    full = np.bincount(np.ravel(positions), weights=np.ravel(values), minlength=size)
    return full.reshape(shape)


def _sum_to_shape(grad, shape):
    """Reduce ``grad`` so that it has ``shape``.

    Inverse of numpy broadcasting: gradients flowing into a broadcast operand
    must be summed over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload, stored as float64 (float64 arrays are kept
        without a copy).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` when
        :meth:`backward` is called on a downstream tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(self, data, requires_grad=False, _parents=(), _op=""):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad = None
        self._backward = None
        self._parents = _parents if self.requires_grad or _parents else ()
        self._op = _op

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self):
        return self.transpose()

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _ensure(other):
        return other if isinstance(other, Tensor) else Tensor(other)

    def _make_result(self, data, parents, backward, op):
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=parents if requires else (), _op=op)
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad):
        if self.grad is not None:
            self.grad += grad
        elif grad.shape == self.data.shape and self.data.flags.c_contiguous:
            # ``zeros_like(data) + grad`` in one allocation: the same bits
            # (-0.0 becomes +0.0) and the same C layout.
            self.grad = np.add(grad, 0.0, order="C")
        else:
            self.grad = np.zeros_like(self.data) + grad

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = self._ensure(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(grad, other.shape))

        return self._make_result(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other):
        other = self._ensure(other)
        out_data = self.data - other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(-grad, other.shape))

        return self._make_result(out_data, (self, other), backward, "sub")

    def __rsub__(self, other):
        return self._ensure(other).__sub__(self)

    def __mul__(self, other):
        other = self._ensure(other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(grad * self.data, other.shape))

        return self._make_result(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._ensure(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _sum_to_shape(-grad * self.data / (other.data ** 2), other.shape)
                )

        return self._make_result(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other):
        return self._ensure(other).__truediv__(self)

    def __neg__(self):
        out_data = -self.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make_result(out_data, (self,), backward, "neg")

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make_result(out_data, (self,), backward, "pow")

    def __matmul__(self, other):
        other = self._ensure(other)
        out_data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.outer(grad, other.data) if grad.ndim == 1 else grad[..., None] * other.data
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_sum_to_shape(grad_self, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.outer(self.data, grad)
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_sum_to_shape(grad_other, other.shape))

        return self._make_result(out_data, (self, other), backward, "matmul")

    # ------------------------------------------------------------------
    # Element-wise functions
    # ------------------------------------------------------------------
    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make_result(out_data, (self,), backward, "exp")

    def log(self):
        out_data = np.log(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make_result(out_data, (self,), backward, "log")

    def sqrt(self):
        return self ** 0.5

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return self._make_result(out_data, (self,), backward, "tanh")

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make_result(out_data, (self,), backward, "sigmoid")

    def relu(self):
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make_result(out_data, (self,), backward, "relu")

    def clip(self, low, high):
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make_result(out_data, (self,), backward, "clip")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        return self._make_result(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims=False):
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(out_data, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * g)

        return self._make_result(out_data, (self,), backward, "max")

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return self._make_result(out_data, (self,), backward, "reshape")

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._make_result(out_data, (self,), backward, "transpose")

    def __getitem__(self, index):
        out_data = self.data[index]

        def backward(grad):
            if self.requires_grad:
                self._accumulate(scatter_sum(self.shape, index, grad))

        return self._make_result(out_data, (self,), backward, "getitem")

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    @staticmethod
    def concatenate(tensors, axis=0):
        tensors = [Tensor._ensure(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(grad):
            start = 0
            for tensor, size in zip(tensors, sizes):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, start + size)
                    tensor._accumulate(grad[tuple(slicer)])
                start += size

        requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
        out = Tensor(out_data, requires_grad=requires,
                     _parents=tuple(tensors) if requires else (), _op="concat")
        if requires:
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad=None):
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to 1 for scalar tensors, matching PyTorch;
        a given ``grad`` must have this tensor's shape.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.shape:
                raise ValueError(f"grad has shape {grad.shape}, but the tensor "
                                 f"has shape {self.shape}")

        # Topological ordering of the graph reachable from self.
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
