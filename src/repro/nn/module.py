"""Module / Parameter abstractions, mirroring ``torch.nn.Module``.

Modules own parameters and sub-modules, expose ``parameters()`` for
optimisers, and can export or load their state as plain numpy arrays — which
is how trained encoders are saved and loaded, and how pre-trained encoders
are transplanted into PathRank.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by ``Module``."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural-network modules."""

    def __init__(self):
        self._parameters = OrderedDict()
        self._modules = OrderedDict()

    # ------------------------------------------------------------------
    # Registration via attribute assignment
    # ------------------------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def parameters(self):
        """Yield every trainable parameter of this module and its children."""
        for param in self._parameters.values():
            yield param
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix=""):
        """Yield ``(name, parameter)`` pairs with dotted paths."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    # ------------------------------------------------------------------
    # State serialisation
    # ------------------------------------------------------------------
    def state_dict(self):
        """Return a name → numpy array copy of every parameter."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state):
        """Load parameter values from :meth:`state_dict` output.

        Raises ``KeyError`` if a parameter is missing and ``ValueError`` on a
        shape mismatch, so silent corruption cannot occur.
        """
        for name, param in self.named_parameters():
            if name not in state:
                raise KeyError(f"missing parameter in state dict: {name}")
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()
        return self

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

