"""Module/Parameter system: the container layer of the NN substrate.

Mirrors the familiar torch.nn semantics (registration by attribute
assignment, recursive parameter iteration, train/eval mode, state dicts) so
the compression and adaptation passes can address layers uniformly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor


# Process-wide structure epoch: bumped whenever a Parameter or Module is
# (re)registered anywhere, so callers can memoise parameter-tree walks
# and recompute them only after a structural edit.
_STRUCTURE_EPOCH = 0


def structure_epoch() -> int:
    """Counter that moves on every Parameter/Module (re)registration."""
    return _STRUCTURE_EPOCH


def bump_structure_epoch() -> None:
    """Record a structural edit made without ``Module.__setattr__``."""
    global _STRUCTURE_EPOCH
    _STRUCTURE_EPOCH += 1


class Parameter(Tensor):
    """A Tensor that is a trainable leaf of a Module."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration is automatic.  ``training`` toggles behaviours
    such as dropout.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            bump_structure_epoch()
        elif isinstance(value, Module):
            self._modules[name] = value
            bump_structure_epoch()
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Attach non-trainable persistent state (e.g. masks, RoPE tables)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> List["Module"]:
        return [m for _, m in self.named_modules()]

    def children(self) -> List["Module"]:
        return list(self._modules.values())

    def get_submodule(self, path: str) -> "Module":
        """Resolve a dotted path such as ``blocks.3.attn`` to a module."""
        module: Module = self
        if not path:
            return module
        for part in path.split("."):
            children = module._modules
            if part not in children:
                raise KeyError(f"no submodule {part!r} under {type(module).__name__}")
            module = children[part]
        return module

    # ------------------------------------------------------------------
    # modes and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def requires_grad_(self, flag: bool = True) -> "Module":
        """Freeze or unfreeze every parameter under this module."""
        for param in self.parameters():
            param.requires_grad = flag
        return self

    def num_parameters(self, trainable_only: bool = False) -> int:
        return sum(
            p.size
            for p in self.parameters()
            if not trainable_only or p.requires_grad
        )

    # ------------------------------------------------------------------
    # state dicts
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for mod_name, module in self.named_modules():
            for buf_name, buf in module._buffers.items():
                key = f"{mod_name}.{buf_name}" if mod_name else buf_name
                state[key] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own_params = dict(self.named_parameters())
        buffer_owners: Dict[str, Tuple[Module, str]] = {}
        for mod_name, module in self.named_modules():
            for buf_name in module._buffers:
                key = f"{mod_name}.{buf_name}" if mod_name else buf_name
                buffer_owners[key] = (module, buf_name)

        missing = (set(own_params) | set(buffer_owners)) - set(state)
        unexpected = set(state) - (set(own_params) | set(buffer_owners))
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            if name in own_params:
                param = own_params[name]
                if param.data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{param.data.shape} vs {value.shape}"
                    )
                param.data = value.astype(param.data.dtype).copy()
            elif name in buffer_owners:
                module, buf_name = buffer_owners[name]
                module.register_buffer(buf_name, value.copy())

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        return "\n".join(lines) + ")"


class ModuleList(Module):
    """An indexable, iterable container of sub-modules."""

    def __init__(self, modules: Optional[List[Module]] = None):
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._items))] = module
        self._items.append(module)
        bump_structure_epoch()
        return self

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ModuleList(self._items[index])
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)


class Sequential(Module):
    """Chain modules, feeding each output to the next."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self._modules[str(len(self._items))] = module
            self._items.append(module)

    def forward(self, x):
        for module in self._items:
            x = module(x)
        return x

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)
