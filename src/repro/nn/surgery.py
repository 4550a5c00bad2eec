"""Model surgery: find, wrap, and restore submodules in place.

Every compression / PEFT / capture entry point in the repo swaps Linear
layers for wrappers and later puts the originals back.  This module is
the single engine behind all of them:

* :func:`resolve` / :func:`find_sites` locate submodules by dotted path
  (``"blocks.0.attn.q_proj"``) or by predicate over ``named_modules``;
* :func:`swap` / :func:`wrap` replace a child and hand back undo tokens;
* :func:`restore` plays any undo list backwards, dispatching on token
  type — legacy ``(parent, attr, original)`` tuples for module swaps, or
  any object with a ``.restore()`` method (e.g. the transform-pipeline
  tokens from :mod:`repro.nn.transforms`);
* :func:`applied` is the context-manager form: wrap on entry, restore on
  exit, even on error.

``ModuleList`` children live in ``parent._modules`` under stringified
indices (``getattr(parent, "0")`` does not work), so all child access
here goes through ``_modules`` first.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from .module import Module, ModuleList, bump_structure_epoch

UndoToken = Union[Tuple[Module, str, Module], object]


@dataclass
class Site:
    """One located submodule: its parent, attribute name, and full path."""

    parent: Module
    attr: str
    module: Module
    path: str


def _get_child(parent: Module, attr: str) -> Optional[Module]:
    child = parent._modules.get(attr)
    if child is not None:
        return child
    child = getattr(parent, attr, None)
    return child if isinstance(child, Module) else None


def _set_child(parent: Module, attr: str, module: Module) -> None:
    if isinstance(parent, ModuleList):
        parent._modules[attr] = module
        parent._items[int(attr)] = module
        bump_structure_epoch()
    else:
        setattr(parent, attr, module)


def resolve(root: Module, path: str) -> Site:
    """Walk a dotted path from ``root`` down to a submodule's site."""
    parent = root
    parts = path.split(".")
    for part in parts[:-1]:
        child = _get_child(parent, part)
        if child is None:
            raise KeyError(f"no submodule {part!r} while resolving {path!r}")
        parent = child
    attr = parts[-1]
    module = _get_child(parent, attr)
    if module is None:
        raise KeyError(f"no submodule {attr!r} while resolving {path!r}")
    return Site(parent=parent, attr=attr, module=module, path=path)


def get_module(root: Module, path: str) -> Module:
    """The submodule at a dotted path (``resolve(...).module``)."""
    return resolve(root, path).module


def find_sites(
    root: Module,
    paths: Optional[Sequence[str]] = None,
    predicate: Optional[Callable[[str, Module], bool]] = None,
) -> List[Site]:
    """Locate swap sites by explicit dotted paths *or* by predicate.

    Exactly one of ``paths`` / ``predicate`` must be given.  The
    predicate receives ``(path, module)`` for every child slot in the
    tree (in ``named_modules`` order) and selects the ones to return.
    """
    if (paths is None) == (predicate is None):
        raise ValueError("pass exactly one of paths= or predicate=")
    if paths is not None:
        return [resolve(root, p) for p in paths]
    sites: List[Site] = []
    for mod_path, mod in root.named_modules():
        for name, child in mod._modules.items():
            child_path = f"{mod_path}.{name}" if mod_path else name
            if predicate(child_path, child):
                sites.append(
                    Site(parent=mod, attr=name, module=child, path=child_path)
                )
    return sites


def swap(parent: Module, attr: str, module: Module) -> Tuple[Module, str, Module]:
    """Install ``module`` at ``parent.attr``; returns the undo token."""
    original = parent._modules.get(attr)
    if original is None:
        original = getattr(parent, attr)
    _set_child(parent, attr, module)
    return (parent, attr, original)


def restore(undo: Sequence[UndoToken]) -> None:
    """Play an undo list backwards, reinstalling the original modules.

    Accepts legacy ``(parent, attr, original)`` tuples and any token
    exposing ``.restore()`` — the two may be freely mixed in one list.
    """
    for token in reversed(list(undo)):
        if isinstance(token, tuple):
            parent, attr, original = token
            _set_child(parent, attr, original)
        else:
            token.restore()


def wrap(
    root: Module,
    build: Callable[[Module, Site], Module],
    paths: Optional[Sequence[str]] = None,
    predicate: Optional[Callable[[str, Module], bool]] = None,
    unwrap: Tuple[type, ...] = (),
) -> List[UndoToken]:
    """Wrap every matching site with ``build(inner, site)``.

    If a site already holds an instance of one of the ``unwrap`` classes,
    its ``.inner`` is extracted first so wrappers never nest (the
    original module is still what gets restored).
    """
    undo: List[UndoToken] = []
    for site in find_sites(root, paths=paths, predicate=predicate):
        inner = site.module
        if unwrap and isinstance(inner, unwrap):
            inner = inner.inner
        undo.append(swap(site.parent, site.attr, build(inner, site)))
    return undo


@contextlib.contextmanager
def applied(
    root: Module,
    build: Callable[[Module, Site], Module],
    paths: Optional[Sequence[str]] = None,
    predicate: Optional[Callable[[str, Module], bool]] = None,
    unwrap: Tuple[type, ...] = (),
) -> Iterator[List[UndoToken]]:
    """Context-manager form of :func:`wrap`: restores on exit."""
    undo = wrap(root, build, paths=paths, predicate=predicate, unwrap=unwrap)
    try:
        yield undo
    finally:
        restore(undo)
