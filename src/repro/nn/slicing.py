"""Structural slicing: SliceGPT-style rotate-and-slice compression.

``PruneMask`` only zeroes weights — every GEMM still runs at full
dimension.  This pass *deletes* residual-stream dimensions outright, so
the matmuls genuinely shrink:

1. For each residual-stream junction (embedding output, every block's
   post-attention and post-MLP adds) collect calibration activations and
   eigendecompose their covariance (PCA).  The eigenbasis is an
   orthogonal rotation ``Q`` ordered by explained energy.
2. Rotate the weights reading from / writing to that junction into the
   PCA basis and keep only the top ``d_r = ratio * dim`` components:
   input-side weights lose rows (``W' = Q_s^T @ W``), output-side
   weights lose columns (``W' = W @ Q_s``).
3. The residual add now mixes two *different* sliced bases, so each
   block carries ``attn_shortcut_Q`` / ``mlp_shortcut_Q`` buffers that
   map the incoming residual into the sublayer-output basis (the
   TransformerCompression adapter pattern) — see
   :meth:`TransformerBlock.forward`.

RMSNorm commutes with orthogonal rotations (the root-mean-square is
rotation invariant), which is what makes the pre-norm residual stream
rotatable at all: each norm's elementwise weight is folded into the
following projections first, and the replacement norm over the sliced
stream gets a scalar weight correcting the rms for the deleted
dimensions (exactly 1.0 at ratio 1.0, so a rotation-only pass is
output-identical up to float reassociation).

The calibration signals are the *pre-norm* residual activations.  They
cannot be observed with :class:`~repro.nn.transforms.InputCapture`
probes on the Linears (those see post-norm signals, and the sequential
pass must propagate activations through the already-sliced prefix), so
this module stages the forward manually — the residual-stream analogue
of :func:`~repro.nn.linear_capture.capture_linear_inputs`.

Sliced models round-trip through serialization: :func:`slice_spec`
derives the structural layout from a sliced model, ``save_model`` embeds
it, and :func:`apply_slice_structure` re-shapes a freshly built model so
``load_state_dict`` can restore the exact parameters and shortcut
buffers.  Apply slicing *before* LUC / PEFT wrappers: the pass refuses
``TransformedLinear`` sites because weight-shaped transform state (prune
masks, LoRA factors) would go stale under a dimension change.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..tensor import Tensor, no_grad
from .layers import Linear, RMSNorm
from .transformer import TransformerLM

SHORTCUT_BUFFERS = ("attn_shortcut_Q", "mlp_shortcut_Q")

# (attribute path, True if the weight reads the residual stream on its
# input side / False if it writes the stream on its output side)
_ATTN_IN = ("q_proj", "k_proj", "v_proj")
_MLP_IN = ("gate_proj", "up_proj")


# ----------------------------------------------------------------------
# small numerics helpers
# ----------------------------------------------------------------------
def pca_rotation(acts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Orthogonal basis of ``acts`` covariance, descending by energy.

    Returns ``(Q, energy)``: ``Q`` is ``(d, d)`` with eigenvectors as
    columns ordered most-energetic first, ``energy`` the matching
    (clamped non-negative) eigenvalues.
    """
    flat = np.asarray(acts, dtype=np.float64).reshape(-1, acts.shape[-1])
    cov = flat.T @ flat / max(flat.shape[0], 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    return evecs[:, order], np.maximum(evals[order], 0.0)


def slice_dim(dim: int, ratio: float, round_to: int = 8) -> int:
    """Kept width for ``ratio``, rounded to a multiple of ``round_to``."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"slice ratio must be in (0, 1], got {ratio}")
    if ratio == 1.0:
        return dim
    step = max(min(round_to, dim), 1)
    kept = int(round(dim * ratio / step)) * step
    return int(min(max(kept, step), dim))


def _norm_scale(energy: np.ndarray, keep: int) -> float:
    """RMS correction for a sliced norm: the replacement RMSNorm averages
    over ``keep`` dims of the projected stream, while the original
    averaged over all ``d`` dims of the full stream.  On calibration
    statistics the ratio of the two rms values is
    ``sqrt((E_kept / E_total) * (d / keep))`` — folded into the sliced
    norm's weight so post-norm magnitudes match.  Exactly 1.0 when
    nothing is sliced."""
    total = float(energy.sum())
    kept = float(energy[:keep].sum())
    if total <= 0.0:
        return 1.0
    return float(np.sqrt((kept / total) * (len(energy) / keep)))


def _sliced_norm(template: RMSNorm, dim: int, scale: float) -> RMSNorm:
    norm = RMSNorm(dim, eps=template.eps)
    norm.weight.data = np.full(
        (dim,), scale, dtype=norm.weight.data.dtype
    )
    return norm


def _rotate_in(linear: Linear, q_s: np.ndarray, norm_weight: np.ndarray) -> None:
    """Fold the preceding norm's weight into ``linear`` and rotate+slice
    its input side: ``W' = Q_s^T @ diag(norm_w) @ W``."""
    w = linear.weight.data
    rotated = q_s.T @ (np.asarray(norm_weight, dtype=np.float64)[:, None] * w)
    linear.weight.data = rotated.astype(w.dtype)
    linear.in_features = q_s.shape[1]


def _rotate_out(linear: Linear, q_s: np.ndarray) -> None:
    """Rotate+slice ``linear``'s output side: ``W' = W @ Q_s``."""
    w = linear.weight.data
    linear.weight.data = (w @ q_s).astype(w.dtype)
    linear.out_features = q_s.shape[1]


def _set_shortcut(block, name: str, q: np.ndarray, dtype) -> None:
    block.register_buffer(name, np.ascontiguousarray(q, dtype=dtype))


def _clear_shortcut(block, name: str) -> None:
    block._buffers.pop(name, None)
    if hasattr(block, name):
        object.__delattr__(block, name)


def _require_plain_linears(blocks) -> None:
    for i, block in enumerate(blocks):
        sublayers = [
            ("attn." + n, getattr(block.attn, n)) for n in _ATTN_IN + ("o_proj",)
        ] + [
            ("mlp." + n, getattr(block.mlp, n))
            for n in _MLP_IN + ("down_proj",)
        ]
        for path, lin in sublayers:
            if not isinstance(lin, Linear):
                raise ValueError(
                    f"block {i} {path} is a {type(lin).__name__}; structural "
                    "slicing needs plain Linears — slice first, then apply "
                    "LUC / PEFT wrappers"
                )


# ----------------------------------------------------------------------
# structural spec (serialization contract)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SliceSpec:
    """Structural layout of a sliced model.

    ``blocks[i] = (d_in, d_mid, d_out)``: block *i*'s input junction,
    post-attention junction and output junction widths.  Consecutive
    blocks chain (``d_in[i] == d_out[i-1]``); the embedding is sliced to
    ``blocks[0][0]`` and the final norm + head to ``blocks[-1][2]``.
    ``untied`` records that slicing materialized a separate ``lm_head``
    for a tied-embedding config (the rotated embedding and the rotated
    unembedding live in different bases).
    """

    dim: int
    blocks: Tuple[Tuple[int, int, int], ...]
    untied: bool

    def __post_init__(self):
        for i, (d_in, d_mid, d_out) in enumerate(self.blocks):
            if min(d_in, d_mid, d_out) < 1 or max(d_in, d_mid, d_out) > self.dim:
                raise ValueError(f"block {i} dims {self.blocks[i]} out of range")
            if i > 0 and d_in != self.blocks[i - 1][2]:
                raise ValueError(
                    f"block {i} input width {d_in} != block {i-1} output "
                    f"width {self.blocks[i - 1][2]}"
                )

    @property
    def head_in_dim(self) -> int:
        return self.blocks[-1][2]

    def hw_dims(self) -> Dict[int, Tuple[int, int, int]]:
        """Per-block ``(d_in, d_mid, d_out)`` for the ``repro.hw``
        workload builders."""
        return {i: dims for i, dims in enumerate(self.blocks)}

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "blocks": [list(b) for b in self.blocks],
            "untied": self.untied,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SliceSpec":
        return cls(
            dim=int(payload["dim"]),
            blocks=tuple(tuple(int(x) for x in b) for b in payload["blocks"]),
            untied=bool(payload["untied"]),
        )


def is_sliced(model: TransformerLM) -> bool:
    """True once :func:`rotate_and_slice` (or a sliced checkpoint load)
    installed shortcut rotations — even at ratio 1.0 the stream is in a
    rotated basis."""
    return any(
        SHORTCUT_BUFFERS[0] in block._buffers for block in model.blocks
    )


def slice_spec(model: TransformerLM) -> Optional[SliceSpec]:
    """Derive the :class:`SliceSpec` of a sliced model (None if unsliced)."""
    flags = [SHORTCUT_BUFFERS[0] in block._buffers for block in model.blocks]
    if not any(flags):
        return None
    if not all(flags):
        raise ValueError("model is partially sliced; cannot derive a spec")
    blocks = []
    for block in model.blocks:
        d_in, d_mid = block._buffers["attn_shortcut_Q"].shape
        d_out = block._buffers["mlp_shortcut_Q"].shape[1]
        blocks.append((int(d_in), int(d_mid), int(d_out)))
    untied = model.config.tie_embeddings and model.lm_head is not None
    return SliceSpec(dim=model.config.dim, blocks=tuple(blocks), untied=untied)


def residual_dims(model: TransformerLM) -> List[int]:
    """Junction widths along the residual path: embedding output, then
    each block's post-attention and post-MLP junction.  All equal to
    ``config.dim`` for an unsliced model."""
    spec = slice_spec(model)
    if spec is None:
        d = model.config.dim
        return [d] * (2 * model.num_layers + 1)
    out = [spec.blocks[0][0]]
    for _, d_mid, d_out in spec.blocks:
        out.extend([d_mid, d_out])
    return out


# ----------------------------------------------------------------------
# the global rotate-and-slice pass
# ----------------------------------------------------------------------
def rotate_and_slice(
    model: TransformerLM,
    calib_ids: np.ndarray,
    ratios: Union[float, Sequence[float]] = 1.0,
    round_to: int = 8,
) -> SliceSpec:
    """Rotate the residual stream into per-junction PCA bases and slice
    it to per-block ``ratios``, in place.

    Processes blocks sequentially, propagating the calibration batch
    through the already-sliced prefix (so each junction's PCA sees the
    activations the sliced model will actually produce).  Block *i*'s
    ratio governs its post-attention and output junctions; its input
    junction is block *i-1*'s output (the embedding junction uses
    ``ratios[0]``).  Attention-internal widths (heads, KV cache) and the
    MLP hidden width are untouched — only residual-stream dimensions
    shrink, which is where every block GEMM reads or writes.

    Returns the :class:`SliceSpec`; ``save_model`` embeds it so sliced
    checkpoints reload structurally intact.
    """
    if is_sliced(model):
        raise ValueError("model is already sliced")
    _require_plain_linears(model.blocks)
    num_layers = model.num_layers
    if isinstance(ratios, (int, float)):
        ratios = [float(ratios)] * num_layers
    ratios = [float(r) for r in ratios]
    if len(ratios) != num_layers:
        raise ValueError(
            f"need one ratio per block: got {len(ratios)} for {num_layers}"
        )
    d = model.config.dim
    dtype = model.embed.weight.data.dtype
    ids = np.asarray(calib_ids, dtype=np.int64)

    was_training = model.training
    model.eval()
    try:
        # The unembedding must be captured before the embedding rotates:
        # tied heads read the same matrix the embedding is about to leave.
        if model.lm_head is None:
            w_unembed = model.embed.weight.data.astype(np.float64).T.copy()
        else:
            w_unembed = model.lm_head.weight.data.astype(np.float64).copy()

        with no_grad():
            hid = model.embed_tokens(ids).data.astype(np.float64)

        # Embedding junction: PCA over the token embeddings in context.
        q_full, energy = pca_rotation(hid)
        d_in = slice_dim(d, ratios[0], round_to)
        q_in = q_full[:, :d_in]
        c_in = _norm_scale(energy, d_in)
        model.embed.weight.data = (
            model.embed.weight.data.astype(np.float64) @ q_in
        ).astype(dtype)
        model.embed.embedding_dim = d_in
        hid = hid @ q_in

        spec_blocks: List[Tuple[int, int, int]] = []
        for i, block in enumerate(model.blocks):
            # -- attention sublayer -------------------------------------
            norm_w = block.attn_norm.weight.data
            for name in _ATTN_IN:
                _rotate_in(getattr(block.attn, name), q_in, norm_w)
            block.attn_norm = _sliced_norm(block.attn_norm, d_in, c_in)
            with no_grad():
                attn_out = block.attn(block.attn_norm(Tensor(hid))).data
            junction = hid @ q_in.T + attn_out  # back in the full basis

            q_full, energy = pca_rotation(junction)
            d_mid = slice_dim(d, ratios[i], round_to)
            q_mid = q_full[:, :d_mid]
            c_mid = _norm_scale(energy, d_mid)
            _rotate_out(block.attn.o_proj, q_mid)
            _set_shortcut(block, "attn_shortcut_Q", q_in.T @ q_mid, dtype)
            hid = junction @ q_mid

            # -- MLP sublayer -------------------------------------------
            norm_w = block.mlp_norm.weight.data
            for name in _MLP_IN:
                _rotate_in(getattr(block.mlp, name), q_mid, norm_w)
            block.mlp_norm = _sliced_norm(block.mlp_norm, d_mid, c_mid)
            with no_grad():
                mlp_out = block.mlp(block.mlp_norm(Tensor(hid))).data
            junction = hid @ q_mid.T + mlp_out

            q_full, energy = pca_rotation(junction)
            d_out = slice_dim(d, ratios[i], round_to)
            q_out = q_full[:, :d_out]
            c_out = _norm_scale(energy, d_out)
            _rotate_out(block.mlp.down_proj, q_out)
            _set_shortcut(block, "mlp_shortcut_Q", q_mid.T @ q_out, dtype)
            hid = junction @ q_out

            spec_blocks.append((d_in, d_mid, d_out))
            q_in, c_in, d_in = q_out, c_out, d_out

        # -- final norm + head ------------------------------------------
        norm_w = model.norm.weight.data.astype(np.float64)
        head_w = (q_in.T @ (norm_w[:, None] * w_unembed)).astype(dtype)
        untied = False
        if model.lm_head is None:
            head = Linear(d_in, model.config.vocab_size, bias=False)
            head.weight.data = head_w
            model.lm_head = head
            untied = True
        else:
            model.lm_head.weight.data = head_w
            model.lm_head.in_features = d_in
        model.norm = _sliced_norm(model.norm, d_in, c_in)
    finally:
        model.train(was_training)
    return SliceSpec(dim=d, blocks=tuple(spec_blocks), untied=untied)


# ----------------------------------------------------------------------
# structural rebuild (checkpoint loading)
# ----------------------------------------------------------------------
def apply_slice_structure(model: TransformerLM, spec: SliceSpec) -> None:
    """Re-shape a freshly built model to ``spec`` so a sliced state dict
    loads: parameters get their sliced shapes (zero-filled), shortcut
    buffers are registered, norms are rebuilt at junction widths and a
    separate head is materialized when the spec untied it.  Values come
    from the subsequent ``load_state_dict``."""
    if is_sliced(model):
        raise ValueError("model already carries a slice structure")
    if spec.dim != model.config.dim or len(spec.blocks) != model.num_layers:
        raise ValueError(
            f"spec (dim={spec.dim}, blocks={len(spec.blocks)}) does not match "
            f"model (dim={model.config.dim}, blocks={model.num_layers})"
        )
    _require_plain_linears(model.blocks)
    dtype = model.embed.weight.data.dtype

    def reshape(linear: Linear, d_in: int, d_out: int) -> None:
        linear.weight.data = np.zeros((d_in, d_out), dtype=dtype)
        linear.in_features = d_in
        linear.out_features = d_out

    d_first = spec.blocks[0][0]
    model.embed.weight.data = np.zeros(
        (model.config.vocab_size, d_first), dtype=dtype
    )
    model.embed.embedding_dim = d_first
    for block, (d_in, d_mid, d_out) in zip(model.blocks, spec.blocks):
        attn, mlp = block.attn, block.mlp
        for name in _ATTN_IN:
            lin = getattr(attn, name)
            reshape(lin, d_in, lin.out_features)
        reshape(attn.o_proj, attn.o_proj.in_features, d_mid)
        block.attn_norm = _sliced_norm(block.attn_norm, d_in, 1.0)
        for name in _MLP_IN:
            lin = getattr(mlp, name)
            reshape(lin, d_mid, lin.out_features)
        reshape(mlp.down_proj, mlp.down_proj.in_features, d_out)
        block.mlp_norm = _sliced_norm(block.mlp_norm, d_mid, 1.0)
        _set_shortcut(
            block, "attn_shortcut_Q", np.zeros((d_in, d_mid)), dtype
        )
        _set_shortcut(
            block, "mlp_shortcut_Q", np.zeros((d_mid, d_out)), dtype
        )
    model.norm = _sliced_norm(model.norm, spec.head_in_dim, 1.0)
    if spec.untied:
        if model.lm_head is not None:
            raise ValueError("spec is untied but the model already has a head")
        model.lm_head = Linear(
            spec.head_in_dim, model.config.vocab_size, bias=False
        )
    if model.lm_head is not None:
        reshape(model.lm_head, spec.head_in_dim, model.config.vocab_size)


# ----------------------------------------------------------------------
# local trial (LUC sensitivity profiling)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def block_slice_trial(
    model: TransformerLM,
    block_index: int,
    ratio: float,
    calib_ids: np.ndarray,
    round_to: int = 8,
    hidden: Optional[np.ndarray] = None,
):
    """Temporarily slice *one* block's post-attention junction, fully
    restorable — the unit the LUC sensitivity sweep scores.

    ``hidden``, when given, is the unmodified model's hidden state
    entering the block on ``calib_ids``; it replaces the prefix forward
    that would otherwise recompute it.

    Only the junction between the block's attention and MLP is sliced:
    ``o_proj`` loses columns, ``gate/up`` lose rows, and the two shortcut
    rotations map full basis → sliced (``Q_s``) → back to full
    (``Q_s^T``), so the rest of the model is untouched and the trial
    stays a pure, restorable proxy for the block's structural
    sensitivity (the global pass re-derives rotations jointly)."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"slice ratio must be in (0, 1], got {ratio}")
    if ratio == 1.0:
        yield
        return
    block = model.blocks[block_index]
    if SHORTCUT_BUFFERS[0] in block._buffers:
        raise ValueError(f"block {block_index} is already sliced")
    _require_plain_linears([block])
    d = model.config.dim
    was_training = model.training
    model.eval()

    with no_grad():
        if hidden is None:
            hid = model.embed_tokens(np.asarray(calib_ids, dtype=np.int64))
            hidden = model.run_blocks(hid, 0, block_index).data
        x = hidden.astype(np.float64)
        attn_out = block.attn(block.attn_norm(Tensor(x))).data
    q_full, energy = pca_rotation(x + attn_out)
    d_r = slice_dim(d, ratio, round_to)
    q_s = q_full[:, :d_r]
    scale = _norm_scale(energy, d_r)
    dtype = block.attn.o_proj.weight.data.dtype

    saved_weights = {}
    for lin in [block.attn.o_proj] + [getattr(block.mlp, n) for n in _MLP_IN]:
        saved_weights[id(lin)] = (
            lin, lin.weight.data.copy(), lin.in_features, lin.out_features
        )
    saved_norm = block.mlp_norm
    try:
        _rotate_out(block.attn.o_proj, q_s)
        norm_w = saved_norm.weight.data
        for name in _MLP_IN:
            _rotate_in(getattr(block.mlp, name), q_s, norm_w)
        block.mlp_norm = _sliced_norm(saved_norm, d_r, scale)
        _set_shortcut(block, "attn_shortcut_Q", q_s, dtype)
        _set_shortcut(block, "mlp_shortcut_Q", q_s.T, dtype)
        model.train(was_training)
        yield
    finally:
        for lin, weight, d_in, d_out in saved_weights.values():
            lin.weight.data = weight
            lin.in_features = d_in
            lin.out_features = d_out
        block.mlp_norm = saved_norm
        for name in SHORTCUT_BUFFERS:
            _clear_shortcut(block, name)
        model.train(was_training)
