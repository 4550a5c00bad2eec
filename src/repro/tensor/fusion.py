"""Generalized elementwise fusion over captured graphs.

The auto-fuser runs at :meth:`GraphRecorder.finalize` time and rewrites
the recorded step list in two passes:

**Rule fusion (differentiable chains).**  Composed op chains that match a
registered pattern collapse into the corresponding hand-fused kernel op —
the four PR-5 kernels are now rule instances rather than special cases:

* ``silu`` → ``mul``                  ⇒ :class:`~repro.tensor.functional.SiluMulOp`
* ``add`` → ``gelu``/``silu``/``relu`` ⇒ :class:`~repro.tensor.functional.BiasActOp`
* the composed RMSNorm chain          ⇒ :class:`~repro.tensor.functional.RmsNormOp`
* the composed LayerNorm chain        ⇒ :class:`~repro.tensor.functional.LayerNormOp`

A rule only fires when it is provably bitwise-safe: the pattern's interior
values are single-use, the pattern's VJPs occupy *consecutive* positions
in the backward program (so no foreign accumulation can interleave), and —
for the norm rules, whose fused VJP merges several accumulations into the
input — the input receives no gradient contribution from any earlier
backward position.  Under those conditions the fused node's gradients are
bitwise identical to the composed chain's (the kernel VJPs replicate the
composed accumulation expressions and order exactly).

**Chain fusion (inference segments).**  Maximal runs of consecutive
non-differentiable elementwise steps whose intermediates are single-use
collapse into one :class:`FusedChainOp` node that executes the sub-ops
back-to-back over raw arrays — identical values, one step's dispatch
overhead.  Reductions participate through the named norm rules above.

Counters: ``tensor/fusion/rule_hits`` and ``tensor/fusion/chain_steps``
(steps eliminated by chain collapse).
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..obs import get_registry
from .functional import _BIAS_ACT, _LAYER_NORM, _RMS_NORM, _SILU_MUL
from .tensor import Op

_FUSION_ENABLED: contextvars.ContextVar = contextvars.ContextVar(
    "repro_graph_fusion", default=True
)


def graph_fusion_enabled() -> bool:
    """Whether finalize-time auto-fusion is active."""
    return _FUSION_ENABLED.get()


def set_graph_fusion(enabled: bool) -> bool:
    """Enable/disable auto-fusion for this context; returns previous value."""
    previous = _FUSION_ENABLED.get()
    _FUSION_ENABLED.set(bool(enabled))
    return previous


@contextlib.contextmanager
def graph_fusion(enabled: bool = True):
    """Context manager scoping the auto-fusion toggle."""
    token = _FUSION_ENABLED.set(bool(enabled))
    try:
        yield
    finally:
        _FUSION_ENABLED.reset(token)


class FusedChainOp(Op):
    """A run of elementwise sub-ops executed back-to-back as one node.

    Only ever wraps non-differentiable (inference) steps, so its ``vjp``
    is never dispatched.  Values are bitwise identical to the unfused
    steps: the same op forwards run in the same order, including the
    tape's float64 downcast rule.
    """

    name = "fused_chain"
    elementwise = True

    def __init__(self, program, n_inputs: int, n_locals: int, out_local: int):
        # program: tuple of (op, attrs, local-input indices, local output)
        self.program = program
        self.n_inputs = n_inputs
        self.n_locals = n_locals
        self.out_local = out_local

    def forward(self, inputs, attrs, out=None):
        vals: List[Optional[np.ndarray]] = list(inputs) + [None] * self.n_locals
        for op, sattrs, locs, out_loc in self.program:
            ins = tuple(vals[i] for i in locs)
            out_data, _ = op.forward(ins, sattrs)
            arr = np.asarray(out_data)
            if arr.dtype == np.float64 and not any(
                i.dtype == np.float64 for i in ins
            ):
                arr = arr.astype(np.float32)
            vals[out_loc] = arr
        return vals[self.out_local], None

    def vjp(self, ctx, grad, needs):  # pragma: no cover - never taped
        raise RuntimeError("FusedChainOp wraps inference-only steps")


def _use_counts(steps, protected: Set[int]) -> Dict[int, int]:
    uses: Dict[int, int] = {}
    for step in steps:
        for ps in step.parents:
            uses[ps] = uses.get(ps, 0) + 1
    for slot in protected:
        uses[slot] = uses.get(slot, 0) + 1
    return uses


def _slot_value(recorder, slot: int) -> Optional[np.ndarray]:
    for lf in recorder.leaves:
        if lf.slot == slot:
            return lf.tensor._data
    return None


def _slot_shape(recorder, producer, slot: int) -> Optional[Tuple[int, ...]]:
    step = producer.get(slot)
    if step is not None:
        return step.out_shape
    for spec in (*recorder.leaves, *recorder.inputs):
        if spec.slot == slot:
            return spec.shape
    return None


def _is_scalar_leaf(recorder, producer, slot: int, value: float) -> bool:
    if slot in producer:
        return False
    arr = _slot_value(recorder, slot)
    return (
        arr is not None
        and arr.shape == ()
        and float(arr) == float(value)
    )


def _bwd_positions(steps, loss_slot, rg) -> Dict[int, int]:
    from .graph import _build_backward

    program = _build_backward(steps, loss_slot, rg)
    return {id(step): k for k, (step, _needs) in enumerate(program)}


def _contiguous(positions: Sequence[int]) -> bool:
    ordered = sorted(positions)
    return ordered[-1] - ordered[0] == len(ordered) - 1


class _Match:
    __slots__ = ("drop", "tail", "fused_op", "attrs", "parents")

    def __init__(self, drop, tail, fused_op, attrs, parents):
        self.drop = drop          # steps removed (the whole pattern)
        self.tail = tail          # step whose position the fused node takes
        self.fused_op = fused_op
        self.attrs = attrs
        self.parents = parents


def _match_silu_mul(recorder, steps, producer, uses, protected, pos):
    matches = []
    for t in steps:
        if t.op.name != "mul" or len(t.parents) != 2:
            continue
        u = t.parents[0]
        s = producer.get(u)
        if (
            s is None
            or s.op.name != "silu"
            or s.taped != t.taped
            or uses.get(u, 0) != 1
            or u in protected
        ):
            continue
        if t.taped:
            if pos is None or id(t) not in pos or id(s) not in pos:
                continue
            if not _contiguous((pos[id(t)], pos[id(s)])):
                continue
        matches.append(
            _Match([s, t], t, _SILU_MUL, None, (s.parents[0], t.parents[1]))
        )
    return matches


def _match_bias_act(recorder, steps, producer, uses, protected, pos):
    matches = []
    for t in steps:
        if t.op.name not in ("gelu", "silu", "relu") or len(t.parents) != 1:
            continue
        u = t.parents[0]
        s = producer.get(u)
        if (
            s is None
            or s.op.name != "add"
            or s.taped != t.taped
            or uses.get(u, 0) != 1
            or u in protected
        ):
            continue
        if t.taped:
            if pos is None or id(t) not in pos or id(s) not in pos:
                continue
            if not _contiguous((pos[id(t)], pos[id(s)])):
                continue
        matches.append(_Match([s, t], t, _BIAS_ACT, t.op.name, tuple(s.parents)))
    return matches


def _interior_ok(slots, uses, protected, expect=1) -> bool:
    return all(uses.get(s, 0) == expect and s not in protected for s in slots)


def _no_earlier_consumer(steps, pos, window_ids, x_slot) -> bool:
    """True if no taped consumer of ``x_slot`` outside the pattern runs at
    an earlier backward position than the pattern itself (which would make
    the fused single-accumulation regroup a pre-existing gradient sum)."""
    start = min(p for sid, p in pos.items() if sid in window_ids)
    for step in steps:
        if id(step) in window_ids or not step.taped:
            continue
        if x_slot in step.parents:
            p = pos.get(id(step))
            if p is not None and p < start:
                return False
    return True


def _match_rms_norm(recorder, steps, producer, uses, protected, pos):
    matches = []
    for t in steps:
        if t.op.name != "mul" or len(t.parents) != 2:
            continue
        xr_slot, w_slot = t.parents
        m_xr = producer.get(xr_slot)
        if m_xr is None or m_xr.op.name != "mul":
            continue
        x_slot, r_slot = m_xr.parents
        m_r = producer.get(r_slot)
        if m_r is None or m_r.op.name != "pow" or m_r.attrs != -0.5:
            continue
        m_t = producer.get(m_r.parents[0])
        if m_t is None or m_t.op.name != "add":
            continue
        t0_slot, eps_slot = m_t.parents
        m_t0 = producer.get(t0_slot)
        if m_t0 is None or m_t0.op.name != "mul":
            continue
        s_slot, inv_slot = m_t0.parents
        m_s = producer.get(s_slot)
        if m_s is None or m_s.op.name != "sum" or m_s.attrs != (-1, True):
            continue
        m_sq = producer.get(m_s.parents[0])
        if (
            m_sq is None
            or m_sq.op.name != "mul"
            or m_sq.parents[0] != m_sq.parents[1]
            or m_sq.parents[0] != x_slot
        ):
            continue
        pattern = [m_sq, m_s, m_t0, m_t, m_r, m_xr, t]
        if len({s.taped for s in pattern}) != 1:
            continue
        interiors = (xr_slot, r_slot, m_r.parents[0], t0_slot, s_slot, m_s.parents[0])
        if not _interior_ok(interiors, uses, protected):
            continue
        x_shape = _slot_shape(recorder, producer, x_slot)
        if x_shape is None or not x_shape:
            continue
        if not _is_scalar_leaf(
            recorder, producer, inv_slot, np.float32(1.0 / x_shape[-1])
        ):
            continue
        eps_val = _slot_value(recorder, eps_slot)
        if eps_slot in producer or eps_val is None or eps_val.shape != ():
            continue
        if t.taped:
            if pos is None or any(id(s) not in pos for s in pattern):
                continue
            window = [pos[id(s)] for s in pattern]
            if not _contiguous(window):
                continue
            window_ids = {id(s) for s in pattern}
            if not _no_earlier_consumer(steps, pos, window_ids, x_slot):
                continue
        matches.append(
            _Match(pattern, t, _RMS_NORM, float(eps_val), (x_slot, w_slot))
        )
    return matches


def _match_layer_norm(recorder, steps, producer, uses, protected, pos):
    matches = []
    for t in steps:
        if t.op.name != "add" or len(t.parents) != 2:
            continue
        mw_slot, b_slot = t.parents
        m_mw = producer.get(mw_slot)
        if m_mw is None or m_mw.op.name != "mul":
            continue
        nm_slot, w_slot = m_mw.parents
        m_nm = producer.get(nm_slot)
        if m_nm is None or m_nm.op.name != "mul":
            continue
        ct_slot, r_slot = m_nm.parents
        m_r = producer.get(r_slot)
        if m_r is None or m_r.op.name != "pow" or m_r.attrs != -0.5:
            continue
        m_t = producer.get(m_r.parents[0])
        if m_t is None or m_t.op.name != "add":
            continue
        v0_slot, eps_slot = m_t.parents
        m_v0 = producer.get(v0_slot)
        if m_v0 is None or m_v0.op.name != "mul":
            continue
        s2_slot, inv2_slot = m_v0.parents
        m_s2 = producer.get(s2_slot)
        if m_s2 is None or m_s2.op.name != "sum" or m_s2.attrs != (-1, True):
            continue
        m_sq = producer.get(m_s2.parents[0])
        if (
            m_sq is None
            or m_sq.op.name != "mul"
            or m_sq.parents[0] != m_sq.parents[1]
            or m_sq.parents[0] != ct_slot
        ):
            continue
        m_ct = producer.get(ct_slot)
        if m_ct is None or m_ct.op.name != "sub":
            continue
        x_slot, mu_slot = m_ct.parents
        m_mu = producer.get(mu_slot)
        if m_mu is None or m_mu.op.name != "mul":
            continue
        s1_slot, inv1_slot = m_mu.parents
        m_s1 = producer.get(s1_slot)
        if (
            m_s1 is None
            or m_s1.op.name != "sum"
            or m_s1.attrs != (-1, True)
            or m_s1.parents[0] != x_slot
        ):
            continue
        pattern = [m_s1, m_mu, m_ct, m_sq, m_s2, m_v0, m_t, m_r, m_nm, m_mw, t]
        if len({s.taped for s in pattern}) != 1:
            continue
        interiors = (
            mw_slot,
            nm_slot,
            r_slot,
            m_r.parents[0],
            v0_slot,
            s2_slot,
            m_s2.parents[0],
            mu_slot,
            s1_slot,
        )
        if not _interior_ok(interiors, uses, protected):
            continue
        # centered is consumed three times, all inside the pattern
        if uses.get(ct_slot, 0) != 3 or ct_slot in protected:
            continue
        x_shape = _slot_shape(recorder, producer, x_slot)
        if x_shape is None or not x_shape:
            continue
        inv = np.float32(1.0 / x_shape[-1])
        if not _is_scalar_leaf(recorder, producer, inv1_slot, inv):
            continue
        if not _is_scalar_leaf(recorder, producer, inv2_slot, inv):
            continue
        eps_val = _slot_value(recorder, eps_slot)
        if eps_slot in producer or eps_val is None or eps_val.shape != ():
            continue
        if t.taped:
            if pos is None or any(id(s) not in pos for s in pattern):
                continue
            window = [pos[id(s)] for s in pattern]
            if not _contiguous(window):
                continue
            window_ids = {id(s) for s in pattern}
            if not _no_earlier_consumer(steps, pos, window_ids, x_slot):
                continue
        matches.append(
            _Match(
                pattern, t, _LAYER_NORM, float(eps_val), (x_slot, w_slot, b_slot)
            )
        )
    return matches


_RULES = (_match_layer_norm, _match_rms_norm, _match_silu_mul, _match_bias_act)


def _apply_rules(recorder, steps, protected, loss_slot, rg):
    from .graph import _Step

    uses = _use_counts(steps, protected)
    producer = {s.out: s for s in steps}
    pos = None
    if loss_slot is not None:
        pos = _bwd_positions(steps, loss_slot, rg)
    claimed: Set[int] = set()
    replacements = {}
    dropped: Set[int] = set()
    hits = 0
    for rule in _RULES:
        for match in rule(recorder, steps, producer, uses, protected, pos):
            ids = {id(s) for s in match.drop}
            if ids & claimed:
                continue
            claimed |= ids
            tail = match.tail
            fused = _Step(
                match.fused_op,
                match.attrs,
                match.parents,
                tail.out,
                tail.taped,
                tail.out_shape,
                tail.out_dtype,
            )
            replacements[id(tail)] = fused
            dropped |= ids - {id(tail)}
            hits += 1
    if not hits:
        return steps
    get_registry().counter("tensor/fusion/rule_hits").inc(hits)
    out = []
    for step in steps:
        if id(step) in replacements:
            out.append(replacements[id(step)])
        elif id(step) not in dropped:
            out.append(step)
    return out


def _fuse_untaped_chains(steps, protected):
    from .graph import _Step

    uses = _use_counts(steps, protected)
    out = []
    eliminated = 0
    i = 0
    while i < len(steps):
        step = steps[i]
        if step.taped or not step.op.elementwise or not step.op.cacheable:
            out.append(step)
            i += 1
            continue
        # Grow a maximal run of consecutive untaped elementwise steps in
        # which each intermediate feeds only the next step.
        j = i
        while (
            j + 1 < len(steps)
            and not steps[j + 1].taped
            and steps[j + 1].op.elementwise
            and steps[j + 1].op.cacheable
            and uses.get(steps[j].out, 0) == 1
            and steps[j].out not in protected
            and steps[j].out in steps[j + 1].parents
        ):
            j += 1
        if j == i:
            out.append(step)
            i += 1
            continue
        chain = steps[i : j + 1]
        # Build the local program: externals first, then sub outputs.
        chain_outs = {sub.out for sub in chain}
        ext: List[int] = []
        for sub in chain:
            for ps in sub.parents:
                if ps not in chain_outs and ps not in ext:
                    ext.append(ps)
        local: Dict[int, int] = {}
        for k, sub in enumerate(chain):
            local[sub.out] = len(ext) + k
        program = []
        for sub in chain:
            locs = tuple(
                local[ps] if ps in local else ext.index(ps) for ps in sub.parents
            )
            program.append((sub.op, sub.attrs, locs, local[sub.out]))
        tail = chain[-1]
        fused = _Step(
            FusedChainOp(tuple(program), len(ext), len(chain), local[tail.out]),
            None,
            tuple(ext),
            tail.out,
            False,
            tail.out_shape,
            tail.out_dtype,
        )
        out.append(fused)
        eliminated += len(chain) - 1
        i = j + 1
    if eliminated:
        get_registry().counter("tensor/fusion/chain_steps").inc(eliminated)
    return out


def fuse_steps(recorder, steps, protected: Set[int], loss_slot: Optional[int]):
    """Run both fusion passes over a recorded step list."""
    if not _FUSION_ENABLED.get():
        return steps
    steps = _apply_rules(recorder, steps, protected, loss_slot, recorder._rg)
    steps = _fuse_untaped_chains(steps, protected)
    return steps
