"""Pure-numpy push-round kernels: the unfused reference and the fused kernel.

A kernel owns every buffer a push round touches and exposes one method,
:meth:`step`, that advances a ``(N, C)`` state matrix by one gossip
round: sample targets, split shares, scale the self-share, scatter the
pushed shares, and record who heard external mass. The engines keep the
convergence bookkeeping (ratios, deviations, the stop protocol, mass
checks); the kernels keep the arithmetic.

Two implementations live here:

``unfused``
    A faithful extraction of the historical sparse-engine step — the
    chunk-and-concatenate sampler, a gathered share multiply, a masked
    scale pass and one ``bincount`` per state column. It exists as the
    measured baseline for the fused kernels and as the
    byte-compatibility reference: given the same seed it replays the
    pre-kernel engine bit-for-bit.

``fused``
    The optimised kernel. On full-active steps (every step under
    ``run_to_max``, and every step until the first node stops) it:

    - samples through :meth:`PushPlan.sample_full_active` — preallocated
      flat target buffer, precomputed sender layout,
      :func:`~repro.core.kernels.plan.select_k_smallest` selection —
      instead of building and concatenating per-group temporaries;
    - prescales the whole state matrix once
      (``prescaled = state * 1/(k_i+1)``) and gathers shares with
      ``np.take(..., out=)``, replacing the gathered multiply *and* the
      masked scale pass: the prescaled matrix simply becomes the next
      state (buffer swap — isolated nodes have ``k_i = 0`` so their
      scale factor is exactly 1.0 and the swap is bitwise lossless);
    - scatter-adds all C columns with a single ``bincount`` over
      ``target * C + column`` keys (one pass over the share buffer
      instead of C strided passes).

    Tail steps (once a node has stopped) sample through
    :meth:`PushPlan.sample_subset` and prescale too.

    Each fused pass computes the same IEEE operations on the same
    operand pairs as the unfused step, so per-column results are
    byte-identical; only the within-sender push order differs (ascending
    key vs argpartition's unspecified order), which perturbs bincount's
    per-bin accumulation order at the 1e-16 level. The parity suite pins
    the sampled k-subsets byte-identical and full-run outputs to 1e-8.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.kernels.plan import PushPlan

#: Widest *per-channel* state still scattered with the single combined
#: bincount; beyond ``COMBINED_BINCOUNT_MAX_COLS * num_channels`` total
#: columns the ``(P, C)`` int64 key buffer costs more than the strided
#: passes it saves, so the kernel falls back to per-column bincounts.
#: Multi-channel state widens the cutoff proportionally: V channels of a
#: d-wide workload are exactly V single-channel workloads sharing one
#: scatter, so the per-channel buffer economics are unchanged.
COMBINED_BINCOUNT_MAX_COLS = 4


def scatter_add_shares(
    state: np.ndarray,
    targets: np.ndarray,
    shares: np.ndarray,
    key_buf: Optional[np.ndarray],
) -> None:
    """Scatter-add ``shares[p]`` into ``state[targets[p]]`` for all pushes.

    With a key buffer, all C columns go through one ``bincount`` over
    combined ``target * C + column`` keys (the caller allocates the
    buffer only when the column count is under its cutoff). The flat
    C-order walk visits each bin's contributions in push order, exactly
    like the per-column bincounts, so the accumulated sums are
    byte-identical to the fallback loop.
    """
    n, num_cols = state.shape
    count = targets.shape[0]
    if key_buf is not None:
        keys = key_buf[:count]
        np.multiply(targets, num_cols, out=keys[:, 0])
        for c in range(1, num_cols):
            np.add(keys[:, 0], c, out=keys[:, c])
        flat = np.bincount(
            keys.ravel(), weights=shares.ravel(), minlength=n * num_cols
        )
        np.add(state, flat.reshape(n, num_cols), out=state)
    else:
        for c in range(num_cols):
            state[:, c] += np.bincount(targets, weights=shares[:, c], minlength=n)


class _KernelBase:
    """Buffers and parameters shared by every push-round kernel."""

    name = "base"

    def __init__(
        self,
        plan: PushPlan,
        inv_k_plus_one: np.ndarray,
        num_cols: int,
        num_channels: int = 1,
    ):
        self._plan = plan
        self._num_cols = int(num_cols)
        self._num_channels = max(1, int(num_channels))
        self._num_nodes = int(plan.degrees.shape[0])
        self._inv = np.ascontiguousarray(inv_k_plus_one, dtype=np.float64)
        self._shares_buf = np.empty((plan.max_pushes, num_cols), dtype=np.float64)
        self._scale = np.empty(self._num_nodes, dtype=np.float64)

    def step(
        self,
        state: np.ndarray,
        active: np.ndarray,
        *,
        all_active: bool,
        rng: np.random.Generator,
        loss_model,
        heard_out: np.ndarray,
    ) -> Tuple[np.ndarray, int]:
        """Advance ``state`` by one push round.

        Returns ``(state, num_pushes)``; the returned matrix may be a
        different (swapped) buffer than the argument — callers must
        rebind. ``heard_out`` is overwritten with the heard-external
        mask for the round.
        """
        raise NotImplementedError

    def _effective_targets(self, senders, targets, loss_model):
        if loss_model is not None:
            return loss_model.apply(senders, targets)
        return targets

    def _record_heard(self, senders, effective_targets, lossless, heard_out):
        heard_out[:] = False
        if lossless and self._plan.no_self_loops:
            # Targets are sampled from zero-diagonal neighbour lists, so
            # every delivered push is external by construction.
            heard_out[effective_targets] = True
        else:
            external = effective_targets[effective_targets != senders]
            heard_out[external] = True


class UnfusedNumpyKernel(_KernelBase):
    """Reference kernel: the historical sparse-engine step, verbatim.

    Byte-for-byte the pre-kernel engine — including the
    ``argpartition`` target selection and its randomness consumption —
    so it doubles as the baseline for the fused kernels' speedup and
    parity measurements.
    """

    name = "unfused"

    def step(self, state, active, *, all_active, rng, loss_model, heard_out):
        senders, targets = self._plan.sample_subset(rng, active)
        effective_targets = self._effective_targets(senders, targets, loss_model)
        shares = self._shares_buf[: senders.size]
        np.multiply(state[senders], self._inv[senders, None], out=shares)
        scale = self._scale
        scale.fill(1.0)
        scale[active] = self._inv[active]
        state *= scale[:, None]
        n = state.shape[0]
        for c in range(state.shape[1]):
            state[:, c] += np.bincount(
                effective_targets, weights=shares[:, c], minlength=n
            )
        self._record_heard(
            senders, effective_targets, lossless=loss_model is None, heard_out=heard_out
        )
        return state, int(senders.size)


class FusedNumpyKernel(_KernelBase):
    """Fused kernel: prescale + flat sampling + combined scatter."""

    name = "fused"

    def __init__(self, plan, inv_k_plus_one, num_cols, num_channels=1):
        super().__init__(plan, inv_k_plus_one, num_cols, num_channels)
        # Swap-safe prescale factors: eligible rows carry 1/(k_i + 1)
        # (bitwise equal to the reference factors), rows with no
        # neighbours are forced to exactly 1.0 so the prescaled matrix
        # can replace the state outright.
        inv_swap = self._inv.copy()
        inv_swap[plan.degrees == 0] = 1.0
        self._inv_swap = inv_swap
        self._prescaled = np.empty((self._num_nodes, num_cols), dtype=np.float64)
        self._targets_buf = np.empty(plan.max_pushes, dtype=np.int64)
        if num_cols <= COMBINED_BINCOUNT_MAX_COLS * self._num_channels:
            self._key_buf = np.empty((plan.max_pushes, num_cols), dtype=np.int64)
        else:
            self._key_buf = None

    def step(self, state, active, *, all_active, rng, loss_model, heard_out):
        if all_active:
            return self._step_full(state, rng, loss_model, heard_out)
        return self._step_subset(state, active, rng, loss_model, heard_out)

    def _step_full(self, state, rng, loss_model, heard_out):
        senders, targets = self._plan.sample_full_active(rng, self._targets_buf)
        effective_targets = self._effective_targets(senders, targets, loss_model)
        if senders.size == 0:
            heard_out[:] = False
            return state, 0
        prescaled = self._prescaled
        np.multiply(state, self._inv_swap[:, None], out=prescaled)
        shares = self._shares_buf[: senders.size]
        np.take(prescaled, senders, axis=0, out=shares)
        # The prescaled matrix *is* the post-scale state: swap buffers
        # instead of re-scaling in place, and recycle the old state as
        # the next round's prescale scratch.
        self._prescaled = state
        state = prescaled
        scatter_add_shares(state, effective_targets, shares, self._key_buf)
        self._record_heard(
            senders, effective_targets, lossless=loss_model is None, heard_out=heard_out
        )
        return state, int(senders.size)

    def _step_subset(self, state, active, rng, loss_model, heard_out):
        # Stop-protocol tail steps: a strict subset of nodes pushes.
        senders, targets = self._plan.sample_subset(rng, active)
        effective_targets = self._effective_targets(senders, targets, loss_model)
        shares = self._shares_buf[: senders.size]
        scale = self._scale
        scale.fill(1.0)
        np.copyto(scale, self._inv, where=active)
        # Prescale and swap, as on full steps.
        prescaled = self._prescaled
        np.multiply(state, scale[:, None], out=prescaled)
        np.take(prescaled, senders, axis=0, out=shares)
        self._prescaled = state
        state = prescaled
        scatter_add_shares(state, effective_targets, shares, self._key_buf)
        self._record_heard(
            senders, effective_targets, lossless=loss_model is None, heard_out=heard_out
        )
        return state, int(senders.size)
