"""Numba-compiled fused push kernel (optional ``kernels`` extra).

Import of this module never requires numba: when the package is absent
:data:`NUMBA_AVAILABLE` is ``False`` and :class:`NumbaFusedKernel`
raises :class:`~repro.core.kernels.KernelUnavailableError` from the
registry instead of an ``ImportError`` at import time.

Division of labour with numpy — chosen to keep sampling byte-identical
to the numpy kernels:

- **Random draws stay in numpy.** ``Generator.integers`` /
  ``Generator.random(out=)`` consume the PCG64 stream exactly as the
  numpy kernels do, so a seed replays the same target subsets under
  every kernel. Numba's own RNG would fork the stream.
- **Selection compiles.** The k-smallest-keys pass is
  embarrassingly parallel over rows, so it runs under
  ``@njit(parallel=True, nogil=True)`` with the same
  repeated-first-occurrence-argmin rule as
  :func:`repro.core.kernels.plan.select_k_smallest` — selected columns
  are byte-identical to the fused numpy kernel.
- **The push round compiles into one pass.** Prescale, share gather,
  scatter-accumulate and the heard mask fuse into a single traversal of
  the push list reading the *old* state and writing a fresh buffer —
  no ``(P, C)`` share temporary at all. The prescale loop is a
  ``prange``; the scatter loop is deliberately serial because distinct
  pushes hit shared target rows (a parallel scatter would race).
  Incremental per-push adds associate differently from bincount's
  per-bin sums, so values agree with the numpy kernels to 1e-8 over a
  run rather than byte-for-byte — the same relationship the sparse and
  dense engines have always had.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.numpy_kernels import FusedNumpyKernel

try:  # pragma: no cover - exercised only when numba is installed
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover
    NUMBA_AVAILABLE = False


if NUMBA_AVAILABLE:  # pragma: no cover - compiled paths run in the numba CI leg

    @njit(parallel=True, nogil=True, cache=True)
    def _select_and_gather(keys, padded_neighbors, k, targets_out):
        """Write each row's k smallest-key neighbours, ascending by key.

        Strict ``<`` comparison keeps the first occurrence on ties,
        matching ``np.argmin``; selected keys are overwritten with inf,
        matching the numpy helper's scratch semantics.
        """
        rows, width = keys.shape
        for r in prange(rows):
            base = r * k
            for j in range(k):
                best = 0
                best_val = keys[r, 0]
                for c in range(1, width):
                    v = keys[r, c]
                    if v < best_val:
                        best_val = v
                        best = c
                targets_out[base + j] = padded_neighbors[r, best]
                keys[r, best] = np.inf

    @njit(parallel=True, nogil=True, cache=True)
    def _push_round(old_state, inv_swap, senders, targets, new_state, heard):
        """One fused push round: prescale, scatter shares, mark heard.

        Reads ``old_state`` only, writes ``new_state`` and ``heard``
        only, so the caller can buffer-swap. The scatter loop is serial:
        pushes from different senders hit the same target rows.
        """
        n, num_cols = old_state.shape
        for i in prange(n):
            factor = inv_swap[i]
            for c in range(num_cols):
                new_state[i, c] = old_state[i, c] * factor
        for p in range(senders.shape[0]):
            s = senders[p]
            t = targets[p]
            factor = inv_swap[s]
            for c in range(num_cols):
                new_state[t, c] += old_state[s, c] * factor
            if t != s:
                heard[t] = True


class NumbaFusedKernel(FusedNumpyKernel):
    """Fused kernel with compiled selection and push-round passes.

    Subset (stop-protocol tail) steps reuse the numpy fallback paths
    unchanged; only the full-active hot path compiles.
    """

    name = "numba"

    def __init__(self, plan, inv_k_plus_one, num_cols, num_channels=1):
        if not NUMBA_AVAILABLE:  # defensive; the registry gates creation
            raise ImportError("numba is not installed")
        super().__init__(plan, inv_k_plus_one, num_cols, num_channels)

    def _sample_full_active(self, rng, targets_out):
        plan = self._plan
        pos = plan.k1_nodes.size
        if pos:
            offsets = rng.integers(plan.k1_degrees)
            targets_out[:pos] = plan.indices[plan.k1_starts + offsets]
        for group in plan.groups:
            keys = group.keys
            rng.random(out=keys)
            np.copyto(keys, np.inf, where=group.invalid)
            count = group.nodes.size * group.k
            _select_and_gather(
                keys, group.padded_neighbors, group.k, targets_out[pos : pos + count]
            )
            pos += count
        return plan.senders_full, targets_out[:pos]

    def _step_full(self, state, rng, loss_model, heard_out):
        senders, targets = self._sample_full_active(rng, self._targets_buf)
        effective_targets = self._effective_targets(senders, targets, loss_model)
        heard_out[:] = False
        if senders.size == 0:
            return state, 0
        new_state = self._prescaled
        _push_round(
            state, self._inv_swap, senders, effective_targets, new_state, heard_out
        )
        self._prescaled = state
        return new_state, int(senders.size)
