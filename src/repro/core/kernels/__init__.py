"""Push-round kernel registry.

The engines execute gossip rounds through interchangeable *kernels* —
objects owning the sampling buffers and the share/scatter arithmetic of
one push round (see :mod:`repro.core.kernels.numpy_kernels`). This
module is the capability registry that picks one:

>>> from repro.core.kernels import select_kernel
>>> select_kernel().name in {"numba", "fused"}
True

Registered kernels, in auto-selection order:

``numba``
    Compiled selection + fused push round
    (:mod:`repro.core.kernels.numba_kernel`). Requires the optional
    ``kernels`` extra (``pip install repro-gossip[kernels]``); reported
    unavailable otherwise — never an import error.
``fused``
    Cache-blocked pure-numpy fused kernel. Always available; the
    fallback ``select_kernel()`` returns without numba.
``unfused``
    The historical reference step, byte-for-byte. Baseline for parity
    tests and benchmarks; never auto-selected.

``select_kernel(name)`` resolves an explicit request and raises
:class:`KernelUnavailableError` when the implementation cannot run in
this environment (e.g. ``"numba"`` without numba installed), listing
what *is* available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.errors import GossipError
from repro.core.kernels.plan import PushPlan, select_k_smallest

__all__ = [
    "KernelSpec",
    "KernelUnavailableError",
    "PushPlan",
    "available_kernels",
    "create_kernel",
    "register_kernel",
    "registered_kernels",
    "select_kernel",
    "select_k_smallest",
]


class KernelUnavailableError(GossipError):
    """A requested push kernel cannot run in this environment."""


def _numba_available() -> bool:
    from repro.core.kernels.numba_kernel import NUMBA_AVAILABLE

    return NUMBA_AVAILABLE


def _make_numba(plan, inv_k_plus_one, num_cols, num_channels=1):
    from repro.core.kernels.numba_kernel import NumbaFusedKernel

    return NumbaFusedKernel(plan, inv_k_plus_one, num_cols, num_channels=num_channels)


def _make_fused(plan, inv_k_plus_one, num_cols, num_channels=1):
    from repro.core.kernels.numpy_kernels import FusedNumpyKernel

    return FusedNumpyKernel(plan, inv_k_plus_one, num_cols, num_channels=num_channels)


def _make_unfused(plan, inv_k_plus_one, num_cols, num_channels=1):
    from repro.core.kernels.numpy_kernels import UnfusedNumpyKernel

    return UnfusedNumpyKernel(plan, inv_k_plus_one, num_cols, num_channels=num_channels)


@dataclass(frozen=True)
class KernelSpec:
    """Registry entry: how to detect and build one kernel implementation."""

    name: str
    description: str
    factory: Callable[..., object]
    is_available: Callable[[], bool] = field(default=lambda: True)
    #: Eligible for automatic selection (reference kernels opt out).
    auto: bool = True

    @property
    def available(self) -> bool:
        """Whether this kernel can run in the current environment."""
        return bool(self.is_available())


_REGISTRY: Dict[str, KernelSpec] = {}
#: Auto-selection preference, first available wins.
_AUTO_ORDER = ["numba", "fused", "unfused"]


def register_kernel(spec: KernelSpec) -> None:
    """Add (or replace) a kernel implementation in the registry."""
    _REGISTRY[spec.name] = spec


def registered_kernels() -> Tuple[KernelSpec, ...]:
    """All registered kernel specs, available or not."""
    return tuple(_REGISTRY.values())


def available_kernels() -> Tuple[str, ...]:
    """Names of the kernels that can run in this environment."""
    return tuple(name for name, spec in _REGISTRY.items() if spec.available)


def select_kernel(name: Optional[str] = None) -> KernelSpec:
    """Resolve a kernel name (or ``None``/"auto") to an available spec.

    Raises
    ------
    KernelUnavailableError
        If an explicitly requested kernel is unknown or cannot run here.
    """
    if name is None or name == "auto":
        for candidate in _AUTO_ORDER:
            spec = _REGISTRY.get(candidate)
            if spec is not None and spec.auto and spec.available:
                return spec
        raise KernelUnavailableError("no push kernel is available")
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise KernelUnavailableError(
            f"unknown push kernel {name!r}; registered kernels: {known}"
        )
    if not spec.available:
        raise KernelUnavailableError(
            f"push kernel {name!r} is not available in this environment "
            f"(install the 'kernels' extra for numba); available: "
            f"{', '.join(available_kernels())}"
        )
    return spec


def create_kernel(
    name: Optional[str],
    plan: PushPlan,
    inv_k_plus_one,
    num_cols: int,
    num_channels: int = 1,
):
    """Select and instantiate a kernel over ``plan``.

    ``num_channels`` is the number of independent reputation channels
    packed into each gossiped component; kernels use it only to widen
    perf heuristics (the combined-bincount column cutoff scales with
    it) — the arithmetic is channel-oblivious and byte-identical for
    any value.
    """
    spec = select_kernel(name)
    return spec.factory(plan, inv_k_plus_one, num_cols, num_channels=num_channels)


register_kernel(
    KernelSpec(
        name="numba",
        description="compiled fused push round (optional 'kernels' extra)",
        factory=_make_numba,
        is_available=_numba_available,
    )
)
register_kernel(
    KernelSpec(
        name="fused",
        description="pure-numpy fused push round (always available)",
        factory=_make_fused,
    )
)
register_kernel(
    KernelSpec(
        name="unfused",
        description="historical reference step, byte-for-byte",
        factory=_make_unfused,
        auto=False,
    )
)
