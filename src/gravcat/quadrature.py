"""Composite Gauss-Legendre quadrature helpers shared by the grid numerics."""

from __future__ import annotations

import numpy as np

_RULE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _RULE_CACHE:
        _RULE_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _RULE_CACHE[order]


def gauss_legendre(lo: float, hi: float, n_panels: int, order: int = 16):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi].

    The interval is split into `n_panels` equal panels with an
    `order`-point rule on each; total node count is n_panels * order.
    """
    if hi <= lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if n_panels < 1:
        raise ValueError("need at least one panel")
    base_x, base_w = _rule(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    nodes = (centers[:, None] + half * base_x[None, :]).ravel()
    weights = np.broadcast_to(half * base_w, (n_panels, order)).ravel()
    return nodes, weights


# Panels every oscillation rule starts from, and the nodes it spends per
# cycle of the fastest oscillation on top of them.
_MIN_PANELS = 8
_NODES_PER_CYCLE = 6.0


def panels_for_oscillation(lo: float, hi: float, max_wavenumber: float,
                           order: int = 16) -> int:
    """Panel count so an integrand oscillating up to e^{i k x}, |k| <=
    max_wavenumber, is resolved with at least _NODES_PER_CYCLE nodes per
    cycle."""
    cycles = abs(max_wavenumber) * (hi - lo) / (2.0 * np.pi)
    needed = int(np.ceil(cycles * _NODES_PER_CYCLE / order)) + _MIN_PANELS
    return max(_MIN_PANELS, needed)
