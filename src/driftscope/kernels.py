"""Transition-density kernels: closed forms, tabulated slices, products.

Every kernel evaluates p(x, t, y) for start x, elapsed time t > 0, end y.
Closed-form kernels also expose exact log-densities, which downstream code
uses to form density ratios without underflow (for well-separated endpoints
at small t the densities themselves drop below the smallest float).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DataError
from .fields import ScalarField, interp
from .specs import Kind, build, finite, finite_list

_LOG_2PI = float(np.log(2.0 * np.pi))
# TabulatedKernel: how far a start point may lie from a tabulated source and
# still use its slices, and how far above 1 a slice's mass may reach
_SOURCE_MATCH_TOL = 1e-9
_MASS_TOL = 1e-3


def _check_time(t) -> None:
    if np.any(np.asarray(t) <= 0):
        raise DataError(f"time must be positive, got {t}")


def _sqdist(x, y) -> np.ndarray:
    d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    return np.sum(np.atleast_1d(d) ** 2, axis=-1) if d.ndim > 0 else d * d


class Kernel:
    """Common interface; dim is 1 or 2."""

    dim: int = 2
    exact_log: bool = False

    def log_density(self, x, t, y):
        return np.log(np.maximum(self.density(x, t, y), 1e-320))

    def density(self, x, t, y):
        return np.exp(self.log_density(x, t, y))


@dataclass(frozen=True)
class BrownianKernel(Kernel):
    """Heat kernel of standard Brownian motion."""

    dim: int = 2
    exact_log: bool = dc_field(default=True, init=False)

    def log_density(self, x, t, y):
        _check_time(t)
        t = np.asarray(t, dtype=float)
        if self.dim == 1:
            d2 = (np.asarray(y, dtype=float) - np.asarray(x, dtype=float)) ** 2
        else:
            d2 = _sqdist(x, y)
        return -0.5 * self.dim * (_LOG_2PI + np.log(t)) - d2 / (2.0 * t)


@dataclass(frozen=True)
class OrnsteinUhlenbeckKernel(Kernel):
    """Kernel of dx = -theta x dt + dw: Gaussian with mean x e^{-theta t}."""

    theta: float
    dim: int = 2
    exact_log: bool = dc_field(default=True, init=False)

    def __post_init__(self):
        if self.theta <= 0:
            raise DataError(f"rate theta must be positive, got {self.theta}")

    def log_density(self, x, t, y):
        _check_time(t)
        t = np.asarray(t, dtype=float)
        decay = np.exp(-self.theta * t)
        var = -np.expm1(-2.0 * self.theta * t) / (2.0 * self.theta)
        if self.dim == 1:
            d2 = (np.asarray(y, dtype=float) - np.asarray(x, dtype=float) * decay) ** 2
        else:
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            d = y - x * np.asarray(decay)[..., None] if np.ndim(decay) else y - x * decay
            d2 = np.sum(d**2, axis=-1)
        return -0.5 * self.dim * (_LOG_2PI + np.log(var)) - d2 / (2.0 * var)


@dataclass(frozen=True)
class TabulatedKernel(Kernel):
    """Density slices p(x0, t, .) on a grid, one table per source point x0.

    sources: list of (x0 point, {t: ScalarField}) pairs.  Slices must be
    nonnegative with total mass at most 1 + _MASS_TOL.
    """

    sources: tuple
    dim: int = 2

    def __post_init__(self):
        for x0, table in self.sources:
            for t, sl in table.items():
                if np.any(sl.values < 0):
                    raise DataError(f"tabulated slice at t={t} has negative values")
                mass = float(sl.values.sum()) * sl.grid.cell_area
                if mass > 1.0 + _MASS_TOL:
                    raise DataError(f"tabulated slice at t={t} integrates to {mass:.6f} > 1")

    def _lookup(self, x, t) -> ScalarField:
        x = np.asarray(x, dtype=float)
        for x0, table in self.sources:
            if np.max(np.abs(np.asarray(x0) - x)) <= _SOURCE_MATCH_TOL:
                for tk, sl in table.items():
                    if abs(tk - t) <= 1e-12 * max(1.0, abs(t)):
                        return sl
                raise DataError(f"no tabulated slice at t={t}")
        raise DataError(f"no tabulated source at x={x}")

    def density(self, x, t, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim == 2:
            return np.array(
                [self.density(xi, t, yi) for xi, yi in zip(x, np.atleast_2d(y))]
            )
        sl = self._lookup(x, float(t))
        return np.maximum(interp(sl, y, mode="zero"), 0.0)


@dataclass(frozen=True)
class ProductKernel(Kernel):
    """2-D kernel of two independent 1-D components, with optional coordinate
    offset: p((x1,x2), t, (y1,y2)) = k1(x1+o1, t, y1+o1) * k2(x2+o2, t, y2+o2).
    """

    k1: Kernel
    k2: Kernel
    offset: tuple = (0.0, 0.0)
    dim: int = dc_field(default=2, init=False)

    def __post_init__(self):
        if self.k1.dim != 1 or self.k2.dim != 1:
            raise DataError("ProductKernel components must be one-dimensional")

    @property
    def exact_log(self) -> bool:  # type: ignore[override]
        return self.k1.exact_log and self.k2.exact_log

    def log_density(self, x, t, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        o1, o2 = self.offset
        return self.k1.log_density(x[..., 0] + o1, t, y[..., 0] + o1) + self.k2.log_density(
            x[..., 1] + o2, t, y[..., 1] + o2
        )


def gaussian_kernel(x, t, y):
    """Planar heat-kernel density (2 pi t)^{-1} exp(-|y-x|^2 / (2t))."""
    return np.exp(BrownianKernel(dim=2).log_density(x, t, y))


def ou_kernel(x, t, y, theta: float):
    """Planar Ornstein-Uhlenbeck density with relaxation rate theta."""
    return np.exp(OrnsteinUhlenbeckKernel(theta=theta, dim=2).log_density(x, t, y))


def _ou(spec: dict, where: str) -> Kernel:
    return OrnsteinUhlenbeckKernel(theta=finite(spec["theta"], f"{where}.theta"), dim=2)


def _product_ou(spec: dict, where: str) -> Kernel:
    # independent 1-D components; a rate <= 0 means driftless (Brownian)
    thetas = (finite(spec.get(key, 0.0), f"{where}.{key}") for key in ("theta1", "theta2"))
    k1, k2 = (OrnsteinUhlenbeckKernel(th, dim=1) if th > 0 else BrownianKernel(dim=1) for th in thetas)
    offset = finite_list(spec.get("offset", (0.0, 0.0)), f"{where}.offset", 2)
    return ProductKernel(k1, k2, offset=offset)


# The kernel kinds a config may name.
KERNEL_KINDS = {
    "brownian": Kind((), (), lambda spec, where: BrownianKernel(dim=2)),
    "ou": Kind(("theta",), ("theta",), _ou),
    "product_ou": Kind(("theta1", "theta2", "offset"), (), _product_ou),
}


def kernel_from_config(spec: dict, where: str = "kernel") -> Kernel:
    """The kernel a config's kernel spec describes (`KERNEL_KINDS`).

    A spec that is not a JSON object, names no known kind, lacks a key its
    kind requires, holds a key its kind does not take or gives a number
    that is not finite is a ConfigError naming `where`; a nonpositive OU
    rate is the kernel's own DataError.
    """
    return build(KERNEL_KINDS, spec, where)
