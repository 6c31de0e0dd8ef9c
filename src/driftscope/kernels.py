"""Transition-density kernels: closed forms and products of 1-D components.

Every kernel gives `log_density`, exact log p(x, t, y) for start x, elapsed
time t > 0, end y: downstream code forms density ratios in log space, without
underflow (for well-separated endpoints at small t the densities themselves
drop below the smallest float).  `density` is its exponential, and `drift`
the diffusion's drift on points (..., dim), bare coordinates when dim is 1.

A config sets one kernel, the observed one (`KERNEL_KINDS`); the ratios
are taken against `BrownianKernel`, the driftless kernel of every kind here
(each has the identity diffusion coefficient).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError, DataError
from .specs import Kind, build, finite, finite_list

_LOG_2PI = float(np.log(2.0 * np.pi))


def _check_time(t) -> None:
    if np.any(np.asarray(t) <= 0):
        raise DataError(f"time must be positive, got {t}")


def _sqdist(x, y) -> np.ndarray:
    d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    return np.sum(np.atleast_1d(d) ** 2, axis=-1) if d.ndim > 0 else d * d


class Kernel:
    """Common interface; dim is 1 or 2.  Subclasses define `log_density` and `drift`."""

    dim: int = 2

    def density(self, x, t, y):
        return np.exp(self.log_density(x, t, y))


@dataclass(frozen=True)
class BrownianKernel(Kernel):
    """Heat kernel of standard Brownian motion: the driftless reference p0."""

    dim: int = 2

    def log_density(self, x, t, y):
        _check_time(t)
        t = np.asarray(t, dtype=float)
        if self.dim == 1:
            d2 = (np.asarray(y, dtype=float) - np.asarray(x, dtype=float)) ** 2
        else:
            d2 = _sqdist(x, y)
        return -0.5 * self.dim * (_LOG_2PI + np.log(t)) - d2 / (2.0 * t)

    def drift(self, points):
        return np.zeros_like(np.asarray(points, dtype=float))


@dataclass(frozen=True)
class OrnsteinUhlenbeckKernel(Kernel):
    """Kernel of dx = -theta x dt + dw: Gaussian with mean x e^{-theta t}."""

    theta: float
    dim: int = 2

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

    def drift(self, points):
        return -self.theta * np.asarray(points, dtype=float)


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

    def log_density(self, x, t, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        o1, o2 = self.offset
        return self.k1.log_density(x[..., 0] + o1, t, y[..., 0] + o1) + self.k2.log_density(
            x[..., 1] + o2, t, y[..., 1] + o2
        )

    def drift(self, points):
        # each component's drift at x_i + o_i, where log_density evaluates it
        p = np.asarray(points, dtype=float)
        o1, o2 = self.offset
        return np.stack([self.k1.drift(p[..., 0] + o1), self.k2.drift(p[..., 1] + o2)], axis=-1)


def _ou(spec: dict, where: str) -> Kernel:
    theta = finite(spec["theta"], f"{where}.theta")
    if not theta > 0:
        raise ConfigError(f"{where}.theta must be positive, got {spec['theta']!r}")
    return OrnsteinUhlenbeckKernel(theta=theta, dim=2)


def _product_ou(spec: dict, where: str) -> Kernel:
    # independent 1-D components; a rate of 0 (the default) is driftless (Brownian)
    components = []
    for key in ("theta1", "theta2"):
        theta = finite(spec.get(key, 0.0), f"{where}.{key}")
        if theta < 0:
            raise ConfigError(f"{where}.{key} must not be negative, got {spec[key]!r}")
        components.append(OrnsteinUhlenbeckKernel(theta, dim=1) if theta else BrownianKernel(dim=1))
    offset = finite_list(spec.get("offset", (0.0, 0.0)), f"{where}.offset", 2)
    return ProductKernel(*components, offset=offset)


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
    that is not finite, or an OU rate below what its kind takes (positive
    for `ou`, nonnegative for `product_ou`), is a ConfigError naming the
    key under `where`.
    """
    return build(KERNEL_KINDS, spec, where)
