"""Transition-density kernels: one planar Gaussian family, in closed form.

Every kernel gives `log_density`, exact log p(x, t, y) for start x, elapsed
time t > 0, end y, on points (..., 2): downstream code forms density ratios
in log space, without underflow (for well-separated endpoints at small t the
densities themselves drop below the smallest float).  `density` is its
exponential, and `drift` the diffusion's drift.

Each kernel is an Ornstein-Uhlenbeck process with the identity diffusion
coefficient, and rate 0 is standard Brownian motion: `DRIFTLESS`, the OU
kernel at theta = 0, is the driftless kernel p0 of every kind, against which
the ratios are taken.  A config sets the observed kernel (`KERNEL_KINDS`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .specs import Kind, build, finite, finite_list

_LOG_2PI = float(np.log(2.0 * np.pi))


def _check_rate(theta, name: str) -> None:
    if not theta >= 0:  # NaN too
        raise DataError(f"rate {name} must not be negative, got {theta}")


def _decay_var(theta: float, t):
    """e^{-theta t}, the factor on the start, and the variance per axis."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise DataError(f"time must be positive, got {t}")
    var = t if theta == 0 else -np.expm1(-2.0 * theta * t) / (2.0 * theta)
    return np.exp(-theta * t), var


def _log_normal(n: int, var, d2):
    """log N(0, var I_n) at squared distance d2 from its mean."""
    return -0.5 * n * (_LOG_2PI + np.log(var)) - d2 / (2.0 * var)


def _axis_log_density(theta: float, x, t, y):
    decay, var = _decay_var(theta, t)
    return _log_normal(1, var, (y - x * decay) ** 2)


class Kernel:
    """Common interface.  Subclasses define `log_density` and `drift`."""

    def density(self, x, t, y):
        return np.exp(self.log_density(x, t, y))


@dataclass(frozen=True)
class OrnsteinUhlenbeckKernel(Kernel):
    """Kernel of dx = -theta x dt + dw: Gaussian with mean x e^{-theta t};
    theta = 0 is standard Brownian motion, with variance t."""

    theta: float

    def __post_init__(self):
        _check_rate(self.theta, "theta")

    def log_density(self, x, t, y):
        decay, var = _decay_var(self.theta, t)
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        d = y - x * decay[..., None] if np.ndim(decay) else y - x * decay
        # the two columns added as numpy sums a length-2 axis, d0^2 + d1^2
        # (same bits), without its reduction loop
        return _log_normal(2, var, d[..., 0] ** 2 + d[..., 1] ** 2)

    def drift(self, points):
        return -self.theta * np.asarray(points, dtype=float)


# The driftless kernel p0 of log(p / p0): standard Brownian motion.
DRIFTLESS = OrnsteinUhlenbeckKernel(0.0)


@dataclass(frozen=True)
class ProductKernel(Kernel):
    """Independent 1-D OU processes at rates theta1, theta2 on the axes shifted
    by offset: p(x, t, y) = k1(x1+o1, t, y1+o1) * k2(x2+o2, t, y2+o2)."""

    theta1: float
    theta2: float
    offset: tuple = (0.0, 0.0)

    def __post_init__(self):
        _check_rate(self.theta1, "theta1")
        _check_rate(self.theta2, "theta2")

    def log_density(self, x, t, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        o1, o2 = self.offset
        return (_axis_log_density(self.theta1, x[..., 0] + o1, t, y[..., 0] + o1)
                + _axis_log_density(self.theta2, x[..., 1] + o2, t, y[..., 1] + o2))

    def drift(self, points):
        # each axis's drift at x_i + o_i, where log_density evaluates it
        p = np.asarray(points, dtype=float)
        o1, o2 = self.offset
        return np.stack([-self.theta1 * (p[..., 0] + o1), -self.theta2 * (p[..., 1] + o2)], axis=-1)


def _ou(spec: dict, where: str) -> Kernel:
    theta = finite(spec["theta"], f"{where}.theta")
    if not theta > 0:
        raise ConfigError(f"{where}.theta must be positive, got {spec['theta']!r}")
    return OrnsteinUhlenbeckKernel(theta)


def _product_ou(spec: dict, where: str) -> Kernel:
    # a rate of 0 (the default) leaves its axis driftless (Brownian)
    thetas = []
    for key in ("theta1", "theta2"):
        thetas.append(finite(spec.get(key, 0.0), f"{where}.{key}"))
        if thetas[-1] < 0:
            raise ConfigError(f"{where}.{key} must not be negative, got {spec[key]!r}")
    offset = finite_list(spec.get("offset", (0.0, 0.0)), f"{where}.offset", 2)
    return ProductKernel(*thetas, offset=offset)


# The kernel kinds a config may name.
KERNEL_KINDS = {
    "brownian": Kind((), (), lambda spec, where: DRIFTLESS),
    "ou": Kind(("theta",), ("theta",), _ou),
    "product_ou": Kind(("theta1", "theta2", "offset"), (), _product_ou),
}


def kernel_from_config(spec: dict, where: str = "kernel") -> Kernel:
    """The kernel a config's kernel spec describes (`KERNEL_KINDS`).

    A spec that is not a JSON object, names no known kind, lacks a key its kind
    requires, holds a key it does not take, or gives a number that is not
    finite or an OU rate below what its kind takes (positive for `ou`,
    nonnegative for `product_ou`) is a ConfigError naming the key under
    `where`.
    """
    return build(KERNEL_KINDS, spec, where)
