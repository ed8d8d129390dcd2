"""Geometric mmWave channel generation for uniform linear arrays.

Channels follow the flat geometric model

    H_u = sum_l  alpha_{u,l} * a_bs(theta_{u,l}) a_ms(phi_{u,l})^T

with unit-norm half-wavelength ULA steering vectors on both sides.  The
element spacing D_OVER_LAMBDA is a module constant, so the simulated channels,
the uniqueness check and the estimators' grid dictionaries all share it.
``synthesize`` forms this sum for any gains and sin-angles; the true channels
(``assemble``) and the estimators' grid channels are both built by it.
Angles of arrival and departure are drawn uniformly on [0, 2*pi]; since the
array response depends only on sin(angle), angles outside (-pi/2, pi/2] alias
onto that interval, which is harmless for estimation (everything downstream
works in the sin-domain).  Path gains are circularly-symmetric complex Gaussian with
variance n_bs * n_ms / rho, rho = (4*pi*d*f_c/c)^2, at the fixed operating
point f_c = 28 GHz, d = 50 m.

All randomness comes through an explicitly passed numpy Generator; seeding
``numpy.random.default_rng(seed)`` (PCG64) makes every draw reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
CARRIER_HZ = 28e9
DISTANCE_M = 50.0
D_OVER_LAMBDA = 0.5  # half-wavelength element spacing


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex gain, AoA (BS side), AoD (MS side)."""

    gain: complex
    aoa: float
    aod: float

    def __post_init__(self):
        for name, ang in (("aoa", self.aoa), ("aod", self.aod)):
            if not (0.0 <= ang <= 2 * np.pi):
                raise ValueError(f"{name}={ang} outside [0, 2*pi]")


@dataclass(frozen=True)
class GeometricChannel:
    """Per-user path lists plus the array sizes needed to assemble H_u."""

    users: tuple[tuple[PathParams, ...], ...]
    n_bs: int
    n_ms: int

    def __post_init__(self):
        if self.n_bs < 1 or self.n_ms < 1:
            raise ValueError("antenna counts must be positive")
        object.__setattr__(
            self, "users", tuple(tuple(paths) for paths in self.users)
        )

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def paths_per_user(self) -> list[int]:
        return [len(p) for p in self.users]

    @property
    def total_paths(self) -> int:
        return sum(self.paths_per_user)

    def path_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gains, sin(AoA) and sin(AoD) of all paths in user order (user 0's
        paths first, etc.)."""
        flat = [p for paths in self.users for p in paths]
        return (np.array([p.gain for p in flat], dtype=np.complex128),
                np.array([np.sin(p.aoa) for p in flat], dtype=np.float64),
                np.array([np.sin(p.aod) for p in flat], dtype=np.float64))


def steering_from_sin(sin_angle, n: int) -> np.ndarray:
    """ULA response for given sin(angle) values; columns are unit-norm.

    Entry k is exp(j*k*2*pi*(d/lambda)*sin(angle))/sqrt(n), the same form on
    the BS and MS sides.  Accepts a scalar (returns shape (n,)) or a 1-d array of m sin values
    (returns shape (n, m)).
    """
    if n < 1:
        raise ValueError("array size must be >= 1")
    s = np.atleast_1d(np.asarray(sin_angle, dtype=np.float64))
    k = np.arange(n)[:, None]
    out = np.exp(1j * 2 * np.pi * D_OVER_LAMBDA * k * s[None, :]) / np.sqrt(n)
    return out[:, 0] if np.isscalar(sin_angle) or np.ndim(sin_angle) == 0 else out


def path_gain_variance(n_bs: int, n_ms: int, carrier_hz: float, distance_m: float) -> float:
    """Gain variance n_bs*n_ms/rho with rho the free-space loss (4*pi*d*f_c/c)^2."""
    rho = (4 * np.pi * distance_m * carrier_hz / SPEED_OF_LIGHT) ** 2
    return n_bs * n_ms / rho


def sample_channel(
    rng: np.random.Generator,
    n_users: int,
    paths_per_user,
    n_bs: int,
    n_ms: int,
) -> GeometricChannel:
    """Draw a random geometric channel with the stated gain/angle statistics."""
    paths_per_user = list(paths_per_user)
    if len(paths_per_user) != n_users:
        raise ValueError("paths_per_user length must equal the user count")
    if n_users < 1 or any(l < 1 for l in paths_per_user):
        raise ValueError("user and path counts must be positive")
    var = path_gain_variance(n_bs, n_ms, CARRIER_HZ, DISTANCE_M)
    users = []
    for lu in paths_per_user:
        gains = np.sqrt(var / 2) * (rng.standard_normal(lu) + 1j * rng.standard_normal(lu))
        aoas = rng.uniform(0.0, 2 * np.pi, size=lu)
        aods = rng.uniform(0.0, 2 * np.pi, size=lu)
        users.append(tuple(PathParams(complex(g), float(t), float(p))
                           for g, t, p in zip(gains, aoas, aods)))
    return GeometricChannel(tuple(users), n_bs, n_ms)


def sample_channel_on_grid(
    rng: np.random.Generator,
    paths_per_user,
    n_bs: int,
    n_ms: int,
    sin_aoa_grid: np.ndarray,
    sin_aod_grid: np.ndarray,
) -> GeometricChannel:
    """Like :func:`sample_channel` but with angles snapped to grid points.

    AoA and AoD grid indices are each drawn without replacement across all
    paths, so every path has a distinct AoA and a distinct AoD.  Shared
    coordinates would make steering columns collide, dropping the factor
    k-rank and breaking decomposition uniqueness; the fully distinct draw
    keeps on-grid oracle experiments in the identifiable regime.
    """
    paths_per_user = list(paths_per_user)
    total = sum(paths_per_user)
    if total > min(len(sin_aoa_grid), len(sin_aod_grid)):
        raise ValueError("more paths than distinct grid coordinates")
    var = path_gain_variance(n_bs, n_ms, CARRIER_HZ, DISTANCE_M)
    aoa_idx = rng.choice(len(sin_aoa_grid), size=total, replace=False)
    aod_idx = rng.choice(len(sin_aod_grid), size=total, replace=False)
    # map angle = arcsin(grid value) into [0, 2*pi] to respect PathParams bounds
    aoas = np.arcsin(np.asarray(sin_aoa_grid)[aoa_idx]) % (2 * np.pi)
    aods = np.arcsin(np.asarray(sin_aod_grid)[aod_idx]) % (2 * np.pi)
    gains = np.sqrt(var / 2) * (rng.standard_normal(total) + 1j * rng.standard_normal(total))
    users, k = [], 0
    for lu in paths_per_user:
        users.append(tuple(
            PathParams(complex(gains[i]), float(aoas[i]), float(aods[i]))
            for i in range(k, k + lu)))
        k += lu
    return GeometricChannel(tuple(users), n_bs, n_ms)


def synthesize(gains, sin_aoa, sin_aod, n_bs: int, n_ms: int) -> np.ndarray:
    """sum_r gains[r] * a_bs(sin_aoa[r]) a_ms(sin_aod[r])^T, an n_bs x n_ms
    matrix, accumulated one path at a time in the given order."""
    if not len(gains) == len(sin_aoa) == len(sin_aod):
        raise ValueError(f"{len(gains)} gains for {len(sin_aoa)} AoAs and "
                         f"{len(sin_aod)} AoDs")
    A = steering_from_sin(np.asarray(sin_aoa, dtype=np.float64), n_bs)
    B = steering_from_sin(np.asarray(sin_aod, dtype=np.float64), n_ms)
    H = np.zeros((n_bs, n_ms), dtype=np.complex128)
    for g, a, b in zip(gains, A.T, B.T):
        H += g * np.outer(a, b)
    return H


def assemble(channel: GeometricChannel, u: int) -> np.ndarray:
    """Assemble user u's n_bs x n_ms channel matrix from its paths."""
    if not (0 <= u < channel.n_users):
        raise IndexError(f"user index {u} out of range")
    first = sum(channel.paths_per_user[:u])
    own = slice(first, first + len(channel.users[u]))
    return synthesize(*(x[own] for x in channel.path_arrays()), channel.n_bs, channel.n_ms)


def assemble_all(channel: GeometricChannel) -> list[np.ndarray]:
    return [assemble(channel, u) for u in range(channel.n_users)]
