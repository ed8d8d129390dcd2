"""Geometric mmWave channel generation for uniform linear arrays.

Channels follow the flat geometric model

    H_u = sum_l  alpha_{u,l} * a_bs(theta_{u,l}) a_ms(phi_{u,l})^T

with unit-norm half-wavelength ULA steering vectors on both sides.  The
element spacing D_OVER_LAMBDA is a module constant, so the simulated channels,
the uniqueness check and the estimators' grid dictionaries all share it.
``synthesize`` forms this sum for any gains and sin-angles; the true channels
(``assemble``) and the estimators' grid channels are both built by it.
Angles of arrival and departure are drawn uniformly on [0, 2*pi].  The array
response depends only on sin(angle), so angles outside (-pi/2, pi/2] alias
onto that interval, and a channel keeps only the sines of its angles:
everything downstream works in the sin-domain.  Path gains are
circularly-symmetric complex Gaussian with variance n_bs * n_ms / rho,
rho = (4*pi*d*f_c/c)^2, at the fixed operating point f_c = 28 GHz, d = 50 m.

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


@dataclass(frozen=True, eq=False)
class GeometricChannel:
    """Every path's gain, sin(AoA) and sin(AoD) in user order (user 0's paths
    first), each user's path count and the array sizes needed to assemble H_u.

    The three path arrays are read-only copies of the given values.
    """

    gains: np.ndarray
    sin_aoa: np.ndarray
    sin_aod: np.ndarray
    paths_per_user: tuple[int, ...]
    n_bs: int
    n_ms: int

    def __post_init__(self):
        if self.n_bs < 1 or self.n_ms < 1:
            raise ValueError("antenna counts must be positive")
        ppu = tuple(int(l) for l in self.paths_per_user)
        if not ppu or min(ppu) < 1:
            raise ValueError(f"path counts must be positive, got {ppu}")
        object.__setattr__(self, "paths_per_user", ppu)
        for name, dtype in (("gains", np.complex128), ("sin_aoa", np.float64),
                            ("sin_aod", np.float64)):
            v = np.array(getattr(self, name), dtype=dtype)
            if v.shape != (sum(ppu),):
                raise ValueError(f"{v.size} {name} values for {sum(ppu)} paths")
            outside = v[~(np.abs(v) <= 1.0)]  # NaN is outside too
            if name != "gains" and outside.size:
                raise ValueError(f"{name} value {outside[0]} outside [-1, 1]")
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @property
    def n_users(self) -> int:
        return len(self.paths_per_user)

    @property
    def total_paths(self) -> int:
        return self.gains.size


def steering_from_sin(sin_angle: np.ndarray, n: int) -> np.ndarray:
    """ULA responses for a 1-d array of m sin(angle) values: an (n, m) matrix
    of unit-norm columns.

    Entry k is exp(j*k*2*pi*(d/lambda)*sin(angle))/sqrt(n), the same form on
    the BS and MS sides.
    """
    if n < 1:
        raise ValueError("array size must be >= 1")
    s = np.asarray(sin_angle, dtype=np.float64)
    k = np.arange(n)[:, None]
    return np.exp(1j * 2 * np.pi * D_OVER_LAMBDA * k * s[None, :]) / np.sqrt(n)


def path_gain_variance(n_bs: int, n_ms: int) -> float:
    """Gain variance n_bs*n_ms/rho with rho the free-space loss (4*pi*d*f_c/c)^2
    at d = DISTANCE_M, f_c = CARRIER_HZ."""
    rho = (4 * np.pi * DISTANCE_M * CARRIER_HZ / SPEED_OF_LIGHT) ** 2
    return n_bs * n_ms / rho


def sample_channel(
    rng: np.random.Generator,
    n_users: int,
    paths_per_user,
    n_bs: int,
    n_ms: int,
) -> GeometricChannel:
    """Draw a random geometric channel with the stated gain/angle statistics:
    per user, its gains, then its AoAs, then its AoDs."""
    paths_per_user = tuple(paths_per_user)
    if len(paths_per_user) != n_users:
        raise ValueError("paths_per_user length must equal the user count")
    if n_users < 1 or any(l < 1 for l in paths_per_user):
        raise ValueError("user and path counts must be positive")
    var = path_gain_variance(n_bs, n_ms)
    draws = []
    for lu in paths_per_user:
        gains = np.sqrt(var / 2) * (rng.standard_normal(lu) + 1j * rng.standard_normal(lu))
        aoas = rng.uniform(0.0, 2 * np.pi, size=lu)
        aods = rng.uniform(0.0, 2 * np.pi, size=lu)
        draws.append((gains, aoas, aods))
    gains, aoas, aods = (np.concatenate(x) for x in zip(*draws))
    return GeometricChannel(gains, np.sin(aoas), np.sin(aods), paths_per_user, n_bs, n_ms)


def synthesize(gains, sin_aoa, sin_aod, n_bs: int, n_ms: int) -> np.ndarray:
    """sum_r gains[r] * a_bs(sin_aoa[r]) a_ms(sin_aod[r])^T, an n_bs x n_ms
    matrix, accumulated one path at a time in the given order."""
    if not len(gains) == len(sin_aoa) == len(sin_aod):
        raise ValueError(f"{len(gains)} gains for {len(sin_aoa)} AoAs and "
                         f"{len(sin_aod)} AoDs")
    A = steering_from_sin(sin_aoa, n_bs)
    B = steering_from_sin(sin_aod, n_ms)
    H = np.zeros((n_bs, n_ms), dtype=np.complex128)
    for g, a, b in zip(gains, A.T, B.T):
        H += g * np.outer(a, b)
    return H


def assemble(channel: GeometricChannel, u: int) -> np.ndarray:
    """Assemble user u's n_bs x n_ms channel matrix from its paths."""
    if not (0 <= u < channel.n_users):
        raise IndexError(f"user index {u} out of range")
    first = sum(channel.paths_per_user[:u])
    own = slice(first, first + channel.paths_per_user[u])
    return synthesize(channel.gains[own], channel.sin_aoa[own], channel.sin_aod[own],
                      channel.n_bs, channel.n_ms)


def assemble_all(channel: GeometricChannel) -> list[np.ndarray]:
    return [assemble(channel, u) for u in range(channel.n_users)]
