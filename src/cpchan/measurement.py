"""Layered pilot transmission: received tensor from channel + training design.

The noiseless received data form a rank-L tensor of dims m_bs x t_prime x t:

    Y = sum_l  a_q(l) o a_p(l) o s_bar(l)

with a_q(l) = alpha_l * Q^T a_bs(theta_l)  (path gain absorbed on the BS side),
     a_p(l) = P^T a_ms(phi_l),
     s_bar(l) = the owning user's pilot column; the channel, not the design,
                says which user owns which path.

Noise is i.i.d. circular complex Gaussian scaled so that the *realized*
signal-to-noise ratio ||X||_F^2 / ||W||_F^2 equals 10^(snr_db/10) exactly,
which keeps Monte-Carlo acceptance checks free of noise-power variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel_sim import GeometricChannel
from .tensor_core import ComplexTensor3, FactorTriple, compose, frobenius_norm
from .training_design import TrainingDesign, check_channel_fits


@dataclass(frozen=True)
class MeasurementTensor:
    y: ComplexTensor3           # m_bs x t_prime x t
    snr_db: float | None = None

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.y.dims


def ideal_factors(channel: GeometricChannel, design: TrainingDesign):
    """Noiseless CP factors (A_Q, A_P, S_L) of the received tensor; column l of
    S_L copies the pilot column of the user that owns path l."""
    check_channel_fits(design, channel)
    A_Q, A_P = design.responses(channel.sin_aoa, channel.sin_aod)
    S_L = design.S[:, np.repeat(np.arange(channel.n_users), channel.paths_per_user)]
    return A_Q * channel.gains[None, :], A_P, S_L


def noiseless_tensor(channel: GeometricChannel, design: TrainingDesign) -> ComplexTensor3:
    A_Q, A_P, S_L = ideal_factors(channel, design)
    return compose(FactorTriple(A_Q, A_P, S_L))


def simulate(
    channel: GeometricChannel,
    design: TrainingDesign,
    snr_db: float | None,
    rng: np.random.Generator | None = None,
) -> MeasurementTensor:
    """Noiseless tensor plus (optionally) noise from ``rng`` at an exact realized SNR."""
    X = noiseless_tensor(channel, design)
    if snr_db is None:
        return MeasurementTensor(X, None)
    sig = frobenius_norm(X)
    if sig == 0.0:
        raise ValueError("cannot set a finite SNR on an all-zero signal")
    if rng is None:
        raise ValueError("a finite SNR needs a noise generator (rng)")
    W = rng.standard_normal(X.dims) + 1j * rng.standard_normal(X.dims)
    W *= sig / (np.linalg.norm(W) * 10 ** (snr_db / 20))
    return MeasurementTensor(ComplexTensor3(X.data + W), float(snr_db))


def noise_std_per_entry(m: MeasurementTensor) -> float:
    """Per-entry noise std implied by the realized-SNR construction (0 if noiseless)."""
    if m.snr_db is None:
        return 0.0
    n_entries = int(np.prod(m.dims))
    # ||Y||^2 ~= ||X||^2 + ||W||^2 = ||W||^2 (snr_lin + 1); cross terms are
    # negligible and only an order-correct scale is needed downstream
    noise2 = np.linalg.norm(m.y.data) ** 2 / (1.0 + 10 ** (m.snr_db / 10))
    return float(np.sqrt(noise2 / n_entries))
