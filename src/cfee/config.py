# System-level constants for the cell-free massive MIMO simulator and the
# noise power and SNRs derived from them.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SystemConfig:
    """Physical and protocol constants of the simulated network.

    Defaults reproduce the evaluation setup: 40 APs with 20 antennas each
    serving 20 users on a 1 km^2 torus at 20 MHz. Frozen: the checks run
    at construction, and so on every `dataclasses.replace`.
    """

    M: int = 40                 # number of APs
    K: int = 20                 # number of single-antenna users
    N: int = 20                 # antennas per AP
    area_side: float = 1000.0   # m
    d0: float = 10.0            # inner path-loss breakpoint, m
    d1: float = 50.0            # outer path-loss breakpoint, m
    L_db: float = 140.7         # path-loss constant, dB
    shadow_sigma_db: float = 8.0
    bandwidth_hz: float = 20e6
    noise_figure_db: float = 9.0
    tau_c: int = 200            # coherence interval, samples
    tau_p: int = 20             # pilot length, samples
    p_down_watts: float = 1.0   # downlink radiated power
    p_pilot_watts: float = 0.2  # pilot radiated power
    alpha_amp: float = 0.4      # power-amplifier efficiency
    p_tc_watts: float = 0.2     # per-antenna circuit power
    p_fix_watts: float = 0.825  # fixed backhaul power per active AP
    p_bt_watts_per_gbps: float = 0.25  # traffic-dependent backhaul power
    se_min: float = 1.0         # QoS floor, bit/s/Hz
    idle_backhaul_power: float = 0.0  # watts drawn by a switched-off AP

    def __post_init__(self):
        if self.M < 1 or self.K < 1 or self.N < 1:
            raise ValueError("M, K, N must all be >= 1")
        if self.M * self.N <= self.K:
            raise ValueError("need M*N > K for a meaningful downlink")
        if not (0 < self.d0 < self.d1 < self.area_side):
            raise ValueError("breakpoints must satisfy 0 < d0 < d1 < area_side")
        if not (self.tau_p < self.tau_c):
            raise ValueError("tau_p must be smaller than tau_c")
        if not (0 < self.alpha_amp <= 1):
            raise ValueError("alpha_amp must lie in (0, 1]")
        for name in ("p_down_watts", "p_pilot_watts", "p_tc_watts",
                     "p_fix_watts", "bandwidth_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.p_bt_watts_per_gbps < 0 or self.idle_backhaul_power < 0:
            raise ValueError("backhaul powers must be >= 0")
        if self.shadow_sigma_db < 0:
            raise ValueError("shadow_sigma_db must be >= 0")


def noise_power(cfg: SystemConfig) -> float:
    """Thermal noise power in watts: -174 dBm/Hz + 10 log10(B) + NF."""
    n0_dbm = -174.0 + 10.0 * np.log10(cfg.bandwidth_hz) + cfg.noise_figure_db
    return 10.0 ** (n0_dbm / 10.0) * 1e-3


def rho_d(cfg: SystemConfig) -> float:
    """Normalized downlink SNR."""
    return cfg.p_down_watts / noise_power(cfg)


def rho_p(cfg: SystemConfig) -> float:
    """Normalized pilot SNR."""
    return cfg.p_pilot_watts / noise_power(cfg)
