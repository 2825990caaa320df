import numpy as np
import pytest

from cfee.config import rho_p
from cfee.netgen import (Scenario, assign_pilots, compute_gamma,
                         path_loss_db, wrap_distance)


@pytest.fixture
def placed_scenario():
    """Build a Scenario with APs and users at given (x, y) positions and
    no shadowing, from netgen's public pieces:
    placed_scenario(cfg, ap_positions, user_positions, seed=0)."""
    def build(cfg, ap_positions, user_positions, seed=0):
        aps = np.asarray(ap_positions, dtype=float)
        users = np.asarray(user_positions, dtype=float)
        d = wrap_distance(aps[:, None, :], users[None, :, :], cfg.area_side)
        beta = 10.0 ** (path_loss_db(d, cfg) / 10.0)
        xcorr = assign_pilots(cfg.K, cfg.tau_p, seed)
        gamma = compute_gamma(beta, xcorr, cfg.tau_p, rho_p(cfg))
        return Scenario(ap_positions=aps, user_positions=users, beta=beta,
                        pilot_xcorr=xcorr, gamma=gamma, seed=seed)
    return build
