"""Per-state references for the rate tables and the joint tandem chain.

Written out one state at a time, straight from the closed forms, so they
share no code with the array builders and the level-by-level oracle they
check.
"""

import numpy as np

from roadqueue import EXACT


def offset(convention):
    return 0 if convention == EXACT else 1


def ref_flow(diagram, rho):
    """Equilibrium flow Q(rho) = min(v_f * rho, w * (rho_j - rho)) [veh/s]."""
    return min(diagram.v_f * rho, diagram.w * (diagram.rho_j - rho))


def ref_service_rate(s, n, convention):
    d = s.diagram
    return min(d.v_f * n / s.L, d.w * (s.c - n + offset(convention)) / s.L)


def ref_coupled_rate(config, n1, n2):
    s1, s2 = config.section1, config.section2
    return min(
        s1.diagram.v_f * n1 / s1.L,
        s1.diagram.q_max,
        s2.diagram.q_max,
        s2.diagram.w * (s2.c - n2 + offset(config.convention)) / s2.L,
    )


def ref_generator(config, lam):
    """Dense generator of the joint chain, state (n1, n2) in row-major order."""
    c1, c2 = config.section1.c, config.section2.c
    states = [(n1, n2) for n1 in range(c1 + 1) for n2 in range(c2 + 1)]
    index = {state: k for k, state in enumerate(states)}
    gen = np.zeros((len(states), len(states)))
    for (n1, n2), k in index.items():
        if n1 < c1:
            gen[k, index[(n1 + 1, n2)]] += lam
        if n1 > 0 and n2 < c2:
            gen[k, index[(n1 - 1, n2 + 1)]] += ref_coupled_rate(config, n1, n2)
        if n2 > 0:
            gen[k, index[(n1, n2 - 1)]] += ref_service_rate(
                config.section2, n2, config.convention
            )
    np.fill_diagonal(gen, gen.diagonal() - gen.sum(axis=1))
    return gen


def gth_stationary(generator, band):
    """Stationary law of an irreducible generator by scalar GTH elimination.

    States are censored out one at a time from the last, and no step
    subtracts (Grassmann, Taksar & Heyman 1985).  Every transition must
    stay within band states of its origin; the fill-in then does too, so
    each step touches only the band.  The joint chain's band is c2 + 1.
    """
    q = np.array(generator, dtype=float)
    n = q.shape[0]
    out = np.zeros(n)
    for k in range(n - 1, 0, -1):
        lo = max(0, k - band)
        out[k] = q[k, lo:k].sum()
        q[lo:k, lo:k] += np.outer(q[lo:k, k], q[k, lo:k] / out[k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        lo = max(0, k - band)
        pi[k] = pi[lo:k] @ q[lo:k, k] / out[k]
    return pi / pi.sum()
