"""30-digit mpmath spellings of the closed forms the benchmark checks.

Written from the formulas in the package docstrings, not from the package
code, so they are an independent reference for the values the CLI writes.
Each function takes the float inputs exactly as they appear in an output row
and returns ``(u, bound)``: the reference value as an mpmath complex and an
absolute error bound for a float64 evaluation of the same formula,

    bound = ULPS * eps * (scale + |u| + sensitivity),

where ``sensitivity`` is |du/d(arg)| times the magnitude of the terms that
form the argument, so that points next to a pole, whose values are
ill-conditioned in their coordinate, get a proportionally wider bound.
"""

from __future__ import annotations

import math

from mpmath import mp

ULPS = 8
EPS = 2.0**-52
DPS = 30


def _bound(scale, u, sensitivity) -> float:
    return ULPS * EPS * float(scale + abs(u) + sensitivity)


def kdvb_reduced(singular: bool, theta: float, phase_a: float):
    """U = (3/50) * (1 + tanh(z))^2, z = (theta - i*a*pi)/10; coth if singular."""
    with mp.workdps(DPS):
        c = mp.mpf(3) / 50
        z = (mp.mpf(theta) - mp.mpc(0, mp.mpf(phase_a) * mp.pi)) / 10
        T = mp.coth(z) if singular else mp.tanh(z)
        u = c * (1 + T) ** 2
        dudz = 2 * c * (1 + T) * (1 - T * T)
        sens = abs(dudz) * (abs(theta) + abs(phase_a) * math.pi) / 10
        return u, _bound(4 * c, u, sens)


def compound_physical(plus: bool, x, t, s, mu, alpha, beta, v, xi0):
    """u = -alpha/(2 beta) +- amp * (1 + D*tanh(mu*D*(x - v t - xi0)/(6 s))).

    amp = mu/sqrt(6 beta s), D = sqrt(18 v s/mu^2 + 9 s alpha^2/(2 beta mu^2) - 3).
    A square within 1e-13 of its terms is float noise on the degenerate
    velocity and counts as D = 0, as the package documents.
    """
    with mp.workdps(DPS):
        x, t, s, mu, alpha, beta, v, xi0 = map(mp.mpf, (x, t, s, mu, alpha, beta, v, xi0))
        terms = (18 * v * s / mu**2, 9 * s * alpha**2 / (2 * beta * mu**2), mp.mpf(-3))
        square = sum(terms)
        snapped = abs(square) <= 1e-13 * sum(abs(term) for term in terms)
        D = mp.mpf(0) if snapped else mp.sqrt(square)
        amp = mu / mp.sqrt(6 * beta * s) * (1 if plus else -1)
        rate = mu * D / (6 * s)
        T = mp.tanh(rate * (x - v * t - xi0))
        u = mp.mpc(-alpha / (2 * beta) + amp * (1 + D * T))
        sens = abs(amp * D * (1 - T * T) * rate) * (abs(x) + abs(v * t) + abs(xi0))
        return u, _bound(abs(alpha / (2 * beta)) + abs(amp) * (1 + D), u, sens)


def locked_velocity(s: float, mu: float, alpha: float, beta: float) -> float:
    """v = mu^2/(6 s) - alpha^2/(4 beta), spelled in float as a user would pass it."""
    return mu**2 / (6.0 * s) - alpha**2 / (4.0 * beta)


def rational_branch(s: float, mu: float, alpha: float, beta: float) -> float:
    """A = +sqrt(q/2), q = 4 beta mu^2 / (3 s alpha^2)."""
    return math.sqrt(2.0 * beta * mu**2 / (3.0 * s * alpha**2))


def rational_physical(x, t, s, mu, alpha, beta, v, xi0, k0):
    """Plus-branch rational family on the locked velocity.

    u = -(alpha/(2 beta))*(A + 1) - (2 mu^2/(alpha s)) * (k0/A)/(A + k0*theta),
    theta = mu*(x - v t - xi0)/s.
    """
    with mp.workdps(DPS):
        x, t, s, mu, alpha, beta, v, xi0, k0 = map(
            mp.mpf, (x, t, s, mu, alpha, beta, v, xi0, k0)
        )
        A = mp.sqrt(2 * beta * mu**2 / (3 * s * alpha**2))
        G = 2 * mu**2 / (alpha * s)
        theta = mu * (x - v * t - xi0) / s
        g = A + k0 * theta
        const = -(alpha / (2 * beta)) * (A + 1)
        u = mp.mpc(const - G * (k0 / A) / g)
        dudtheta = G * k0 * k0 / (A * g * g)
        sens = abs(dudtheta * mu / s) * (abs(x) + abs(v * t) + abs(xi0))
        return u, _bound(abs(const), u, sens)
