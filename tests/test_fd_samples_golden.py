"""Regression fixture for the samples behind verify's finite-difference residual.

tests/data/fd_samples_golden.json holds, for every case below, what
``verify._physical_samples`` returns: each value as a pair of hex floats
(real, imaginary) and the pole mask, or the name of the error the call
raises.  The test requires the same hex strings, so every value must match
bit for bit (signed zeros included; a NaN matches any NaN).

The cases cover all seven families, real and complex xi0, negative s and
mu, grid nodes on a pole and next to it, huge finite x, x or t = +-inf
(the asymptotes) and NaN coordinates (a domain error).  The rational
families are sampled at finite coordinates only: their infinite and NaN
coordinates are covered by the dedicated tests in tests/test_verify.py.

``python tests/test_fd_samples_golden.py`` rewrites the fixture from the
code on the import path; do that only for an intended change of the direct
physical formulas.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from kdvbwaves import (
    Family,
    ParameterDomainError,
    PhysicalParams,
    Sign,
    compound_solution_from_physical,
    kdvb_solution_from_physical,
    locked_rational_velocity,
    rational_solution_from_physical,
)
from kdvbwaves.verify import _physical_samples, physical_discriminant_root

FIXTURE = Path(__file__).parent / "data" / "fd_samples_golden.json"
INF = math.inf
X_FAR = [1e3, -1e3, 1e308, -1e308, INF, -INF]
KDVB = dict(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2)
COMPOUND = dict(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=1.0)
LOCKED = dict(s=2.0, mu=1.0, alpha=3.0, beta=2.0)


def _locked(xi0: complex = 0j) -> PhysicalParams:
    v = locked_rational_velocity(PhysicalParams(**LOCKED, v=0.0))
    return PhysicalParams(**LOCKED, v=v, xi0=xi0)


def _kdvb(family, xi0=0j, **kw):
    return kdvb_solution_from_physical(family, PhysicalParams(**{**KDVB, **kw}, xi0=xi0))


def _compound(family, xi0=0j, **kw):
    return compound_solution_from_physical(family, PhysicalParams(**{**COMPOUND, **kw}, xi0=xi0))


def _compound_pole_on_axis(**kw):
    # Im z = -mu*root*Im(xi0)/(6s) = -pi/2 puts a tanh pole on the real x axis
    params = PhysicalParams(**{**COMPOUND, **kw})
    im = 3.0 * params.s * math.pi / (params.mu * physical_discriminant_root(params))
    return _compound(Family.COMPOUND_TANH_PLUS, complex(0.5, im), **kw)


def _cross(xs, ts):
    """Every (x, t) pair, x varying fastest."""
    return [float(x) for _ in ts for x in xs], [float(t) for t in ts for _ in xs]


def _near(x0: float, steps=(0.0, 1e-11, -1e-11, 5e-10, -5e-10, 1e-9, -1e-9, 3e-9, -3e-9, 1e-6)):
    return [x0 + dx for dx in steps]


def _rational_pole_x(sol, t: float) -> float:
    pp, A = sol.physical, sol.sign.factor * math.sqrt(sol.reduced.q / 2.0)
    return (pp.s / pp.mu) * (-A / sol.k0) + pp.v * t + pp.xi0.real


def _cases() -> dict:
    """name -> (solution factory, x list, t list)."""
    reg, sing = Family.KDVB_REGULAR, Family.KDVB_SINGULAR
    plus, minus = Family.COMPOUND_TANH_PLUS, Family.COMPOUND_TANH_MINUS
    base = list(np.linspace(-3.0, 3.0, 13))
    ts = [0.0, 0.3, -1.7]
    cases = {
        "kdvb-regular real xi0": (lambda: _kdvb(reg, 0.3), *_cross(base + X_FAR, ts)),
        "kdvb-regular complex xi0": (lambda: _kdvb(reg, 0.3 + 0.4j), *_cross(base + X_FAR, ts)),
        # Im z = -pi/2: the tanh pole sits on the real axis at x = v*t + 0.3
        "kdvb-regular pole on the axis": (
            lambda: _kdvb(reg, complex(0.3, 10.0 * math.pi / 12.0)),
            *_cross(base + _near(0.3), [0.0]),
        ),
        "kdvb-regular t nodes": (
            lambda: _kdvb(reg, 0.3 + 0.4j),
            [0.5] * 6, [0.0, -0.0, 1e300, -1e300, INF, -INF],
        ),
        "kdvb-singular pole at v*t": (
            lambda: _kdvb(sing), *_cross(base + _near(0.0) + X_FAR, [0.0]),
        ),
        "kdvb-singular moving pole": (
            lambda: _kdvb(sing), _near(0.2 * 0.5) + base, [0.5] * (10 + len(base)),
        ),
        # mu/(10s) = 4 widens the pole tolerance fourfold in z
        "kdvb-singular steep": (
            lambda: _kdvb(sing, 0.25, s=0.5, mu=20.0), *_cross(base + _near(0.25), [0.0]),
        ),
        "kdvb-singular negative s and mu": (
            lambda: _kdvb(sing, -0.7 + 0.25j, s=-1.5, mu=-4.0, alpha=2.0, v=-0.3),
            *_cross(base + X_FAR, ts),
        ),
        "compound-tanh-plus real xi0": (lambda: _compound(plus, 0.5), *_cross(base + X_FAR, ts)),
        "compound-tanh-minus complex xi0": (
            lambda: _compound(minus, 0.5 - 0.8j), *_cross(base + X_FAR, ts),
        ),
        "compound-tanh-plus pole on the axis": (
            _compound_pole_on_axis, *_cross(base + _near(0.5), [0.0]),
        ),
        # mu*root/(6s) = 1.77 widens the pole tolerance in z
        "compound-tanh-plus steep pole on the axis": (
            lambda: _compound_pole_on_axis(s=0.5, mu=3.0, v=5.0), *_cross(base + _near(0.5), [0.0]),
        ),
        "compound-tanh-minus negative s and beta": (
            lambda: _compound(minus, -1.25 + 0.5j, s=-2.0, beta=-2.0, v=-1.0),
            *_cross(base + X_FAR, ts),
        ),
        "compound-tanh-plus degenerate": (
            lambda: compound_solution_from_physical(plus, _locked(0.4 - 0.3j)),
            *_cross(base + X_FAR, ts),
        ),
        "rational-plus real xi0": (
            lambda: rational_solution_from_physical(Family.RATIONAL_PLUS, _locked(0.2), 1.0),
            *_cross(base + [1e3, -1e3, 1e308, -1e308], ts),
        ),
        "rational-minus complex xi0": (
            lambda: rational_solution_from_physical(Family.RATIONAL_MINUS, _locked(0.2 + 0.3j), -1.0),
            *_cross(base + [1e3, -1e3], ts),
        ),
        "constant plus": (
            lambda: rational_solution_from_physical(Family.CONSTANT, _locked(0.1j), 0.0, Sign.PLUS),
            *_cross(base + X_FAR, ts),
        ),
        "constant minus": (
            lambda: rational_solution_from_physical(Family.CONSTANT, _locked(), 0.0, Sign.MINUS),
            *_cross(base + X_FAR, ts),
        ),
    }
    for fam, k0, t in ((Family.RATIONAL_PLUS, 2.5, 0.0), (Family.RATIONAL_MINUS, -1.0, 0.75)):
        def factory(fam=fam, k0=k0):
            return rational_solution_from_physical(fam, _locked(0.2), k0)

        x_pole = _rational_pole_x(factory(), t)
        cases[f"{fam.value} pole node"] = (factory, _near(x_pole) + base, [t] * (10 + len(base)))
    # a NaN coordinate has no asymptote: a domain error; so is x = t = inf at v > 0
    # (x - v*t = inf - inf), while the degenerate probe's v < 0 gives the asymptote
    nan = math.nan
    for label, factory in (
        ("kdvb-regular", lambda: _kdvb(reg, 0.3)),
        ("compound-tanh-plus", lambda: _compound(plus, 0.5)),
        ("compound-tanh-plus degenerate", lambda: compound_solution_from_physical(plus, _locked())),
    ):
        for x, t in ((nan, 0.0), (0.0, nan), (INF, INF)):
            cases[f"{label} x={x} t={t}"] = (factory, [0.0, x], [0.0, t])
    return cases


def _record(factory, xs, ts) -> dict:
    try:
        values, pole = _physical_samples(factory(), np.array(xs), np.array(ts))
    except ParameterDomainError as exc:
        return {"error": type(exc).__name__}
    return {
        "values": [[float.hex(float(v.real)), float.hex(float(v.imag))] for v in values.tolist()],
        "pole": [bool(b) for b in pole],
    }


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(_cases()))
def test_physical_samples_match_golden_bits(name):
    assert _record(*_cases()[name]) == _fixture()[name]


def test_fixture_covers_poles_asymptotes_and_errors():
    records = _fixture().values()
    assert sum(any(r.get("pole", ())) for r in records) >= 5
    assert sum(1 for r in records if "error" in r) == 8
    assert set(_fixture()) == set(_cases())


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    records = {name: _record(*case) for name, case in sorted(_cases().items())}
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
