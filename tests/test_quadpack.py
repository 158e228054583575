"""quadpack.qags against scipy.integrate.quad: the same dqagse, bit for bit."""

import math
import warnings

import pytest
from scipy.integrate import IntegrationWarning, quad

from subunit_lab.forms import _inv_h_logvar
from subunit_lab.quadpack import qags

# x < 1/e integrates (ln x, -1), x >= 1/e integrates (ln x, 0).  The
# first take one 21-point pass at x = 0.05 and 0.3 and bisect over the
# long range of x = 1e-300; the second bisect with extrapolation and, for
# lambda >= 9 at tol 1e-16, stop at the 200-interval limit
BELOW = (1e-300, 1e-4, 0.05, 0.3)
ABOVE = (1.0 / math.e, 0.5, 0.7, 0.89)


def _pieces():
    yield -1.0, 0.0                     # the tail every x < 1/e shares
    for x in BELOW:
        yield math.log(x), -1.0
    for x in ABOVE:
        yield math.log(x), 0.0


def _quad(f, a, b, epsabs, epsrel, limit, args=()):
    # (value, abserr, subintervals used) of scipy's dqagse
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, abserr, info = quad(f, a, b, args=args, epsabs=epsabs,
                                   epsrel=epsrel, limit=limit,
                                   full_output=1)[:3]
    return value, abserr, info["last"]


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-16])
@pytest.mark.parametrize("lam", [1.5, 3.0, 9.0, 19.0])
def test_qags_matches_quad_bit_for_bit_on_the_profile_integrand(lam, tol):
    used = []
    for a, b in _pieces():
        value, abserr, last = _quad(_inv_h_logvar, a, b, tol, 10.0 * tol,
                                    200, args=(lam,))
        assert qags(lambda s: _inv_h_logvar(s, lam), a, b, tol, 10.0 * tol,
                    200) == (value, abserr), (a, b)
        used.append(last)
    # every regime is reached: one pass, bisection, the limit
    assert 1 in used and max(used) > 1
    assert (200 in used) == (lam >= 9.0 and tol == 1e-16)


@pytest.mark.parametrize("f,a,b,exact", [
    (math.exp, 0.0, 1.0, math.e - 1.0),
    (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 2.0),   # extrapolation
    (lambda x: 1.0 / (1.0 + x * x), -10.0, 10.0, 2.0 * math.atan(10.0))],
    ids=["exp", "inverse-sqrt", "lorentzian"])
@pytest.mark.parametrize("tol", [1.49e-8, 1e-13])
def test_qags_matches_quad_bit_for_bit_on_textbook_integrands(f, a, b,
                                                              exact, tol):
    value, abserr, _ = _quad(f, a, b, tol, tol, 50)
    assert qags(f, a, b, tol, tol, 50) == (value, abserr)
    assert abs(value - exact) <= abserr
