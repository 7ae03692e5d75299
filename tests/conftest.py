import pytest
from mpmath import mp

from lacunary import make_schedule, residues_from_f


@pytest.fixture(autouse=True)
def _default_precision():
    """Each test starts from the library default of 100 digits."""
    old = mp.dps
    mp.dps = 100
    yield
    mp.dps = old


@pytest.fixture(scope="session")
def factorial_k4_rat():
    """Residues of the factorial K=4 schedule at 100 digits (4107 poles),
    built once per session; the interpolant is immutable, so tests share it."""
    with mp.workdps(100):
        return residues_from_f(make_schedule(0.5, 4, "factorial", dps=100))
