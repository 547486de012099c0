import numpy as np
import pytest


@pytest.fixture
def arange_cap(monkeypatch):
    """Make np.arange(stop) and np.arange(start, stop) fail, before they
    allocate, when one call asks for more than 10^6 elements or the calls
    of the test together ask for more than 10^7.  A test can then show a
    call does bounded work without running it uncapped."""
    arange = np.arange
    asked = [0]

    def capped(start, stop=None, **kwargs):
        if stop is None:
            start, stop = 0, start
        asked[0] += stop - start
        if stop - start > 10 ** 6 or asked[0] > 10 ** 7:
            raise AssertionError(f"np.arange asked for {stop - start} elements, "
                                 f"{asked[0]} in this test")
        return arange(start, stop, **kwargs)

    monkeypatch.setattr(np, "arange", capped)
