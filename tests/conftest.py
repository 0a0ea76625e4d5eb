from unittest import mock

import numpy as np
import pytest

from chordenergy import geometry as geo


def legacy_random_closed_curve(seed, **size):
    """random_closed_curve(seed, **size) as the package drew it from
    numpy's random streams: attempt a's coefficients are
    np.random.default_rng((seed, a)).normal draws, in place of the
    SplitMix64 stream keyed (seed, a).  Tests whose bounds were found
    on one seed's curve, and regression tests of one seed's curve, keep
    that curve through it."""
    def numpy_normals(key, shape):
        return np.random.default_rng(key).normal(size=shape)

    with mock.patch.object(geo, "_key", lambda *words: words), \
            mock.patch.object(geo, "_normals", numpy_normals):
        return geo.random_closed_curve(seed, **size)


@pytest.fixture(scope="session")
def legacy_curve():
    return legacy_random_closed_curve


@pytest.fixture(scope="session")
def circle512():
    return geo.make_circle(512)


@pytest.fixture(scope="session")
def circle256():
    return geo.make_circle(256)


@pytest.fixture(scope="session")
def double_segment512():
    return geo.make_double_segment(512)


@pytest.fixture(scope="session")
def random_curves():
    """A small pool of seeded random curves shared across tests."""
    return [geo.random_closed_curve(seed, n=512) for seed in range(10)]
