import dataclasses
import math

import numpy as np
import pytest

import dremnet as dn
from dremnet.estimator import HarmonicSchedule
from dremnet.harness import Scenario
from dremnet.model import Constant, CustomTable, PeriodicList, RecursiveCosine
from dremnet.topology import PeriodicGraph, TableGraph


@pytest.fixture(scope="session")
def sec5():
    return dn.load_scenario("sec5")


@pytest.fixture(scope="session")
def sec5_noise_free(sec5):
    return dataclasses.replace(sec5, variances=(0.0,) * sec5.n)


@pytest.fixture(scope="session")
def periodic_d3():
    # d=3 over a two-stage periodic graph whose closed neighbourhoods hold
    # 1, 2 or 3 sensors; sensor 3 is constant and sensor 2's cosine windows
    # have rank 2, so neither is excited on its own
    return Scenario(
        theta=np.array([1.0, -0.5, 2.0]),
        generators=(
            PeriodicList(vectors=((2.0, 1.0, 0.0), (0.0, 1.0, 3.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0))),
            RecursiveCosine(base=(1.0, 0.0, 0.5), slot=1, initial=1.0, angle_step=math.pi / 3),
            Constant(vector=(1.0, 1.0, 1.0)),
            CustomTable(
                vectors=((1.0, 0.0, 0.0), (0.5, 2.0, 0.0), (0.0, 1.0, -1.0), (3.0, 0.0, 1.0), (1.0, 2.0, 2.0))
            ),
        ),
        variances=(1.0, 0.5, 2.0, 0.25),
        graph=PeriodicGraph(
            n=4,
            stages=(((1, 2), (2, 3), (3, 4), (4, 1), (1, 3)), ((4, 3), (1, 4), (2, 4))),
        ),
        schedule=HarmonicSchedule(c=0.7),
        mu=(0.1, 0.2, 0.3, 0.4),
        theta_hat0=np.array([[0.5, 0.0, -1.0], [0.0, 1.0, 0.0], [2.0, 2.0, 2.0], [-1.0, 0.0, 0.0]]),
        horizon=40,
    )


@pytest.fixture(scope="session")
def table_d5():
    # d=5, so determinants take the Bareiss path; every sensor reads an explicit
    # table of non-integer regressors, where products round and the order of
    # float operations shows. Sensor 2's table ends at step 19, after which its
    # windows are singular. The edge set changes every other step, including
    # steps with no edges at all, and the last one holds from step 44 on.
    rng = np.random.default_rng(5)
    vectors = [rng.normal(size=(rows, 5)).round(3) for rows in (48, 20, 64)]
    patterns = (((1, 2), (2, 3)), ((3, 1),), ((1, 3), (2, 1), (3, 2)), ())
    return Scenario(
        theta=np.array([1.0, -2.0, 0.5, 0.25, 3.0]),
        generators=tuple(CustomTable(vectors=tuple(map(tuple, v))) for v in vectors),
        variances=(1.0, 0.3, 2.5),
        graph=TableGraph(n=3, table=tuple(patterns[(k // 2) % 4] for k in range(45))),
        schedule=HarmonicSchedule(c=0.9),
        mu=(0.5, 0.2, 1.0),
        theta_hat0=np.array(
            [[0.1, 0.2, -0.3, 0.4, 0.5], [1.0, 0.0, 0.0, -1.0, 2.0], [0.0, 0.0, 0.0, 0.0, 0.0]]
        ),
        horizon=40,
    )
