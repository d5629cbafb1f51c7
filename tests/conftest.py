"""Shared helpers for the test suite."""

from __future__ import annotations

import random
import signal
from dataclasses import replace

import numpy as np
import pytest

from manoplace.topology import (
    GeneratorConfig,
    ManoParameters,
    PoP,
    ProblemInstance,
    VnfInstance,
    generate_instance,
)


def make_instance(delays, vnf_locs=(), *, gso=0, nfvo_capacity=20,
                  vnfm_capacity=10, gso_nfvo_bound=80.0, nfvo_vim_bound=60.0,
                  vnfm_bound=30.0, nfvo_vnfm_bound=45.0, vnf_bounds=None):
    """Build an instance from a raw delay matrix and VNF locations.

    ``vnf_bounds`` optionally gives per-VNF (vnfm_bound, nfvo_vnfm_bound)
    pairs; otherwise every VNF uses the shared bounds.
    """
    n = len(delays)
    pops = tuple(PoP(i) for i in range(n))
    matrix = tuple(map(tuple, np.asarray(delays, dtype=float).tolist()))
    vnfs = []
    for i, loc in enumerate(vnf_locs):
        if vnf_bounds is not None:
            w, big_w = vnf_bounds[i]
        else:
            w, big_w = vnfm_bound, nfvo_vnfm_bound
        vnfs.append(VnfInstance(id=i, location=loc, vnfm_delay_bound=w,
                                nfvo_vnfm_delay_bound=big_w))
    params = ManoParameters(nfvo_capacity=nfvo_capacity,
                            vnfm_capacity=vnfm_capacity,
                            gso_nfvo_delay_bound=gso_nfvo_bound,
                            nfvo_vim_delay_bound=nfvo_vim_bound,
                            gso_location=gso)
    return ProblemInstance(pops=pops, delays=matrix, vnfs=tuple(vnfs),
                           params=params)


def symmetric(n, entries, fill=10.0):
    """Dense symmetric matrix from a sparse {(i, j): delay} description."""
    d = np.full((n, n), float(fill))
    np.fill_diagonal(d, 0.0)
    for (i, j), value in entries.items():
        d[i][j] = d[j][i] = float(value)
    return d.tolist()


@pytest.fixture
def line3():
    """Three PoPs on a line: 0 -10ms- 1 -10ms- 2, ends 20ms apart."""
    return make_instance(
        [[0, 10, 20], [10, 0, 10], [20, 10, 0]],
        vnf_locs=(0, 1, 2),
    )


def cluster_instance(per_side, intra=5.0, inter=70.0):
    """Two tight clusters of ``per_side`` PoPs each, one VNF per PoP.

    The member-to-head bound of 60 ms forbids an orchestrator in one
    cluster from heading PoPs in the other, so any feasible plan needs at
    least one orchestrator per cluster; 70 <= 80 keeps both GSO links legal.
    """
    n = 2 * per_side
    d = np.full((n, n), float(inter))
    for i in range(n):
        for j in range(n):
            if (i < per_side) == (j < per_side):
                d[i][j] = float(intra)
        d[i][i] = 0.0
    return make_instance(d.tolist(), vnf_locs=tuple(range(n)))


@pytest.fixture
def four_pop_clusters():
    return cluster_instance(2)


@pytest.fixture
def two_clusters():
    return cluster_instance(3)


@pytest.fixture
def slow_domain():
    """A 6-PoP, 18-VNF instance whose first feasible plan (PoP 0 heading every
    PoP) has one domain: four VNFs have one host each, the other 14 four or
    five, and the manager capacity is 2. The optimum, 10 managers, is one
    above the ``⌈18/2⌉`` floor; a branch and bound cut at that floor once ran
    on this domain for over a minute."""
    base = generate_instance(GeneratorConfig(pop_count=6, vnf_count=18, seed=65,
                                             vnfm_capacity=2))
    rng = random.Random(65)
    return replace(base, vnfs=tuple(
        replace(v, vnfm_delay_bound=rng.choice([15.0, 30.0, 45.0]),
                nfvo_vnfm_delay_bound=rng.choice([30.0, 45.0, 60.0]))
        for v in base.vnfs))


def pairs_instance(k, bridged=True):
    """k pairs of PoPs, 10 ms apart inside a pair and 40 ms across, with 3
    VNFs at each pair's first PoP that only the pair can manage (bounds
    15/45 ms) and, when ``bridged``, one VNF at PoP 0 that every PoP can
    manage (45/45 ms). Manager capacity 2, orchestrator capacity 31.

    With PoP 0 heading every PoP, each pair needs 2 managers: the optimum is
    2k against a ``⌈VNFs/2⌉`` floor of about 1.5k. Unbridged, the pairs share
    no host and are placed one by one; the bridging VNF joins them into one
    part, on which the manager search is exponential in k."""
    n = 2 * k
    delays = [[0.0 if i == j else 10.0 if i // 2 == j // 2 else 40.0 for j in range(n)]
              for i in range(n)]
    locs = [2 * i for i in range(k) for _ in range(3)] + [0] * bridged
    bounds = [(15.0, 45.0)] * (3 * k) + [(45.0, 45.0)] * bridged
    return make_instance(delays, tuple(locs), vnfm_capacity=2, nfvo_capacity=31,
                         vnf_bounds=bounds)


@pytest.fixture
def bridged_pairs():
    """``pairs_instance(10)``: placing its first plan's one domain takes far
    longer than a test can wait."""
    return pairs_instance(10)


@pytest.fixture
def alarm():
    """``alarm(s)`` fails the test with TimeoutError after s seconds instead
    of letting it hang; the alarm is cleared on teardown."""
    def expire(signum, frame):
        raise TimeoutError("test ran past its alarm")

    previous = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
