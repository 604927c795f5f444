"""Shared oracles.  Ball construction dominates suite runtime, so the
expensive indexes are built once per session and treated as read-only."""

import pytest

from deadends.heis import HeisenbergGroup
from deadends.search import ball
from deadends.sol import HypMatrix, SolGroup


R_FIX = HypMatrix([[2, 1], [1, 1]])


@pytest.fixture(scope="session")
def heis_group():
    return HeisenbergGroup()


@pytest.fixture(scope="session")
def heis_ball22(heis_group):
    # radius 22 covers the family distances (14, 18) with depth margin
    return ball(heis_group, 22)


@pytest.fixture(scope="session")
def heis_ball26(heis_group):
    return ball(heis_group, 26)  # 4 n_max + 2 at n_max 6


@pytest.fixture(scope="session")
def sol_group():
    return SolGroup(R_FIX)


@pytest.fixture(scope="session")
def sol_ball9(sol_group):
    return ball(sol_group, 9)


@pytest.fixture(scope="session")
def sol_ball13(sol_group):
    return ball(sol_group, 13)
