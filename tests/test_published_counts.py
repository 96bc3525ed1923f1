"""Subgroup lattices against counts published outside this code.

Each row gives the number of subgroups and of conjugacy classes of
subgroups, typed from the cited OEIS entries:
- A005432, the number of subgroups of S_n;
- A000638, the number of conjugacy classes of subgroups of S_n;
- A029726, the number of subgroups of A_n;
- A029725, the number of conjugacy classes of subgroups of A_n."""

import pytest

from pzeta import Budget, alternating, symmetric

COUNTS = [
    # (group, subgroups, classes)
    pytest.param(lambda: symmetric(4), 30, 11, id="S4"),  # A005432(4), A000638(4)
    pytest.param(lambda: symmetric(5), 156, 19, id="S5"),  # A005432(5), A000638(5)
    pytest.param(lambda: symmetric(6), 1455, 56, id="S6"),  # A005432(6), A000638(6)
    pytest.param(lambda: symmetric(7), 11300, 96, id="S7"),  # A005432(7), A000638(7)
    pytest.param(lambda: alternating(4), 10, 5, id="A4"),  # A029726(4), A029725(4)
    pytest.param(lambda: alternating(5), 59, 9, id="A5"),  # A029726(5), A029725(5)
    pytest.param(lambda: alternating(6), 501, 22, id="A6"),  # A029726(6), A029725(6)
    pytest.param(lambda: alternating(7), 3786, 40, id="A7"),  # A029726(7), A029725(7)
]


@pytest.mark.parametrize("make,subgroups,classes", COUNTS)
def test_lattice_matches_published_counts(make, subgroups, classes):
    lat = make().subgroup_lattice()
    assert (lat.node_count, len(lat.conjugacy_classes)) == (subgroups, classes)


@pytest.mark.slow
def test_a8_lattice_matches_published_counts():
    # A029726(8), A029725(8); |A8| = 20160 is past the default order budget
    lat = alternating(8).subgroup_lattice(Budget(max_order=10**5, max_subgroups=10**5))
    assert (lat.node_count, len(lat.conjugacy_classes)) == (48337, 137)
