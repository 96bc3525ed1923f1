"""Chief series read off the normal-cover map, against the frozenset
scans over the normal nodes that the map replaced, and the chief factor
multiset against one chief factorization per chain."""

import pytest

from pzeta import chief_factorization
from pzeta.errors import NotNormal
from pzeta.lattice import all_chief_series_ids, chief_series_ids
from pzeta.zeta import chief_factor_multiset, interval_zeta
from helpers import group

CHAIN_GROUPS = ["S4", "A4xC2", "D12", "C4xC2", "A5xC2", "S4xS3", "C2xC2xC2"]


def _strictly_inside(lat, cur):
    return [
        i
        for i in lat.normal_node_ids()
        if lat.node_order(i) < lat.node_order(cur) and lat.contains(i, cur)
    ]


def _greedy_chain_oracle(lat):
    """Top to bottom, each step the largest-order normal node strictly
    inside the current one, ties broken by element tuple."""
    normals = sorted(
        lat.normal_node_ids(), key=lambda i: (-lat.node_order(i), lat.node_elements(i))
    )
    chain = [lat.top_id]
    while chain[-1] != lat.trivial_id:
        inside = set(_strictly_inside(lat, chain[-1]))
        chain.append(next(i for i in normals if i in inside))
    return chain


def _all_chains_oracle(lat):
    """Depth first over, for each normal node, the normal nodes strictly
    inside it that lie in no other such node, ascending."""
    below = {}
    for cur in lat.normal_node_ids():
        inside = _strictly_inside(lat, cur)
        below[cur] = sorted(
            i for i in inside if not any(lat.contains(i, j) and i != j for j in inside)
        )
    chains = []

    def walk(chain):
        if chain[-1] == lat.trivial_id:
            chains.append(chain)
        for nxt in below[chain[-1]]:
            walk(chain + [nxt])

    walk([lat.top_id])
    return chains


@pytest.mark.parametrize("name", CHAIN_GROUPS)
def test_all_chains_match_oracle_in_order(name):
    lat = group(name).subgroup_lattice()
    assert all_chief_series_ids(lat) == _all_chains_oracle(lat)


@pytest.mark.parametrize("name", CHAIN_GROUPS)
def test_default_chain_matches_greedy_oracle(name):
    lat = group(name).subgroup_lattice()
    assert chief_series_ids(lat) == _greedy_chain_oracle(lat)


@pytest.mark.parametrize("name, chains", [("S4xS3", 13), ("C2xC2xC2", 21)])
def test_multiset_matches_one_factorization_per_chain(name, chains):
    g = group(name)
    lat = g.subgroup_lattice()
    expected = [
        sorted(tuple(p.items()) for p in chief_factorization(g, chain=c).factor_polynomials())
        for c in _all_chains_oracle(lat)
    ]
    assert len(expected) == chains
    assert chief_factor_multiset(g) == expected


def test_interval_zeta_rejects_a_node_that_is_not_normal():
    lat = group("S4").subgroup_lattice()
    node = next(i for i in range(lat.node_count) if not lat.is_normal(i))
    with pytest.raises(NotNormal, match=f"node {node} is not normal in S4"):
        interval_zeta(lat, node)
