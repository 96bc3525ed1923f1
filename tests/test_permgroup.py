"""Permutation engine, lattice enumeration, Moebius values, normal
structure, quotients and the projective-line constructions."""

import hashlib
import json
import random
import time
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pzeta import (
    AlmostSimpleSpec,
    Budget,
    BudgetExceeded,
    ChiefStep,
    DirichletPolynomial,
    FactorKind,
    InvalidParameter,
    NotNormal,
    OrderBoundExceeded,
    PermGroup,
    Permutation,
    alternating,
    all_chief_series_ids,
    builtin_group,
    chief_series_ids,
    chief_steps,
    cyclic,
    descriptor_from_supplement_poly,
    dihedral,
    direct_product,
    factor_group,
    identify_characteristically_simple,
    klein_four,
    make_psl2,
    parse_group_file,
    power_shift,
    probabilistic_zeta,
    quaternion8,
    subgroup_lattice,
    supplement_zeta,
    symmetric,
)
from pzeta import permgroup
from pzeta.lattice import overgroups_of_seed
from pzeta.permgroup import (
    DEFAULT_MAX_GROUP_ORDER,
    _derived_order,
    _Engine,
    _schreier_sims,
    format_group_file,
)
from pzeta.zeta import chief_factorization
from helpers import group, psl2, tuple_schreier_sims


class TestPermutation:
    def test_parse_and_format(self):
        p = Permutation.parse("(0 1 2 3 4)(5 6)", 7)
        assert p.images == (1, 2, 3, 4, 0, 6, 5)
        assert p.cycle_string() == "(0 1 2 3 4)(5 6)"

    def test_identity_parse(self):
        assert Permutation.parse("()", 3).is_identity

    def test_composition_left_to_right(self):
        a = Permutation.parse("(0 1)", 3)
        b = Permutation.parse("(1 2)", 3)
        # apply a first: 0 -> 1 -> 2
        assert (a * b)(0) == 2

    def test_inverse_and_order(self):
        p = Permutation.parse("(0 1 2)(3 4)", 5)
        assert (p * p.inverse()).is_identity
        assert p.order() == 6

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_rejects_repeated_point_across_cycles(self):
        with pytest.raises(ValueError):
            Permutation.parse("(0 1)(1 2)", 3)


class TestClosure:
    def test_a5_from_standard_generators(self):
        g = PermGroup(5, [Permutation.parse("(0 1 2 3 4)", 5), Permutation.parse("(0 1 2)", 5)])
        assert g.order == 60

    def test_trivial_group(self):
        g = PermGroup(3, [])
        assert g.order == 1
        assert g.elements() == [Permutation.identity(3)]

    def test_s4_from_transposition_and_cycle(self):
        g = PermGroup(4, [Permutation.parse("(0 1)", 4), Permutation.parse("(0 1 2 3)", 4)])
        assert g.order == 24

    def test_order_bound_enforced(self):
        g = PermGroup(5, [Permutation.parse("(0 1 2 3 4)", 5), Permutation.parse("(0 1 2)", 5)],
                      max_order=30)
        with pytest.raises(OrderBoundExceeded):
            _ = g.order

    def test_element_indexing_is_deterministic(self):
        a = symmetric(4).elements()
        b = symmetric(4).elements()
        assert a == b

    def test_engine_product_matches_permutation_product(self):
        import random

        g = symmetric(4)
        eng = g.engine
        rng = random.Random(3)
        for _ in range(50):
            i, j = rng.randrange(24), rng.randrange(24)
            via_engine = eng.permutation(eng.mul(i, j))
            assert via_engine == eng.permutation(i) * eng.permutation(j)


class TestBuiltins:
    @pytest.mark.parametrize(
        "name,order",
        [
            ("S3", 6), ("S4", 24), ("A4", 12), ("A5", 60), ("C7", 7),
            ("D8", 8), ("Q8", 8), ("C2xC2", 4), ("A5xC2", 120),
            ("PSL(2,5)", 60), ("PGL(2,7)", 336), ("PSL2_7", 168),
        ],
    )
    def test_orders(self, name, order):
        assert builtin_group(name).order == order

    def test_cp_with_parameter(self):
        assert builtin_group("Cp", p=7).order == 7

    def test_cp_without_parameter_fails(self):
        with pytest.raises(ValueError):
            builtin_group("Cp")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_group("E8")

    def test_q8_has_unique_involution(self):
        eng = quaternion8().engine
        orders = eng.element_orders()
        assert sum(1 for o in orders if o == 2) == 1

    def test_dihedral_is_nonabelian_of_right_order(self):
        d12 = dihedral(12)
        assert d12.order == 12 and not d12.is_abelian

    @pytest.mark.parametrize("build", [cyclic, symmetric, alternating, dihedral],
                             ids=lambda f: f.__name__)
    def test_constructor_refuses_a_huge_degree_at_once(self, build):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exceeds {DEFAULT_MAX_GROUP_ORDER}"):
            build(10**9)
        assert time.perf_counter() - start < 1.0


class TestGroupFile:
    def test_round_trip(self):
        g = builtin_group("A5")
        text = format_group_file(g, comment="alternating group")
        g2 = parse_group_file(text)
        assert g2.order == 60 and g2.degree == 5

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\ndegree 3\n(0 1 2)\n# trailing\n"
        assert parse_group_file(text).order == 3

    def test_missing_degree(self):
        with pytest.raises(ValueError):
            parse_group_file("(0 1 2)\n")

    def test_degree_above_order_bound_rejected(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="degree 1000000000000 exceeds"):
            parse_group_file("degree 1000000000000\n(0 1)\n")
        with pytest.raises(ValueError, match="exceeds"):
            parse_group_file(f"degree {DEFAULT_MAX_GROUP_ORDER + 1}\n")
        assert time.perf_counter() - start < 1.0


class TestLattice:
    def test_s3_subgroups(self):
        lat = group("S3").subgroup_lattice()
        assert lat.node_count == 6
        assert sorted(lat.node_order(i) for i in range(6)) == [1, 2, 2, 2, 3, 6]

    def test_prime_cyclic_has_two_subgroups(self):
        assert group("C7").subgroup_lattice().node_count == 2

    def test_a5_counts_and_class_sizes(self):
        lat = group("A5").subgroup_lattice()
        assert lat.node_count == 59
        assert lat.class_count == 9
        sizes = sorted(len(c) for c in lat.conjugacy_classes)
        assert sizes == sorted([1, 15, 10, 5, 6, 10, 6, 5, 1])

    def test_budget_subgroup_cap(self):
        fresh = symmetric(4)
        with pytest.raises(BudgetExceeded) as ei:
            fresh.subgroup_lattice(Budget(max_subgroups=5))
        assert "subgroups" in ei.value.stats

    def test_budget_order_cap(self):
        fresh = alternating(5)
        with pytest.raises(OrderBoundExceeded):
            fresh.subgroup_lattice(Budget(max_order=10))

    def test_budget_time_hint(self):
        fresh = symmetric(4)
        with pytest.raises(BudgetExceeded):
            fresh.subgroup_lattice(Budget(time_hint_s=0.0))

    def test_enumeration_is_deterministic(self):
        a = alternating(5).subgroup_lattice()
        b = alternating(5).subgroup_lattice()
        assert a.to_json_dict() == b.to_json_dict()

    @pytest.mark.parametrize(
        "name,nodes,classes",
        [
            ("A4", 10, 5),
            ("D10", 8, 4),
            ("D12", 16, 10),
            ("C12", 6, 6),
            ("S5", 156, 19),
            ("PSL(2,7)", 179, 15),
            ("PSL(2,11)", 620, 16),
        ],
    )
    def test_subgroup_counts_match_literature(self, name, nodes, classes):
        lat = group(name).subgroup_lattice()
        assert (lat.node_count, lat.class_count) == (nodes, classes)

    def test_lattice_statistics_are_representation_independent(self):
        # PGL(2,5) on the projective line is S5 in disguise; every
        # lattice statistic must agree with the degree-5 representation
        s5 = group("S5").subgroup_lattice()
        pgl = psl2(5, "pgl").group.subgroup_lattice()
        assert (s5.node_count, s5.class_count) == (pgl.node_count, pgl.class_count)
        assert sorted(len(c) for c in s5.conjugacy_classes) == sorted(
            len(c) for c in pgl.conjugacy_classes
        )
        assert sorted(s5.moebius_values) == sorted(pgl.moebius_values)


def _moebius_by_matrix_inversion(lat):
    """Independent oracle: invert the full zeta matrix of the inclusion
    relation (recomputed from raw element sets) over the integers and
    read off the column at the top node."""
    n = lat.node_count
    sets = [frozenset(lat.node_elements(i)) for i in range(n)]
    z = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if sets[i] <= sets[j]:
                z[i, j] = 1
    minv = np.zeros((n, n), dtype=np.int64)
    for c in range(n):
        minv[c, c] = 1
        for i in range(c - 1, -1, -1):
            if z[i, c] or any(z[i, k] and minv[k, c] for k in range(i + 1, c + 1)):
                minv[i, c] = -sum(int(z[i, k]) * int(minv[k, c]) for k in range(i + 1, c + 1))
    assert (z @ minv == np.eye(n, dtype=np.int64)).all()
    top = lat.top_id
    return [int(minv[i, top]) for i in range(n)]


class TestMoebius:
    def test_prime_cyclic(self):
        lat = group("C7").subgroup_lattice()
        assert lat.moebius(lat.top_id) == 1
        assert lat.moebius(lat.trivial_id) == -1

    def test_s3_values(self):
        lat = group("S3").subgroup_lattice()
        by_order = {}
        for i in range(lat.node_count):
            by_order.setdefault(lat.node_order(i), []).append(lat.moebius(i))
        assert by_order[6] == [1]
        assert by_order[3] == [-1]
        assert by_order[2] == [-1, -1, -1]
        assert by_order[1] == [3]

    @pytest.mark.parametrize("name", ["S3", "S4", "A4", "A5", "D8", "Q8", "C6", "C12", "A5xC2"])
    def test_matches_matrix_inversion_oracle(self, name):
        lat = group(name).subgroup_lattice()
        assert lat.moebius_values == _moebius_by_matrix_inversion(lat)

    def test_conjugate_subgroups_share_moebius(self):
        for name in ["S4", "A5", "PGL(2,7)"]:
            lat = group(name).subgroup_lattice()
            for members in lat.conjugacy_classes:
                values = {lat.moebius(i) for i in members}
                assert len(values) == 1


class TestNormalStructure:
    def test_s4_normal_subgroups(self):
        lat = group("S4").subgroup_lattice()
        orders = sorted(lat.node_order(i) for i in lat.normal_node_ids())
        assert orders == [1, 4, 12, 24]

    def test_a5_is_simple(self):
        lat = group("A5").subgroup_lattice()
        assert sorted(lat.node_order(i) for i in lat.normal_node_ids()) == [1, 60]

    def test_abelian_group_all_normal(self):
        lat = group("C2xC2").subgroup_lattice()
        assert len(lat.normal_node_ids()) == lat.node_count == 5


class TestQuotient:
    def test_s4_mod_v4_is_s3_like(self):
        lat = group("S4").subgroup_lattice()
        v4 = next(
            i for i in lat.normal_node_ids()
            if lat.node_order(i) == 4
        )
        q = lat.quotient_group(v4)
        assert q.order == 6 and not q.is_abelian

    def test_quotient_by_trivial_is_regular_copy(self):
        lat = group("S3").subgroup_lattice()
        q = lat.quotient_group(lat.trivial_id)
        assert q.order == 6 and q.degree == 6

    def test_s4_mod_a4_has_order_two(self):
        lat = group("S4").subgroup_lattice()
        a4 = next(i for i in lat.normal_node_ids() if lat.node_order(i) == 12)
        assert lat.quotient_group(a4).order == 2

    def test_order_multiplicativity(self):
        lat = group("S4").subgroup_lattice()
        for i in lat.normal_node_ids():
            assert lat.quotient_group(i).order * lat.node_order(i) == 24

    def test_not_normal_rejected(self):
        lat = group("S4").subgroup_lattice()
        non_normal = next(i for i in range(lat.node_count) if not lat.is_normal(i))
        with pytest.raises(NotNormal):
            lat.quotient_group(non_normal)


class TestFrattini:
    def test_s4_frattini_trivial(self):
        lat = group("S4").subgroup_lattice()
        assert lat.frattini_node_id() == lat.trivial_id

    def test_c4_frattini_is_c2(self):
        lat = group("C4").subgroup_lattice()
        assert lat.node_order(lat.frattini_node_id()) == 2

    def test_klein_frattini_trivial(self):
        lat = group("C2xC2").subgroup_lattice()
        assert lat.frattini_node_id() == lat.trivial_id

    def test_q8_frattini_is_center(self):
        lat = group("Q8").subgroup_lattice()
        assert lat.node_order(lat.frattini_node_id()) == 2

    def test_frattini_is_normal_and_below_every_maximal(self):
        for name in ["S4", "Q8", "C12", "A4"]:
            lat = group(name).subgroup_lattice()
            frat = lat.frattini_node_id()
            assert lat.is_normal(frat)
            for m in lat.maximal_node_ids():
                assert lat.contains(frat, m)


def _brute_poset(lat):
    """Independent oracle: every poset query rebuilt from the raw element
    sets by testing all pairs of nodes."""
    n = lat.node_count
    sets = [frozenset(lat.node_elements(i)) for i in range(n)]
    whole = sets[lat.top_id]
    over = [[j for j in range(n) if sets[i] < sets[j]] for i in range(n)]
    under = [[j for j in range(n) if sets[j] < sets[i]] for i in range(n)]
    maximal = [
        i for i in range(n)
        if sets[i] < whole and not any(sets[i] < s < whole for s in sets)
    ]
    edges = [
        (i, j) for i in range(n) for j in over[i] if not set(over[i]) & set(under[j])
    ]
    frattini = frozenset.intersection(*(sets[m] for m in maximal)) if maximal else whole
    return over, under, maximal, edges, sets.index(frattini)


def _poset_group(name: str) -> PermGroup:
    """A builtin group; a trailing ``~`` renames its points by a seeded
    random permutation, which changes the node order, the classes'
    representatives and the parent trees rows are relabelled along."""
    if name.endswith("~"):
        return _relabelled(group(name[:-1]), 5)
    return group(name)


def _brute_rows(poset) -> list[list[int]]:
    """Every node's proper overgroups by testing all pairs of nodes."""
    sets = poset._fs
    return [[j for j in range(len(sets)) if sets[i] < sets[j]] for i in range(len(sets))]


class TestPosetQueries:
    @pytest.mark.parametrize(
        "name",
        [
            "S3", "S4", "A4", "D8", "Q8", "C12", "A5", "A5xC2", "PGL(2,7)", "S4xS3",
            "S5~", "D12~", "PGL(2,7)~",
        ],
    )
    def test_match_brute_force_relation(self, name):
        lat = _poset_group(name).subgroup_lattice()
        over, under, maximal, edges, frattini = _brute_poset(lat)
        n = lat.node_count
        assert [lat.strict_overgroups(i) for i in range(n)] == over
        assert [sorted(lat.strict_subgroups(i)) for i in range(n)] == under
        assert lat.maximal_node_ids() == maximal
        assert lat.hasse_edges() == edges
        assert lat.frattini_node_id() == frattini

    # sha256 of the sorted-key JSON export, recorded from the frozenset
    # scan of every node; pins node, Hasse-edge, class and Moebius order
    # where a pretty-printed golden would run to hundreds of KB
    EXPORT_DIGESTS = {
        "S5": "427bfdfd5fa56a2bc90b10f600de070900b5b713e7971bcc5e4ebacb065ef77e",
        "S4xS3": "f1af90361d156c988a4c746789e8987d046aa8eec553b19b3b66a2d7067b0a50",
        "PGL(2,7)": "ad6ddd7a18441488b2b44df61f014b92ac70b5ed05fded43003200535369720b",
        "A5xC2": "9132a537dbdf17e3a8a8d6f1e66264ab372c77b406dffef1705f4485cceddbca",
        "S6": "bf5c57bc3e9ca5f6a951af0c54b9944b4bcb58661eb49229b2f8c4170acafe6e",
        "PSL(2,13)": "ac21e8886a7c2006ce8a0b80a695f7c59b16a2a991e6ff963de3ba6d4aa7e170",
    }

    @pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
    def test_export_digest_matches_recorded(self, name):
        export = json.dumps(group(name).subgroup_lattice().to_json_dict(), sort_keys=True)
        assert hashlib.sha256(export.encode()).hexdigest() == self.EXPORT_DIGESTS[name]

    @pytest.mark.parametrize("name", ["S6", "A5xC2"])
    def test_query_order_does_not_change_rows_or_edges(self, name):
        # covers first (each class's representative row, the rest
        # relabelled), against every row first
        covers_first = subgroup_lattice(group(name))
        edges = covers_first.hasse_edges()
        rows_first = subgroup_lattice(group(name))
        rows = [rows_first.strict_overgroups(i) for i in range(rows_first.node_count)]
        assert rows_first.hasse_edges() == edges
        assert [covers_first.strict_overgroups(i) for i in range(covers_first.node_count)] == rows

    @pytest.mark.parametrize("name", ["S6", "PGL(2,7)", "S4xS3"])
    def test_rows_are_scanned_once_per_class(self, name):
        lat = subgroup_lattice(group(name))
        # the Moebius values read every representative's row but the top's
        assert lat.stats["rows"] == {"scanned": lat.class_count - 1, "relabelled": 0}
        lat.strict_subgroups(0)  # touches every row
        rows = lat.stats["rows"]
        assert rows["scanned"] == lat.class_count
        assert rows["scanned"] + rows["relabelled"] == lat.node_count
        lat.hasse_edges()
        assert lat.stats["rows"] == rows

    @pytest.mark.parametrize("name", ["PGL(2,7)", "S4xS3", "D12"])
    def test_each_class_is_one_tree_of_the_walk(self, name):
        # the tree edges the walk recorded, in canonical ids: node i is
        # its parent conjugated by a generator, and every path ends at
        # the class's one root, the only member without a parent
        lat = subgroup_lattice(group(name))
        for ci, members in enumerate(lat.conjugacy_classes):
            root = lat._roots[ci]
            assert [i for i in members if lat._parent[i] is None] == [root]
            for i in members:
                depth = 0
                while lat._parent[i] is not None:
                    p, k = lat._parent[i]
                    assert lat._perms[k][p] == i and lat.class_of(p) == ci
                    i, depth = p, depth + 1
                    assert depth < len(members)
                assert i == root

    @pytest.mark.parametrize(
        "q,variant,include_even",
        [(7, "pgl", False), (11, "psl", False), (7, "pgl", True)],
    )
    def test_family_rows_match_brute_scan(self, q, variant, include_even):
        eng = psl2(q, variant).group.engine
        seed = ((eng.id_idx,), ()) if include_even else eng.sylow2()
        fam = overgroups_of_seed(eng, *seed)
        assert [fam._overgroups(i) for i in range(len(fam.nodes))] == _brute_rows(fam)
        rows = fam.stats["rows"]
        assert rows["scanned"] == len(fam.classes)
        assert rows["scanned"] + rows["relabelled"] == len(fam.nodes)

    def test_trivial_group_has_one_node_and_no_edges(self):
        lat = subgroup_lattice(PermGroup(1, []))
        assert lat.node_count == 1 and lat.class_count == 1
        assert lat.hasse_edges() == []
        assert lat.strict_overgroups(0) == [] and lat.maximal_node_ids() == []
        assert lat.frattini_node_id() == 0

    def test_repeated_generator(self):
        # a repeated generator and the identity among the generators
        # change neither the poset nor its export
        a = Permutation.parse("(0 1 2 3)", 4)
        b = Permutation.parse("(0 1)", 4)
        lat = subgroup_lattice(PermGroup(4, [a, b, Permutation.identity(4), a, b]))
        over, under, maximal, edges, frattini = _brute_poset(lat)
        assert lat.node_count == 30
        assert [lat.strict_overgroups(i) for i in range(lat.node_count)] == over
        assert lat.hasse_edges() == edges
        assert lat.to_json_dict() == subgroup_lattice(PermGroup(4, [a, b])).to_json_dict()

    @pytest.mark.parametrize(
        "q,variant",
        [(5, "psl"), (5, "pgl"), (7, "psl"), (7, "pgl"), (11, "psl"), (11, "pgl")],
    )
    def test_sylow_family_matches_full_lattice(self, q, variant):
        spec = psl2(q, variant)
        eng = spec.group.engine
        seed, seed_gens = eng.sylow2()
        fam = overgroups_of_seed(eng, seed, seed_gens)
        seed_id = fam.nodes.index(tuple(sorted(int(x) for x in seed)))
        literal_ids = [seed_id, *fam._overgroups(seed_id)]
        lat = spec.group.subgroup_lattice()
        seed_set = frozenset(int(x) for x in seed)
        in_lat = [lat.node_id_of(fam.nodes[i]) for i in literal_ids]
        assert in_lat == [
            i for i in range(lat.node_count) if seed_set <= frozenset(lat.node_elements(i))
        ]
        maximal = set(lat.maximal_node_ids())
        assert [fam._overgroups(i) == [fam.top_id] for i in literal_ids] == [
            i in maximal for i in in_lat
        ]


class TestChiefSeries:
    def test_s4_chain(self):
        lat = group("S4").subgroup_lattice()
        steps = chief_steps(lat)
        assert [(s.label, s.multiplicity) for s in steps] == [("C2", 1), ("C3", 1), ("C2", 2)]
        assert [lat.node_order(i) for i in chief_series_ids(lat)] == [24, 12, 4, 1]

    def test_a5_single_factor(self):
        lat = group("A5").subgroup_lattice()
        steps = chief_steps(lat)
        assert len(steps) == 1
        assert steps[0].label == "A5" and steps[0].multiplicity == 1

    def test_c6_two_abelian_factors(self):
        lat = group("C6").subgroup_lattice()
        labels = sorted(s.label for s in chief_steps(lat))
        assert labels == ["C2", "C3"]

    def test_factors_are_characteristically_simple(self):
        for name in ["S4", "A5xC2", "C12", "Q8", "D8"]:
            lat = group(name).subgroup_lattice()
            for s in chief_steps(lat):
                assert s.factor_order == s.simple_order ** s.multiplicity

    def test_a5xc2_has_two_chief_series(self):
        lat = group("A5xC2").subgroup_lattice()
        chains = all_chief_series_ids(lat)
        assert len(chains) == 2

    def test_factor_group_section(self):
        lat = group("S4").subgroup_lattice()
        chain = chief_series_ids(lat)
        sec = factor_group(lat, chain[1], chain[2])  # A4 / V4
        assert sec.order == 3

    @pytest.mark.parametrize(
        "name",
        [
            "S4", "A4", "D8", "Q8", "C12", "D12", "A4xC2", "S5", "A5xC2", "S4xS3",
            "PGL(2,7)", "C2xC2xC2", "C4xC2",
        ],
    )
    def test_labels_match_section_group_oracle(self, name):
        lat = group(name).subgroup_lattice()
        for chain in all_chief_series_ids(lat):
            assert chief_steps(lat, chain) == _section_group_steps(lat, chain), chain

    def test_a5_wr_c2_has_a5_squared(self):
        # the one corpus group with a nonabelian chief factor T^r, r >= 2
        lat = _a5_wr_c2().subgroup_lattice()
        steps = chief_steps(lat)
        assert [(s.label, s.multiplicity) for s in steps] == [("C2", 1), ("A5", 2)]
        assert [s.factor_order for s in steps] == [2, 3600]

    @pytest.mark.slow
    def test_a5_wr_c2_matches_section_group_oracle(self):
        lat = _a5_wr_c2().subgroup_lattice()
        chain = chief_series_ids(lat)
        assert chief_steps(lat, chain) == _section_group_steps(lat, chain)

    @pytest.mark.slow
    def test_supplement_descriptor_misses_only_even_crown_terms(self):
        # the descriptor is P_{A5,A5}(rs - r + 1) without its constant
        # term; the lattice's chief factor also carries crown terms, here
        # all at multiples of 60, so the two agree at every odd index
        pa5 = probabilistic_zeta(builtin_group("A5"))
        pxs = supplement_zeta(make_psl2(5, "psl"))
        crown = DirichletPolynomial({60: 120})
        c2 = DirichletPolynomial({1: 1, 2: -1})
        for grp, expected in [
            (builtin_group("A5xA5"), [pa5, pa5 - crown]),
            (_a5_wr_c2(), [c2, power_shift(pa5, 2) - crown * pa5]),
        ]:
            fac = chief_factorization(grp)
            assert fac.factor_polynomials() == expected
            rec = fac.factors[-1]
            kind = FactorKind.psl2(5, "psl")
            desc = descriptor_from_supplement_poly(0, kind, rec.multiplicity, pxs)
            assert {n: b for n, b in desc.coeffs if n % 2} == {
                n: b for n, b in rec.polynomial.items() if n % 2 and n > 1
            }

    def test_factorization_builds_no_quotient(self, monkeypatch):
        # the benchmark's factorized groups; chief labels are read off
        # the lattice, so no coset action is ever set up
        calls = []
        original = _Engine.quotient_action

        def counted(self, normal_ids):
            calls.append(len(normal_ids))
            return original(self, normal_ids)

        monkeypatch.setattr(_Engine, "quotient_action", counted)
        for name in [
            "S4", "A4", "D8", "Q8", "C12", "D12", "A4xC2", "S5", "A5xC2", "S4xS3", "PGL(2,7)",
        ]:
            assert chief_factorization(builtin_group(name)).product_ok, name
        assert calls == []


def _section_group_steps(lat, chain) -> list[ChiefStep]:
    """Chief steps labelled the independent way: build each section
    N_upper / N_lower as a permutation group and identify it."""
    steps = []
    for upper, lower in zip(chain, chain[1:]):
        sec = factor_group(lat, upper, lower)
        label, simple_order, mult = identify_characteristically_simple(sec)
        steps.append(
            ChiefStep(upper, lower, label, simple_order, mult, sec.order, sec.is_abelian)
        )
    return steps


@lru_cache(maxsize=None)
def _a5_wr_c2() -> PermGroup:
    """A5 wr C2 of order 7200 on 10 points: A5 on {0..4}, swapped with
    its copy on {5..9}; chief series G > A5 x A5 > 1."""
    gens = [
        Permutation.from_cycles(10, [(0, 1, 2, 3, 4)]),
        Permutation.from_cycles(10, [(0, 1, 2)]),
        Permutation.from_cycles(10, [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]),
    ]
    return PermGroup(10, gens, name="A5wrC2")


class TestProjectiveConstructions:
    @pytest.mark.parametrize(
        "q,variant,order,degree",
        [
            (5, "psl", 60, 6),
            (7, "pgl", 336, 8),
            (11, "psl", 660, 12),
            (13, "pgl", 2184, 14),
        ],
    )
    def test_orders_and_degrees(self, q, variant, order, degree):
        spec = psl2(q, variant)
        assert spec.group.order == order
        assert spec.group.degree == degree

    @pytest.mark.parametrize("bad", [4, 9, 3, 2, 15, 1])
    def test_rejects_bad_q(self, bad):
        with pytest.raises(InvalidParameter):
            make_psl2(bad, "psl")

    def test_rejects_bad_variant(self):
        with pytest.raises(InvalidParameter):
            make_psl2(7, "aut")

    @pytest.mark.parametrize("variant", ["psl", "pgl"])
    def test_refuses_large_q_before_building(self, variant, monkeypatch):
        # the closed-form order is checked before any permutation of the
        # q + 1 points exists, so a huge q costs no memory
        def fail(*args):
            raise AssertionError("permutation built for a refused q")

        monkeypatch.setattr(permgroup, "_moebius_transform_perm", fail)
        with pytest.raises(OrderBoundExceeded, match="group order exceeds bound 1000000"):
            make_psl2(10007, variant)

    def test_largest_pgl_under_the_order_bound(self):
        assert make_psl2(97, "pgl").group.order == 912576 <= DEFAULT_MAX_GROUP_ORDER

    def test_pgl_socle_is_psl_of_index_two(self):
        spec = psl2(7, "pgl")
        assert spec.group.order == 2 * spec.socle.order
        assert len(spec.socle_indices) == 168

    def test_psl_socle_is_whole_group(self):
        spec = psl2(5, "psl")
        assert spec.socle_is_whole_group

    def test_psl_is_simple_for_small_q(self):
        lat = psl2(5, "psl").group.subgroup_lattice()
        assert sorted(lat.node_order(i) for i in lat.normal_node_ids()) == [1, 60]

    def test_almost_simple_validation_rejects_abelian_socle(self):
        with pytest.raises(InvalidParameter):
            AlmostSimpleSpec(symmetric(4), cyclic_subgroup_of_s4())

    def test_sylow2_has_full_two_part(self):
        eng = psl2(13, "pgl").group.engine
        elems, gens = eng.sylow2()
        assert len(elems) == 8
        closed = eng.closure(gens)
        assert closed is not None and len(closed) == 8


def cyclic_subgroup_of_s4():
    return PermGroup(4, [Permutation.parse("(0 1 2 3)", 4)], name="C4<S4")


def _reference_sylow2(eng):
    """The Sylow 2-subgroup growth loop ``sylow2`` replaced: tries every
    2-element in index order and conjugates the whole subgroup by it."""
    target = eng.order & -eng.order
    if target == 1:
        return (eng.id_idx,), ()
    orders = eng.element_orders()
    two_elems = [
        i
        for i in range(eng.order)
        if i != eng.id_idx and (int(orders[i]) & (int(orders[i]) - 1)) == 0
    ]
    best = max(int(orders[i]) for i in two_elems)
    gens = [next(i for i in two_elems if int(orders[i]) == best)]
    arr = eng.closure(gens)
    while len(arr) < target:
        member = np.zeros(eng.order, dtype=bool)
        member[arr] = True
        gens.append(
            next(
                g for g in two_elems if not member[g] and member[eng.conj_set(arr, g)].all()
            )
        )
        arr = eng.closure(gens)
    return tuple(arr.tolist()), tuple(gens)


SYLOW2_GROUPS = [
    *(f"{kind}(2,{q})" for q in (5, 7, 11, 13, 17) for kind in ("PSL", "PGL")),
    "S4", "S6", "D12", "A4xC2",
]


class TestSylow2:
    @pytest.mark.parametrize("relabel", [False, True], ids=["given", "relabelled"])
    @pytest.mark.parametrize("name", SYLOW2_GROUPS)
    def test_matches_conjugation_loop(self, name, relabel):
        grp = builtin_group(name)
        if relabel:
            grp = _relabelled(grp, 7)
        eng = grp.engine
        assert eng.sylow2() == _reference_sylow2(eng)

    def test_odd_order_gives_trivial_subgroup(self):
        eng = cyclic(15).engine
        assert eng.sylow2() == ((eng.id_idx,), ())


class TestDirectProduct:
    def test_orders_multiply(self):
        g = direct_product(alternating(5), cyclic(2))
        assert g.order == 120 and g.degree == 7

    def test_klein_four(self):
        assert klein_four().order == 4 and klein_four().is_abelian


# -- the element index: base-keyed lookup and cached columns -------------------


def _relabelled(group: PermGroup, seed: int) -> PermGroup:
    """The same group acting on points renamed by a random permutation."""
    import random

    sigma = list(range(group.degree))
    random.Random(seed).shuffle(sigma)
    gens = []
    for g in group.generators:
        images = [0] * group.degree
        for x, y in enumerate(g.images):
            images[sigma[x]] = sigma[y]
        gens.append(Permutation(images))
    return PermGroup(group.degree, gens, name=f"{group.name}~{seed}")


INDEX_GROUPS = {
    "C1": lambda: cyclic(1),                      # empty base
    "S4": lambda: symmetric(4),                   # base of length n - 1
    "S6": lambda: symmetric(6),
    "Q8": quaternion8,                            # regular action, base of length 1
    "A5xC2": lambda: builtin_group("A5xC2"),
    "PGL(2,7)~": lambda: _relabelled(make_psl2(7, "pgl").group, 11),
    "C300": lambda: cyclic(300),                  # degree > 255: uint16 rows
}

# the three ways a key is looked up: a dense table, bisection on int64
# keys, and bisection on byte-string keys (for key spaces past int64;
# the one-slot key space of an empty base always fits)
LOOKUP_MODES = {
    "dense": {},
    "bisect": {"_DENSE_SLOTS_PER_ELEMENT": 0},
    "bytes": {"_INT_KEY_LIMIT": 1},
}


def _reference_closure(gens: list[Permutation], degree: int) -> set[Permutation]:
    ident = Permutation.identity(degree)
    seen, frontier = {ident}, [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


@pytest.fixture(params=sorted(LOOKUP_MODES))
def lookup_mode(request, monkeypatch):
    from pzeta import permgroup

    for name, value in LOOKUP_MODES[request.param].items():
        monkeypatch.setattr(permgroup, name, value)
    return request.param


class TestElementIndex:
    @pytest.fixture(params=sorted(INDEX_GROUPS))
    def grp(self, request, lookup_mode):
        return INDEX_GROUPS[request.param]()

    def test_index_of_round_trips_and_rejects_outsiders(self, grp):
        eng = grp.engine
        assert all(grp.index_of(eng.permutation(i)) == i for i in range(eng.order))
        outsider = Permutation.from_cycles(grp.degree, [(0, 1)] if grp.degree > 1 else [])
        assert (outsider in grp) == (outsider in set(grp.elements()))
        with pytest.raises(KeyError):
            grp.index_of(Permutation.identity(grp.degree + 1))
        assert eng.id_idx == grp.index_of(grp.identity)

    def test_products_inverses_and_conjugates(self, grp):
        import random

        eng = grp.engine
        rng = random.Random(5)
        perm = [eng.permutation(i) for i in range(eng.order)]
        pairs = [(rng.randrange(eng.order), rng.randrange(eng.order)) for _ in range(60)]
        for i, j in pairs:
            assert perm[eng.mul(i, j)] == perm[i] * perm[j]
            assert perm[eng.conj_elem(i, j)] == perm[j].inverse() * perm[i] * perm[j]
            assert perm[int(eng.inv[i])] == perm[i].inverse()
        ids = np.asarray(sorted({i for i, _ in pairs}))
        for g in {j for _, j in pairs[:8]}:
            assert [perm[x] for x in eng.mul_batch(ids, g)] == [perm[i] * perm[g] for i in ids]
            assert [perm[x] for x in eng.conj_set(ids, g)] == [
                perm[g].inverse() * perm[i] * perm[g] for i in ids
            ]
        assert list(eng.element_orders()) == [p.order() for p in perm]

    def test_closure_matches_reference(self, grp):
        import random

        eng = grp.engine
        rng = random.Random(7)
        for _ in range(12):
            gens = [rng.randrange(eng.order) for _ in range(rng.randint(1, 2))]
            expected = sorted(
                grp.index_of(p)
                for p in _reference_closure([eng.permutation(g) for g in gens], grp.degree)
            )
            assert eng.closure(gens).tolist() == expected
            if any(g != eng.id_idx for g in gens):
                bailed = eng.closure(gens, bail_half=True)
                assert (bailed is None) == (len(expected) == eng.order)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda d: st.tuples(
            st.just(d), st.lists(st.permutations(range(d)), min_size=1, max_size=3)
        )
    ),
    st.data(),
)
def test_closure_resumed_from_known_subgroup(group_data, data):
    """closure(gens, known=<gens[:-1]>) is closure(gens), and with
    bail_half it gives up in exactly the same cases."""
    degree, perms = group_data
    try:
        eng = PermGroup(degree, perms, max_order=360).engine
    except OrderBoundExceeded:
        assume(False)
    gens = data.draw(st.lists(st.integers(0, eng.order - 1), min_size=1, max_size=4))
    known = eng.closure(gens[:-1])
    full = eng.closure(gens)
    assert eng.closure(gens, known=known).tolist() == full.tolist()
    bailed = eng.closure(gens, bail_half=True)
    resumed = eng.closure(gens, bail_half=True, known=known)
    assert (resumed is None) == (bailed is None)
    if resumed is not None:
        assert resumed.tolist() == bailed.tolist() == full.tolist()


class TestColumnCache:
    def _work(self, eng):
        """Closures and conjugations touching many distinct columns."""
        out = []
        for g in range(1, eng.order, 97):
            out.append(eng.closure([g, eng.gen_indices[0]], bail_half=True))
            out.append(eng.conj_set(np.arange(0, eng.order, 5), g))
        return [None if x is None else x.tolist() for x in out]

    def test_cache_stays_within_cap_and_changes_no_result(self, monkeypatch):
        from pzeta import permgroup

        cap = 6 * 4 * 4896  # room for six columns of PGL(2,17)
        monkeypatch.setattr(permgroup, "COLUMN_CACHE_BYTES", cap)
        cached = make_psl2(17, "pgl").group.engine
        assert cached.order == 4896
        first = self._work(cached)
        assert len(cached._columns) == 6
        assert cached._column_bytes == sum(c.nbytes for c in cached._columns.values()) <= cap
        assert self._work(cached) == first  # a full cache gives the same results

        monkeypatch.setattr(permgroup, "COLUMN_CACHE_BYTES", 0)
        uncached = make_psl2(17, "pgl").group.engine
        assert self._work(uncached) == first
        assert uncached._column_bytes == 0 and not uncached._columns


# ---------------------------------------------------------------------------
# stabilizer chain: order and element table against a breadth-first search
# ---------------------------------------------------------------------------


def _bfs_table(degree: int, gen_images, max_order: int) -> np.ndarray:
    """Reference element table, independent of the stabilizer chain: a
    breadth-first search over image rows kept as byte strings, the rows
    sorted lexicographically.  Raises ``OrderBoundExceeded`` as soon as
    more than ``max_order`` elements are found."""
    from pzeta.permgroup import _dtype_for

    dt = _dtype_for(degree)
    ident = np.arange(degree, dtype=dt)
    width = ident.nbytes
    elems = [ident.tobytes()]
    seen = set(elems)
    gens = [np.asarray(g, dtype=dt) for g in gen_images]
    frontier = [elems[0]]
    while frontier:
        batch = np.frombuffer(b"".join(frontier), dtype=dt).reshape(-1, degree)
        new = []
        for g in gens:
            buf = g[batch].tobytes()
            for pos in range(0, len(buf), width):
                key = buf[pos : pos + width]
                if key not in seen:
                    if len(elems) >= max_order:
                        raise OrderBoundExceeded(f"group order exceeds bound {max_order}")
                    seen.add(key)
                    elems.append(key)
                    new.append(key)
        frontier = new
    table = np.frombuffer(b"".join(elems), dtype=dt).reshape(-1, degree)
    return table[np.lexsort(table.T[::-1])]


def _reference_base(rows: np.ndarray) -> tuple[int, ...]:
    """The points where two neighbouring sorted rows first differ."""
    first_diff = (rows[1:] != rows[:-1]).argmax(axis=1)
    return tuple(np.flatnonzero(np.bincount(first_diff, minlength=rows.shape[1])).tolist())


def _check_against_bfs(grp: PermGroup, ref: np.ndarray) -> None:
    chain = grp.stabilizer_chain
    assert grp.order == chain.order == len(ref)
    eng = grp.engine
    assert eng.rows.dtype == ref.dtype and np.array_equal(eng.rows, ref)
    assert eng.base == chain.base == _reference_base(ref)
    for j, (b, trans) in enumerate(zip(chain.base, chain.transversals)):
        assert len({u[b] for u in trans}) == len(trans) > 1
        assert all(u[c] == c for u in trans for c in chain.base[:j])


CHAIN_GROUPS = {
    **INDEX_GROUPS,
    "C2": lambda: cyclic(2),
    "PSL(2,13)": lambda: make_psl2(13, "psl").group,
}


def _orbit_sets(base, transversals) -> list[list[int]]:
    return [sorted(int(u[b]) for u in trans) for b, trans in zip(base, transversals)]


def _check_against_tuple_oracle(degree: int, gens, cap: int, rng: random.Random) -> None:
    """The numpy chain and the tuple-row oracle agree on the base, the
    orbit of each base point, the order, the chain stopped at the order,
    the order bound, and membership of sampled rows (random permutations
    and random words in the generators), one row and one batch at a time."""
    try:
        ref = tuple_schreier_sims(degree, gens, cap)
    except OrderBoundExceeded as exc:
        with pytest.raises(OrderBoundExceeded, match=str(exc)):
            _schreier_sims(degree, gens, cap)
        return
    chain = _schreier_sims(degree, gens, cap)
    assert (chain.base, chain.order) == (ref.base, ref.order)
    assert _orbit_sets(chain.base, chain.transversals) == _orbit_sets(ref.base, ref.transversals)
    assert all(t.dtype == permgroup._dtype_for(degree) for t in chain.transversals)
    stopped = _schreier_sims(degree, gens, cap, stop_at=ref.order)
    ref_stopped = tuple_schreier_sims(degree, gens, cap, stop_at=ref.order)
    assert (stopped.base, stopped.order) == (ref_stopped.base, ref_stopped.order) == (ref.base, ref.order)
    assert (_orbit_sets(stopped.base, stopped.transversals)
            == _orbit_sets(ref_stopped.base, ref_stopped.transversals))
    samples = [rng.sample(range(degree), degree) for _ in range(12)]
    for _ in range(12):
        word = list(range(degree))
        for g in rng.choices(list(gens) or [word], k=rng.randint(1, 6)):
            word = [g[x] for x in word]
        samples.append(word)
    expected = [ref.membership()(row) for row in samples]
    member = chain.membership()
    assert member(np.asarray(samples)).tolist() == expected
    assert [member(row) for row in samples[::5]] == expected[::5]


class TestStabilizerChain:
    @pytest.mark.parametrize("name", sorted(CHAIN_GROUPS))
    def test_matches_tuple_oracle(self, name):
        grp = CHAIN_GROUPS[name]()
        gens = [g.images for g in grp.generators]
        _check_against_tuple_oracle(grp.degree, gens, DEFAULT_MAX_GROUP_ORDER, random.Random(name))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda d: st.tuples(
                st.just(d), st.lists(st.permutations(range(d)), min_size=1, max_size=3)
            )
        ),
        st.randoms(use_true_random=False),
    )
    def test_random_generating_sets_match_tuple_oracle(self, data, rng):
        degree, gens = data
        _check_against_tuple_oracle(degree, gens, 5040, rng)

    @pytest.mark.parametrize("name", sorted(CHAIN_GROUPS))
    def test_table_matches_bfs(self, name):
        grp = CHAIN_GROUPS[name]()
        gens = [g.images for g in grp.generators]
        _check_against_bfs(grp, _bfs_table(grp.degree, gens, DEFAULT_MAX_GROUP_ORDER))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda d: st.tuples(
                st.just(d), st.lists(st.permutations(range(d)), min_size=1, max_size=3)
            )
        )
    )
    def test_random_generating_sets(self, data):
        degree, gens = data
        cap = 5040  # orders above it are refused by both, cheaply
        grp = PermGroup(degree, gens, max_order=cap)
        try:
            ref = _bfs_table(degree, gens, cap)
        except OrderBoundExceeded:
            with pytest.raises(OrderBoundExceeded, match=f"group order exceeds bound {cap}"):
                _ = grp.order
            with pytest.raises(OrderBoundExceeded):
                _ = grp.engine
            assert grp._eng is None
            return
        _check_against_bfs(grp, ref)


class TestOrderBeforeTable:
    @pytest.mark.parametrize(
        "n,message",
        [(9, "order 362880 exceeds lattice budget 10000"),
         (10, f"group order exceeds bound {DEFAULT_MAX_GROUP_ORDER}")],
    )
    def test_lattice_refusal_builds_no_table(self, n, message):
        g = symmetric(n)
        with pytest.raises(OrderBoundExceeded, match=message):
            g.subgroup_lattice()
        assert g._eng is None

    def test_order_above_max_order_raises_without_table(self):
        g = symmetric(12)
        tracemalloc.start()
        try:
            with pytest.raises(OrderBoundExceeded, match=f"exceeds bound {DEFAULT_MAX_GROUP_ORDER}"):
                _ = g.order
            with pytest.raises(OrderBoundExceeded):
                _ = g.engine
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g._eng is None
        assert peak < 1 << 20  # a table of 10^6 rows alone is 12 MB

    def test_pgl_spec_builds_no_socle_table(self):
        spec = make_psl2(13, "pgl")
        assert spec.group._eng is None and spec.socle._eng is None
        assert spec.socle.order == 1092 and len(spec.socle_indices) == 1092
        assert spec.socle._eng is None and spec.group._eng is not None


# -- socle validation, conjugation closures and node lookup --------------------


def _embedded(degree: int, sub: PermGroup, name: str) -> PermGroup:
    """``sub`` acting on its own points, fixing the rest of ``degree``."""
    gens = [list(g.images) + list(range(sub.degree, degree)) for g in sub.generators]
    return PermGroup(degree, gens, name=name)


def _table_verdict(group: PermGroup, socle: PermGroup) -> str | None:
    """Oracle: the socle validation on X's element table, as
    ``AlmostSimpleSpec`` made it before it read the pair off stabilizer
    chains.  The rejection message, or None for a valid pair."""
    eng = group.engine
    try:
        socle_gen_ids = [group.index_of(g) for g in socle.generators]
    except KeyError:
        return f"socle generators not inside {group.name}"
    closed = eng.closure(socle_gen_ids)
    if len(closed) != socle.order:
        return "socle closure does not match socle order"
    if not eng.is_subgroup_normal(closed):
        return "socle is not normal in the group"
    if socle.is_abelian:
        return "socle must be nonabelian"
    if len(_derived_subgroup(eng, socle_gen_ids)) != socle.order:
        return "socle is not perfect"
    trivial = np.arange(eng.order) == eng.id_idx
    if eng.commutes_into(socle_gen_ids, trivial).sum() != 1:
        return "socle has nontrivial centralizer"
    return None


def _derived_subgroup(eng, gens) -> np.ndarray:
    """The subgroup generated by ``gens``, derived, on the table: the
    normal closure there of the commutators of its generators."""
    seeds = [eng.commutator(a, b) for i, a in enumerate(gens) for b in gens[:i]]
    return eng.normal_closure(seeds, gens)


def _chain_verdict(group: PermGroup, socle: PermGroup) -> str | None:
    """The constructor's rejection message, or None; it builds no table."""
    try:
        AlmostSimpleSpec(group, socle)
        verdict = None
    except InvalidParameter as exc:
        verdict = str(exc)
    assert group._eng is None and socle._eng is None
    return verdict


def _two_copies(a: Permutation | None, b: Permutation | None) -> Permutation:
    """a on {0..4} beside b on {5..9}; None is the identity."""
    left = a.images if a else range(5)
    right = b.images if b else range(5)
    return Permutation(list(left) + [5 + y for y in right])


def _on_ten(name: str, pairs, extra=()) -> PermGroup:
    return PermGroup(10, [_two_copies(a, b) for a, b in pairs] + list(extra), name=name)


def _projective(q: int, variant: str):
    spec = make_psl2(q, variant)

    def make():
        return tuple(PermGroup(g.degree, g.generators, name=g.name)
                     for g in (spec.group, spec.socle))

    return make


_A5 = alternating(5).generators
_SWAP = Permutation.from_cycles(10, [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
_DIAG = [(g, g) for g in _A5]
_LEFT = [(g, None) for g in _A5]
_A5xA5 = _LEFT + [(None, g) for g in _A5]
_V4 = [Permutation.parse("(0 1)(2 3)", 4), Permutation.parse("(0 2)(1 3)", 4)]
CENTRALIZER = "socle has nontrivial centralizer"

# (make (X, S), expected verdict); on ten points Delta, the points whose
# S-stabilizer another point shares, is everything for the diagonal A5,
# empty for A5 x A5 and {5..9} for the left factor
SOCLE_PAIRS = {
    **{f"{v.upper()}(2,{q})": (_projective(q, v), None)
       for q in (5, 7, 11, 13) for v in ("psl", "pgl")},
    "S5/A5": (lambda: (symmetric(5), alternating(5)), None),
    "S6/A6": (lambda: (symmetric(6), alternating(6)), None),
    "A5xC2/A5": (lambda: (builtin_group("A5xC2"), _embedded(7, alternating(5), "A5")),
                 CENTRALIZER),
    "<diag,swap>/diag": (lambda: (_on_ten("X", _DIAG, [_SWAP]), _on_ten("diag", _DIAG)),
                         CENTRALIZER),
    "diag/diag": (lambda: (_on_ten("diag", _DIAG), _on_ten("diag", _DIAG)), None),
    "A5wrC2/A5xA5": (lambda: (_on_ten("A5wrC2", _A5xA5, [_SWAP]), _on_ten("A5xA5", _A5xA5)),
                     None),
    "A5xA5/A5xA5": (lambda: (_on_ten("A5xA5", _A5xA5), _on_ten("A5xA5", _A5xA5)), None),
    "A5xA5/left": (lambda: (_on_ten("A5xA5", _A5xA5), _on_ten("left", _LEFT)), CENTRALIZER),
    "S5/A4": (lambda: (symmetric(5), _embedded(5, alternating(4), "A4")),
              "socle is not normal in the group"),
    "S4/S4": (lambda: (symmetric(4), symmetric(4)), "socle is not perfect"),
    "S4/V4": (lambda: (symmetric(4), PermGroup(4, _V4, name="V4")), "socle must be nonabelian"),
}


class TestAlmostSimpleValidation:
    @pytest.mark.parametrize("name", sorted(SOCLE_PAIRS))
    def test_chains_agree_with_table_oracle(self, name):
        make, expected = SOCLE_PAIRS[name]
        assert _chain_verdict(*make()) == expected
        assert _table_verdict(*make()) == expected

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(SOCLE_PAIRS)), seed=st.integers(0, 2**31))
    def test_relabelling_keeps_the_verdict(self, name, seed):
        make, expected = SOCLE_PAIRS[name]
        group, socle = make()
        assert _chain_verdict(_relabelled(group, seed), _relabelled(socle, seed)) == expected

    @pytest.mark.parametrize(
        "group_name,socle,message",
        [
            ("S5", lambda: _embedded(5, alternating(4), "A4"), "socle is not normal in the group"),
            ("S4", lambda: symmetric(4), "socle is not perfect"),
            ("A5xC2", lambda: _embedded(7, alternating(5), "A5"),
             "socle has nontrivial centralizer"),
        ],
    )
    def test_rejections(self, group_name, socle, message):
        with pytest.raises(InvalidParameter, match=message):
            AlmostSimpleSpec(builtin_group(group_name), socle())

    @pytest.mark.parametrize("group_name,socle_name", [("S5", "A6"), ("S6", "A5")])
    def test_degree_mismatched_socle(self, group_name, socle_name):
        with pytest.raises(InvalidParameter, match=f"socle generators not inside {group_name}"):
            AlmostSimpleSpec(builtin_group(group_name), builtin_group(socle_name))

    def test_trivial_socle(self):
        with pytest.raises(InvalidParameter, match="socle must be nonabelian"):
            AlmostSimpleSpec(symmetric(5), PermGroup(5, [], name="1"))

    def test_group_above_max_order_raises_without_table(self):
        g = symmetric(12)
        tracemalloc.start()
        try:
            with pytest.raises(OrderBoundExceeded, match=f"exceeds bound {DEFAULT_MAX_GROUP_ORDER}"):
                AlmostSimpleSpec(g, alternating(12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g._eng is None
        assert peak < 1 << 20  # a table of 10^6 rows alone is 12 MB


def _diagonal_a5(copies: int) -> PermGroup:
    """A5 acting diagonally on ``copies`` copies of 5 points."""
    gens = [Permutation([5 * c + y for c in range(copies) for y in g.images])
            for g in alternating(5).generators]
    return PermGroup(5 * copies, gens, name=f"A5 on {copies} copies")


def _traced_peak(work) -> int:
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWideAndRegularChains:
    """Chain rows take the element table's dtype, so chains of wide or
    regular groups stay within a few element tables' worth of memory
    (table: order x degree x itemsize)."""

    def test_wide_diagonal_pair_validates_in_a_few_tables(self):
        group = _diagonal_a5(4000)
        table_bytes = 60 * group.degree * np.dtype(permgroup._dtype_for(group.degree)).itemsize
        peak = _traced_peak(lambda: AlmostSimpleSpec(group, group))
        assert group.order == 60 and group._eng is None
        assert peak < 6 * table_bytes  # 2.4 MB table; the tuple rows peaked at 31 MB

    def test_wide_centralizer_compares_rows_in_blocks(self):
        """Delta is every point, so K is all of X: its rows meet S's
        generators a block at a time, not as whole-table copies."""
        group = _diagonal_a5(4000)
        table_bytes = 60 * group.degree * np.dtype(permgroup._dtype_for(group.degree)).itemsize
        peak = _traced_peak(lambda: AlmostSimpleSpec(group, group))
        assert peak < 3.5 * table_bytes  # whole-table comparisons peaked at 4.6 tables

    def test_regular_chain_in_a_few_tables(self):
        group = cyclic(300)
        peak = _traced_peak(lambda: group.stabilizer_chain)
        (trans,) = group.stabilizer_chain.transversals
        assert trans.shape == (300, 300) and trans.dtype == np.uint16
        assert peak < 6 * 300 * 300 * 2


def _derived_order_by_full_chains(group: PermGroup) -> int:
    """Oracle: the rounds of ``_derived_order``, each chain completed
    rather than stopped once its orbit sizes multiply to |G|."""
    gens = [np.asarray(g.images) for g in group.generators]
    inv = [np.argsort(g) for g in gens]
    new = [tuple(b[a[ib[ia]]].tolist())
           for i, (a, ia) in enumerate(zip(gens, inv)) for b, ib in zip(gens[:i], inv[:i])]
    seeds = []
    while True:
        seeds += new
        chain = _schreier_sims(group.degree, seeds, group.order)
        member = chain.membership()
        conjugates = (tuple(g[np.asarray(h)[ig]].tolist())
                      for h in new for g, ig in zip(gens, inv))
        new = [c for c in dict.fromkeys(conjugates) if not member(c)]
        if not new:
            return chain.order


# |G'|: the simple groups are perfect, the others are not
DERIVED_ORDERS = {
    "A5": 60, "PSL(2,5)": 60, "PSL(2,7)": 168, "PSL(2,11)": 660, "PSL(2,29)": 12180,
    "S3": 3, "S4": 12, "S5": 60, "PGL(2,7)": 168, "PGL(2,11)": 660,
}


class TestDerivedOrder:
    @pytest.mark.parametrize("name", sorted(DERIVED_ORDERS))
    def test_matches_full_chains(self, name):
        g = builtin_group(name)
        assert _derived_order(g) == _derived_order_by_full_chains(g) == DERIVED_ORDERS[name]

    @pytest.mark.parametrize("name", ["S3", "S4", "S5", "PGL(2,7)", "PGL(2,11)"])
    def test_non_perfect_socle_refused(self, name):
        with pytest.raises(InvalidParameter, match="socle is not perfect"):
            AlmostSimpleSpec(builtin_group(name), builtin_group(name))

    @pytest.mark.parametrize("q", [7, 29])
    def test_stopped_chain_is_complete(self, q):
        """A chain of PSL(2,q) stopped at |PSL(2,q)| tests membership as the
        full chain does, on PGL(2,q) (half of it lies outside)."""
        psl, pgl = builtin_group(f"PSL(2,{q})"), builtin_group(f"PGL(2,{q})")
        images = [g.images for g in psl.generators]
        stopped = _schreier_sims(psl.degree, images, psl.order, stop_at=psl.order)
        assert stopped.order == psl.order
        member, full = stopped.membership(), psl.stabilizer_chain.membership()
        rows = pgl.engine.rows
        sample = [row.tolist() for row in rows[:: max(1, len(rows) // 500)]]
        verdicts = [member(row) for row in sample]
        assert verdicts == [full(row) for row in sample]
        assert any(verdicts) and not all(verdicts)


CLOSURE_GROUPS = ["S4", "A4", "Q8", "D12", "S5", "A5xC2"]


def _conjugate_closure(eng, seeds, conjugators) -> list[int]:
    """The subgroup generated by every conjugate of the seeds under the
    group generated by ``conjugators``."""
    by = eng.closure(conjugators)
    conjugates = {int(eng.conj_elem(s, h)) for s in seeds for h in by.tolist()}
    return eng.closure(sorted(conjugates)).tolist()


class TestNormalClosure:
    @pytest.mark.parametrize("name", CLOSURE_GROUPS)
    def test_normal_closure_of_every_element(self, name):
        eng = builtin_group(name).engine
        everything = list(range(eng.order))
        for x in everything:
            assert eng.normal_closure([x]).tolist() == _conjugate_closure(eng, [x], everything)

    @pytest.mark.parametrize("name", CLOSURE_GROUPS)
    def test_closure_under_subgroup_conjugators(self, name):
        lat = builtin_group(name).subgroup_lattice()
        eng = lat.engine
        for members in lat.conjugacy_classes:
            gens = lat.node_generators(members[0])
            for x in range(0, eng.order, 7):
                assert eng.normal_closure([x], gens).tolist() == _conjugate_closure(eng, [x], gens)

    @pytest.mark.parametrize("name", CLOSURE_GROUPS)
    def test_derived_subgroup_of_every_class(self, name):
        lat = builtin_group(name).subgroup_lattice()
        eng = lat.engine
        for members in lat.conjugacy_classes:
            elems = np.asarray(lat.node_elements(members[0]))
            commutators = {int(c) for a in elems for c in eng.commutators_with(a)[elems]}
            expected = eng.closure(sorted(commutators)).tolist()
            gens = lat.node_generators(members[0])
            assert _derived_subgroup(eng, gens).tolist() == expected
            sub = PermGroup(eng.degree, [eng.permutation(g) for g in gens])
            assert _derived_order(sub) == len(expected)


class TestNodeIdOf:
    @pytest.mark.parametrize("name", ["S4", "A5xC2", "PGL(2,7)"])
    def test_round_trips_and_rejects(self, name):
        lat = group(name).subgroup_lattice()
        for i in range(lat.node_count):
            elems = lat.node_elements(i)
            assert lat.node_id_of(elems) == i
            assert lat.node_id_of(list(reversed(elems)) + list(elems[:2])) == i
        whole = lat.node_elements(lat.top_id)
        for bad in ([], [1], whole[1:], np.asarray(whole[:-1])):
            with pytest.raises(KeyError):
                lat.node_id_of(bad)
