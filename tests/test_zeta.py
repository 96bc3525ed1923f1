"""Group zeta polynomials, supplement sums, odd supplement indices and
the chief factorization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pzeta import (
    Budget,
    BudgetExceeded,
    DirichletPolynomial,
    PermGroup,
    chief_factorization,
    chief_steps,
    make_psl2,
    minimal_odd_index_table,
    odd_supplement_indices,
    power_shift,
    predicted_minimal_odd_index,
    prime_projection,
    probabilistic_zeta,
    supplement_zeta,
    zeta_report,
)
from pzeta.errors import InvalidParameter, NotNormal, OrderBoundExceeded
from pzeta.lattice import all_chief_series_ids, chief_series_ids, overgroups_of_seed
from pzeta.permgroup import _Engine
from pzeta.rationality import check_sml_conditions
from pzeta.zeta import OddIndexDetail, _is_supplement, interval_zeta
from helpers import generating_probability, generating_probability_bruteforce, group, psl2

D = DirichletPolynomial


KNOWN_ZETAS = {
    "C7": D({1: 1, 7: -1}),
    "S3": D({1: 1, 2: -1, 3: -3, 6: 3}),
    "C2xC2": D({1: 1, 2: -3, 4: 2}),
    "A5": D({1: 1, 5: -5, 6: -6, 10: -10, 20: 20, 30: 60, 60: -60}),
}


class TestZetaPolynomial:
    @pytest.mark.parametrize("name", sorted(KNOWN_ZETAS))
    def test_known_values(self, name):
        assert probabilistic_zeta(group(name)) == KNOWN_ZETAS[name]

    def test_constant_term_is_one(self):
        for name in ["S4", "Q8", "C12", "A5xC2", "D8"]:
            assert probabilistic_zeta(group(name)).coefficient(1) == 1

    def test_report_carries_stats(self):
        rep = zeta_report(group("S3"))
        assert rep.subgroup_count == 6 and rep.class_count == 4
        assert rep.zeta == KNOWN_ZETAS["S3"]

    def test_cached_lattice_honours_a_later_budget(self):
        s4 = PermGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
        tight = Budget(max_subgroups=5)
        with pytest.raises(BudgetExceeded, match="more than 5 subgroups") as before:
            probabilistic_zeta(s4, tight)
        assert s4._lattice is None
        poly = probabilistic_zeta(s4)
        with pytest.raises(BudgetExceeded, match="more than 5 subgroups") as after:
            probabilistic_zeta(s4, tight)
        for e in (before, after):
            assert e.value.stats["subgroups"] == 6
        assert after.value.stats["closures"] == before.value.stats["closures"]
        # a later time hint applies as it does to a fresh build
        hinted = Budget(max_subgroups=5, time_hint_s=0.0)
        with pytest.raises(BudgetExceeded) as fresh:
            probabilistic_zeta(PermGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0]]), hinted)
        with pytest.raises(BudgetExceeded) as cached:
            probabilistic_zeta(s4, hinted)
        assert str(cached.value) == str(fresh.value) == "time hint 0.0s exceeded"
        with pytest.raises(OrderBoundExceeded, match="order 24 exceeds lattice budget 10"):
            probabilistic_zeta(s4, Budget(max_order=10))
        assert probabilistic_zeta(s4, Budget(max_subgroups=30)) == poly

    def test_a5_two_generation_probability(self):
        # classical value for the alternating group on 5 points
        assert probabilistic_zeta(group("A5")).evaluate(2) == Fraction(19, 30)


class TestGenerationOracle:
    """P_G(k) against the ``generation_counts`` oracle, which never
    reads a Moebius value, and that oracle against direct counting."""

    def test_s3_pairs(self):
        assert generating_probability(group("S3"), 2) == Fraction(1, 2)

    def test_c2_single(self):
        assert generating_probability(group("C2"), 1) == Fraction(1, 2)

    @pytest.mark.parametrize("name,k", [("S3", 2), ("C6", 2), ("Q8", 2), ("C2xC2", 1), ("D8", 2)])
    def test_lattice_oracle_matches_bruteforce(self, name, k):
        assert generating_probability(group(name), k) == generating_probability_bruteforce(group(name), k)

    def test_matches_zeta_evaluation_on_a5(self):
        g = group("A5")
        for k in (1, 2, 3):
            assert probabilistic_zeta(g).evaluate(k) == generating_probability(g, k)


class TestFrattiniInvariance:
    @pytest.mark.parametrize("name", ["C4", "C8", "C9", "C12", "Q8"])
    def test_zeta_ignores_frattini_quotient(self, name):
        g = group(name)
        lat = g.subgroup_lattice()
        frat = lat.frattini_node_id()
        assert frat != lat.trivial_id, f"{name} should have nontrivial Frattini subgroup"
        q = lat.quotient_group(frat)
        assert probabilistic_zeta(g) == probabilistic_zeta(q)


class TestSupplementZeta:
    def test_socle_equals_group_reduces_to_zeta(self):
        spec = psl2(5, "psl")
        assert supplement_zeta(spec) == probabilistic_zeta(spec.group)

    def test_pgl25_constant_term(self):
        spec = psl2(5, "pgl")
        poly = supplement_zeta(spec)
        assert poly.coefficient(1) == 1
        # S4 < S5 is a supplement of A5 of index 5, and all five are maximal
        assert poly.coefficient(5) == -5

    def test_pgl27_odd_supplement_coefficient_negative(self):
        poly = supplement_zeta(psl2(7, "pgl"))
        assert poly.coefficient(21) < 0

    def test_refusal_builds_no_table(self):
        spec = make_psl2(29, "psl")
        with pytest.raises(OrderBoundExceeded, match="order 12180 exceeds lattice budget"):
            supplement_zeta(spec)
        assert spec.group._eng is None

    def test_supplement_terms_are_subset_of_zeta_indices(self):
        spec = psl2(7, "pgl")
        full = probabilistic_zeta(spec.group)
        supp = supplement_zeta(spec)
        assert set(supp.support()) <= set(full.support()) | {1}


def _node_loop_details(spec, include_even):
    """The odd-index details node by node: every node that contains
    the seed (the seed node and its overgroup row), grouped by index;
    an index counts the classes of its nodes, and is all maximal when
    each of its nodes' rows is the top alone."""
    eng = spec.group.engine
    seed, seed_gens = ((eng.id_idx,), ()) if include_even else eng.sylow2()
    fam = overgroups_of_seed(eng, seed, seed_gens)
    seed_id = fam.nodes.index(tuple(sorted(int(x) for x in seed)))
    by_index: dict[int, list[int]] = {}
    for i in [seed_id, *fam._overgroups(seed_id)]:
        h = fam.nodes[i]
        if _is_supplement(h, spec):
            by_index.setdefault(eng.order // len(h), []).append(i)
    return tuple(
        OddIndexDetail(
            m,
            len({fam.class_of(i) for i in ids}),
            all(fam._overgroups(i) == [fam.top_id] for i in ids),
        )
        for m, ids in sorted(by_index.items())
    )


class TestOddSupplementIndices:
    @pytest.mark.parametrize(
        "q,variant,w",
        [(5, "psl", 5), (5, "pgl", 5), (7, "psl", 7), (7, "pgl", 21), (11, "psl", 11)],
    )
    def test_minima(self, q, variant, w):
        assert odd_supplement_indices(psl2(q, variant)).minimum == w

    def test_a5_indices(self):
        rep = odd_supplement_indices(psl2(5, "psl"))
        assert rep.indices == (5,)
        # index 15 subgroups (Klein fours) exist but are not maximal
        detail = {d.index: d for d in rep.details}
        assert 15 in detail and not detail[15].all_maximal

    def test_index_one_never_qualifies(self):
        rep = odd_supplement_indices(psl2(5, "pgl"))
        assert 1 not in rep.indices

    @pytest.mark.parametrize(
        "q,variant",
        [(5, "psl"), (5, "pgl"), (7, "psl"), (7, "pgl"),
         (11, "psl"), (11, "pgl"), (13, "psl"), (13, "pgl")],
    )
    def test_odd_proper_supplement_indices_divisible_by_q(self, q, variant):
        rep = odd_supplement_indices(psl2(q, variant))
        for d in rep.details:
            if d.index > 1:
                assert d.index % q == 0

    @pytest.mark.parametrize("q,variant", [(5, "psl"), (7, "pgl")])
    def test_full_lattice_path_agrees_on_odd_part(self, q, variant):
        spec = psl2(q, variant)
        fast = odd_supplement_indices(spec)
        full = odd_supplement_indices(spec, include_even=True)
        assert tuple(m for m in full.indices if m % 2 == 1) == fast.indices

    @pytest.mark.parametrize(
        "q,variant",
        [(5, "psl"), (5, "pgl"), (7, "psl"), (7, "pgl"), (11, "psl"), (11, "pgl")],
    )
    def test_trivial_seed_odd_rows_match_sylow_seed(self, q, variant):
        spec = psl2(q, variant)
        odd = odd_supplement_indices(spec)
        full = odd_supplement_indices(spec, include_even=True)
        assert tuple(d for d in full.details if d.index % 2 == 1) == odd.details
        assert full.include_even and not odd.include_even

    def test_order_gate_runs_before_sylow(self, monkeypatch):
        def fail(self):
            raise AssertionError("sylow2 called on a refused group")

        monkeypatch.setattr(_Engine, "sylow2", fail)
        with pytest.raises(OrderBoundExceeded, match="exceeds lattice budget 100"):
            odd_supplement_indices(psl2(7, "pgl"), Budget(max_order=100))

    def test_refusal_builds_no_table(self):
        spec = make_psl2(37, "pgl")
        with pytest.raises(OrderBoundExceeded, match="order 50616 exceeds lattice budget 30000"):
            odd_supplement_indices(spec, Budget(max_order=30000))
        assert spec.group._eng is None and spec.socle._eng is None

    @pytest.mark.parametrize("q,variant", [(q, v) for q in (5, 7, 11) for v in ("psl", "pgl")])
    def test_include_even_reads_the_group_lattice(self, q, variant):
        spec = make_psl2(q, variant)
        rep = odd_supplement_indices(spec, include_even=True)
        lat = spec.group._lattice
        assert lat is not None and spec.group.subgroup_lattice() is lat
        assert rep.details == _node_loop_details(spec, include_even=True)

    @pytest.mark.parametrize(
        "q,variant,include_even",
        [(q, v, False) for q in (5, 7, 11, 13) for v in ("psl", "pgl")]
        + [(q, v, True) for q in (5, 7) for v in ("psl", "pgl")],
    )
    def test_class_report_matches_node_loop(self, q, variant, include_even):
        spec = psl2(q, variant)
        rep = odd_supplement_indices(spec, include_even=include_even)
        assert rep.details == _node_loop_details(spec, include_even)

    def test_cached_lattice_honours_a_later_budget(self):
        # the same refusal before and after the group's lattice is cached
        tight = Budget(max_subgroups=10)
        fresh, cached = make_psl2(7, "pgl"), make_psl2(7, "pgl")
        with pytest.raises(BudgetExceeded) as before:
            odd_supplement_indices(fresh, tight, include_even=True)
        lat = cached.group.subgroup_lattice()
        with pytest.raises(BudgetExceeded) as after:
            odd_supplement_indices(cached, tight, include_even=True)
        assert str(after.value) == str(before.value) == "more than 10 subgroups"
        stats = {k: v for k, v in before.value.stats.items() if k != "elapsed_s"}
        assert {k: v for k, v in after.value.stats.items() if k != "elapsed_s"} == stats
        assert stats["subgroups"] == 11
        assert cached.group.subgroup_lattice() is lat
        assert odd_supplement_indices(cached, include_even=True).minimum == 8

    def test_even_extension_sees_even_indices(self):
        full = odd_supplement_indices(psl2(5, "psl"), include_even=True)
        assert 6 in full.indices  # the six dihedral D10 are all maximal

    def test_negative_supplement_coefficient_on_omega(self):
        # every index in Omega(X) must carry a strictly negative
        # supplement-zeta coefficient (supplements there are maximal)
        for q, variant in [(5, "psl"), (7, "psl"), (7, "pgl"), (11, "psl")]:
            spec = psl2(q, variant)
            poly = supplement_zeta(spec)
            for m in odd_supplement_indices(spec).indices:
                assert poly.coefficient(m) < 0


class TestWTable:
    def test_closed_form_values(self):
        assert predicted_minimal_odd_index(13, "psl") == 91
        assert predicted_minimal_odd_index(13, "pgl") == 91
        assert predicted_minimal_odd_index(17, "psl") == 153
        assert predicted_minimal_odd_index(19, "psl") == 57
        assert predicted_minimal_odd_index(19, "pgl") == 171
        assert predicted_minimal_odd_index(29, "psl") == 203
        assert predicted_minimal_odd_index(29, "pgl") == 435
        assert predicted_minimal_odd_index(23, "psl") == 23 * 22 // 2
        assert predicted_minimal_odd_index(37, "pgl") == 37 * 38 // 2

    def test_small_rows_match(self):
        rows = minimal_odd_index_table([5, 7])
        assert all(r.status == "MATCH" for r in rows)

    def test_budget_skips_rows(self):
        rows = minimal_odd_index_table([29], budget=Budget(max_order=1000))
        assert all(r.status == "SKIPPED" for r in rows)
        assert all(r.computed is None for r in rows)
        assert [r.note for r in rows] == [
            "order 12180 exceeds lattice budget 1000",
            "order 24360 exceeds lattice budget 1000",
        ]

    @pytest.mark.parametrize(
        "qs, budget", [([4], None), ([4], Budget(max_order=10)), ([9, 4], Budget(max_order=10))]
    )
    def test_bad_q_raises_under_any_budget(self, qs, budget):
        """make_psl2's cheap checks run before the budget's, so q = 4 is
        an error, not a SKIPPED row."""
        with pytest.raises(InvalidParameter) as info:
            minimal_odd_index_table(qs, budget=budget)
        assert str(info.value) == "q must be an odd prime >= 5, got 4"

    def test_q_past_the_order_bound_is_skipped(self):
        rows = minimal_odd_index_table([1009], budget=Budget(max_order=10**7))
        assert [(r.status, r.computed, r.predicted, r.note) for r in rows] == [
            ("SKIPPED", None, 1009 * 1010 // 2, "group order exceeds bound 1000000")
        ] * 2


class TestChiefFactorization:
    def test_s4_factors(self):
        fac = chief_factorization(group("S4"))
        polys = [str(p) for p in fac.factor_polynomials()]
        assert polys == ["1 - 1/2^s", "1 - 3/3^s", "1 - 4/4^s"]
        assert fac.product_ok
        assert [r.complement_count for r in fac.factors] == [1, 3, 4]
        assert all(r.abelian_identity_ok for r in fac.factors)

    def test_a5_single_factor_is_zeta(self):
        fac = chief_factorization(group("A5"))
        assert len(fac.factors) == 1
        assert fac.factors[0].polynomial == KNOWN_ZETAS["A5"]
        assert not fac.factors[0].frattini

    def test_c4_frattini_factor_is_trivial(self):
        fac = chief_factorization(group("C4"))
        assert fac.zeta == D({1: 1, 2: -1})
        flags = [r.frattini for r in fac.factors]
        assert flags == [False, True]
        assert fac.factors[1].polynomial.is_one()
        assert fac.factors[1].complement_count == 0

    def test_q8_bottom_factor_is_frattini(self):
        # Q8 > C4 > C2 > 1: the bottom C2 is the Frattini subgroup, the
        # middle factor is not Frattini in Q8/C2 = V4 and has 2 complements
        fac = chief_factorization(group("Q8"))
        assert fac.zeta == D({1: 1, 2: -3, 4: 2})
        assert [r.frattini for r in fac.factors] == [False, False, True]
        assert [str(p) for p in fac.factor_polynomials()] == ["1 - 1/2^s", "1 - 2/2^s", "1"]
        assert [r.complement_count for r in fac.factors] == [1, 2, 0]

    def test_product_identity_all_corpus(self):
        for name in ["C6", "C12", "S3", "A4", "D8", "A5xC2"]:
            fac = chief_factorization(group(name))
            assert fac.product_ok, name

    def test_chain_of_non_normal_nodes_rejected(self):
        # S4 > A4 > V4 > C2 > 1 is a composition series, not a chief
        # series: each term is normal in the previous one, C2 is not
        # normal in S4
        g = group("S4")
        lat = g.subgroup_lattice()
        a4, v4 = (
            next(i for i in lat.normal_node_ids() if lat.node_order(i) == k) for k in (12, 4)
        )
        c2 = next(i for i in lat.strict_subgroups(v4) if lat.node_order(i) == 2)
        with pytest.raises(NotNormal):
            chief_factorization(g, chain=[lat.top_id, a4, v4, c2, lat.trivial_id])

    @pytest.mark.parametrize(
        "name,orders,between",
        [("C4", [4, 1], 2), ("S4", [24, 4, 1], 12), ("C12", [12, 2, 1], 4)],
    )
    def test_chain_skipping_a_normal_subgroup_rejected(self, name, orders, between):
        # normal series that are not chief series: C2 lies between C4
        # and 1, A4 between S4 and V4, C4 (the first) and C6 between
        # C12 and C2; the message names that normal node
        g = group(name)
        lat = g.subgroup_lattice()
        normals = lat.normal_node_ids()
        chain = [next(i for i in normals if lat.node_order(i) == k) for k in orders]
        node = next(i for i in normals if lat.node_order(i) == between)
        with pytest.raises(ValueError, match=f"normal node {node} of order {between} "):
            chief_factorization(g, chain=chain)

    @pytest.mark.parametrize(
        "cut", ["empty", "without G", "without 1", "G alone", "reversed"]
    )
    def test_chain_not_from_top_to_trivial_rejected(self, cut):
        # S4 > A4 > V4 > 1 with its ends cut off, or read bottom up
        g = group("S4")
        lat = g.subgroup_lattice()
        chain = chief_series_ids(lat)
        bad = {
            "empty": [],
            "without G": chain[1:],
            "without 1": chain[:-1],
            "G alone": [lat.top_id],
            "reversed": chain[::-1],
        }[cut]
        with pytest.raises(ValueError, match="a chief series runs from node"):
            chief_factorization(g, chain=bad)
        with pytest.raises(ValueError, match="a chief series runs from node"):
            chief_steps(lat, bad)

    def test_trivial_group_chain_is_its_one_node(self):
        g = PermGroup(1, [[0]])
        fac = chief_factorization(g, chain=[0])
        assert fac.factors == () and fac.product_ok

    def test_multiset_independent_of_series(self):
        from pzeta.zeta import chief_factor_multiset

        multisets = chief_factor_multiset(group("A5xC2"))
        assert len(multisets) == 2
        assert multisets[0] == multisets[1]


def _quotient_step_oracle(lat, upper, lower):
    """Frattini flag and complement count of the chief factor
    N_upper / N_lower, computed on the quotient group G / N_lower with
    its own subgroup lattice (independent of the interval path)."""
    qgroup, hom = lat.quotient_with_hom(lower)
    image = qgroup.engine.closure(
        [qgroup.index_of(hom(x)) for x in lat.node_generators(upper)]
    )
    image_fs = frozenset(int(x) for x in image)
    qlat = qgroup.subgroup_lattice()
    frattini = image_fs <= frozenset(qlat.node_elements(qlat.frattini_node_id()))
    target = qgroup.order // len(image_fs)
    complements = sum(
        1
        for i in range(qlat.node_count)
        if qlat.node_order(i) == target
        and len(frozenset(qlat.node_elements(i)) & image_fs) == 1
    )
    return frattini, complements


class TestIntervalOracles:
    """Quotient quantities read off G's lattice as intervals [N, G],
    checked against the quotient groups' own lattices."""

    @pytest.mark.parametrize(
        "name",
        ["S4", "D8", "Q8", "A4", "S5", "A5xC2", "S4xS3", "C2xC2xC2", "PGL(2,7)"],
    )
    def test_interval_zeta_is_quotient_zeta(self, name):
        lat = group(name).subgroup_lattice()
        for n in lat.normal_node_ids():
            assert interval_zeta(lat, n) == probabilistic_zeta(lat.quotient_group(n)), (name, n)

    @pytest.mark.parametrize("name", ["S4", "Q8", "D8", "A4xC2", "S4xS3", "C4xC2"])
    def test_frattini_and_complements_match_quotient_lattice(self, name):
        g = group(name)
        lat = g.subgroup_lattice()
        for chain in all_chief_series_ids(lat):
            fac = chief_factorization(g, chain=chain)
            for upper, lower, rec in zip(chain, chain[1:], fac.factors):
                frattini, complements = _quotient_step_oracle(lat, upper, lower)
                assert rec.frattini == frattini, (name, chain, upper)
                if rec.complement_count is not None:
                    assert rec.complement_count == complements, (name, chain, upper)


def _shifted_by_hand(poly, r):
    """Each term c_m / m^s moved to index m^r with coefficient
    c_m * m^(r-1), written out term by term."""
    return D({m**r: c * m ** (r - 1) for m, c in poly.items()})


class TestShiftCoefficientConsistency:
    """Projecting away primes commutes with the power substitution: each
    surviving term c_m / m^s of ``P_{X,S}`` lands at index m^r with
    coefficient c_m * m^(r-1)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.integers(1, 60), st.integers(-9, 9), max_size=8),
        st.integers(1, 4),
        st.sets(st.sampled_from([2, 3, 5, 7, 11])),
    )
    def test_projection_commutes_with_shift(self, terms, r, primes):
        p = D(terms)
        projected = prime_projection(p, primes)
        assert prime_projection(power_shift(p, r), primes) == power_shift(projected, r)
        assert power_shift(projected, r) == _shifted_by_hand(projected, r)

    def test_identity_shift(self):
        pxs = supplement_zeta(psl2(5, "psl"))
        assert prime_projection(power_shift(pxs, 1), {2}) == _shifted_by_hand(
            prime_projection(pxs, {2}), 1
        )

    def test_full_projection_kills_everything(self):
        pxs = supplement_zeta(psl2(5, "psl"))
        assert prime_projection(pxs, {2, 3, 5}).is_one()
        assert prime_projection(power_shift(pxs, 2), {2, 3, 5}).is_one()

    def test_psl27_square_shift(self):
        poly = supplement_zeta(psl2(7, "psl"))
        shifted = prime_projection(power_shift(poly, 2), {2})
        assert shifted == _shifted_by_hand(prime_projection(poly, {2}), 2)
        assert shifted.coefficient(21**2) == poly.coefficient(21) * 21


class TestFiniteChiefSeriesConditions:
    def test_finite_groups_satisfy_both_conditions(self):
        # non-Frattini composition lengths of a finite group always give
        # a family meeting both finiteness hypotheses
        for name in ["S4", "A5xC2", "C12", "Q8"]:
            fac = chief_factorization(group(name))
            mults = [r.multiplicity for r in fac.factors if not r.frattini]
            verdict = check_sml_conditions(mults)
            assert verdict.condition_i_holds
            assert verdict.condition_ii_witness is not None
