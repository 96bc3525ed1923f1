"""Witness extraction, finiteness conditions and the replay pipeline on
symbolic factor data."""

import json
import random

import pytest

from pzeta import (
    ArithmeticExponents,
    ConstantExponents,
    DirichletPolynomial,
    EmptyInput,
    FactorDescriptor,
    FactorKind,
    GeometricExponents,
    HypothesisViolated,
    InvalidParameter,
    LambdaPredicate,
    ProductExperiment,
    TruncatedSeries,
    check_sml_conditions,
    cyclic_descriptor,
    descriptor_from_supplement_poly,
    extract_witness_product,
    index_primes,
    padic_valuation,
    prime_support,
    probabilistic_zeta,
    replay_finiteness_argument,
    supplement_zeta,
    truncated_product,
)
from helpers import group, psl2

D = DirichletPolynomial


class TestValuation:
    @pytest.mark.parametrize("n,q,e", [(18, 3, 2), (7, 5, 0), (48, 2, 4), (1, 7, 0)])
    def test_values(self, n, q, e):
        assert padic_valuation(n, q) == e

    def test_rejects_composite_base(self):
        with pytest.raises(ValueError):
            padic_valuation(10, 6)


class TestLambdaPredicate:
    def test_odd_multiples(self):
        lam = LambdaPredicate(5)
        assert lam.contains(15) and lam.contains(35)
        assert not lam.contains(10)  # even
        assert not lam.contains(21)  # not a multiple of 5

    def test_bounded_prime_variant(self):
        lam = LambdaPredicate(7, bounded_primes=True)
        assert lam.contains(21)
        assert not lam.contains(7 * 11)  # prime 11 exceeds 7
        # enormous indices are fine: only small primes get divided out
        assert lam.contains(3**20 * 7**20)

    def test_rejects_composite(self):
        with pytest.raises(InvalidParameter):
            LambdaPredicate(6)


class TestFactorDescriptor:
    def test_cyclic_shape_enforced(self):
        cyclic_descriptor(0, 3, 2, 4)  # fine: coefficient -4 at 9
        with pytest.raises(InvalidParameter):
            FactorDescriptor.make(0, FactorKind.cyclic(3), 2, {3: -1})
        with pytest.raises(InvalidParameter):
            FactorDescriptor.make(0, FactorKind.cyclic(3), 1, {3: 2})

    def test_zero_complements_mean_empty_support(self):
        assert cyclic_descriptor(0, 5, 1, 0).coeffs == ()

    def test_psl2_odd_indices_must_be_powers(self):
        FactorDescriptor.make(0, FactorKind.psl2(7, "pgl"), 2, {441: -21})
        with pytest.raises(InvalidParameter):
            FactorDescriptor.make(0, FactorKind.psl2(7, "pgl"), 2, {21: -1})

    def test_constant_term_never_stored(self):
        with pytest.raises(InvalidParameter):
            FactorDescriptor.make(0, FactorKind.psl2(5, "psl"), 1, {1: 1})

    def test_json_round_trip_with_big_coefficients(self):
        f = FactorDescriptor.make(
            3, FactorKind.psl2(7, "pgl"), 6, {21**6: -21 * 21**5}
        )
        data = json.loads(json.dumps(f.to_json_dict()))
        assert FactorDescriptor.from_json_dict(data) == f

    @pytest.mark.parametrize(
        "data, bad",
        [
            ({"id": 0.5, "kind": {"cyclic": 3}, "r": 1, "coeffs": []}, 0.5),
            ({"id": 0, "kind": {"cyclic": 3.0}, "r": 1, "coeffs": []}, 3.0),
            ({"id": 0, "kind": {"psl2": {"q": 7.5, "variant": "psl"}}, "r": 1, "coeffs": []}, 7.5),
            ({"id": 0, "kind": {"cyclic": 3}, "r": True, "coeffs": []}, True),
            ({"id": 0, "kind": {"cyclic": 3}, "r": 1, "coeffs": [{"n": 3.0, "b": "-2"}]}, 3.0),
            ({"id": 0, "kind": {"cyclic": 3}, "r": 1, "coeffs": [{"n": 3, "b": -2.5}]}, -2.5),
            ({"id": [0], "kind": {"cyclic": 3}, "r": 1, "coeffs": []}, [0]),
        ],
    )
    def test_factor_json_rejects_non_integers(self, data, bad):
        with pytest.raises(ValueError) as info:
            FactorDescriptor.from_json_dict(data)
        assert str(info.value) == f"expected an integer or a decimal string, got {bad!r}"

    def test_factor_json_reads_ints_and_decimal_strings(self):
        data = {"id": "4", "kind": {"cyclic": "3"}, "r": "1", "coeffs": [{"n": "3", "b": -2}]}
        f = FactorDescriptor.from_json_dict(data)
        assert (f.ident, f.kind, f.multiplicity, f.coeffs) == (4, FactorKind.cyclic(3), 1, ((3, -2),))

    def test_polynomial_includes_implicit_one(self):
        f = cyclic_descriptor(0, 5, 1, 2)
        assert f.polynomial() == D({1: 1, 5: -2})

    def test_from_supplement_poly_applies_power_substitution(self):
        poly = D({1: 1, 21: -21, 28: -28})
        f = descriptor_from_supplement_poly(0, FactorKind.psl2(7, "pgl"), 3, poly)
        assert f.coefficient(21**3) == -21 * 21**2
        assert f.coefficient(28**3) == -28 * 28**2


class TestExtractWitness:
    def test_hand_worked_experiment(self):
        f1 = FactorDescriptor.make(1, FactorKind.psl2(5, "psl"), 1, {15: -2})
        f2 = FactorDescriptor.make(2, FactorKind.psl2(5, "psl"), 2, {225: -3})
        f3 = FactorDescriptor.make(3, FactorKind.psl2(5, "psl"), 1, {35: -1})
        got = extract_witness_product(ProductExperiment((f1, f2, f3), 5, LambdaPredicate(5)))
        assert got.witness == 15
        assert got.contributing_ids == (1, 2)
        assert got.factors == (D({1: 1, 15: -2}), D({1: 1, 225: -3}))

    def test_single_cyclic_factor(self):
        f = cyclic_descriptor(0, 5, 1, 1)
        got = extract_witness_product(ProductExperiment((f,), 5, LambdaPredicate(5)))
        assert got.witness == 5
        assert got.factors == (D({1: 1, 5: -1}),)

    def test_no_witness_reported_not_raised(self):
        f = cyclic_descriptor(0, 5, 1, 0)
        got = extract_witness_product(ProductExperiment((f,), 5, LambdaPredicate(5)))
        assert got.witness is None and got.status == "no-witness"

    def test_hypothesis_violation_on_wrong_valuation(self):
        f = FactorDescriptor.make(0, FactorKind.psl2(5, "psl"), 1, {75: -1})
        with pytest.raises(HypothesisViolated):
            extract_witness_product(ProductExperiment((f,), 5, LambdaPredicate(5)))

    def test_hypothesis_violation_on_non_power(self):
        # descriptor validation only constrains odd indices, so an even
        # non-square slips through; the plain all-multiples window used
        # by the extraction then rejects it
        f = FactorDescriptor.make(0, FactorKind.psl2(5, "psl"), 2, {5625: -1, 50: -1})
        with pytest.raises(HypothesisViolated):
            extract_witness_product(
                ProductExperiment((f,), 5, LambdaPredicate(5, odd=False))
            )

    def test_minimal_index_coefficient_of_expanded_product(self):
        # at w^(min r) the expanded F* coefficient is exactly the sum of
        # the contributing coefficients: no convolution reaches it
        rng = random.Random(23)
        for _ in range(100):
            q = rng.choice([3, 5, 7])
            factors = []
            for ident in range(rng.randint(1, 5)):
                r = rng.randint(1, 3)
                mult = rng.choice([1, 3, 7, 9, 11, 13])
                if mult % q == 0:
                    mult = 1
                m = q * mult  # odd, q-adic valuation exactly 1
                b = rng.randint(-6, -1)
                factors.append(
                    FactorDescriptor.make(ident, FactorKind.psl2(max(q, 5), "psl"), r, {m**r: b})
                )
            if not factors:
                continue
            got = extract_witness_product(
                ProductExperiment(tuple(factors), q, LambdaPredicate(q))
            )
            if got.witness is None:
                continue
            w = got.witness
            rmin = min(
                f.multiplicity for f in factors if f.ident in got.contributing_ids
            )
            bound = w**rmin
            expanded = truncated_product(list(got.factors), bound)
            expected = sum(
                f.coefficient(w**f.multiplicity)
                for f in factors
                if f.ident in got.contributing_ids and f.multiplicity == rmin
            )
            assert expanded.coefficient(bound) == expected


class TestSmlConditions:
    def test_all_distinct_unbounded_progression(self):
        verdict = check_sml_conditions([ArithmeticExponents(1, 1)])
        assert verdict.condition_i_holds
        assert verdict.condition_ii_witness is None  # every prime divides some i

    def test_powers_of_two(self):
        verdict = check_sml_conditions([GeometricExponents(2, 2)])
        assert verdict.condition_i_holds
        assert verdict.condition_ii_witness == 3

    def test_constant_repeated_forever(self):
        verdict = check_sml_conditions([ConstantExponents(1, infinite=True)])
        assert not verdict.condition_i_holds
        assert verdict.condition_i_violated_at == 1

    def test_plain_int_window(self):
        verdict = check_sml_conditions([1, 2, 3, 4])
        assert verdict.condition_i_holds
        assert verdict.condition_ii_witness == 5

    def test_arithmetic_with_usable_step(self):
        # start 3, step 5: the prime 5 never divides 3 + 5k
        verdict = check_sml_conditions([ArithmeticExponents(3, 5)])
        assert verdict.condition_ii_witness == 5

    def test_mixed_families_constrain_each_other(self):
        verdict = check_sml_conditions(
            [ArithmeticExponents(3, 5), ConstantExponents(5, count=2)]
        )
        # 5 divides the constant family, and no other prime survives the
        # arithmetic progression, so no witness exists
        assert verdict.condition_ii_witness is None

    def test_exactness_flag(self):
        assert check_sml_conditions([2, 4]).exact


class TestReplay:
    def test_degenerate_all_cyclic(self):
        factors = [cyclic_descriptor(i, 5, 1, 1) for i in range(10)]
        rep = replay_finiteness_argument(factors)
        assert rep.q == 5
        assert rep.witness == 5
        assert rep.i_star == tuple(range(10))
        assert all(p == D({1: 1, 5: -1}) for p in rep.h_factors)
        assert not rep.sml.condition_i_holds  # repeated multiplicity 1
        assert rep.min_psl_multiplicity is None and rep.beta is None

    def test_mixed_cyclic_and_psl2(self):
        pgl7 = supplement_zeta(psl2(7, "pgl"))
        kind = FactorKind.psl2(7, "pgl")
        factors = [cyclic_descriptor(0, 3, 1, 2)]
        factors += [
            descriptor_from_supplement_poly(i, kind, i, pgl7) for i in (1, 2)
        ]
        rep = replay_finiteness_argument(factors)
        assert rep.q == 7
        # the cyclic factor's support (at 3) is outside the window
        assert 0 not in rep.i_star
        assert set(rep.i_star) == {1, 2}
        assert rep.witness == 21

    def test_characterization_of_contributing_ids(self):
        # contributing ids are exactly: cyclic of order q with w == q, or
        # psl2 over q with closed-form minimum equal to the witness
        pgl7 = supplement_zeta(psl2(7, "pgl"))
        psl7 = supplement_zeta(psl2(7, "psl"))
        factors = [
            descriptor_from_supplement_poly(0, FactorKind.psl2(7, "pgl"), 1, pgl7),
            descriptor_from_supplement_poly(1, FactorKind.psl2(7, "psl"), 1, psl7),
            cyclic_descriptor(2, 7, 1, 3),
        ]
        rep = replay_finiteness_argument(factors)
        # witness is 7: both the PSL(2,7) factor (w(X)=7) and the cyclic
        # factor C7 contribute; the PGL factor first appears at 21
        assert rep.witness == 7
        assert set(rep.i_star) == {1, 2}
        for summary in rep.factor_summaries:
            contributes = summary["contributes"]
            if summary["kind"].startswith("C"):
                assert contributes == (rep.witness == rep.q)
            else:
                assert contributes == (summary["w_closed_form"] == rep.witness)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            replay_finiteness_argument([])

    def test_duplicate_ids_rejected(self):
        f = cyclic_descriptor(0, 5, 1, 1)
        with pytest.raises(InvalidParameter):
            replay_finiteness_argument([f, f])

    def test_beta_uses_bounded_prime_window(self):
        # a factor supported at 7*11 is inside the plain odd window for
        # q=7 but outside the bounded-prime window used for beta
        f1 = FactorDescriptor.make(0, FactorKind.psl2(7, "psl"), 1, {77: -1})
        f2 = FactorDescriptor.make(1, FactorKind.psl2(7, "psl"), 1, {21: -2})
        rep = replay_finiteness_argument([f1, f2])
        assert rep.witness == 21
        assert rep.beta == 21
        assert rep.c_beta == -2 and rep.c_beta_negative


class TestPrimeSupport:
    def test_polynomial_examples(self):
        assert prime_support(D({1: 1, 3: -3, 6: 3})).primes == frozenset({2, 3})
        assert prime_support(D({1: 1})).primes == frozenset()
        assert prime_support(probabilistic_zeta(group("A5"))).primes == frozenset({2, 3, 5})

    def test_truncated_flagged_as_window(self):
        ps = prime_support(TruncatedSeries(10, {1: 1, 6: -1}))
        assert ps.window_bounded and ps.primes == frozenset({2, 3})

    def test_product_support_contained_in_union(self):
        rng = random.Random(7)
        from helpers import random_polynomial

        for _ in range(200):
            p, q = random_polynomial(rng), random_polynomial(rng)
            assert prime_support(p * q).primes <= prime_support(p).primes | prime_support(q).primes

    def test_index_primes(self):
        assert index_primes(group("A5")) == frozenset({2, 3, 5})
        assert index_primes(group("C12")) == frozenset({2, 3})
