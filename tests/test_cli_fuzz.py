"""Hostile input for the ``product`` and ``divide`` commands.

Hypothesis writes JSON files, well formed or not: empty, zero and
non-unital polynomials, wrong shapes, indices and coefficients past 2^63,
bounds from 1 to 10^12 and past 2^63.  Through ``cli.main`` every file
must end in exit 0, 2 or 6 within a wall-clock cap, never in a traceback
or a hang, and every product that succeeds must equal the loop oracle.
Supports stay small, so the whole file runs in seconds.
"""

import io
import json
import signal
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pzeta import DirichletPolynomial, cli
from pzeta.dirichlet import int_from_json
from test_dirichlet import _oracle_mul, _oracle_truncated_product

CAP_S = 10.0  # per example; every case here takes milliseconds
# the product bound when the file has none
DEFAULT_BOUND = cli.build_parser().get_default("truncate")


class WallClockCapExceeded(Exception):
    pass


@contextmanager
def wall_clock_cap(seconds):
    def expire(signum, frame):
        raise WallClockCapExceeded(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_capped(directory, command, text):
    path = directory / "in.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), wall_clock_cap(CAP_S):
        code = cli.main(["--format", "json", command, str(path)])
    return code, out.getvalue(), err.getvalue()


def encoded(ints):
    """An integer field as a JSON int or a decimal string."""
    return st.one_of(ints, ints.map(str))


bad_scalar_st = st.sampled_from([None, True, 1.5, "x", "", "1e3", [], {}])
index_st = st.one_of(st.integers(1, 60), st.integers(2**63 - 2, 2**66), st.integers(-2, 0))
coef_st = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))
bound_st = st.one_of(
    st.integers(1, 100), st.integers(1, 10**12), st.integers(2**63 - 2, 2**64), st.integers(-2, 0)
)

good_term_st = st.fixed_dictionaries({"n": encoded(index_st), "a": encoded(coef_st)})
term_st = st.one_of(
    good_term_st,
    good_term_st,
    good_term_st,
    st.fixed_dictionaries({"n": bad_scalar_st, "a": encoded(coef_st)}),
    st.fixed_dictionaries({"n": encoded(index_st), "a": bad_scalar_st}),
    st.sampled_from([1, [1, 2], {"n": 1}, {"a": "1"}]),
)
poly_terms_st = st.lists(term_st, max_size=4)
unital_st = st.builds(
    lambda rest: {"terms": [{"n": 1, "a": "1"}] + rest},
    st.lists(
        st.fixed_dictionaries({"n": encoded(st.integers(2, 60)), "a": encoded(coef_st)}),
        max_size=3,
    ),
)
bad_shape_st = st.sampled_from([None, 3, "x", [], [1], {}, {"terms": 3}, {"terms": {"n": 1}}])
poly_st = st.one_of(
    unital_st, unital_st, unital_st, st.fixed_dictionaries({"terms": poly_terms_st}), bad_shape_st
)
optional_bound = {"bound": st.one_of(encoded(bound_st), encoded(bound_st), bad_scalar_st)}

# not JSON at all, or JSON nested past the decoder's recursion limit
raw_text_st = st.sampled_from(["", "{", "nul", '{"factors": [}', "{} {}", "[" * 100_000])

product_st = st.one_of(
    st.fixed_dictionaries(
        {"factors": st.lists(unital_st, max_size=4)}, optional={"bound": encoded(bound_st)}
    ),
    st.fixed_dictionaries({"factors": st.lists(poly_st, max_size=4)}, optional=optional_bound),
    st.sampled_from([[], 3, "x", None, {"factors": 3}, {"factors": None}, {"factors": [3]}]),
).map(json.dumps)


def _exact_division(q_pairs, d_pairs):
    q = DirichletPolynomial(q_pairs)
    d = DirichletPolynomial([(1, 1)] + d_pairs)
    return {"p": _oracle_mul(q, d).to_json_dict(), "d": d.to_json_dict()}


small_pairs_st = st.lists(st.tuples(st.integers(1, 60), coef_st), max_size=4)
divide_st = st.one_of(
    st.fixed_dictionaries({"p": poly_st, "d": poly_st}, optional=optional_bound),
    st.builds(
        _exact_division, small_pairs_st, st.lists(st.tuples(st.integers(2, 60), coef_st), max_size=3)
    ),
    st.sampled_from([[], 3, {"p": {"terms": []}}, {"d": {"terms": []}}, {"p": 1, "d": 2}]),
).map(json.dumps)


def check_exit(code, out, err):
    assert code in (0, 2, 6), err
    if code == 2:
        assert out == "" and err.startswith("input error: "), err
    elif code == 6:
        assert out == "" and err.startswith("not divisible: "), err


@settings(max_examples=150, deadline=None)
@given(st.one_of(product_st, raw_text_st))
def test_product_ends_in_a_documented_exit(fuzz_dir, text):
    code, out, err = run_capped(fuzz_dir, "product", text)
    check_exit(code, out, err)
    event(f"exit {code}")
    if code == 0:
        data = json.loads(text)
        factors = [DirichletPolynomial.from_json_dict(f) for f in data.get("factors", [])]
        bound = int_from_json(data.get("bound", DEFAULT_BOUND))
        assert json.loads(out) == _oracle_truncated_product(factors, bound).to_json_dict()


@settings(max_examples=150, deadline=None)
@given(st.one_of(divide_st, raw_text_st))
def test_divide_ends_in_a_documented_exit(fuzz_dir, text):
    code, out, err = run_capped(fuzz_dir, "divide", text)
    check_exit(code, out, err)
    event(f"exit {code}")
    if code == 0:
        data = json.loads(text)
        p, d = (DirichletPolynomial.from_json_dict(data[k]) for k in ("p", "d"))
        quotient = DirichletPolynomial.from_json_dict(json.loads(out)["quotient"])
        assert _oracle_mul(quotient, d) == p


# -- replay and smlcheck ------------------------------------------------------

ALL_EXITS = (0, 2, 3, 4, 5, 6)
EXIT_PREFIXES = {2: "input error: ", 3: "budget: ", 5: "hypothesis violated: ",
                 6: "not divisible: "}

small_int_st = st.integers(-3, 60)
big_int_st = st.one_of(st.integers(2**62, 2**70), st.integers(10**30, 10**40))
int_field_st = st.one_of(encoded(small_int_st), encoded(small_int_st), encoded(big_int_st),
                         bad_scalar_st)
q_st = st.sampled_from([3, 5, 7, 9, 11, 13, 4, 1, -7, 10**20 + 39])
kind_st = st.one_of(
    st.fixed_dictionaries({"cyclic": st.one_of(encoded(st.sampled_from([2, 3, 5, 7, 4, 1, 0])),
                                                bad_scalar_st)}),
    st.fixed_dictionaries({"psl2": st.fixed_dictionaries({
        "q": encoded(q_st),
        "variant": st.sampled_from(["psl", "pgl", "PGL", "x", 1]),
    })}),
    st.sampled_from([{}, {"other": 1}, [3], 3, None]),
)


def _window_index(q, multiple, r):
    """An odd multiple of q raised to the r-th power: the shape replay expects."""
    return ((2 * multiple + 1) * q) ** r


coeff_st = st.one_of(
    st.fixed_dictionaries({"n": encoded(st.integers(1, 10**4)), "b": encoded(st.integers(-50, 50))}),
    st.builds(lambda q, m, r, b: {"n": _window_index(q, m, r), "b": b},
              st.sampled_from([5, 7, 11]), st.integers(0, 6), st.integers(1, 3),
              encoded(st.integers(-50, 50))),
    st.fixed_dictionaries({"n": int_field_st, "b": int_field_st}),
    st.sampled_from([[3, -1], 3, {}, {"n": 3}]),
)
descriptor_st = st.one_of(
    st.fixed_dictionaries({
        "id": encoded(st.integers(0, 5)),
        "kind": kind_st,
        "r": st.one_of(encoded(st.integers(1, 3)), int_field_st),
        "coeffs": st.one_of(st.lists(coeff_st, max_size=4), bad_scalar_st),
    }),
    bad_scalar_st,
)
probe_st = {"probe_bound": st.one_of(encoded(st.integers(1, 10**4)), int_field_st)}
replay_st = st.one_of(
    st.fixed_dictionaries({"factors": st.lists(descriptor_st, max_size=4)}, optional=probe_st),
    st.sampled_from([[], 3, None, {"factors": 3}, {"factors": [3]}, {}]),
).map(json.dumps)

family_st = st.one_of(
    encoded(st.integers(-3, 10**6)),
    encoded(big_int_st),
    st.fixed_dictionaries({"const": int_field_st},
                          optional={"count": int_field_st,
                                    "infinite": st.sampled_from([True, False, 1, "false"])}),
    st.fixed_dictionaries({"arith": st.fixed_dictionaries({"start": int_field_st,
                                                           "step": int_field_st})}),
    st.fixed_dictionaries({"geom": st.fixed_dictionaries({"start": int_field_st,
                                                          "ratio": int_field_st})}),
    st.sampled_from([True, None, 1.5, [], {}, {"what": 1}, {"arith": [1, 2]}]),
)
smlcheck_st = st.one_of(
    st.fixed_dictionaries({"families": st.lists(family_st, max_size=5)}, optional=probe_st),
    st.sampled_from([[], 3, None, {"families": 3}, {}]),
).map(json.dumps)


def check_any_documented_exit(code, out, err):
    assert code in ALL_EXITS, err
    if code:
        assert out == "" and err.startswith(EXIT_PREFIXES.get(code, "")), err
    else:
        json.loads(out)


@settings(max_examples=200, deadline=None)
@given(st.one_of(replay_st, raw_text_st))
def test_replay_ends_in_a_documented_exit(fuzz_dir, text):
    code, out, err = run_capped(fuzz_dir, "replay", text)
    check_any_documented_exit(code, out, err)
    event(f"exit {code}")


@settings(max_examples=200, deadline=None)
@given(st.one_of(smlcheck_st, raw_text_st))
def test_smlcheck_ends_in_a_documented_exit(fuzz_dir, text):
    code, out, err = run_capped(fuzz_dir, "smlcheck", text)
    check_any_documented_exit(code, out, err)
    event(f"exit {code}")


# inputs that once ran past the cap: a prime stated value or step of 19
# digits (trial division), a 21-digit q (trial-division primality) and
# r = 2^62 (q^r formed before the index was compared)
PINNED = [
    ("smlcheck", {"families": [{"const": 2**61 - 1}]}, 0),
    ("smlcheck", {"families": [2**61 - 1, 10**30 + 7]}, 0),
    ("smlcheck", {"families": [{"arith": {"start": 1, "step": 2**61 - 1}}]}, 0),
    ("smlcheck", {"families": [{"arith": {"start": 1, "step": (2**61 - 1) * (2**31 - 1)}}],
                  "probe_bound": 100}, 0),
    ("replay", {"factors": [{"id": 0, "kind": {"psl2": {"q": 10**20 + 39, "variant": "pgl"}},
                             "r": 1, "coeffs": [{"n": 3, "b": "-2"}]}]}, 0),
    ("replay", {"factors": [{"id": 0, "kind": {"cyclic": 2}, "r": 2**62, "coeffs": []}]}, 0),
    ("replay", {"factors": [{"id": 0, "kind": {"cyclic": 2}, "r": 2**62,
                             "coeffs": [{"n": 8, "b": "-1"}]}]}, 2),
    ("replay", {"factors": [{"id": 0, "kind": {"cyclic": 10**25 + 13}, "r": 1,
                             "coeffs": []}]}, 2),
]


@pytest.mark.parametrize("command, data, code", PINNED)
def test_pinned_hostile_inputs_end_in_time(fuzz_dir, command, data, code):
    got, out, err = run_capped(fuzz_dir, command, json.dumps(data))
    check_any_documented_exit(got, out, err)
    assert got == code, err
