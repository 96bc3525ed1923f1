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
