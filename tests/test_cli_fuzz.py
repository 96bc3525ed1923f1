"""Hostile input for the ``product`` and ``divide`` commands, for
``replay`` and ``smlcheck``, and for the group commands ``pg``,
``factorize`` and ``moebius``.

Hypothesis writes JSON files, well formed or not: empty, zero and
non-unital polynomials, wrong shapes, indices and coefficients past 2^63,
bounds from 1 to 10^12 and past 2^63.  Through ``cli.main`` every file
must end in exit 0, 2 or 6 within a wall-clock cap, never in a traceback
or a hang, and every product that succeeds must equal the loop oracle.
Group files (degree up to 40, up to three cycle lines, malformed lines)
and builtin names must end in exit 0, 2 or 3.  Supports stay small, so
the whole file runs in seconds.  Builtins whose rows would not fit in
memory run in a child process under an address-space limit.
"""

import io
import json
import os
import resource
import signal
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import pzeta
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
              st.sampled_from([5, 7, 11, 10**20 + 39]), st.integers(0, 6), st.integers(1, 3),
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
# digits (trial division), a 21-digit q (trial-division primality), r =
# 2^62 (q^r formed before the index was compared), a step and probe bound
# of 19 digits (a prime test per integer up to the bound) and an
# in-window index under a 21-digit q (a prime test per integer up to q);
# new entries go last, so the test ids of the others stay
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
    ("smlcheck", {"families": [2, {"arith": {"start": 3, "step": 5134545676905864192}}],
                  "probe_bound": 4611686018427387904}, 0),
    ("replay", {"factors": [{"id": 0, "kind": {"psl2": {"q": 10**20 + 39, "variant": "pgl"}},
                             "r": 1, "coeffs": [{"n": 10**20 + 39, "b": "-2"}]}]}, 0),
    # beta = (3q)^2: q^2 is past what prime_factors decides
    ("replay", {"factors": [{"id": 0, "kind": {"psl2": {"q": 10**20 + 39, "variant": "pgl"}},
                             "r": 2, "coeffs": [{"n": str((3 * (10**20 + 39))**2), "b": "-2"}]}]},
     0),
]


@pytest.mark.parametrize("command, data, code", PINNED)
def test_pinned_hostile_inputs_end_in_time(fuzz_dir, command, data, code):
    got, out, err = run_capped(fuzz_dir, command, json.dumps(data))
    check_any_documented_exit(got, out, err)
    assert got == code, err


# -- pg, factorize and moebius ------------------------------------------------

GROUP_COMMANDS = ("pg", "factorize", "moebius")


def run_group_capped(command, source):
    """Under budgets a tenth of the defaults: a product of builtins or a
    group file within the default budget can take the walk to 20000
    subgroups, seconds each, while these keep every example far inside
    the cap and still reach exits 0, 2 and 3."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), wall_clock_cap(CAP_S):
        code = cli.main(["--format", "json", "--budget-order", "1000",
                         "--budget-subgroups", "2000", command, *source])
    return code, out.getvalue(), err.getvalue()


def check_group_exit(command, code, out, err):
    assert code in (0, 2, 3), err
    if code:
        assert out == "" and err.startswith(EXIT_PREFIXES[code]), err
        return
    data = json.loads(out)
    if command == "pg":
        # P_G(0) = sum of mu(H) over all H: 0 unless G is trivial
        terms = [(t["n"], int(t["a"])) for t in data["zeta"]["terms"]]
        assert terms[0] == (1, 1)
        assert all(data["order"] % n == 0 for n, _ in terms)
        assert sum(a for _, a in terms) == (data["order"] == 1)
    elif command == "factorize":
        assert data["product_ok"] is True
    else:
        assert len(data["moebius"]) == len(data["nodes"]) and data["moebius"][-1] == 1


def _cycle_text(cycles):
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


@st.composite
def group_file_st(draw):
    """A degree line (sometimes malformed) and up to three generator
    lines of small cycles, a few of them past the degree, repeated or
    not cycle notation at all; comments and blank lines between."""
    degree = draw(st.integers(1, 40))
    head = draw(st.sampled_from(
        [f"degree {degree}"] * 8 + ["degree 0", "degree -3", "degree x", "deg 4",
                                    "degree 2000000", ""]
    ))
    point_st = st.one_of(st.integers(0, degree - 1), st.integers(0, degree - 1),
                         st.integers(0, degree + 2))
    cycle_st = st.lists(point_st, min_size=2, max_size=5, unique=True)
    line_st = st.one_of(
        st.lists(cycle_st, min_size=1, max_size=3).map(_cycle_text),
        st.lists(cycle_st, min_size=1, max_size=3).map(_cycle_text),
        st.sampled_from(["()", "(0 1", "0 1)", "(a b)", "((0 1))", "(0 -1)", "# note", "",
                         "(0 0)", "(1.5 2)"]),
    )
    lines = draw(st.lists(line_st, max_size=3))
    return "\n".join(["# fuzz", head, *lines]) + "\n"


# small families only: S7's and A7's lattices take seconds; an orbit
# past the order budget is refused before the chain is built, and a
# degree past the group bound before any row is
builtin_name_st = st.one_of(
    st.builds(lambda k, n: f"{k}{n}", st.sampled_from("SA"),
              st.sampled_from([0, 1, 2, 3, 4, 5, 6, 8, 9, 12])),
    st.builds(lambda k, n: f"{k}{n}", st.sampled_from("CD"), st.integers(0, 60)),
    st.builds(lambda k, n: f"{k}{n}", st.sampled_from("SACD"), st.integers(2001, 3000)),
    st.builds(lambda k, n: f"{k}{n}", st.sampled_from("SACD"), st.integers(10**6 + 1, 10**12)),
    st.sampled_from(["Q8", "C2xC2", "PSL(2,7)", "PGL2_7", "PSL(2,4)", "PSL(2,1000003)",
                     "PSL(2,9)", "E8", "", "x", "A5x", "S3 x C2", "Cp", "Cn", "C999999xC2"]),
)
builtin_source_st = st.one_of(
    st.lists(builtin_name_st, min_size=1, max_size=3).map(lambda ns: ["--builtin", "x".join(ns)]),
    st.builds(lambda p: ["--builtin", "Cp", "--p", str(p)],
              st.one_of(st.integers(-3, 60), st.integers(10**6 + 1, 10**12))),
)


@pytest.mark.parametrize("command", GROUP_COMMANDS)
@settings(max_examples=60, deadline=None)
@given(text=group_file_st())
def test_group_file_ends_in_a_documented_exit(fuzz_dir, command, text):
    path = fuzz_dir / "in.grp"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_group_capped(command, ["--file", str(path)])
    check_group_exit(command, code, out, err)
    event(f"exit {code}")


@pytest.mark.parametrize("command", GROUP_COMMANDS)
@settings(max_examples=60, deadline=None)
@given(source=builtin_source_st)
def test_builtin_ends_in_a_documented_exit(command, source):
    code, out, err = run_group_capped(command, source)
    check_group_exit(command, code, out, err)
    event(f"exit {code}")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


# degrees past the group bound (exit 2), and regular groups whose one
# orbit already passes the lattice budget, so that the chain, whose
# first level holds degree x degree points, is never built (exit 3);
# they once ended in a MemoryError or took seconds and most of a gigabyte
PINNED_BUILTINS = [
    ("C1000000000", 2, "degree 1000000000 exceeds 1000000"),
    ("S50000000", 2, "degree 50000000 exceeds 1000000"),
    ("C2000000", 2, "degree 2000000 exceeds 1000000"),
    # each factor is within the bound; only the product's total is not
    ("C600000xC600000", 2, "builtin 'C600000xC600000': degree 1200000 exceeds 1000000"),
    ("C100000", 3, "order at least 100000 exceeds lattice budget 10000"),
    ("C12000", 3, "order at least 12000 exceeds lattice budget 10000"),
]


@pytest.mark.parametrize("command", GROUP_COMMANDS)
@pytest.mark.parametrize("name, code, message", PINNED_BUILTINS)
def test_pinned_hostile_builtins_end_in_time(command, name, code, message):
    """In a child process under a 3 GB address-space limit, so that a
    regression fails this test instead of exhausting the host."""
    src = os.path.dirname(os.path.dirname(pzeta.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PZETA_BUDGET_ORDER", None)
    got = subprocess.run(
        [sys.executable, "-m", "pzeta.cli", command, "--builtin", name],
        capture_output=True, text=True, timeout=CAP_S, env=env,
        preexec_fn=_limit_address_space,
    )
    assert got.returncode == code, got.stderr
    assert got.stdout == "" and got.stderr.startswith(EXIT_PREFIXES[code])
    assert message in got.stderr
