"""Command line surface: output schemas, golden files, exit codes."""

import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pzeta import cli, permgroup, zeta
from pzeta.permgroup import _Engine
from pzeta.zeta import WTableRow

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_INPUTS = GOLDEN_DIR / "inputs"
DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def run(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *args):
    code, out, err = run(capsys, "--format", "json", *args)
    assert code == 0, err
    return json.loads(out)


GOLDEN_COMMANDS = {
    "pg_S3.json": ("pg", "--builtin", "S3"),
    "pg_S4.json": ("pg", "--builtin", "S4"),
    "pg_A5.json": ("pg", "--builtin", "A5"),
    "pg_PSL2_7.json": ("pg", "--builtin", "PSL(2,7)"),
    "pxs_PGL2_7.json": ("pxs", "--q", "7", "--variant", "pgl"),
    "omega_PSL2_7.json": ("omega", "--q", "7", "--variant", "psl"),
    "omega_PGL2_7.json": ("omega", "--q", "7", "--variant", "pgl"),
    "omega_PGL2_7_even.json": ("omega", "--q", "7", "--variant", "pgl", "--include-even"),
    "factorize_S4.json": ("factorize", "--builtin", "S4"),
    "factorize_Q8.json": ("factorize", "--builtin", "Q8"),
    "factorize_PGL2_7.json": ("factorize", "--builtin", "PGL(2,7)"),
    "moebius_S4.json": ("moebius", "--builtin", "S4"),
    "moebius_A4xC2.json": ("moebius", "--builtin", "A4xC2"),
    # power-shifted P_PSL(2,7) and P_PGL(2,7), r = 1..3, to 10^4
    "product_PSL2_7_PGL2_7.json": ("product", str(GOLDEN_INPUTS / "product_PSL2_7_PGL2_7.json")),
    # P_S4 * P_A4 divided by P_A4
    "divide_S4A4_by_A4.json": ("divide", str(GOLDEN_INPUTS / "divide_S4A4_by_A4.json")),
    # the finiteness replay of the demo's mixed C3, C7 and PSL(2,7) factors
    "replay_mixed_factors.json": ("replay", str(DEMO_DATA / "mixed_factors.json")),
    # constant, arithmetic and geometric families; the witness 10009 lies past 10^4
    "smlcheck_mixed.json": ("smlcheck", str(GOLDEN_INPUTS / "smlcheck_mixed.json")),
    # the paper's w(X) table: MATCH rows through q = 23 (psl), the rest SKIPPED with
    # the default budget's notes
    "wtable_qmax31.json": ("wtable", "--qmax", "31"),
}


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_COMMANDS))
def test_golden_outputs(capsys, golden_name):
    # the goldens pin the indent=2 text byte for byte; only the timing varies
    code, out, err = run(capsys, "--format", "json", *GOLDEN_COMMANDS[golden_name])
    assert code == 0, err
    out = re.sub(r'^  "elapsed_s": [0-9.e-]+$', '  "elapsed_s": 0.0', out, flags=re.M)
    assert out == (GOLDEN_DIR / golden_name).read_text(encoding="utf-8")


JSON_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner) | st.tuples(inner, inner)
                   | st.dictionaries(JSON_KEYS, inner) | st.lists(st.integers())),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_COMMANDS))
def test_json_writer_matches_json_dumps_on_golden_payloads(capsys, monkeypatch, golden_name):
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, payload, text: (payloads.append(payload),
                                                                   emit(args, payload, text)))
    code, out, err = run(capsys, "--format", "json", *GOLDEN_COMMANDS[golden_name])
    assert code == 0, err
    (payload,) = payloads
    assert out == json.dumps(payload, indent=2) + "\n"


class TestPg:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "pg", "--builtin", "S3")
        assert code == 0
        assert "P(s) = 1 - 1/2^s - 3/3^s + 3/6^s" in out

    def test_cp_parameter(self, capsys):
        code, out, _ = run(capsys, "pg", "--builtin", "Cp", "--p", "7")
        assert code == 0
        assert "1 - 1/7^s" in out

    def test_group_file(self, capsys, tmp_path):
        path = tmp_path / "a5.grp"
        path.write_text("# alternating\ndegree 5\n(0 1 2 3 4)\n(0 1 2)\n")
        data = run_json(capsys, "pg", "--file", str(path))
        assert data["order"] == 60
        assert data["zeta"]["terms"][1] == {"n": 5, "a": "-5"}

    def test_unknown_builtin_exits_2(self, capsys):
        code, _, err = run(capsys, "pg", "--builtin", "nonsense")
        assert code == 2 and "input error" in err

    @pytest.mark.parametrize("name", ["x", "C2x", "xC2"])
    def test_empty_product_factor_names_the_input(self, capsys, name):
        code, _, err = run(capsys, "pg", "--builtin", name)
        assert (code, err) == (2, f"input error: unknown builtin group {name!r}\n")

    def test_huge_file_degree_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge.grp"
        path.write_text("degree 1000000000000\n(0 1)\n")
        start = time.perf_counter()
        code, _, err = run(capsys, "pg", "--file", str(path))
        assert code == 2 and "degree 1000000000000 exceeds" in err
        assert time.perf_counter() - start < 2.0

    def test_refusal_comes_before_the_element_table(self, capsys):
        # S9 passes the group bound and fails the lattice budget; S10
        # fails the group bound; neither lists its elements
        for name, message in (("S9", "order 362880 exceeds lattice budget 10000"),
                              ("S10", "group order exceeds bound 1000000")):
            start = time.perf_counter()
            code, _, err = run(capsys, "pg", "--builtin", name)
            assert code == 3 and err == f"budget: {message}\n"
            assert time.perf_counter() - start < 2.0

    def test_unreadable_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "pg", "--file", "/does/not/exist.grp")
        assert code == 2

    def test_budget_exit_3(self, capsys):
        code, _, err = run(capsys, "--budget-order", "30", "pg", "--builtin", "A5")
        assert code == 3 and "budget" in err

    def test_zero_subgroup_budget_refuses(self, capsys):
        code, _, err = run(capsys, "--budget-subgroups", "0", "pg", "--builtin", "S4")
        assert code == 3 and "budget" in err

    def test_budget_refusal_reports_progress(self, capsys):
        code, _, err = run(capsys, "--budget-subgroups", "5", "pg", "--builtin", "S4")
        assert code == 3
        assert err.startswith("budget: more than 5 subgroups (") and "subgroups=6" in err

    def test_order_refusal_message_unchanged(self, capsys):
        code, _, err = run(capsys, "--budget-order", "5", "pg", "--builtin", "S4")
        assert code == 3 and err == "budget: order 24 exceeds lattice budget 5\n"

    @pytest.mark.parametrize(
        "flag,value",
        [("--budget-order", "-1"), ("--budget-subgroups", "-1"),
         ("--time-hint", "-0.5"), ("--time-hint", "nan")],
    )
    def test_negative_budget_exits_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main([flag, value, "pg", "--builtin", "S3"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PZETA_BUDGET_ORDER", "30")
        code, _, _ = run(capsys, "pg", "--builtin", "A5")
        assert code == 3
        # explicit flag wins over the environment
        code, _, _ = run(capsys, "--budget-order", "100", "pg", "--builtin", "A5")
        assert code == 0

    @pytest.mark.parametrize("value", ["-5", "nan", "ten"])
    def test_invalid_env_budget_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PZETA_BUDGET_ORDER", value)
        with pytest.raises(SystemExit) as exc:
            cli.main(["pg", "--builtin", "S3"])
        assert exc.value.code == 2
        assert "--budget-order" in capsys.readouterr().err


class TestWTable:
    def test_rows_match(self, capsys):
        data = run_json(capsys, "wtable", "--qmax", "7")
        assert [r["status"] for r in data["rows"]] == ["MATCH"] * 4

    def test_single_variant(self, capsys):
        data = run_json(capsys, "wtable", "--qmax", "5", "--variants", "psl")
        assert data["rows"] == [
            {"q": 5, "variant": "psl", "computed": 5, "predicted": 5,
             "status": "MATCH", "note": ""}
        ]

    def test_strict_passes_when_all_match(self, capsys):
        code, _, _ = run(capsys, "wtable", "--qmax", "5", "--strict")
        assert code == 0

    def test_strict_mismatch_exits_4(self, capsys, monkeypatch):
        rows = [WTableRow(5, "psl", 7, 5, "MISMATCH")]
        monkeypatch.setattr(cli, "minimal_odd_index_table", lambda *a, **k: rows)
        code, _, _ = run(capsys, "wtable", "--qmax", "5", "--strict")
        assert code == 4

    def test_skipped_rows_under_small_budget(self, capsys):
        data = run_json(capsys, "--budget-order", "100", "wtable", "--qs", "29")
        assert all(r["status"] == "SKIPPED" for r in data["rows"])
        assert [r["note"] for r in data["rows"]] == [
            "order 12180 exceeds lattice budget 100",
            "order 24360 exceeds lattice budget 100",
        ]

    @pytest.mark.parametrize("budget", [["--budget-order", "10"], []])
    def test_bad_q_exits_2_under_any_budget(self, capsys, budget):
        code, out, err = run(capsys, *budget, "wtable", "--qs", "4,9")
        assert (code, out, err) == (2, "", "input error: q must be an odd prime >= 5, got 4\n")

    def test_q_past_the_order_bound_is_skipped(self, capsys):
        data = run_json(capsys, "--budget-order", "10", "wtable", "--qs", "1009")
        assert [(r["status"], r["note"]) for r in data["rows"]] == [
            ("SKIPPED", "group order exceeds bound 1000000")
        ] * 2

    def test_q29_skipped_under_default_budget(self, capsys):
        data = run_json(capsys, "wtable", "--qs", "29")
        assert [r["status"] for r in data["rows"]] == ["SKIPPED", "SKIPPED"]
        assert all(r["predicted"] in (203, 435) for r in data["rows"])


class TestFactorize:
    def test_s4(self, capsys):
        data = run_json(capsys, "factorize", "--builtin", "S4")
        assert data["product_ok"] is True
        assert [f["simple"] for f in data["factors"]] == ["C2", "C3", "C2"]
        assert [f["complements"] for f in data["factors"]] == [1, 3, 4]

    def test_a5_single_factor(self, capsys):
        data = run_json(capsys, "factorize", "--builtin", "A5")
        assert len(data["factors"]) == 1
        assert data["factors"][0]["polynomial"] == data["zeta"]

    def test_c4_flags_frattini(self, capsys):
        data = run_json(capsys, "factorize", "--builtin", "C4")
        assert [f["frattini"] for f in data["factors"]] == [False, True]
        assert data["factors"][1]["polynomial"]["terms"] == [{"n": 1, "a": "1"}]


class TestMoebius:
    def test_lattice_export_schema(self, capsys):
        data = run_json(capsys, "moebius", "--builtin", "S3")
        assert len(data["nodes"]) == 6
        assert len(data["moebius"]) == 6
        assert sorted(data["moebius"]) == [-1, -1, -1, -1, 1, 3]
        # Hasse edges of the S3 lattice: 1 under each atom, atoms under top
        assert len(data["hasse_edges"]) == 8
        assert data["conjugacy_classes"][0] == [0]


class TestReplay:
    def _write_factors(self, tmp_path, factors):
        path = tmp_path / "factors.json"
        path.write_text(json.dumps({"factors": factors}))
        return str(path)

    def test_mixed_file(self, capsys, tmp_path):
        factors = [
            {"id": 0, "kind": {"cyclic": 3}, "r": 1, "coeffs": [{"n": 3, "b": "-2"}]},
            {"id": 1, "kind": {"psl2": {"q": 7, "variant": "pgl"}}, "r": 1,
             "coeffs": [{"n": 8, "b": "-8"}, {"n": 21, "b": "-21"}]},
            {"id": 2, "kind": {"psl2": {"q": 7, "variant": "pgl"}}, "r": 2,
             "coeffs": [{"n": 441, "b": "-441"}]},
        ]
        path = self._write_factors(tmp_path, factors)
        data = run_json(capsys, "replay", path)
        assert data["q"] == 7
        assert data["w"] == 21
        assert data["i_star"] == [1, 2]
        assert data["c_beta"] == "-21"
        assert data["c_beta_negative"] is True

    def test_empty_factor_list_exits_2(self, capsys, tmp_path):
        path = self._write_factors(tmp_path, [])
        code, _, _ = run(capsys, "replay", path)
        assert code == 2

    def test_hypothesis_violation_exits_5(self, capsys, tmp_path):
        # 75 is odd, in the window for q=5, but has valuation 2 != r
        factors = [
            {"id": 0, "kind": {"psl2": {"q": 5, "variant": "psl"}}, "r": 1,
             "coeffs": [{"n": 75, "b": "-1"}]},
        ]
        path = self._write_factors(tmp_path, factors)
        code, _, err = run(capsys, "replay", path)
        assert code == 5 and "hypothesis" in err

    @pytest.mark.parametrize(
        "n,code",
        [((10**40 + 1) ** 2, 0),  # an exact square outside the window of q = 7
         (7**400, 5)],            # a square, but with 7-adic valuation 400, not 2
        ids=["square-outside-window", "valuation-400"],
    )
    def test_huge_index_ends_with_documented_code(self, capsys, tmp_path, n, code):
        factors = [
            {"id": 0, "kind": {"psl2": {"q": 7, "variant": "pgl"}}, "r": 2,
             "coeffs": [{"n": n, "b": "-1"}]},
        ]
        path = self._write_factors(tmp_path, factors)
        assert run(capsys, "replay", path)[0] == code

    def test_malformed_descriptor_exits_2(self, capsys, tmp_path):
        factors = [
            {"id": 0, "kind": {"psl2": {"q": 7, "variant": "pgl"}}, "r": 2,
             "coeffs": [{"n": 21, "b": "-1"}]},  # 21 is no square
        ]
        path = self._write_factors(tmp_path, factors)
        code, _, _ = run(capsys, "replay", path)
        assert code == 2


class TestSmlCheck:
    def test_families_file(self, capsys, tmp_path):
        path = tmp_path / "fams.json"
        path.write_text(json.dumps({
            "families": [
                {"geom": {"start": 2, "ratio": 2}},
                {"const": 3, "count": 2},
            ]
        }))
        data = run_json(capsys, "smlcheck", str(path))
        assert data["condition_i"]["holds"] is True
        assert data["condition_ii"]["witness"] == 5

    def test_bad_family_exits_2(self, capsys, tmp_path):
        path = tmp_path / "fams.json"
        path.write_text(json.dumps({"families": [{"what": 1}]}))
        code, _, _ = run(capsys, "smlcheck", str(path))
        assert code == 2


class TestProductAndDivide:
    def test_product(self, capsys, tmp_path):
        path = tmp_path / "prod.json"
        path.write_text(json.dumps({
            "factors": [
                {"terms": [{"n": 1, "a": "1"}, {"n": 2, "a": "-1"}]},
                {"terms": [{"n": 1, "a": "1"}, {"n": 2, "a": "-1"}]},
            ],
            "bound": 4,
        }))
        data = run_json(capsys, "product", str(path))
        assert data == {"bound": 4, "terms": [
            {"n": 1, "a": "1"}, {"n": 2, "a": "-2"}, {"n": 4, "a": "1"}]}

    def test_product_rejects_non_unital(self, capsys, tmp_path):
        path = tmp_path / "prod.json"
        path.write_text(json.dumps({"factors": [{"terms": [{"n": 2, "a": "1"}]}]}))
        code, _, _ = run(capsys, "product", str(path))
        assert code == 2

    def test_divide(self, capsys, tmp_path):
        path = tmp_path / "div.json"
        path.write_text(json.dumps({
            "p": {"terms": [{"n": 1, "a": "1"}, {"n": 4, "a": "-1"}]},
            "d": {"terms": [{"n": 1, "a": "1"}, {"n": 2, "a": "-1"}]},
        }))
        data = run_json(capsys, "divide", str(path))
        assert data["quotient"]["terms"] == [{"n": 1, "a": "1"}, {"n": 2, "a": "1"}]

    @pytest.mark.parametrize(
        "command, data, message",
        [
            ("product", {"factors": [{"terms": [{"n": 1, "a": "1"}, {"n": 2.5, "a": 1.5}]}]},
             "expected an integer or a decimal string, got 2.5"),
            ("product", {"factors": [], "bound": 2.9},
             "expected an integer or a decimal string, got 2.9"),
            ("product", {"factors": [{"terms": [{"n": [1], "a": "1"}]}]},
             "expected an integer or a decimal string, got [1]"),
            ("divide", {"p": {"terms": [{"n": 1, "a": "1"}]}, "d": {"terms": [{"n": 1, "a": "1"}]},
                        "bound": "x"},
             "invalid literal for int() with base 10: 'x'"),
            ("divide", {"p": {"terms": [{"n": 1, "a": "1"}]}, "d": {"terms": [{"n": 1, "a": "1"}]},
                        "bound": 2.0},
             "expected an integer or a decimal string, got 2.0"),
            ("replay", {"factors": [{"id": 0.5, "kind": {"cyclic": 3}, "r": 1, "coeffs": []}]},
             "expected an integer or a decimal string, got 0.5"),
            ("replay", {"factors": [], "probe_bound": "x"},
             "invalid literal for int() with base 10: 'x'"),
            ("replay", {"factors": [], "probe_bound": 2.5},
             "expected an integer or a decimal string, got 2.5"),
            ("smlcheck", {"families": [{"const": 2.7, "count": 1.5, "infinite": "false"}]},
             "infinite must be true or false, got 'false'"),
            ("smlcheck", {"families": [{"const": 2.7, "infinite": False}]},
             "expected an integer or a decimal string, got 2.7"),
            ("smlcheck", {"families": [{"const": 2, "count": 1.5}]},
             "expected an integer or a decimal string, got 1.5"),
            ("smlcheck", {"families": [{"const": 2, "infinite": 1}]},
             "infinite must be true or false, got 1"),
            ("smlcheck", {"families": [{"arith": {"start": 1, "step": 2.0}}]},
             "expected an integer or a decimal string, got 2.0"),
            ("smlcheck", {"families": [{"geom": {"start": "2", "ratio": None}}]},
             "expected an integer or a decimal string, got None"),
            ("smlcheck", {"families": [2], "probe_bound": "x"},
             "invalid literal for int() with base 10: 'x'"),
            ("smlcheck", {"families": [2], "probe_bound": 2.5},
             "expected an integer or a decimal string, got 2.5"),
            ("smlcheck", {"families": [True]}, "cannot parse exponent family True"),
            *[(command, data, f"probe_bound must be >= 1, got {bound}")
              for bound in (0, -5)
              for command, data in (
                  ("smlcheck", {"families": [2, 3, 5, 7], "probe_bound": bound}),
                  ("replay", {"factors": [{"id": 0, "kind": {"cyclic": 3}, "r": 1,
                                           "coeffs": [{"n": 3, "b": "-2"}]}],
                              "probe_bound": bound}),
              )],
        ],
    )
    def test_non_integer_json_exits_2(self, capsys, tmp_path, command, data, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize(
        "command, data, message",
        [
            *[(command, [1, 2], "expected a JSON object, got [1, 2]")
              for command in ("product", "divide", "replay", "smlcheck")],
            ("product", 3, "expected a JSON object, got 3"),
            ("product", {"factors": [{"terms": [1]}]}, "expected a JSON object, got 1"),
            ("product", {"factors": {"a": 1}}, "expected a JSON list, got {'a': 1}"),
            ("product", {"factors": [[1]]}, "expected a JSON object, got [1]"),
            ("product", {"factors": [{"terms": {"n": 1, "a": 1}}]},
             "expected a JSON list, got {'n': 1, 'a': 1}"),
            ("divide", {"p": [1], "d": {"terms": []}}, "expected a JSON object, got [1]"),
            ("divide", {"p": {"terms": []}, "d": "x"}, "expected a JSON object, got 'x'"),
            ("replay", {"factors": 3}, "expected a JSON list, got 3"),
            ("replay", {"factors": [[1]]}, "expected a JSON object, got [1]"),
            ("replay", {"factors": [{"id": 1, "kind": [3], "r": 1, "coeffs": []}]},
             "expected a JSON object, got [3]"),
            ("replay", {"factors": [{"id": 1, "kind": {"psl2": [7]}, "r": 1, "coeffs": []}]},
             "expected a JSON object, got [7]"),
            ("replay", {"factors": [{"id": 1, "kind": {"psl2": {"q": 7, "variant": 1}},
                                     "r": 1, "coeffs": []}]},
             "expected a variant name, got 1"),
            ("replay", {"factors": [{"id": 1, "kind": {"cyclic": 3}, "r": 1, "coeffs": [[3, -1]]}]},
             "expected a JSON object, got [3, -1]"),
            ("replay", {"factors": [{"id": 1, "kind": {"cyclic": 3}, "r": 1, "coeffs": {}}]},
             "expected a JSON list, got {}"),
            ("smlcheck", {"families": {"const": 2}}, "expected a JSON list, got {'const': 2}"),
            ("smlcheck", {"families": [{"arith": [1, 2]}]}, "expected a JSON object, got [1, 2]"),
            ("smlcheck", {"families": [{"geom": 2}]}, "expected a JSON object, got 2"),
        ],
    )
    def test_wrong_json_shape_exits_2(self, capsys, tmp_path, command, data, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    def test_decimal_string_bound(self, capsys, tmp_path):
        path = tmp_path / "prod.json"
        path.write_text(json.dumps({"factors": [{"terms": [{"n": 1, "a": "1"}, {"n": 2, "a": -1}]}],
                                    "bound": "3"}))
        assert run_json(capsys, "product", str(path)) == {
            "bound": 3, "terms": [{"n": 1, "a": "1"}, {"n": 2, "a": "-1"}]}

    def test_divide_inexact_exits_6(self, capsys, tmp_path):
        path = tmp_path / "div.json"
        path.write_text(json.dumps({
            "p": {"terms": [{"n": 1, "a": "1"}, {"n": 3, "a": "-1"}]},
            "d": {"terms": [{"n": 1, "a": "2"}]},
        }))
        code, _, err = run(capsys, "divide", str(path))
        assert code == 6 and "not divisible" in err


class TestOmega:
    def test_text_describes_non_maximal_indices(self, capsys):
        code, out, _ = run(capsys, "omega", "--q", "5", "--variant", "psl")
        assert code == 0
        assert "w = 5" in out
        assert "m=15" in out and "not all maximal" in out

    def test_order_refusal_builds_no_table(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("element table built for a refused group")

        monkeypatch.setattr(_Engine, "__init__", fail)
        code, _, err = run(capsys, "--budget-order", "30000",
                           "omega", "--q", "37", "--variant", "pgl")
        assert code == 3 and err == "budget: order 50616 exceeds lattice budget 30000\n"

    def test_huge_q_is_refused_before_any_permutation(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("permutation built for a refused q")

        monkeypatch.setattr(permgroup, "_moebius_transform_perm", fail)
        code, _, err = run(capsys, "omega", "--q", "10007")
        assert code == 3 and err == "budget: group order exceeds bound 1000000\n"

    @pytest.mark.parametrize("command", ["omega", "pxs"])
    @pytest.mark.parametrize(
        "q, variant, message",
        [
            ("97", "pgl", "budget: order 912576 exceeds lattice budget 10000\n"),
            # odd but not prime: refused by the budget before the primality test
            ("95", "pgl", "budget: order 857280 exceeds lattice budget 10000\n"),
            ("33", "psl", "budget: order 17952 exceeds lattice budget 10000\n"),
        ],
    )
    def test_budget_refuses_before_make_psl2(self, capsys, monkeypatch, command, q, variant,
                                             message):
        def fail(*args):
            raise AssertionError("make_psl2 called for a group over the budget")

        monkeypatch.setattr(zeta, "make_psl2", fail)
        code, _, err = run(capsys, command, "--q", q, "--variant", variant)
        assert code == 3 and err == message

    @pytest.mark.parametrize("command", ["omega", "pxs"])
    @pytest.mark.parametrize("q", ["4", "3", "-7"])
    def test_small_or_even_q_exits_2_before_the_budget(self, capsys, command, q):
        code, _, err = run(capsys, "--budget-order", "1", command, "--q", q)
        assert code == 2 and err == f"input error: q must be an odd prime >= 5, got {q}\n"

    def test_include_even_flag(self, capsys):
        data = run_json(capsys, "omega", "--q", "5", "--variant", "psl", "--include-even")
        assert data["include_even"] is True
        assert 6 in data["indices"]
