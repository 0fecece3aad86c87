import json
import os

import pytest

from recsolve.cli import main

from conftest import BENCH_DIR


def bench_file(name):
    return os.path.join(BENCH_DIR, f"{name}.rec")


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestSolveCommand:
    def test_verified_exit_zero(self, capsys, solver):
        status, out, _ = run_cli(capsys, "solve", bench_file("nested"),
                                 "--format", "json-lines")
        assert status == 0
        doc = json.loads(out)
        assert doc["verdict"] == "verified"
        assert doc["score"] == 1.0

    def test_nonterminating_exit_three(self, capsys, solver):
        status, out, _ = run_cli(capsys, "solve", bench_file("nonterm"))
        assert status == 3

    def test_approximation_exit_two(self, capsys, solver):
        status, out, _ = run_cli(capsys, "solve", bench_file("fib"))
        assert status == 2

    def test_missing_file_exit_one(self, capsys):
        status, _, err = run_cli(capsys, "solve", "missing.rec")
        assert status == 1
        assert "error" in err

    def test_parse_error_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.rec"
        bad.write_text("f(x) = if")
        status, _, err = run_cli(capsys, "solve", str(bad))
        assert status == 1


class TestCheckCommand:
    def test_verified(self, capsys, solver):
        status, out, _ = run_cli(capsys, "check", bench_file("nested"),
                                 "--cf", "x")
        assert status == 0
        assert "verified" in out

    def test_refuted_at_base_case(self, capsys, solver):
        status, out, _ = run_cli(capsys, "check", bench_file("nested"),
                                 "--cf", "x+1")
        assert status == 3
        assert "refuted at (0,)" in out

    @pytest.mark.parametrize("candidate,doc", [
        ("x+1", {"closed_form": "x + 1", "verdict": "refuted", "counterexample": {
            "point": [0], "recurrence_value": "0", "candidate_value": "1"}}),
        ("2^x", {"closed_form": "2^x", "verdict": "unknown",
                 "reason": "unsupported-operator"}),
    ], ids=["refuted", "unknown"])
    def test_json_lines(self, capsys, solver, candidate, doc):
        status, out, err = run_cli(capsys, "check", bench_file("nested"),
                                   "--cf", candidate, "--format", "json-lines")
        assert (status, json.loads(out), err) == (3, doc, "")

    def test_unsupported(self, capsys, solver):
        status, out, err = run_cli(capsys, "check", bench_file("nested"), "--cf", "2^x")
        assert status == 3
        assert out == "unknown (unsupported-operator)\n"
        assert err == ""

    def test_rational_coefficient_under_a_power(self, capsys, solver):
        # case 2 holds (x - 1 + 1/2*(x - 1)^2)^2, cleared as a whole
        status, out, err = run_cli(capsys, "check", bench_file("nested"),
                                   "--cf", "x + 1/2*x^2")
        assert (status, out, err) == (3, "refuted at (1,): recurrence=1 candidate=3/2\n", "")

    def test_rational_constant_under_max(self, capsys, solver):
        status, out, err = run_cli(capsys, "check", bench_file("s-max"),
                                   "--cf", "1/2*max(2*x + 2*y, -1/2)")
        assert (status, out, err) == (0, "verified\n", "")
        status, out, err = run_cli(capsys, "check", bench_file("s-max"),
                                   "--cf", "1/2*max(2*x + 2*y, 1/2)")
        assert status == 3 and err == ""
        assert out.startswith("refuted at (")

    @pytest.mark.parametrize("candidate", ["x/(1-1)", "1/(x-x)"])
    def test_divisor_that_folds_to_zero(self, capsys, candidate):
        status, out, err = run_cli(capsys, "check", bench_file("nested"), "--cf", candidate)
        assert (status, out, err) == (1, "", "error: division by the literal constant zero\n")

    @pytest.mark.parametrize("call, candidate", [
        ("f(x - 1, x - 1)", "x + 0*floor(x/(x - y))"),
        ("f(x - 1, 0)", "x + 0*floor(x/y)"),
    ], ids=["folds", "literal"])
    def test_divisor_zero_after_substitution(self, capsys, tmp_path, call, candidate):
        rec = tmp_path / "f.rec"
        rec.write_text("def f(x, y);\npre x >= 0 and y >= 0;\n"
                       f"f(x, y) = 0 if x = 0;\nf(x, y) = {call} + 1 if x > 0;\n")
        status, out, err = run_cli(capsys, "check", str(rec), "--cf", candidate,
                                   "--solver", "builtin")
        assert (status, out, err) == (3, "unknown (unsupported-operator)\n", "")

    def test_piecewise_via_ite(self, capsys, solver):
        status, out, _ = run_cli(capsys, "check", bench_file("merge"),
                                 "--cf", "ite(x > 0 and y > 0, x + y - 1, 0)")
        assert status == 0
        assert "verified" in out


class TestEvalCommand:
    def test_nested(self, capsys):
        status, out, _ = run_cli(capsys, "eval", bench_file("nested"), "5")
        assert status == 0 and out.strip() == "5"

    def test_fib(self, capsys):
        status, out, _ = run_cli(capsys, "eval", bench_file("fib"), "5")
        assert status == 0 and out.strip() == "8"

    def test_nonterm(self, capsys):
        status, out, _ = run_cli(capsys, "eval", bench_file("nonterm"), "3")
        assert status == 3 and "LimitExceeded" in out

    def test_arity_violation(self, capsys):
        status, _, err = run_cli(capsys, "eval", bench_file("nested"), "1", "2")
        assert status == 1

    def test_unresolved_foreign_call(self, capsys):
        status, out, err = run_cli(capsys, "eval", bench_file("cost"), "3")
        assert status == 1 and out == ""
        assert err.strip() == "error: UnknownFunction: s"

    @pytest.mark.parametrize("command", [["solve"], ["eval", "3"]])
    def test_unicode_digit(self, capsys, tmp_path, command):
        rec = tmp_path / "sq.rec"
        rec.write_text("def f(x);\npre x >= 0;\nf(x) = 0 if x = 0;\n"
                       "f(x) = f(x - 1) + 2² if x > 0;\n")
        status, out, err = run_cli(capsys, command[0], str(rec), *command[1:])
        assert (status, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("4:20: unexpected character '²'\n")

    def test_domain_violation(self, capsys):
        status, _, err = run_cli(capsys, "eval", bench_file("div"), "5", "0")
        assert status == 1
        assert "precondition" in err


class TestRepeatedMain:
    def test_eval_twice_then_check(self, capsys, solver):
        # main reuses one argument parser; no option leaks between calls
        status, out, _ = run_cli(capsys, "eval", bench_file("merge"), "3", "4",
                                 "--max-steps", "10")
        assert (status, out) == (3, "LimitExceeded(steps)\n")
        status, out, _ = run_cli(capsys, "eval", bench_file("merge"), "3", "4")
        assert (status, out) == (0, "6\n")
        status, out, _ = run_cli(capsys, "check", bench_file("nested"), "--cf", "x",
                                 "--format", "json-lines")
        assert status == 0
        assert json.loads(out) == {"closed_form": "x", "verdict": "verified"}
        status, out, _ = run_cli(capsys, "check", bench_file("nested"), "--cf", "x+1")
        assert status == 3 and out.startswith("refuted at (0,)")


class TestBenchCommand:
    def test_subset_runs_and_reports(self, capsys, solver):
        status, out, _ = run_cli(capsys, "bench", "--only", "nested", "div",
                                 "--format", "json-lines")
        assert status == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert [d["name"] for d in lines] == ["nested", "div"]
        assert all(d["verdict"] == "verified" for d in lines)

    def test_seed_fixes_output_bytes(self, capsys, solver):
        def one_run():
            status, out, _ = run_cli(capsys, "bench", "--seed", "0",
                                     "--only", "nested", "open-zip",
                                     "--format", "json-lines")
            assert status == 0
            docs = [json.loads(l) for l in out.strip().splitlines()]
            for d in docs:
                d.pop("timings_ms", None)
            return json.dumps(docs, sort_keys=True).encode()

        assert one_run() == one_run()
