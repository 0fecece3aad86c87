import argparse
import json
import os
import subprocess
import sys

import pytest

from recsolve.cli import main, make_parser

from conftest import BENCH_DIR


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


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

    def test_counterexample_line(self, capsys, tmp_path):
        # f(x) = x on the sampled 0..30; the slope changes at 41
        rec = tmp_path / "kink.rec"
        rec.write_text("def f(x);\npre x >= 0;\nf(x) = 0 if x = 0;\n"
                       "f(x) = f(x - 1) + 1 if x > 0 and x <= 40;\n"
                       "f(x) = f(x - 1) + 2 if x > 40;\n")
        status, out, err = run_cli(capsys, "solve", str(rec), "--solver", "builtin")
        assert (status, err) == (3, "")
        assert out.splitlines()[:5] == [
            "recurrence f", "  closed form: x", "  score:       1.0",
            "  verdict:     refuted", "  counterexample: (41,) recurrence=42 candidate=41"]

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
                 "reason": "unsupported-operator", "detail": "case 1: 2^x"}),
    ], ids=["refuted", "unknown"])
    def test_json_lines(self, capsys, solver, candidate, doc):
        status, out, err = run_cli(capsys, "check", bench_file("nested"),
                                   "--cf", candidate, "--format", "json-lines")
        assert (status, json.loads(out), err) == (3, doc, "")

    def test_unsupported(self, capsys, solver):
        status, out, err = run_cli(capsys, "check", bench_file("nested"), "--cf", "2^x")
        assert status == 3
        assert out == "unknown (unsupported-operator): case 1: 2^x\n"
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
        assert (status, out, err) == (
            3, "unknown (unsupported-operator): case 2: division by the literal constant zero\n",
            "")

    def test_call_in_the_domain_by_an_earlier_guard(self, capsys, tmp_path):
        # x - 1 >= 0 holds only because case 1 (x = 0) did not match
        rec = tmp_path / "f.rec"
        rec.write_text("def f(x);\npre x >= 0;\nf(x) = 0 if x = 0;\n"
                       "f(x) = f(x - 1) + 1 if x >= 0;\n")
        status, out, err = run_cli(capsys, "check", str(rec), "--cf", "x",
                                   "--solver", "builtin")
        assert (status, out, err) == (0, "verified\n", "")

    def test_non_ascii_name(self, capsys, tmp_path):
        # a solver model names variables in ASCII, so the parser does too
        rec = tmp_path / "e.rec"
        rec.write_text("def f(é);\npre é >= 0;\nf(é) = 0 if é = 0;\n"
                       "f(é) = f(é - 1) + 1 if é > 0;\n")
        status, out, err = run_cli(capsys, "check", str(rec),
                                   "--cf", "é + ite(é = 3, 1, 0)", "--solver", "builtin")
        assert (status, out) == (1, "")
        assert err == "error: 1:7: unexpected character 'é'\n"

    @pytest.mark.parametrize("name, candidate, message", [
        ("nested", "f(x)", "closed form pieces must be call-free"),
        ("nested", "z", "closed form uses variables ['z'] that are not arguments"),
        ("div", "x + z", "closed form uses variables ['z'] that are not arguments"),
    ], ids=["call", "loose-variable", "loose-variable-two-arguments"])
    def test_candidate_outside_its_arguments(self, capsys, name, candidate, message):
        status, out, err = run_cli(capsys, "check", bench_file(name), "--cf", candidate)
        assert (status, out, err) == (1, "", f"error: {message}\n")

    def test_candidate_chain_too_long(self, capsys):
        status, out, err = run_cli(capsys, "check", bench_file("nested"),
                                   "--cf", " + ".join(["x"] * 1000))
        assert (status, out) == (1, "")
        assert err == f"error: 1:{3 + 4 * 100}: operators chained more than 100 deep\n"

    def test_solver_that_cannot_run(self, capsys):
        status, out, err = run_cli(capsys, "check", bench_file("nested"), "--cf", "x",
                                   "--solver", "/nonexistent/z3")
        assert (status, out) == (1, "")
        assert err.startswith("error: cannot run ('/nonexistent/z3', '-in'): ")
        assert err.count("\n") == 1

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

    def test_guard_fallthrough(self, capsys, tmp_path):
        rec = tmp_path / "gap.rec"
        rec.write_text("def f(x);\npre x >= 0;\nf(x) = 0 if x = 0;\n"
                       "f(x) = f(x - 1) + 1 if x > 1;\n")
        assert run_cli(capsys, "eval", str(rec), "1") == (3, "GuardFallthrough(1,)\n", "")

    def test_arity_violation(self, capsys):
        status, _, err = run_cli(capsys, "eval", bench_file("nested"), "1", "2")
        assert status == 1

    def test_unresolved_foreign_call(self, capsys):
        status, out, err = run_cli(capsys, "eval", bench_file("cost"), "3")
        assert status == 1 and out == ""
        assert err.strip() == "error: UnknownFunction: s"

    def test_division_by_zero_in_a_body(self, capsys, tmp_path):
        rec = tmp_path / "divz.rec"
        rec.write_text("def f(x); pre x >= 0; f(x) = 0 if x = 0;"
                       " f(x) = f(x - 1) + floor(1/(x - 2)) if x > 0;")
        status, out, err = run_cli(capsys, "eval", str(rec), "3")
        assert (status, out, err) == (1, "", "error: DivisionByZero: 1/0\n")

    def test_nested_too_deep(self, capsys, tmp_path):
        # 105 levels of floor(e/2) generate 210 nested parentheses, past
        # Python's 200
        rec = tmp_path / "deep.rec"
        rec.write_text("def f(x);\npre x >= 0;\nf(x) = 0 if x = 0;\nf(x) = f(x - 1) + "
                       + "floor(" * 105 + "x" + "/2)" * 105 + " if x > 0;\n")
        status, out, err = run_cli(capsys, "eval", str(rec), "3")
        assert (status, out) == (1, "")
        assert err.startswith("error: 4:") and err.count("\n") == 1
        assert err.endswith(": nested more than 60 levels deep\n")

    @pytest.mark.parametrize("command", [["solve"], ["eval", "3"], ["check", "--cf", "x"]])
    def test_chain_too_long(self, capsys, tmp_path, command):
        # the 100th `+` puts 101 operators on the path down to `x - 1`
        rec = tmp_path / "long.rec"
        rec.write_text("def f(x);\npre x >= 0;\nf(x) = 0 if x = 0;\n"
                       "f(x) = f(x - 1)" + " + x" * 999 + " if x > 0;\n")
        status, out, err = run_cli(capsys, command[0], str(rec), *command[1:])
        assert (status, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"4:{17 + 4 * 99}: operators chained more than 100 deep\n")

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


@pytest.mark.parametrize("argv, message", [
    (["solve", "--bounds", "0"], "bad --bounds: '0'"),
    (["solve", "--bounds", "a:b"], "bad --bounds: 'a:b'"),
    (["solve", "--samples", "0"], "sample counts must be positive"),
    (["solve", "--samples", "1", "--test-samples", "1"],
     "sample counts must add up to at least 8"),
    (["check", "--cf", "x", "--timeout-ms", "0"], "solver timeout must be positive"),
    (["bench", "--lambda-grid", "1:0:1"], "bad lambda grid"),
    (["eval", "3", "--max-depth", "0"], "evaluation limits must be strictly positive"),
])
def test_bad_option_value(capsys, argv, message):
    command, *rest = argv
    file = [] if command == "bench" else [bench_file("nested")]
    status, out, err = run_cli(capsys, command, *file, *rest)
    assert (status, out, err) == (1, "", f"error: {message}\n")


CHECK = {"--solver", "--timeout-ms", "--max-depth", "--max-steps",
         "--eval-timeout-ms", "--emit-smt", "--format"}
COMMON = CHECK | {"--seed", "--samples", "--test-samples", "--lambda-grid", "--bounds"}


def test_option_names_are_stable():
    parser = make_parser()
    sub, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
    assert options == {
        "solve": COMMON,
        "check": CHECK | {"--cf"},
        "eval": {"--max-depth", "--max-steps", "--eval-timeout-ms"},
        "bench": COMMON | {"--only", "--json-out"},
    }


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter that imports recsolve from `src`."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_runs_without_numpy():
    proc = run_fresh("import sys\n"
                     "sys.modules['numpy'] = None  # any import of numpy fails\n"
                     "import recsolve\n"
                     "from recsolve.cli import main\n"
                     "sys.exit(main(['bench', '--only', 'nested', '--format', 'json-lines']))\n")
    assert json.loads(proc.stdout)["verdict"] == "verified"


def test_import_starts_no_process_machinery():
    # subprocess and shlex are imported only to start an external solver
    proc = run_fresh("import sys\n"
                     "before = set(sys.modules)\n"
                     "import recsolve.cli\n"
                     "print(' '.join(sorted(set(sys.modules) - before)))\n")
    added = proc.stdout.split()
    assert "recsolve.checker" in added
    assert "subprocess" not in added and "shlex" not in added


def test_bench_unknown_name_is_a_harness_error_row(capsys):
    status, out, _ = run_cli(capsys, "bench", "--only", "nosuch", "--format", "json-lines")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["name"], r["verdict"], r["verdict_reason"]) for r in rows] == \
        [("nosuch", "skipped", "harness-error")]
    assert rows[0]["error"].startswith("FileNotFoundError")
    assert status == 3


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

    def test_corpus_reports_match_the_golden_file(self, capsys):
        # every report of `bench --seed 0`, timings aside, byte for byte;
        # merge and sum-osc differ from their references in print only
        status, out, _ = run_cli(capsys, "bench", "--seed", "0", "--solver", "builtin",
                                 "--format", "json-lines")
        assert status == 0
        docs = [json.loads(line) for line in out.splitlines()]
        for d in docs:
            del d["timings_ms"]
        text = "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)
        with open(os.path.join(GOLDEN_DIR, "bench-seed0.jsonl"), encoding="utf-8") as fh:
            assert text == fh.read()
