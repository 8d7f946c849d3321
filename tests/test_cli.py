"""Command-line interface: subcommands, exit codes, JSON, determinism."""

import json
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import time

import pytest

from consfree import cli
from consfree.cli import main

from conftest import CORPUS, long_pattern_system

ROOT = pathlib.Path(__file__).resolve().parents[1]
MAJORITY = str(CORPUS / "majority.atrs")
SAT = str(CORPUS / "sat.atrs")
SUCC = str(CORPUS / "succ.atrs")
CONTAINS1_TM = str(CORPUS / "contains1.tm")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_reports_the_verdict(capsys):
    code, out, _ = run_cli(["check", SAT, "--require", "cons-free"], capsys)
    assert code == 0
    assert "cons-free: True" in out
    assert "type-order: 1" in out


def test_check_requirement_failure_is_exit_1(capsys):
    code, out, _ = run_cli(["check", SUCC, "--require", "cons-free"], capsys)
    assert code == 1
    assert "cons-free: False" in out
    assert "violation: r2" in out


def test_check_json(capsys):
    code, out, _ = run_cli(["check", MAJORITY, "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["cons-free"] is True
    assert report["type-order"] == 1


def test_run_finds_normal_forms(capsys):
    code, out, _ = run_cli(
        ["run", MAJORITY, "--term", "majority (1;0;[])", "--max-steps", "50"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "1"
    assert "exhausted=false" in out


def test_run_exhaustion_is_exit_2(capsys):
    code, out, _ = run_cli(
        ["run", SAT, "--term", "decide (1;#;0;#;[])", "--max-steps", "2", "--max-terms", "5"],
        capsys,
    )
    assert code == 2
    assert "exhausted=true" in out


def test_start_term_over_the_size_budget_is_exit_2(capsys):
    code, out, err = run_cli(
        ["run", MAJORITY, "--term", "majority (1;0;[])", "--max-term-size", "3"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "error: the start term has 6 nodes, budget allows 3\n"


def test_memory_exhaustion_is_exit_2_without_a_traceback(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_run", exhausted)
    code, out, err = run_cli(["run", MAJORITY, "--term", "majority (1;0;[])"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


def test_real_memory_exhaustion_in_a_wide_search_is_exit_2():
    # a free search of sat over 20 variables outgrows a 100 MB address
    # space, a cap set in the child alone, in about a second; the message
    # can only be printed once the search's terms are freed. Where memory
    # runs out varies from run to run, and a handler that allocated before
    # they were freed failed in about half the runs, so the search runs four
    # times
    def cap():
        limit = 100 * 2 ** 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    text = "decide (1;0;1;0;?;#;0;1;?;1;0;#;1;1;0;0;1;#;0;?;1;?;0;#;[])"
    command = [
        sys.executable, "-m", "consfree.cli", "run", SAT, "--term", text,
        "--max-terms", "100000000", "--max-steps", "100000",
    ]
    for _ in range(4):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=60, env=os.environ,
            preexec_fn=cap,
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


def test_free_run_of_a_deep_redex_ends_at_the_step_budget_within_400_mb():
    # a free run of succ over 1,200 ones takes one head step per digit, a
    # level deeper each time, so the default budget of 1,000 steps ends it;
    # its memory must stay within a 400 MB address space, a cap set in the
    # child alone, and never run this input without it
    def cap():
        limit = 400 * 2 ** 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    text = "succ (" + "1 ; " * 1200 + "[])"
    done = subprocess.run(
        [sys.executable, "-m", "consfree.cli", "run", SUCC, "--term", text],
        capture_output=True, text=True, timeout=300, env=os.environ, preexec_fn=cap,
    )
    assert done.returncode == 2
    assert done.stdout == "exhausted=true visited=1001\n"
    assert done.stderr == ""


def majority_of_ones(length):
    """`majority` applied to a list of `length` ones."""
    return "majority (" + " ; ".join(["1"] * length) + " ; [])"


def run_majority_subprocess(command, flag, text, *extra):
    """Run a command on `majority` with the term `text` in a fresh
    interpreter, so that the default recursion limit applies."""
    return subprocess.run(
        [sys.executable, "-m", "consfree.cli", command, MAJORITY, flag, text, *extra],
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("command,flag", [("run", "--term"), ("solve", "--basic")])
def test_over_deep_input_is_exit_2_without_a_traceback(command, flag):
    done = run_majority_subprocess(command, flag, majority_of_ones(5000))
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1
    # parentheses nested beyond the interpreter's stack
    nested = "majority " + "(" * 3000 + "[]" + ")" * 3000
    done = run_majority_subprocess(command, flag, nested)
    assert done.returncode == 2
    assert done.stderr == "error: input nested too deeply for the interpreter's stack\n"


def test_check_reads_a_long_list_pattern(tmp_path):
    path = tmp_path / "long.atrs"
    path.write_text(long_pattern_system(3000))
    done = subprocess.run(
        [sys.executable, "-m", "consfree.cli", "check", str(path), "--require", "cons-free"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "cons-free: True" in done.stdout.splitlines()


def test_run_matches_a_long_list_pattern(tmp_path):
    # the one rule matches the whole list: f (0 ; 1 ; ... ; []) -> f []
    path = tmp_path / "long.atrs"
    path.write_text(long_pattern_system(3000))
    text = "f (" + " ; ".join("01"[i % 2] for i in range(3000)) + " ; [])"
    done = subprocess.run(
        [sys.executable, "-m", "consfree.cli", "run", str(path), "--term", text,
         "--max-term-size", "40000"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "exhausted=false visited=2"


def test_600_element_input_is_answered_by_run_and_refused_by_solve():
    done = run_majority_subprocess("run", "--term", majority_of_ones(600))
    assert done.returncode == 0
    assert done.stdout.splitlines()[0] == "1"
    assert "Traceback" not in done.stderr
    # with budgets that admit it, run answers a list of 5,000 elements too
    done = run_majority_subprocess(
        "run", "--term", majority_of_ones(5000),
        "--max-term-size", "40000", "--max-steps", "20000",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("1", "exhausted=false visited=5004")
    # the solver's representation space for lists of 600 elements is far
    # beyond the default budget, so solve refuses with exit 2; a list of
    # 5,000 elements is read in full and refused the same way
    for length in (600, 5000):
        done = run_majority_subprocess("solve", "--basic", majority_of_ones(length))
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: representation space")
        assert done.stderr.count("\n") == 1


def test_a_space_size_past_the_integer_text_limit_is_exit_2():
    # the list space of 15,000 ones has 2^15001 elements, a number of 4,516
    # decimal digits, more than Python converts to text; the size is stated
    # as a power of two
    done = run_majority_subprocess("solve", "--basic", majority_of_ones(15000))
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr == (
        "error: representation space for list has 2^15001 elements, "
        "budget allows 1048576\n"
    )


def test_an_over_budget_function_space_is_refused_before_its_size_is_built():
    # with a budget of 2^36 the list space of 34 ones, 2^35 sets of its 35
    # lists, fits, and the space of list => bool, 4^(2^35) functions, is
    # refused by its exponent at once; that size takes 8 GB to build, so
    # the child runs under a 400 MB address-space cap, set in the child alone
    def cap():
        limit = 400 * 2 ** 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    text = "decide (" + " ; ".join(["1"] * 34) + " ; [])"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "consfree.cli", "solve", str(CORPUS / "ho_apply.atrs"),
         "--basic", text, "--repr-budget", str(2 ** 36)],
        capture_output=True, text=True, timeout=120, env=os.environ, preexec_fn=cap,
    )
    assert time.monotonic() - started < 20
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr == (
        "error: representation space for list => bool has 2^68719476736 elements, "
        "budget allows 68719476736\n"
    )


def test_solve_reports_statements(capsys):
    code, out, _ = run_cli(["solve", MAJORITY, "--basic", "majority (1;0;[])"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1"
    assert "statements=1168" in lines[-1]


def test_solve_json(capsys):
    code, out, _ = run_cli(
        ["solve", MAJORITY, "--basic", "majority (1;0;[])", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["normal_forms"] == ["1"]
    assert payload["exhausted"] is False
    assert payload["statements"] == 1168
    assert payload["steps"] >= 1
    assert payload["stats"] == {
        "demanded": 12, "confirmed": 6, "groups": 6, "evaluations": 11, "blocked": 0,
    }


def test_solve_non_cons_free_is_exit_1(capsys):
    code, _, err = run_cli(["solve", SUCC, "--basic", "succ (1;[])"], capsys)
    assert code == 1
    assert "error" in err


def test_solve_functional_product_component_is_exit_1(tmp_path, capsys):
    # g is never called, but counting statements builds its argument's space
    path = tmp_path / "fnpair.atrs"
    path.write_text(
        "pairing ;\nsort nat ;\ncons o : nat ;\ncons s : nat => nat ;\n"
        "fun main : nat => nat ;\nfun g : (nat => nat) * nat => nat ;\n"
        "rule main x -> x ;\nrule g p -> o ;\n"
    )
    code, out, err = run_cli(["solve", str(path), "--basic", "main o"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: product type (nat => nat) * nat has a functional component\n"


def test_solve_space_budget_is_exit_2(capsys):
    code, _, err = run_cli(
        ["solve", MAJORITY, "--basic", "majority (1;0;[])", "--repr-budget", "4"],
        capsys,
    )
    assert code == 2
    assert "error" in err


def test_usage_errors_are_exit_3(capsys):
    assert run_cli(["check", "no-such-file.atrs"], capsys)[0] == 3
    assert run_cli(["solve", MAJORITY, "--basic", "majority (1;0;"], capsys)[0] == 3
    assert run_cli(["frobnicate"], capsys)[0] == 3


@pytest.mark.parametrize("command", ["check", "compile-tm"])
def test_unusable_paths_are_exit_3_without_a_traceback(command, tmp_path, capsys):
    # a directory where a file is read or written
    if command == "check":
        argv = ["check", str(tmp_path)]
    else:
        argv = ["compile-tm", CONTAINS1_TM, "--module", "lin", "-o", str(tmp_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_selftest_module(capsys):
    code, out, _ = run_cli(["selftest-module", "--module", "e", "--n", "2"], capsys)
    assert code == 0
    assert out.strip() == "count=8 OK"
    code, out, _ = run_cli(
        ["selftest-module", "--module", "e", "--n", "2", "--json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["bound"] == 8
    assert report["checks"] and all(report["checks"].values())


def test_compile_tm_writes_a_parseable_system(tmp_path, capsys):
    out_path = tmp_path / "compiled.atrs"
    code, _, _ = run_cli(
        ["compile-tm", CONTAINS1_TM, "--module", "prod(lin,lin)", "-o", str(out_path)],
        capsys,
    )
    assert code == 0
    from consfree.syntax import parse_atrs
    from consfree.validation import check

    assert check(parse_atrs(out_path.read_text())).cons_free


def test_compile_tm_pairing_gate(tmp_path, capsys):
    argv = ["compile-tm", CONTAINS1_TM, "--module", "pipi(prod(lin,lin))",
            "-o", str(tmp_path / "x.atrs")]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "pairing" in err
    assert run_cli(argv + ["--pairing"], capsys)[0] == 0


def test_output_is_deterministic_across_runs():
    argv = [sys.executable, "-m", "consfree.cli", "solve", MAJORITY,
            "--basic", "majority (1;0;[])", "--json"]
    outputs = set()
    for _ in range(3):
        done = subprocess.run(argv, capture_output=True, check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1


def test_console_script_is_installed(tmp_path):
    """The declared `consfree` script runs the CLI the way pip's wrapper does.

    The `[project.scripts]` entry is loaded in a fresh interpreter and called
    with no arguments, so it reads `sys.argv`; its return value becomes the
    exit status. An installed `consfree` on PATH must behave the same.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["consfree"]
    launcher = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint('consfree', {target!r}, 'console_scripts').load()\n"
        "sys.exit(main())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    installed = shutil.which("consfree")
    # sat.atrs passes the requirement and succ.atrs fails it, so both exit
    # codes must travel from main's return value to the process status.
    cases = ((SAT, 0, "cons-free: True"), (SUCC, 1, "cons-free: False"))
    for path, code, verdict in cases:
        args = ["check", path, "--require", "cons-free"]
        done = subprocess.run(
            [sys.executable, "-c", launcher, *args],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert done.returncode == code, done.stderr
        assert verdict in done.stdout
        if installed:
            script = subprocess.run(
                [installed, *args],
                capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
            )
            assert script.returncode == code, script.stderr
            assert script.stdout == done.stdout
