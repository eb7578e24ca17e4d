import json
import os
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import squaretriads
from squaretriads import cli, multipoly
from squaretriads.cli import main
from squaretriads.errors import VerificationError


# one cheap successful invocation of every subcommand
SUCCESS_ARGS = {
    "verify": ["45", "64", "180"],
    "family": ["parmsol1", "1", "2"],
    "family-list": [],
    "family-check": ["parmsol1"],
    "generate": ["1"],
    "search": ["200"],
    "table1": [],
    "corpus": [],
    "two-squares": ["45"],
    "fermat": ["--at", "1", "2"],
    "compose": ["--at", "1", "2"],
}


@pytest.fixture
def run(capsys):
    def _run(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    return _run


class TestVerify:
    def test_success(self, run):
        code, out, _ = run("verify", "45", "64", "180")
        assert code == 0
        assert json.loads(out) == {"a": "45", "b": "64", "c": "180", "f": "17", "g": "150", "h": "720"}

    def test_failure_names_function(self, run):
        code, out, _ = run("verify", "1", "2", "3")
        assert code == 1
        assert json.loads(out)["failed"] == "e1"

    def test_arity_error_is_usage(self, run):
        code, _, _ = run("verify", "45", "64")
        assert code == 2

    def test_malformed_integer_is_usage(self, run):
        code, _, _ = run("verify", "45", "64", "x80")
        assert code == 2

    def test_big_integers_survive(self, run):
        code, out, _ = run("verify", "252782198228", "1633780814400", "3474741058973")
        assert code == 0
        payload = json.loads(out)
        assert payload["h"] == str(1197929781758527440)


class TestFamily:
    def test_evaluation(self, run):
        code, out, _ = run("family", "parmsol1", "1", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["triad"] == {"a": "45", "b": "64", "c": "180"}
        assert payload["provenance"] == "family parmsol1 with (s, t) = (1, 2)"

    def test_excluded_locus_exit_1(self, run):
        code, _, err = run("family", "parmsol1", "1", "1")
        assert code == 1
        assert "excluded" in err

    def test_family_list(self, run):
        code, out, _ = run("family-list")
        assert code == 0
        names = [row["name"] for row in json.loads(out)]
        assert len(names) == 10 and "gensol1" in names

    def test_family_check_single(self, run):
        code, out, _ = run("family-check", "gensol1")
        assert code == 0
        report = json.loads(out)
        assert report[0]["ok"] is True

    def test_family_check_all(self, run):
        code, out, _ = run("family-check")
        assert code == 0
        assert all(r["ok"] for r in json.loads(out))


class TestGenerate:
    def test_k1(self, run):
        code, out, _ = run("generate", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["name"] == "ecgen1"
        assert payload["classification"] == "one-square"
        assert "s^4*t^4" in payload["c"] or "s^4*t^4" in payload["a"] + payload["b"]

    def test_k_zero_is_usage_error(self, run):
        code, _, _ = run("generate", "0")
        assert code == 2


class TestSearchCommands:
    def test_search_stream(self, run):
        code, out, err = run("search", "200")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        triads = [(int(l["a"]), int(l["b"]), int(l["c"])) for l in lines]
        assert (45, 64, 180) in triads and (72, 136, 153) in triads
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["count"] == "2"

    def test_search_csv(self, run):
        code, out, _ = run("--format", "csv", "search", "200")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,b,c,f,g,h"
        assert "45,64,180,17,150,720" in lines

    def test_search_without_bound_is_usage(self, run):
        code, _, _ = run("search")
        assert code == 2

    def test_table1(self, run):
        code, out, _ = run("table1")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["rows"]) == 21

    def test_corpus(self, run):
        code, out, _ = run("corpus")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        big = [e for e in payload["entries"] if e["triad"][2] == "3474741058973"]
        assert big and big[0]["certified"]


class TestSmallTools:
    def test_two_squares_int(self, run):
        code, out, _ = run("two-squares", "45")
        assert code == 0
        payload = json.loads(out)
        p, q = int(payload["p"]), int(payload["q"])
        assert p * p + q * q == 45

    def test_two_squares_rational(self, run):
        code, out, _ = run("two-squares", "5/2")
        assert code == 0

    def test_two_squares_negative_result(self, run):
        code, out, _ = run("two-squares", "21")
        assert code == 1

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_two_squares_non_positive_is_a_domain_error(self, run, value, fmt):
        code, out, err = run("--format", fmt, "two-squares", value)
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": "is_sum_two_rational_squares requires x > 0"}

    def test_fermat_symbolic(self, run):
        code, out, _ = run("fermat")
        assert code == 0
        sides = {o["side"]: o for o in json.loads(out)}
        assert sides["constant"]["u"] == "(2*s^3)/(s^2 - t^2)"
        assert sides["leading"]["u"] == "(s^4 - t^4)/(2*s^3)"

    def test_fermat_numeric(self, run):
        code, out, _ = run("fermat", "--side", "constant", "--at", "1", "2")
        assert code == 0
        assert json.loads(out)[0]["u"] == "-2/3"

    def test_compose_reproduces_composed_u(self, run):
        code, out, _ = run("compose")
        assert code == 0
        payload = json.loads(out)
        num = "3*s^10 + s^8*t^2 - 2*s^6*t^4 - 2*s^4*t^6 - s^2*t^8 + t^10"
        assert payload["u12"].startswith("(" + num)

    def test_unknown_subcommand_usage(self, run):
        code, _, _ = run("frobnicate")
        assert code == 2


class TestDeterminism:
    def test_byte_identical_output(self, run):
        _, out1, _ = run("family", "parmsol3", "1", "2")
        _, out2, _ = run("family", "parmsol3", "1", "2")
        assert out1 == out2

    @pytest.mark.parametrize("command", sorted(SUCCESS_ARGS))
    def test_format_flag_position_independent(self, run, command):
        code_before, before, _ = run("--format", "csv", command, *SUCCESS_ARGS[command])
        code_after, after, _ = run(command, *SUCCESS_ARGS[command], "--format", "csv")
        assert code_before == code_after == 0
        assert before == after and before


def test_internal_error_exit_3(run, monkeypatch):
    def broken(args):
        raise VerificationError("injected certificate failure")

    monkeypatch.setitem(cli._DISPATCH, "verify", broken)
    code, _, err = run("verify", "45", "64", "180")
    assert code == 3
    assert json.loads(err) == {"error": "injected certificate failure"}


def test_failed_exact_division_exits_3(run, monkeypatch):
    # RatFunc.__add__ divides both denominators by their gcd; a "gcd" that
    # divides neither is a bug, not a mathematical "no"
    add = multipoly.RatFunc.__add__
    scope = dict(add.__globals__, poly_gcd=lambda a, b: a + 1)
    broken = types.FunctionType(add.__code__, scope, add.__name__)
    monkeypatch.setattr(multipoly.RatFunc, "__add__", broken)
    monkeypatch.setattr(multipoly.RatFunc, "__radd__", broken)
    code, _, err = run("fermat", "--side", "constant")
    assert code == 3
    assert json.loads(err)["error"].startswith("expected exact division failed")


def test_console_script_entry_point():
    # the child imports the same package as this test, installed or not
    env = dict(os.environ)
    package_root = str(Path(squaretriads.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "squaretriads.cli", "verify", "45", "64", "180"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["f"] == "17"


def readme_commands():
    """Arguments of each `squaretriads ...` line in the README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [
        shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("squaretriads ")
    ]


def test_readme_has_command_examples():
    assert readme_commands()


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_example_exits_0(run, argv):
    code, _, err = run(*argv)
    assert code == 0, err


def test_success_args_cover_every_subcommand():
    assert set(SUCCESS_ARGS) == set(cli._DISPATCH)


def is_json_document(line):
    try:
        return isinstance(json.loads(line), (dict, list))
    except ValueError:
        return False


@pytest.mark.parametrize("fmt", ["csv", "text"])
@pytest.mark.parametrize("command", sorted(SUCCESS_ARGS))
def test_requested_format_is_not_json(run, command, fmt):
    code, out, err = run("--format", fmt, command, *SUCCESS_ARGS[command])
    assert code == 0, err
    lines = out.splitlines()
    assert lines
    assert not any(is_json_document(line) for line in lines), out
    if fmt == "csv":
        widths = {len(line.split(",")) for line in lines}
        assert len(widths) == 1, out
