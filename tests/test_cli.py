"""Tests for the command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dualdeg import degree
from dualdeg.cli import main, parse_partition


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_parse_partition():
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("") == ()
    assert parse_partition(None) == ()
    with pytest.raises(ValueError):
        parse_partition("3,x")


def test_degree_json():
    code, out = run_cli(
        ["degree", "--family", "upq", "--p", "4", "--q", "5", "--k", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == "50"
    assert payload["q_count"] == "1"
    assert isinstance(payload["degree"], str)  # counts are decimal strings
    assert all(c["status"] != "fail" for c in payload["cross_checks"])


def test_degree_text_and_csv():
    args = ["degree", "--family", "mp", "--n", "3", "--k", "1", "--sigma", "1"]
    code, out = run_cli(args + ["--format", "text"])
    assert code == 0
    assert "degree: " in out
    code, out = run_cli(args + ["--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["family"] == "mp"
    assert rows[0]["degree"].isdigit()


def test_enumerate_q():
    code, out = run_cli(
        ["enumerate", "q", "--family", "ostar", "--n", "3", "--k", "1", "--sigma", "1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["items"][0]["rows"] == [[2]]


def test_enumerate_p_with_limit():
    code, out = run_cli(
        ["enumerate", "p", "--family", "upq", "--p", "4", "--q", "5", "--k", "2", "--limit", "10"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 50  # the true #P_2 of upq(4,5), not the cut
    assert payload["truncated"] is True
    assert len(payload["items"]) == 10
    assert all("boxes" in item for item in payload["items"])
    code, out = run_cli(
        ["enumerate", "p", "--family", "upq", "--p", "4", "--q", "5", "--k", "2", "--limit", "50"]
    )
    payload = json.loads(out)
    assert payload["count"] == len(payload["items"]) == 50
    assert payload["truncated"] is False


def test_enumerate_facets_and_jellyfish():
    code, out = run_cli(["enumerate", "facets", "--family", "mp", "--n", "3", "--k", "1"])
    assert code == 0
    assert json.loads(out)["count"] == 4
    code, out = run_cli(
        [
            "enumerate", "jellyfish", "--family", "upq",
            "--p", "2", "--q", "2", "--k", "1",
            "--sigma-plus", "1", "--sigma-minus", "",
        ]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] > 0
    assert {"tableau", "facet"} <= set(payload["items"][0])


def test_check_not():
    code, out = run_cli(
        ["check", "not", "--family", "ostar", "--n", "3", "--k", "1", "--sigma", "1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert payload["dim_u"] == "2"


def test_check_theta():
    code, out = run_cli(["check", "theta", "--family", "mp", "--n", "4", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert payload["p_count"] == payload["facet_count"] == "10"


def test_check_conjecture():
    code, out = run_cli(["check", "conjecture", "--family", "mp", "--n", "3", "--k", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["conjectural"] and payload["ok"]
    # outside the window the probe refuses
    code, _ = run_cli(["check", "conjecture", "--family", "mp", "--n", "3", "--k", "3"])
    assert code == 2


def test_check_exceptional():
    code, out = run_cli(["check", "exceptional", "--family", "e6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert any(e["degree"] == "3" for e in payload["entries"])


def test_hilbert():
    code, out = run_cli(["hilbert", "--family", "so-odd", "--n", "3", "--k", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["series"] == "(1 + t)/(1-t)^4"
    assert payload["p_count"] == "2"


def test_verify():
    code, out = run_cli(["verify", "--only", "width"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    code, _ = run_cli(["verify", "--only", "bogus"])
    assert code == 2


def test_verify_reports_its_seed():
    code, out = run_cli(["verify", "--seed", "11"])
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 11 and payload["ok"]
    assert [s["suite"] for s in payload["suites"]][-1] == "random-determinant"



@pytest.mark.parametrize(
    "argv",
    [
        ["degree", "--family", "upq", "--p", "2", "--q", "2", "--k", "1", "--seed", "1"],
        ["hilbert", "--family", "mp", "--n", "3", "--k", "1", "--seed", "1"],
        ["verify", "--only", "width", "--limit", "10"],
        ["hilbert", "--family", "mp", "--n", "3", "--k", "1", "--limit", "10"],
        ["check", "exceptional", "--family", "e6", "--limit", "10"],
    ],
    ids=[
        "degree-seed", "hilbert-seed", "verify-limit",
        "hilbert-limit", "exceptional-limit",
    ],
)
def test_flags_that_do_nothing_are_rejected(argv):
    # --seed belongs to verify alone; the suites, hilbert and check
    # exceptional take no --limit
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        ("degree --family upq --p 2 --q 2 --k 1 --sigma 3", "degree --family upq takes no --sigma"),
        ("degree --family mp --n 3 --k 1 --sigma-plus 1", "degree --family mp takes no --sigma-plus"),
        ("degree --family ostar --n 3 --k 1 --sigma-minus 1", "degree --family ostar takes no --sigma-minus"),
        ("enumerate q --family mp --n 3 --k 1 --sigma-plus 1", "enumerate q --family mp takes no --sigma-plus"),
        ("check not --family upq --p 3 --q 3 --k 2 --sigma 1", "check not --family upq takes no --sigma"),
        ("check conjecture --family mp --n 3 --k 4 --sigma-plus 1", "check conjecture --family mp takes no --sigma-plus"),
        ("enumerate p --family upq --p 2 --q 2 --k 1 --sigma-plus 1", "enumerate p takes no --sigma-plus"),
        ("enumerate facets --family mp --n 3 --k 1 --sigma 1", "enumerate facets takes no --sigma"),
        ("check theta --family mp --n 3 --k 1 --sigma 1", "check theta takes no --sigma"),
        ("check exceptional --family e6 --sigma-minus 1", "check exceptional takes no --sigma-minus"),
    ],
    ids=[
        "degree-upq", "degree-mp", "degree-ostar", "enumerate-q-mp", "check-not-upq",
        "conjecture", "enumerate-p", "enumerate-facets", "theta", "exceptional",
    ],
)
def test_sigma_flags_the_call_does_not_read_are_rejected(argv, message):
    # a label the call would drop is an error, not a report for another label
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        run_cli(argv.split())
    assert exc.value.code == 2
    assert err.getvalue().endswith(f"error: {message}\n")


def test_sigma_flags_the_call_reads_are_accepted():
    assert run_cli("degree --family upq --p 2 --q 2 --k 1 --sigma-plus 1 --sigma-minus".split() + [""])[0] == 0
    assert run_cli("check conjecture --family mp --n 3 --k 4 --sigma 1".split())[0] == 0
    assert run_cli("enumerate jellyfish --family ostar --n 5 --k 1 --sigma 1".split())[0] == 0


def test_check_collapse_gate():
    # under the gate the check runs; over it, exit 2 names dim F_lambda
    code, out = run_cli("check collapse --family mp --n 3 --k 2 --sigma 1,1 --limit 10".split())
    assert code == 0 and json.loads(out)["ok"]
    argv = "check collapse --family upq --p 3 --q 3 --k 5 --sigma-plus 2,1 --sigma-minus 1".split()
    assert run_cli(argv)[0] == 0
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv + ["--limit", "10"])
    assert code == 2 and out == ""
    assert err.getvalue() == "error: dim F_lambda=24 > limit 10\n"
    # the default limit refuses a tableau set far too large to list
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli("check collapse --family ostar --n 20 --k 19 --sigma 4,3,2,1".split())
    assert code == 2
    assert err.getvalue() == "error: dim F_lambda=2086776384 > limit 5000\n"


def test_check_theta_gate():
    # #P_1 of upq(3, 3) is 6: the round-trip runs at --limit 6 and, above
    # the limit, exits 2 naming #P_k before listing anything
    argv = "check theta --family upq --p 3 --q 3 --k 1".split()
    code, out = run_cli(argv + ["--limit", "6"])
    assert code == 0 and json.loads(out)["p_count"] == "6"
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv + ["--limit", "5"])
    assert code == 2 and out == ""
    assert err.getvalue() == "error: #P_k=6 > limit 5\n"
    # the default limit refuses the 19,404 plane partitions of upq(7, 7) at k = 2
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli("check theta --family upq --p 7 --q 7 --k 2".split())
    assert code == 2
    assert err.getvalue() == "error: #P_k=19404 > limit 5000\n"


def test_check_not_reads_limit(monkeypatch):
    seen = []
    bernstein_degree = degree.bernstein_degree

    def spy(setting, sigma, limit=degree.DEFAULT_LIMIT):
        seen.append(limit)
        return bernstein_degree(setting, sigma, limit=limit)

    monkeypatch.setattr(degree, "bernstein_degree", spy)
    argv = "check not --family upq --p 3 --q 3 --k 2 --sigma-plus 1".split()
    assert run_cli(argv)[0] == 0
    assert run_cli(argv + ["--limit", "7"])[0] == 0
    assert seen == [degree.DEFAULT_LIMIT, 7]


def test_invalid_input_exit_code():
    code, _ = run_cli(["degree", "--family", "upq", "--k", "1"])
    assert code == 2  # missing --p/--q
    code, _ = run_cli(["degree", "--family", "mp", "--n", "3", "--k", "1", "--sigma", "1,2"])
    assert code == 2  # not a partition


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away: the named method raises."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_broken_pipe_exits_141_quietly(failing):
    err = io.StringIO()
    with redirect_stdout(_ClosedPipe(failing)), redirect_stderr(err):
        code = main(["degree", "--family", "ostar", "--n", "1", "--k", "1", "--sigma", "1"])
        stdout_after = sys.stdout
    stdout_after.close()
    assert code == 141  # 128 + SIGPIPE; 1 stays reserved for a failed cross-check
    assert stdout_after.name == os.devnull
    assert err.getvalue() == ""


def test_cli_import_loads_no_networkx():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import dualdeg.cli, sys; print('networkx' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
    )
    assert proc.stdout.strip() == "False"
