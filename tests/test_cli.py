"""Tests for the command-line interface."""

import csv
import io
import json
import math
import os
import re
import copy
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdeg import cli, degree, diagrams, dualpair, jellyfish, posets, tableaux
from dualdeg.cli import COUNT_KEYS, emit, main, parse_partition, serialize_pp, to_json
from dualdeg.dualpair import ALL_FAMILIES, FAMILIES, Setting, mp, ostar, upq


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


UPQ_7_7_P = "enumerate p --family upq --p 7 --q 7 --k 2".split()


def test_enumerate_p_holds_only_what_it_prints():
    # upq(7,7) at k=2 has 19,404 plane partitions; holding them all, or
    # serializing more than the 10 printed, takes tens of MB
    tracemalloc.start()
    try:
        code, out = run_cli(UPQ_7_7_P + ["--limit", "10"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    payload = json.loads(out)
    assert (payload["count"], payload["truncated"], len(payload["items"])) == (19404, True, 10)
    assert peak < 2 * 2**20, peak


def test_enumerate_facets_holds_only_what_it_prints():
    # the 19,404 facets of upq(7,7) at k=2 are streamed like the plane
    # partitions: holding them all took about 29 MB
    tracemalloc.start()
    try:
        code, out = run_cli("enumerate facets --family upq --p 7 --q 7 --k 2 --limit 10".split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    payload = json.loads(out)
    assert (payload["count"], payload["truncated"], len(payload["items"])) == (19404, True, 10)
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("kind", ["p", "facets"])
@pytest.mark.parametrize(
    "flags, setting",
    [("--family upq --p 8 --q 8 --k 2", upq(8, 8, 2)), ("--family mp --n 7 --k 2", mp(7, 2)),
     ("--family ostar --n 10 --k 2", ostar(10, 2))],
    ids=["upq", "mp", "ostar"],
)
@pytest.mark.parametrize("limit", [0, 3])
def test_enumerate_builds_only_the_printed_objects(monkeypatch, kind, flags, setting, limit):
    # the count is #P_k from the product formula, which the listing gate
    # read; the listing is cut at --limit and asked for nothing past it
    def bounded(build):
        def listing(*args):
            objects = iter(build(*args))
            for _ in range(limit):
                yield next(objects)
            raise AssertionError(f"built an object past --limit {limit}")

        return listing

    want = run_cli(f"enumerate {kind} {flags} --limit {limit}".split())
    monkeypatch.setattr(diagrams, "iter_P", bounded(diagrams.iter_P))
    monkeypatch.setattr(posets, "iter_facets", bounded(posets.iter_facets))
    code, out = run_cli(f"enumerate {kind} {flags} --limit {limit}".split())
    assert (code, out) == want
    payload = json.loads(out)
    assert payload["count"] == diagrams.count_P_product(setting, setting.k) > limit
    assert payload["truncated"] is True and len(payload["items"]) == limit


def test_enumerate_p_counts_the_whole_listing_at_the_default_limit():
    code, out = run_cli(UPQ_7_7_P)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 19404 == diagrams.count_P_product(upq(7, 7, 0), 2)
    assert payload["truncated"] is True
    first = diagrams.enumerate_P(upq(7, 7, 0), 2)[: degree.DEFAULT_LIMIT]
    assert payload["items"] == [serialize_pp(pp) for pp in first]


def _counts_as_strings(obj):
    """A copy of obj with each int under a COUNT_KEYS key as its decimal string."""
    if isinstance(obj, dict):
        return {
            key: str(value) if key in COUNT_KEYS and isinstance(value, int) else _counts_as_strings(value)
            for key, value in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [_counts_as_strings(x) for x in obj]
    return obj


def _keys(obj):
    """Every dict key in obj, at any depth."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys(value)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _keys(x)


JSON_LEAVES = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f aé€☃\U0001d11e'),
)
JSON_KEYS = st.one_of(st.sampled_from(sorted(COUNT_KEYS)), st.text())
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(JSON_KEYS, inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_to_json_writes_what_json_dumps_writes(value):
    before = copy.deepcopy(value)
    assert to_json(value) == json.dumps(_counts_as_strings(value), indent=2)
    assert to_json(value, indent=None) == json.dumps(_counts_as_strings(value))
    if not any(key in COUNT_KEYS for key in _keys(value)):
        assert to_json(value) == json.dumps(value, indent=2)
    assert value == before


@st.composite
def int_matrices(draw):
    """A list of int lists of one drawn width, bare or as a field of a dict."""
    width, kind = draw(st.integers(0, 4)), draw(st.sampled_from([list, tuple]))
    rows = [kind(row) for row in draw(st.lists(st.lists(st.integers(), min_size=width, max_size=width), max_size=6))]
    return draw(st.sampled_from([rows, {"boxes": rows}, [{"boxes": rows}, {"boxes": rows[:1]}]]))


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_to_json_writes_an_int_matrix_as_json_dumps_does(value):
    assert to_json(value) == json.dumps(value, indent=2)
    assert to_json(value, indent=None) == json.dumps(value)


def test_to_json_writes_an_int_matrix_with_one_template():
    # a 7 x 3 matrix is written with two templates, its own and its rows',
    # not one per row
    from dualdeg.cli import _int_list_template

    matrix = [[i, i + 1, -i] for i in range(7)]
    _int_list_template.cache_clear()
    assert to_json({"boxes": matrix}) == json.dumps({"boxes": matrix}, indent=2)
    assert _int_list_template.cache_info().currsize == 2
    assert to_json([[1, 2], [3]]) == json.dumps([[1, 2], [3]], indent=2)
    assert to_json([[1, 2], [3, True]]) == json.dumps([[1, 2], [3, True]], indent=2)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_emit_leaves_its_payload_unchanged(fmt):
    payload = {
        "degree": 10**30,
        "ok": True,
        "entries": [{"sigma": (2, 1), "q_count": 3, "p_count": 7, "checks_ok": True}],
        "nested": {"facet_count": 5, "rows": [[1, 2], [3]]},
    }
    before = copy.deepcopy(payload)
    out = io.StringIO()
    emit(payload, fmt, out)
    assert payload == before and type(payload["degree"]) is int
    assert type(payload["entries"][0]["q_count"]) is int
    if fmt == "json":
        assert json.loads(out.getvalue())["degree"] == str(10**30)


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


@pytest.mark.parametrize(
    "argv, setting",
    [
        (["--family", "upq", "--p", "16", "--q", "16", "--k", "6"], upq(16, 16, 6)),
        (["--family", "ostar", "--n", "24", "--k", "6"], ostar(24, 6)),
    ],
    ids=["upq-16-16-k6", "ostar-24-k6"],
)
def test_hilbert_beyond_the_box_transfer(argv, setting):
    # upq(16,16) k=6 ran past 100 s by an earlier box-by-box transfer and is
    # above the level transfer's gate; the determinant takes milliseconds
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "dualdeg.cli", "hilbert", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["p_count"] == str(diagrams.count_P_product(setting, setting.k))


def test_degree_prints_counts_past_the_default_digit_limit():
    # #P_k of upq(300,300) k=150 has 7,670 digits; Python refuses to convert
    # an int of more than 4,300 by default, so a fresh interpreter shows
    # whether main lifts that limit
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["degree", "--family", "upq", "--p", "300", "--q", "300", "--k", "150", "--sigma-plus", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "dualdeg.cli", *argv],
        capture_output=True,
        text=True,
        env={key: value for key, value in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"} | {"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    p_count = diagrams.count_P_product(upq(300, 300, 150), 150)
    if hasattr(sys, "get_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        assert len(payload["p_count"]) == 7670
        assert payload["p_count"] == str(p_count)
        assert payload["degree"] == str(p_count * int(payload["q_count"]))
    finally:
        if hasattr(sys, "get_int_max_str_digits"):
            sys.set_int_max_str_digits(limit)


def test_degree_refuses_a_large_mp_path_scan():
    # the 30-row staircase took about 190 s in the scan; the bound reads the
    # shape alone, so the refusal is immediate
    sigma = ",".join(map(str, range(31, 1, -1)))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["degree", "--family", "mp", "--n", "34", "--k", "61", "--sigma", sigma])
    assert (code, out) == (2, "")
    assert err.getvalue() == "error: mp path-scan bound=120258497 > limit 500000\n"


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
    # the random suite runs alone with the given or a drawn seed; no other suite reads one
    code, out = run_cli(["verify", "--only", "random-determinant", "--seed", "11"])
    payload = json.loads(out)
    assert code == 0 and payload["seed"] == 11 and len(payload["suites"]) == 1
    code, out = run_cli(["verify", "--only", "random-determinant"])
    assert code == 0 and isinstance(json.loads(out)["seed"], int)
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["verify", "--only", "width", "--seed", "3"])
    assert exc.value.code == 2
    assert err.getvalue().endswith("error: verify --only width takes no --seed\n")



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


@pytest.mark.parametrize(
    "argv, message",
    [
        ("hilbert --family e6 --k 1 --n 5", "hilbert --family e6 takes no --n"),
        ("hilbert --family e7 --k 2 --p 3", "hilbert --family e7 takes no --p"),
        ("hilbert --family upq --p 3 --q 3 --k 1 --n 7", "hilbert --family upq takes no --n"),
        ("degree --family mp --n 3 --k 1 --p 4 --sigma 1", "degree --family mp takes no --p"),
        ("degree --family ostar --n 6 --k 2 --q 2 --sigma 1", "degree --family ostar takes no --q"),
        ("hilbert --family so-odd --n 4 --k 1 --p 0", "hilbert --family so-odd takes no --p"),
        ("enumerate facets --family so-even --n 5 --k 1 --q 1", "enumerate facets --family so-even takes no --q"),
        ("check exceptional --family e6 --n 3", "check exceptional --family e6 takes no --n"),
    ],
    ids=[
        "hilbert-e6-n", "hilbert-e7-p", "hilbert-upq-n", "degree-mp-p", "degree-ostar-q",
        "hilbert-so-odd-p-zero", "facets-so-even-q", "exceptional-n",
    ],
)
def test_shape_flags_the_family_does_not_read_are_rejected(argv, message):
    # a shape flag the family would drop is an error, as a sigma flag is
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        run_cli(argv.split())
    assert exc.value.code == 2
    assert err.getvalue().endswith(f"error: {message}\n")


def test_shape_flags_the_family_reads_are_accepted():
    assert run_cli("hilbert --family e6 --k 1".split())[0] == 0
    assert run_cli("hilbert --family upq --p 3 --q 3 --k 1".split())[0] == 0
    assert run_cli("hilbert --family so-even --n 5 --k 1".split())[0] == 0
    assert run_cli("degree --family mp --n 3 --k 1 --sigma 1".split())[0] == 0


def test_missing_shape_flags_exit_2():
    for argv, message in [
        ("hilbert --family upq --p 3 --k 1", "family upq needs --p and --q"),
        ("hilbert --family so-even --k 1", "family so-even needs --n"),
        # a flag given as 0 is present: Setting names its value
        ("hilbert --family upq --p 0 --q 3 --k 1", "upq needs p, q >= 1"),
        ("hilbert --family mp --n 0 --k 1", "mp needs n >= 1"),
    ]:
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(argv.split())
        assert code == 2 and out == ""
        assert err.getvalue() == f"error: {message}\n"


def test_shape_flags_read_are_the_fields_setting_validates():
    # family: (flags, least value, the message one below it), typed by hand
    expected = {
        "upq": (("p", "q"), 1, "upq needs p, q >= 1"),
        "mp": (("n",), 1, "mp needs n >= 1"),
        "ostar": (("n",), 1, "ostar needs n >= 1"),
        "so-even": (("n",), 3, "so-even needs n >= 3"),
        "so-odd": (("n",), 2, "so-odd needs n >= 2"),
        "e6": ((), 0, None),
        "e7": ((), 0, None),
    }
    assert sorted(expected) == sorted(ALL_FAMILIES)
    for family, (flags, least, message) in expected.items():
        assert FAMILIES[family].flags == flags
        at_least = {field: least for field in flags}
        setting = Setting(family, k=1, **at_least)
        for field in flags:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Setting(family, k=1, **{**at_least, field: least - 1})
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                setting._replace(**{field: least - 1})
        # a nonzero field the family does not read would give one group a
        # second cache key
        for field in sorted({"p", "q", "n"} - set(flags)):
            with pytest.raises(ValueError, match=f"^{family} takes no {field}$"):
                Setting(family, k=1, **at_least, **{field: 1})
            with pytest.raises(ValueError, match=f"^{family} takes no {field}$"):
                setting._replace(**{field: -1})
        assert setting._replace(k=2).k == 2


def test_so_families_below_their_least_n_exit_2():
    # so-odd n=1 is so(2, 1) and so-even n=2 is so(2, 2), whose D_0 formulas
    # put boxes outside the diagram; the settings are refused, not drawn
    for argv, message in [
        ("hilbert --family so-odd --n 1 --k 1", "so-odd needs n >= 2"),
        ("hilbert --family so-even --n 2 --k 1", "so-even needs n >= 3"),
    ]:
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(argv.split())
        assert code == 2 and out == ""
        assert err.getvalue() == f"error: {message}\n"
    assert run_cli("hilbert --family so-odd --n 2 --k 1".split())[0] == 0
    assert run_cli("hilbert --family so-even --n 3 --k 1".split())[0] == 0


def test_sigma_flags_the_call_reads_are_accepted():
    assert run_cli("degree --family upq --p 2 --q 2 --k 1 --sigma-plus 1 --sigma-minus".split() + [""])[0] == 0
    assert run_cli("check conjecture --family mp --n 3 --k 4 --sigma 1".split())[0] == 0
    assert run_cli("enumerate jellyfish --family ostar --n 5 --k 1 --sigma 1".split())[0] == 0


@pytest.mark.parametrize(
    "argv, degree_",
    [
        ("degree --family ostar --n 2 --k 1 --sigma 1200", "1201"),
        ("degree --family upq --p 2 --q 2 --k 1 --sigma-plus 1200", "2"),
        ("degree --family mp --n 2 --k 2 --sigma 1200", "2"),
    ],
    ids=["ostar", "upq", "mp"],
)
def test_long_one_row_label_degree(argv, degree_):
    # dim F_lambda <= 1201 is under the gate, so the q-enumeration oracle
    # lists a row of 1200 cells, under the default recursion limit
    limit = sys.getrecursionlimit()
    code, out = run_cli(argv.split())
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == degree_
    checks = {c["name"]: c["status"] for c in payload["cross_checks"]}
    assert checks["q-enumeration"] == "pass"
    assert "fail" not in checks.values()
    assert sys.getrecursionlimit() == limit


def test_long_one_row_label_enumerate_q():
    code, out = run_cli("enumerate q --family ostar --n 2 --k 1 --sigma 1200 --limit 1".split())
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1201 and payload["truncated"] is True
    assert payload["items"] == [{"rows": [[1] * 1200]}]


def test_check_exceptional_reads_no_family():
    # the e6/e7 table is the same with --family e6, --family e7 or neither
    outputs = [
        run_cli(["check", "exceptional", *family, "--format", "csv"])
        for family in ([], ["--family", "e6"], ["--family", "e7"])
    ]
    assert outputs[0][0] == 0 and outputs[0][1]
    assert outputs[1:] == [outputs[0], outputs[0]]


@pytest.mark.parametrize(
    "argv, message",
    [
        ("check exceptional --family mp", "check exceptional takes no --family mp"),
        ("check exceptional --family upq --p 2 --q 2", "check exceptional takes no --family upq"),
        ("check exceptional --family so-even --n 4", "check exceptional takes no --family so-even"),
        ("check exceptional --k 2", "check exceptional takes no --k"),
        ("check exceptional --family e7 --k 1", "check exceptional --family e7 takes no --k"),
        ("check exceptional --n 3", "check exceptional takes no --n"),
        ("check exceptional --p 2", "check exceptional takes no --p"),
        ("check exceptional --limit 3", "check exceptional takes no --limit"),
        ("check not --n 3 --k 1 --sigma 1", "check not needs --family"),
    ],
    ids=[
        "family-mp", "family-upq", "family-so-even", "k", "e7-k", "n", "p", "limit",
        "check-not-needs-family",
    ],
)
def test_check_exceptional_rejects_setting_flags(argv, message):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        run_cli(argv.split())
    assert exc.value.code == 2
    assert err.getvalue().endswith(f"error: {message}\n")


def run_cli_err(argv):
    """The exit code, stdout and stderr of one call."""
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv)
    return code, out, err.getvalue()


def test_identity_window_refusals():
    assert run_cli_err("check conjecture --family mp --n 4 --k 3".split()) == (
        2, "", "error: k must lie in the window [5, 6]\n"
    )
    assert run_cli_err("check not --family mp --n 2 --k 3 --sigma 1".split()) == (
        2, "", "error: identity only applies for k <= r\n"
    )


@pytest.mark.parametrize("flags", ["--family ostar --n 2", "--family upq --p 1 --q 1"])
def test_enumerate_jellyfish_names_an_empty_k_range(flags):
    # s = 1, so the range 1 <= k < s of the jellyfish holds no k
    argv = f"enumerate jellyfish {flags} --k 1".split()
    assert run_cli_err(argv) == (2, "", "error: no k satisfies 1 <= k < s: s = 1\n")


def test_hilbert_names_an_empty_k_range():
    # ostar(1) has real rank r = 0, so no level 1 <= k <= r has a numerator
    argv = "hilbert --family ostar --n 1 --k 1".split()
    assert run_cli_err(argv) == (2, "", "error: no k satisfies 1 <= k <= r: r = 0\n")


def test_check_conjecture_names_an_empty_window():
    # the window [r + 1, s - 1] of mp(1) is [2, 0]; n = 2 is checked below
    argv = "check conjecture --family mp --n 1 --k 1".split()
    assert run_cli_err(argv) == (2, "", "error: no k lies in the window r < k < s: r = 1, s = 1\n")


@pytest.mark.parametrize("n", range(2, 7))
def test_check_conjecture_window_from_both_sides(n):
    for k in range(1, 2 * n + 1):
        code, out, err = run_cli_err(f"check conjecture --family mp --n {n} --k {k}".split())
        if n + 1 <= k <= 2 * n - 2:
            assert (code, err) == (0, "") and json.loads(out)["conjectural"], (n, k)
        else:
            assert (code, out) == (2, ""), (n, k)
            empty = "no k lies in the window r < k < s: r = 2, s = 3"  # n = 2: [3, 2]
            want = f"k must lie in the window [{n + 1}, {2 * n - 2}]" if n > 2 else empty
            assert err == f"error: {want}\n"


@pytest.mark.parametrize("kind", ["q", "jellyfish"])
def test_enumerate_refuses_a_tableau_set_above_the_listing_budget(monkeypatch, kind):
    # T(4,3,2,1) of ostar(14) at k = 6 holds 56,632,576 tableaux: the call
    # reads dim F_lambda and exits 2 before it lists any
    def refuse(*args):
        raise RuntimeError("listed a tableau")

    for module in (tableaux, dualpair):
        monkeypatch.setattr(module, "enumerate_ssyt", refuse)
    for name in ("boxed_paths", "iter_facets"):
        monkeypatch.setattr(jellyfish, name, refuse)
    argv = f"enumerate {kind} --family ostar --n 14 --k 6 --sigma 4,3,2,1 --limit 1".split()
    assert run_cli_err(argv) == (2, "", "error: dim F_lambda=56632576 > listing budget 1000000\n")


@pytest.mark.parametrize(
    "argv, name, size, count",
    [
        ("enumerate q --family ostar --n 3 --k 1 --sigma 1", "dim F_lambda", 3, 2),
        # 2 tableaux, 3 jellyfish: the jellyfish count is the larger size
        ("enumerate jellyfish --family upq --p 2 --q 2 --k 1 --sigma-plus 1", "#jellyfish", 3, 3),
    ],
    ids=["q", "jellyfish"],
)
def test_enumerate_lists_at_the_listing_budget(monkeypatch, argv, name, size, count):
    monkeypatch.setattr(cli, "LISTING_BUDGET", size)
    code, out = run_cli(argv.split())
    assert code == 0 and json.loads(out)["count"] == count
    monkeypatch.setattr(cli, "LISTING_BUDGET", size - 1)
    assert run_cli_err(argv.split()) == (2, "", f"error: {name}={size} > listing budget {size - 1}\n")


def test_enumerate_jellyfish_reads_the_jellyfish_count_before_listing(monkeypatch):
    # dim F_lambda is small, the number of jellyfish is not: the call counts
    # them by path-count determinants and lists only what it prints
    code, out = run_cli("enumerate jellyfish --family upq --p 7 --q 7 --k 3 --sigma-plus 1 --limit 1".split())
    payload = json.loads(out)
    assert (code, payload["count"], payload["truncated"], len(payload["items"])) == (0, 165_816, True, 1)

    def refuse(*args):
        raise RuntimeError("listed a path family")

    for name in ("boxed_paths", "iter_facets"):
        monkeypatch.setattr(jellyfish, name, refuse)
    argv = "enumerate jellyfish --family upq --p 8 --q 8 --k 4 --sigma-plus 1 --limit 1".split()
    assert run_cli_err(argv) == (2, "", "error: #jellyfish=2345112 > listing budget 1000000\n")
    # the dim F_lambda gate comes first: 2 tableaux, 3 jellyfish
    monkeypatch.setattr(cli, "LISTING_BUDGET", 1)
    argv = "enumerate jellyfish --family upq --p 2 --q 2 --k 1 --sigma-plus 1".split()
    assert run_cli_err(argv) == (2, "", "error: dim F_lambda=2 > listing budget 1\n")


def test_reach_goldens_hold_P_k_to_the_binomial():
    # #P_1 of upq(1000,1000) is the number of 0/1 fillings of the 999 x 999
    # square, C(1998, 999): the degree prints it, and enumerate p exits 2
    # naming it, each from the row binomials of count_P_product
    golden = Path(__file__).resolve().parent / "data" / "cli_golden"
    p_count = math.comb(1998, 999)
    assert json.loads((golden / "degree-upq-1000-1000-k1.out").read_text())["p_count"] == str(p_count)
    argv = "enumerate p --family upq --p 1000 --q 1000 --k 1".split()
    assert run_cli_err(argv) == (2, "", f"error: #P_k={p_count} > listing budget 1000000\n")


@pytest.mark.parametrize("kind", ["p", "facets"])
@pytest.mark.parametrize(
    "flags, p_count",
    [("--family upq --p 12 --q 12 --k 6", 1478619421136), ("--family mp --n 12 --k 4", 40831076),
     ("--family ostar --n 16 --k 3", 24801924512)],
    ids=["upq", "mp", "ostar"],
)
def test_enumerate_refuses_a_plane_partition_count_above_the_listing_budget(monkeypatch, kind, flags, p_count):
    # the call reads #P_k from the product formula and exits 2 before it lists any
    def refuse(*args):
        raise RuntimeError("listed a plane partition")

    monkeypatch.setattr(diagrams, "iter_P", refuse)
    monkeypatch.setattr(posets, "iter_facets", refuse)
    argv = f"enumerate {kind} {flags} --limit 1".split()
    assert run_cli_err(argv) == (2, "", f"error: #P_k={p_count} > listing budget 1000000\n")


@pytest.mark.parametrize("kind", ["p", "facets"])
@pytest.mark.parametrize(
    "flags, p_count",
    [("--family upq --p 2 --q 3 --k 1", 3), ("--family mp --n 3 --k 1", 4), ("--family ostar --n 5 --k 1", 5)],
    ids=["upq", "mp", "ostar"],
)
def test_enumerate_lists_plane_partitions_at_the_listing_budget(monkeypatch, kind, flags, p_count):
    argv = f"enumerate {kind} {flags}".split()
    monkeypatch.setattr(cli, "LISTING_BUDGET", p_count)
    code, out = run_cli(argv)
    assert code == 0 and json.loads(out)["count"] == p_count
    monkeypatch.setattr(cli, "LISTING_BUDGET", p_count - 1)
    assert run_cli_err(argv) == (2, "", f"error: #P_k={p_count} > listing budget {p_count - 1}\n")


def test_listing_budget_passes_the_families_without_a_product_formula(monkeypatch):
    # so-even, so-odd, e6 and e7 read no #P_k: their listings and messages are unchanged
    monkeypatch.setattr(cli, "LISTING_BUDGET", 0)
    code, out = run_cli("enumerate p --family so-even --n 3 --k 1 --limit 0".split())
    assert code == 0 and json.loads(out) == {"count": 2, "truncated": True, "items": []}
    code, out = run_cli("enumerate p --family e6 --k 1 --limit 0".split())
    assert code == 0 and json.loads(out)["count"] == 12
    assert run_cli_err("enumerate facets --family so-odd --n 3 --k 1".split()) == (
        2, "", "error: lattice-path machinery is only implemented for ('upq', 'mp', 'ostar')\n"
    )


def test_listing_budget_passes_a_label_that_is_not_admissible(monkeypatch):
    # the listing still reports it: count 0 from enumerate q, exit 2 from
    # enumerate jellyfish
    monkeypatch.setattr(cli, "LISTING_BUDGET", 0)
    code, out = run_cli("enumerate q --family ostar --n 4 --k 1 --sigma 1,1".split())
    assert code == 0 and json.loads(out) == {"count": 0, "truncated": False, "items": []}
    assert run_cli_err("enumerate jellyfish --family ostar --n 4 --k 1 --sigma 1,1".split()) == (
        2, "", "error: sigma is not an admissible nonzero label\n"
    )
    assert run_cli_err("enumerate jellyfish --family mp --n 4 --k 1 --sigma 1".split()) == (
        2, "", "error: jellyfish exist only for the upq and ostar families\n"
    )


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


@pytest.mark.parametrize("flags", ["--family e6", "--family so-even --n 4"], ids=["e6", "so-even"])
def test_check_theta_refuses_a_family_without_lattice_paths(flags):
    # theta_check asks for a dual pair before it reads #P_k, so it refuses
    # in the words of enumerate facets, not those of the product formula
    message = "error: lattice-path machinery is only implemented for ('upq', 'mp', 'ostar')\n"
    for command in ("check theta", "enumerate facets"):
        assert run_cli_err(f"{command} {flags} --k 1".split()) == (2, "", message), command


def test_hilbert_box_transfer_gate():
    # mp(40) k=25: the packed route refuses, and so does the level transfer
    # while it lists the filters; the call exits 2 naming both bounds, while
    # mp(60) k=58, refused by the packed route, runs by the level transfer
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("hilbert --family mp --n 40 --k 25".split())
    assert code == 2 and out == ""
    assert err.getvalue() == (
        "error: packed bit-operation bound=110471554750464 > limit 20000000000000; "
        "level-transfer work bound=98304000 > limit 30000000\n"
    )
    code, out = run_cli("hilbert --family mp --n 60 --k 58".split())
    assert code == 0
    assert json.loads(out)["p_count"] == str(diagrams.count_P_product(mp(60, 0), 58))


def test_hilbert_molien_gate():
    # mp(40) k=20: above the packed budget, read before the first
    # determinant, and above the level transfer's; the call exits 2 naming
    # both bounds, while mp(30) k=10 runs by the packed route
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("hilbert --family mp --n 40 --k 20".split())
    assert code == 2 and out == ""
    assert err.getvalue() == (
        "error: packed bit-operation bound=56675700226321 > limit 20000000000000; "
        "level-transfer work bound=4404019200 > limit 30000000\n"
    )
    code, out = run_cli("hilbert --family mp --n 30 --k 10".split())
    assert code == 0
    assert json.loads(out)["p_count"] == str(diagrams.count_P_product(mp(30, 0), 10))


def test_hilbert_determinant_gate():
    # upq(34,34) k=11, among the cheapest upq settings above both budgets
    # (the ungated determinant took about 1.4 s), exits 2 naming both bounds
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("hilbert --family upq --p 34 --q 34 --k 11".split())
    assert code == 2 and out == ""
    assert err.getvalue() == (
        "error: packed bit-operation bound=21982251845939 > limit 20000000000000; "
        "level-transfer work bound=47910333403904400 > limit 30000000\n"
    )


@pytest.mark.parametrize(
    "argv, packed, bits",
    [
        ("--family ostar --n 88 --k 39", 14474447737627644, 2822243973120),
        ("--family upq --p 44 --q 44 --k 36", 3194054638977024, 3307852753920),
    ],
    ids=["ostar-88-k39", "upq-44-44-k36"],
)
def test_hilbert_level_bit_gate(argv, packed, bits):
    # under the level transfer's work budget but above its bit budget, which
    # reads the packed width (they ran for 16 s and 8.8 s without it): the
    # call exits 2 naming both bounds
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(f"hilbert {argv}".split())
    assert code == 2 and out == ""
    assert err.getvalue() == (
        f"error: packed bit-operation bound={packed} > limit 20000000000000; "
        f"level-transfer bit bound={bits} > limit 1000000000000\n"
    )


def test_hilbert_upq_beyond_the_packed_budget():
    # upq(60,60) k=58: the 58 x 58 determinant is refused (it took 71 s
    # without a gate), and the level transfer over the 2 x 2 D_k runs
    code, out = run_cli("hilbert --family upq --p 60 --q 60 --k 58".split())
    assert code == 0
    payload = json.loads(out)
    num = diagrams.numerator_polynomial(upq(60, 60, 0), 58)
    assert payload["numerator"] == str(num)
    assert payload["p_count"] == str(diagrams.count_P_product(upq(60, 60, 0), 58))
    assert list(num) == list(num)[::-1]


@pytest.mark.parametrize("value", ["-1", "x"])
@pytest.mark.parametrize(
    "argv",
    [
        "degree --family ostar --n 3 --k 1 --sigma 1",
        "enumerate q --family ostar --n 3 --k 1 --sigma 1",
        "check not --family ostar --n 3 --k 1 --sigma 1",
    ],
    ids=["degree", "enumerate", "check"],
)
def test_limit_below_zero_is_rejected(argv, value):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv.split() + ["--limit", value])
    assert exc.value.code == 2
    assert "error: argument --limit: " in err.getvalue()


def test_limit_zero_lists_nothing_and_skips_every_oracle():
    code, out = run_cli("enumerate q --family ostar --n 3 --k 1 --sigma 1 --limit 0".split())
    assert code == 0 and json.loads(out) == {"count": 2, "truncated": True, "items": []}
    code, out = run_cli("degree --family ostar --n 3 --k 1 --sigma 1 --limit 0".split())
    assert code == 0
    assert {c["status"] for c in json.loads(out)["cross_checks"]} == {"skipped"}


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


def _modules_after(statement):
    """The names in sys.modules once a fresh interpreter has run statement."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
    )
    return set(proc.stdout.split())


def test_cli_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 15 ms of
    # every CLI call, for records that namedtuples give for free
    loaded = _modules_after("import dualdeg.cli") - _modules_after("pass")
    assert "dualdeg.degree" in loaded
    assert not loaded & {"dataclasses", "inspect"}
