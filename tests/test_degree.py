"""Tests for degree reports, boundary identities, and the verification harness."""

import importlib.util
import io
import itertools
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdeg import cli, degree, diagrams, dualpair, jellyfish, posets, repdims, tableaux
from dualdeg.degree import (
    EXCEPTIONAL_ROWS,
    bernstein_degree,
    classify_regime,
    criterion_check,
    exceptional_degree,
    hilbert_report,
    is_conjectural,
    iter_sigmas,
    jellyfish_check,
    partitions_up_to,
    path_count_check,
    q_collapse_check,
    theta_check,
    verify_all,
)
from dualdeg.dualpair import UPQ, Setting, mp, ostar, upq
from dualdeg.repdims import dim_U_sigma
from dualdeg.tableaux import IntPolynomial, Tableau


def test_partitions_up_to():
    assert partitions_up_to(0) == ((),)
    got = partitions_up_to(3)
    assert set(got) == {(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)}
    assert len(got) == len(set(got))


def test_iter_sigmas():
    assert ((), ()) in set(iter_sigmas(upq(2, 2, 1), 2))
    mp_sigmas = set(iter_sigmas(mp(3, 1), 2))
    assert () in mp_sigmas and (1,) in mp_sigmas
    # inadmissible shapes are filtered out
    assert all(len(s) <= 1 for s in iter_sigmas(mp(3, 1), 3))


def test_bernstein_degree_golden():
    report = bernstein_degree(ostar(3, 1), (1,))
    assert (report.q_count, report.p_count, report.degree) == (2, 1, 2)
    assert report.ok()
    report = bernstein_degree(upq(4, 5, 2), ((), ()))
    assert report.degree == 50
    # above the free threshold the degree of the trivial-label module is 1
    report = bernstein_degree(mp(3, 6), ())
    assert report.degree == 1


def test_report_reads_the_size_of_D_k_from_its_shape(monkeypatch):
    # D_k of upq(1000,1000) at k=1 holds 998,001 boxes; the p-enumeration
    # gate reads their number from the shape, so no D_k at k >= 1 is built
    true_diagram = diagrams.diagram_D

    def no_D_k(setting, k):
        if k >= 1:
            raise AssertionError(f"D_{k} was built")
        return true_diagram(setting, k)

    monkeypatch.setattr(diagrams, "diagram_D", no_D_k)
    report = bernstein_degree(upq(1000, 1000, 1), ((), ()))
    assert report.p_count == math.comb(1998, 999)
    skipped = dict((c.name, c.detail) for c in report.cross_checks)["p-enumeration"]
    assert skipped.endswith("; |D_k|=998001 > 12")


def test_hilbert_report_and_degree_read_P_k_once():
    # both Hilbert routes and the degree read #P_k of one shape from one entry
    diagrams._count_P.cache_clear()
    hilbert = hilbert_report(upq(5, 6, 0), 2)
    report = bernstein_degree(upq(5, 6, 2), ((1,), ()))
    assert hilbert["p_count"] == report.p_count == 490
    assert diagrams._count_P.cache_info().misses == 1


def test_report_fields():
    report = bernstein_degree(upq(2, 3, 1), ((1,), ()))
    assert report.regime == "k<=r"
    assert not report.conjectural
    names = [c.name for c in report.cross_checks]
    assert names == ["q-enumeration", "p-enumeration", "jellyfish"]
    assert all(c.status == "pass" for c in report.cross_checks)
    # a huge instance skips the enumerative oracles but still reports
    big = bernstein_degree(upq(10, 12, 5), ((4, 3), (2,)), limit=10)
    assert big.degree == big.q_count * big.p_count
    assert any(c.status == "skipped" for c in big.cross_checks)
    assert big.ok()
    # each skip names the gate that tripped and its value
    details = {c.name: c.detail for c in big.cross_checks if c.status == "skipped"}
    assert details == {
        "q-enumeration": "dim F_lambda=8588580 > limit 10",
        "p-enumeration": f"#P_k={big.p_count} > limit 10; |D_k|=35 > 12",
        "jellyfish": "k=5 > 2",
    }
    skipped = {c.name: c.detail for c in bernstein_degree(mp(24, 18), (2,) * 9).cross_checks}
    assert skipped["q-enumeration"] == "dim F_lambda=267119798440 > limit 5000"
    assert skipped["jellyfish"] == "no jellyfish for family mp"
    jelly = bernstein_degree(upq(5, 5, 2), ((1,), ())).cross_checks[2]
    assert (jelly.status, jelly.detail) == ("skipped", "|poset|=25 > 20")


def test_degree_input_validation():
    with pytest.raises(ValueError):
        bernstein_degree(Setting("e6", k=2), ())
    with pytest.raises(ValueError):
        bernstein_degree(mp(3, 0), ())
    with pytest.raises(ValueError):
        bernstein_degree(mp(3, 1), (1, 1, 1, 1))


def test_classify_regime_and_conjectural():
    assert classify_regime(upq(3, 4, 2)) == "k<=r"
    assert classify_regime(upq(3, 4, 4)) == "r<k<s"
    assert classify_regime(upq(3, 4, 6)) == "k>=s"
    assert is_conjectural(mp(4, 5))
    assert is_conjectural(mp(4, 6))
    assert not is_conjectural(mp(4, 4))
    assert not is_conjectural(mp(4, 7))
    assert not is_conjectural(upq(4, 4, 5))


def run_cli(argv):
    """The exit code and JSON payload of one dualdeg call that exits 0 or 1."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def check_not(setting, sigma):
    """dualdeg check not on a mp or ostar label."""
    argv = ["check", "not", "--family", setting.family, "--n", str(setting.n), "--k", str(setting.k)]
    return run_cli(argv + ["--sigma", ",".join(map(str, sigma))])


def test_not_identity():
    # #Q from the path count against the report's #Q, dim U_sigma
    for setting, sigma, dim_u in [(ostar(3, 1), (1,), 2), (mp(2, 1), (1,), 1), (upq(2, 3, 2), ((1,), (1,)), 3)]:
        report, q_count, failures = path_count_check(setting, sigma)
        assert q_count == report.q_count == dim_u and failures == [], (setting, sigma)
    code, out = check_not(mp(3, 2), ())
    assert code == 0 and out["ok"] and out["q_count"] == "1"
    assert check_not(ostar(3, 1), (1,)) == (
        0,
        {"q_count": "2", "dim_u": "2", "p_count": "1", "degree": "2", "ok": True},
    )
    with redirect_stderr(io.StringIO()):
        assert cli.main("check not --family mp --n 2 --k 3".split()) == 2  # k > r


def test_p_enumeration_gate_at_its_boundary():
    # |D_1| of upq(2, q) is q - 1: the gate opens at 12 boxes and shuts at 13
    checks = {c.name: c for c in bernstein_degree(upq(2, 13, 1), ((), ())).cross_checks}
    assert (checks["p-enumeration"].status, checks["p-enumeration"].detail) == (
        "pass",
        "product 13, enumeration 13",
    )
    checks = {c.name: c for c in bernstein_degree(upq(2, 14, 1), ((), ())).cross_checks}
    assert (checks["p-enumeration"].status, checks["p-enumeration"].detail) == ("skipped", "|D_k|=13 > 12")


def test_dim_U_sigma():
    assert dim_U_sigma(ostar(3, 1), (1,)) == 2  # Sp(2) defining rep
    assert dim_U_sigma(mp(2, 1), (1,)) == 1  # O(1) sign character
    assert dim_U_sigma(upq(2, 3, 2), ((1,), (1,))) == 3  # GL(2) weight (1,-1)


def test_mp_conjecture_probe():
    with redirect_stderr(io.StringIO()):
        assert cli.main("check conjecture --family mp --n 2 --k 2".split()) == 2  # the n = 2 window is empty
    code, out = run_cli("check conjecture --family mp --n 3 --k 4".split())
    assert code == 0 and out["ok"] and out["conjectural"]
    by_sigma = {tuple(e["sigma"]): e for e in out["entries"]}
    assert by_sigma[()]["degree"] == out["entries"][0]["p_count"]
    assert all(e["checks_ok"] for e in out["entries"])


def test_exceptional_degrees():
    by_system = {row.h_system: row for row in EXCEPTIONAL_ROWS}
    assert exceptional_degree(by_system["B3"], 0) == 1
    assert exceptional_degree(by_system["G2"], 0) == 1
    assert exceptional_degree(by_system["B4"], 0) == 3
    assert exceptional_degree(by_system["F4"], 0, 0) == 1
    assert exceptional_degree(by_system["B3"], 1) == 7
    assert exceptional_degree(by_system["G2"], 1) == 7
    for a in range(5):
        for b in range(5):
            exceptional_degree(by_system["F4"], a, b)
    with pytest.raises(ValueError):
        exceptional_degree(by_system["B3"], 1, 1)
    with pytest.raises(ValueError):
        exceptional_degree(by_system["B3"], -1)


def test_hilbert_report_rendering():
    out = hilbert_report(Setting("so-odd", n=3), 1)
    assert out["series"] == "(1 + t)/(1-t)^4"
    assert out["p_count"] == 2
    out = hilbert_report(Setting("e6"), 2)
    assert out["series"] == "1/(1-t)^16"
    assert out["p_count"] == 1


def test_verify_all():
    out = verify_all(seed=7)
    assert out["ok"], out
    assert out["seed"] == 7
    names = {s["suite"] for s in out["suites"]}
    assert "criterion" in names and "random-determinant" in names
    single = verify_all(only="width")
    assert single["ok"] and len(single["suites"]) == 1
    assert "seed" not in single  # the random suite did not run
    alone = verify_all(only="random-determinant", seed=7)
    assert alone["seed"] == 7 and alone["suites"] == out["suites"][-1:]
    with pytest.raises(ValueError):
        verify_all(only="no-such-suite")
    with pytest.raises(ValueError):
        verify_all(only="width", seed=7)  # only the random suite reads a seed


def test_verify_all_reports_a_replayable_seed(monkeypatch):
    # only the random suite runs; record the cases it draws
    monkeypatch.setattr(degree, "SUITES", {})
    drawn = []
    count = dualpair.count_Q_determinant

    def recording(setting, sigma):
        drawn.append((setting, sigma))
        return count(setting, sigma)

    monkeypatch.setattr(dualpair, "count_Q_determinant", recording)
    first = verify_all()
    assert isinstance(first["seed"], int)
    first_cases, drawn[:] = list(drawn), []
    assert first_cases
    assert verify_all(seed=first["seed"]) == first
    assert drawn == first_cases


# one label per family at k <= r and at k >= s, on settings of the degree
# benchmark workload; each degree equals perfbench/refs.expected_degree
COLLAPSE_DEGREES = [
    (upq(12, 13, 6), ((3, 2), (2, 1)), 570_370_720_705_843_200),
    (mp(16, 6), (3, 2, 1), 10_222_361_206_865_920),
    (ostar(20, 6), (4, 3, 2, 1), 9_524_835_383_338_598_400),
    (upq(3, 4, 30), ((3, 2, 1), (2, 1)), 512),
    (mp(5, 30), (3, 2, 2, 1), 175),
    (ostar(6, 30), (3, 2, 2, 1), 1050),
]


def test_collapse_regimes_skip_the_path_count(monkeypatch):
    def refuse(setting, sigma):
        raise RuntimeError(f"path count at {setting}")

    monkeypatch.setattr(dualpair, "count_Q_determinant", refuse)
    for setting, sigma, want in COLLAPSE_DEGREES:
        report = bernstein_degree(setting, sigma)
        assert report.regime in ("k<=r", "k>=s")
        assert report.degree == want and report.ok(), (setting, sigma)
    # r < k < s still counts Q by the path determinant
    assert classify_regime(upq(4, 5, 6)) == "r<k<s"
    with pytest.raises(RuntimeError):
        bernstein_degree(upq(4, 5, 6), ((1,), ()))


def test_collapse_checks_compare_with_the_path_count(monkeypatch):
    # bernstein_degree returns dim U_sigma at k <= r and dim F_lambda at
    # k >= s, so the identity checks must take #Q from the path count: an
    # off-by-one there has to show even where dim F_lambda shuts the
    # q-enumeration gate
    count = dualpair.count_Q_determinant
    monkeypatch.setattr(dualpair, "count_Q_determinant", lambda setting, sigma: count(setting, sigma) + 1)
    code, report = check_not(ostar(14, 6), (3, 3, 2, 2, 1))
    assert int(report["q_count"]) == int(report["dim_u"]) + 1 == 3_675_673
    assert code == 1 and not report["ok"]
    assert not verify_all(only="conjecture")["ok"]
    for setting in (mp(3, 3), mp(3, 5)):  # the ends k = r, s of the window
        for sigma in ((), (1,)):
            assert path_count_check(setting, sigma)[2] == ["path-count"], (setting, sigma)
    for setting, sigma, _ in COLLAPSE_DEGREES:
        assert path_count_check(setting, sigma)[2] == ["path-count"], (setting, sigma)
    assert criterion_check(upq(2, 3, 2), ((1,), (1,)))[-1][0] == "path-count"
    with pytest.raises(ValueError):
        path_count_check(upq(4, 5, 6), ((1,), ()))  # no collapse for r < k < s


def test_q_collapse_check_sees_a_dropped_tableau(monkeypatch):
    # at k <= r against dim U_sigma, at k >= s against dim F_lambda, the whole of T(sigma)
    cases = [(mp(3, 2), (1, 1)), (upq(2, 3, 4), ((1,), ()))]
    assert all(q_collapse_check(setting, sigma)["ok"] for setting, sigma in cases)
    counted = dualpair.count_Q_enumeration
    monkeypatch.setattr(dualpair, "count_Q_enumeration", lambda s, label: counted(s, label) - 1)
    for setting, sigma in cases:
        report = q_collapse_check(setting, sigma)
        assert report["q_count"] == report["expected"] - 1 and not report["ok"], (setting, sigma)
    assert not verify_all(only="collapse")["ok"]


@pytest.mark.parametrize("setting, sigma", [(ostar(5, 0), ()), (upq(2, 3, 0), ((), ())), (mp(3, 0), ())])
def test_q_collapse_check_refuses_k_below_1(setting, sigma):
    # the empty label lies in the label set at k = 0, with one tableau
    with pytest.raises(ValueError, match="k must be >= 1"):
        q_collapse_check(setting, sigma)


@pytest.mark.parametrize(
    "setting, sigma",
    [(upq(2, 3, 3), ((2, 1), (1,))), (mp(3, 4), (2, 1)), (ostar(7, 3), (2, 1)), (mp(3, 4), (3, 1))],
)
def test_q_enumeration_lists_no_tableau(monkeypatch, setting, sigma):
    # k >= 3 shuts the jellyfish gate; the q-enumeration check counts classes.
    # It lists the heads, the tableaux of the shape cut to the class width
    # (2 for mp, else 1), and no shape with a longer part
    width = 2 if setting.family == dualpair.MP else 1
    listing = tableaux.enumerate_ssyt

    def refuse(*args):
        raise RuntimeError("listed a tableau")

    def refuse_wide(shape, max_entry):
        if shape and shape[0] > width:
            refuse()
        return listing(shape, max_entry)

    tableaux.column_classes.cache_clear()
    for module in (tableaux, dualpair):
        monkeypatch.setattr(module, "enumerate_ssyt", refuse_wide)
    monkeypatch.setattr(dualpair, "enumerate_Q", refuse)
    checks = {c.name: c for c in bernstein_degree(setting, sigma).cross_checks}
    assert checks["jellyfish"].status == "skipped"
    assert checks["q-enumeration"].status == "pass", checks["q-enumeration"]


@pytest.mark.parametrize("setting, sigma", [(upq(2, 3, 3), ((2, 1), (1,))), (ostar(7, 3), (2, 1))])
def test_q_enumeration_sees_one_flipped_class(monkeypatch, setting, sigma):
    report = bernstein_degree(setting, sigma)
    assert report.cross_checks[0].status == "pass"
    label = dualpair.normalize_sigma(setting, sigma)
    if setting.family == UPQ:
        (plus_key, a), (minus_key, b) = (tableaux.column_classes(shape, n, 1)[0]
                                         for shape, n in zip(label, (setting.q, setting.p)))
        key, size = (plus_key, minus_key), a * b
    else:
        key, size = tableaux.column_classes(label, setting.n, 1)[0]
    test = dualpair._q_test(setting)
    monkeypatch.setattr(dualpair, "_q_test", lambda s: lambda T: test(T) != (T == key))
    flipped = report.q_count + (-size if test(key) else size)
    check = bernstein_degree(setting, sigma).cross_checks[0]
    assert check == ("q-enumeration", "fail", f"determinant {report.q_count}, enumeration {flipped}")


def test_criterion_check_sees_one_flipped_verdict(monkeypatch):
    setting, sigma = upq(2, 3, 2), ((1,), (1,))
    assert criterion_check(setting, sigma) == []
    first = dualpair.enumerate_T(setting, sigma)[0]
    criteria = dualpair._in_Q_criteria
    monkeypatch.setattr(dualpair, "_in_Q_criteria", lambda s, label, T: criteria(s, label, T) != (T == first))
    assert criterion_check(setting, sigma) == [("criterion", first)]


def walk_criterion_check(setting, sigma):
    """criterion_check on every T of T(sigma), one at a time: ("criterion",
    T) for each T the definition and the criterion decide differently.  The
    test oracle of the class version."""
    label = dualpair.nonzero_label(setting, sigma)
    in_Q = dualpair._q_test(setting)
    failures = []
    admitted = 0
    for T in dualpair._enumerate_T(setting, label):
        verdict = in_Q(T)
        if verdict != dualpair._in_Q_criteria(setting, label, T):
            failures.append(("criterion", T))
        admitted += verdict
    count = dualpair.count_Q_determinant(setting, label)
    if admitted != count:
        failures.append(("path-count", admitted, count))
    return failures


def _head(setting, T):
    """The rows of T cut to the columns its class shares: the first column
    of T+ and T- (upq), the first two (mp), the first (ostar)."""
    if setting.family == UPQ:
        return tuple(Tableau([row[:1] for row in t]) for t in T)
    return Tableau([row[: 2 if setting.family == dualpair.MP else 1] for row in T])


CRITERION_CASES = [
    (setting, sigma)
    for base in degree._small_settings()
    for k in range(1, dualpair.free_threshold(base) + 2)
    for setting in [base._replace(k=k)]
    for sigma in iter_sigmas(setting, 4)
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CRITERION_CASES), st.integers(0, 10**6))
def test_criterion_check_classes_match_the_walk(case, pick):
    # one flipped class and a path count of -1, so that both report every
    # class verdict and the number of T they admit
    setting, sigma = case
    listing = dualpair.enumerate_T(setting, sigma)
    target = _head(setting, listing[pick % len(listing)])
    criteria = dualpair._in_Q_criteria
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dualpair, "_in_Q_criteria",
                      lambda s, label, T: criteria(s, label, T) != (_head(s, T) == target))
        patch.setattr(dualpair, "count_Q_determinant", lambda s, label: -1)
        walk = walk_criterion_check(setting, sigma)
        classes = criterion_check(setting, sigma)
    assert classes[-1] == walk[-1] and walk[-1][0] == "path-count"
    assert classes[:-1] == [("criterion", target)]
    assert [_head(setting, T) for _, T in walk[:-1]] == [target] * (len(walk) - 1)
    assert len(walk) - 1 == sum(_head(setting, T) == target for T in listing)


def test_criteria_read_only_the_head():
    # the premise of criterion_check's class count: the criterion takes one
    # value on each class, the value of its head
    for setting, sigma in CRITERION_CASES:
        label = dualpair.normalize_sigma(setting, sigma)
        for T in dualpair.enumerate_T(setting, label):
            head = _head(setting, T)
            assert dualpair._in_Q_criteria(setting, label, T) == dualpair._in_Q_criteria(setting, label, head), T


def test_jellyfish_check_lists_no_tableau(monkeypatch):
    # the upq and ostar heads are first columns: no listed shape has a part above 1
    listing = tableaux.enumerate_ssyt

    def refuse(*args):
        raise RuntimeError("listed a tableau")

    def refuse_wide(shape, max_entry):
        if shape and shape[0] > 1:
            refuse()
        return listing(shape, max_entry)

    tableaux.column_classes.cache_clear()
    for module in (tableaux, dualpair):
        monkeypatch.setattr(module, "enumerate_ssyt", refuse_wide)
    monkeypatch.setattr(dualpair, "_enumerate_T", refuse)
    for setting, sigma in ((upq(2, 3, 2), ((1,), (1,))), (upq(2, 3, 2), ((2,), (1,))),
                           (ostar(5, 1), (1,)), (ostar(5, 1), (2,))):
        checks = {c.name: c for c in bernstein_degree(setting, sigma).cross_checks}
        assert checks["jellyfish"].status == "pass", (setting, checks["jellyfish"])


def test_jellyfish_check_sees_a_dropped_jellyfish(monkeypatch):
    setting, sigma = ostar(5, 1), (1,)
    assert jellyfish_check(setting, sigma) == []
    maximal = jellyfish.enumerate_maximal_jellyfish
    dropped = maximal(setting, sigma)[0]
    monkeypatch.setattr(jellyfish, "enumerate_maximal_jellyfish", lambda s, label: maximal(s, label)[1:])
    assert jellyfish_check(setting, sigma) == [("missing", (dropped.tableau, dropped.family.points))]


def test_theta_check_sees_wrong_corners_and_a_wrong_inverse(monkeypatch):
    setting = upq(3, 3, 0)  # six plane partitions at k = 1
    assert theta_check(setting, 1) == (6, 6, [])
    corners = posets.corners
    with monkeypatch.context() as m:
        m.setattr(posets, "corners", lambda s, k, f: corners(s, k, f) | {(0, 0)})
        assert theta_check(setting, 1)[2] == ["corners"] * 6
    first = diagrams.enumerate_P(setting, 1)[0]
    monkeypatch.setattr(posets, "theta_inverse", lambda s, k, f: first)
    assert theta_check(setting, 1)[2] == ["round-trip"] * 5


def test_product_suite_sees_a_wrong_numerator(monkeypatch):
    # the suite checks the numerator of each of its 16 orbits against the
    # c statistics of the listed fillings
    assert verify_all(only="product")["ok"]
    numerator = diagrams.numerator_polynomial
    monkeypatch.setattr(diagrams, "numerator_polynomial", lambda s, k: IntPolynomial([*numerator(s, k), 1]))
    assert verify_all(only="product")["suites"] == [{"suite": "product", "ok": False, "failures": 16}]


def test_traced_names_resolve():
    # perfbench/tracing.py wraps these names wherever they are bound; a
    # rename has to fail here, not in a traced benchmark run
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.LAYERS.items():
        for name in names:
            assert callable(getattr(importlib.import_module(f"dualdeg.{module}"), name, None)), (module, name)
    assert list(degree.SUITES) == [
        "criterion", "product", "theta", "jellyfish", "collapse", "width", "exceptional", "pinned", "conjecture",
    ]
    assert callable(degree._suite_random)


def test_readme_checkers_resolve():
    # each row of README's checker table names a checker in dualdeg.degree,
    # a function or SUITES["name"], and the verify suites that run it
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| identity | checker | verify suite | `check` | criterion |") + 2
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
    assert len(rows) == 7
    for row in rows:
        _, checker, suites, _, _ = [cell.strip() for cell in row.strip("|").split("|")]
        name, suite_key = re.fullmatch(r'`(\w+)(?:\(.*\)|\["([\w-]+)"\])`', checker).groups()
        target = degree.SUITES[suite_key] if suite_key else getattr(degree, name, None)
        assert callable(target), checker
        assert all(suite in degree.SUITES for suite in re.findall(r"`([\w-]+)`", suites)), suites


def test_readme_src_line_count():
    # the start-up paragraph's count of the lines of src/, which
    # cat src/dualdeg/*.py | wc -l prints
    root = Path(__file__).parents[1]
    stated = re.search(r"compile the ([\d,]+) lines of `src/`", (root / "README.md").read_text())
    lines = sum(path.read_bytes().count(b"\n") for path in (root / "src" / "dualdeg").glob("*.py"))
    assert stated and int(stated.group(1).replace(",", "")) == lines


@pytest.mark.parametrize(
    "setting, good, bad",
    [
        (upq(2, 3, 2), ((1,), (1,)), ((1, 2), (1,))),
        (mp(3, 2), (1,), (1, 2)),
        (ostar(5, 1), (1,), (1, 2)),
    ],
    ids=["upq", "mp", "ostar"],
)
def test_public_entries_reject_a_non_partition(setting, good, bad):
    # sigma is validated once at each public entry; the helpers behind them
    # take the normalized label, so the entries must still refuse a bad one
    T = dualpair.enumerate_T(setting, good)[0]
    calls = [
        lambda: bernstein_degree(setting, bad),
        lambda: repdims.dim_F_lambda(setting, bad),
        lambda: dualpair.count_Q_determinant(setting, bad),
        lambda: dualpair.enumerate_Q(setting, bad),
    ]
    if setting.family != "mp":
        calls += [
            lambda: jellyfish.end_map(setting, bad, T),
            lambda: jellyfish.enumerate_jellyfish(setting, bad),
        ]
    for call in calls:
        with pytest.raises(ValueError, match="not a partition"):
            call()
