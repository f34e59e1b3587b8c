"""Tests for degree reports, boundary identities, and the verification harness."""

import pytest

from dualdeg import degree, dualpair, jellyfish, repdims
from dualdeg.degree import (
    EXCEPTIONAL_ROWS,
    bernstein_degree,
    classify_regime,
    dim_U_sigma,
    exceptional_degree,
    hilbert_report,
    is_conjectural,
    iter_sigmas,
    mp_conjecture_probe,
    mp_window_boundary_check,
    not_identity_check,
    partitions_up_to,
    verify_all,
)
from dualdeg.dualpair import Setting, mp, ostar, upq


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


def test_not_identity():
    out = not_identity_check(ostar(3, 1), (1,))
    assert out["ok"] and out["dim_u"] == 2 and out["q_count"] == 2
    out = not_identity_check(mp(2, 1), (1,))
    assert out["ok"] and out["dim_u"] == 1
    out = not_identity_check(upq(2, 3, 2), ((1,), (1,)))
    assert out["ok"]
    out = not_identity_check(mp(3, 2), ())
    assert out["ok"] and out["q_count"] == 1
    with pytest.raises(ValueError):
        not_identity_check(mp(2, 3), ())


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
    with pytest.raises(ValueError):
        mp_conjecture_probe(2, 2, [()])  # n = 2 window is empty
    out = mp_conjecture_probe(3, 4, [(), (1,)])
    assert out["conjectural"]
    by_sigma = {e["sigma"]: e for e in out["entries"]}
    assert by_sigma[()]["degree"] == 1 * out["entries"][0]["p_count"]
    assert all(e["checks_ok"] for e in out["entries"])


def test_mp_window_boundary():
    for n in (3, 4):
        sigmas = list(iter_sigmas(mp(n, n), 2))
        out = mp_window_boundary_check(n, sigmas)
        assert out["ok"], out


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
    with pytest.raises(ValueError):
        verify_all(only="no-such-suite")


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
    report = not_identity_check(ostar(14, 6), (3, 3, 2, 2, 1))
    assert report["q_count"] == report["dim_u"] + 1 == 3_675_673
    assert not report["ok"]
    assert not verify_all(only="conjecture")["ok"]
    out = mp_window_boundary_check(3, [(), (1,)])
    assert not out["ok"] and all(not e["ok"] for e in out["entries"])


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
        lambda: dualpair.in_Q_criteria(setting, bad, T),
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
