import json
import re
from collections import Counter

from hallkit import verify
from hallkit.cli import main
from hallkit.partitions import partitions_of


def skipped(check) -> int:
    match = re.search(r"(\d+) skipped over", check.detail)
    assert match, check.detail
    return int(match.group(1))


def test_theorem2_skips_embeddings_over_cap():
    # 729-element ambients at p = 3 exceed the cap: those embeddings are
    # skipped and counted instead of aborting the suite.
    rep = verify.suite_theorem2(count=40, cap=512)
    (check,) = rep.checks
    assert check.passed, check.detail
    assert skipped(check) > 0


def test_formulas_count_brute_force_skips():
    # End(T(4,2)) has 2^10 maps: over the cap, so the pair is skipped in the
    # sweep and the anchor checks that need it report themselves skipped.
    checks = {c.name: c for c in verify.suite_formulas(prime=2, cap=512).checks}
    assert all(c.passed for c in checks.values()), checks
    assert skipped(checks["hom-lengths-vs-brute"]) > 0
    assert skipped(checks["aut-end-orders-vs-brute"]) > 0
    assert checks["end-aut-brute-anchors"].detail.startswith("skipped over cap")
    assert checks["gl-order-vs-brute"].detail == "[1, 1, 6, 168] vs [1, 1, 6, 168]"


def test_formulas_skip_anchors_over_an_env_cap(capsys, monkeypatch):
    # at HALLKIT_CAP=32 the 2^6-element ambient of T(4,2) is over the cap:
    # the anchor and orbit checks that build it report themselves skipped
    monkeypatch.setenv("HALLKIT_CAP", "32")
    code = main(["verify", "--suite", "formulas"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["passed"] is True
    checks = {c["name"]: c for c in payload["suites"][0]["checks"]}
    for name in ("end-aut-brute-anchors", "orbit-formula"):
        assert checks[name]["detail"] == "skipped over cap: ambient order 2^6 exceeds cap 32"


def test_details_name_the_primes_that_ran():
    # roundtrip and theorem2 take their primes as arguments, not from
    # verify --prime; their details say which ran
    rep = verify.suite_roundtrip(max_beta=2, realize_max=3, primes=(5,))
    checks = {c.name: c for c in rep.checks}
    assert "realizations (p = 5), 0 skipped over cap" in checks["realization-fidelity"].detail
    (check,) = verify.suite_theorem2(count=4).checks
    assert "(seed 20260808; p = 2, 3), 0 skipped over cap;" in check.detail


def test_hall_skips_betas_over_cap():
    # |M(beta)| = 16 > 8 for the five beta of size 4: their censuses are
    # skipped and counted, and the report is still produced.
    rep = verify.suite_hall(prime=2, max_beta=4, cap=8)
    checks = {c.name: c for c in rep.checks}
    assert rep.passed, checks
    assert ", 5 betas skipped over cap," in checks["counts-match-oracle"].detail


def test_hall_cap_never_raises_the_subgroup_cap(monkeypatch):
    # --cap is the general cap: it may lower the census bound, but the
    # betas of size 5 (|M(beta)| = 32) stay over a subgroup cap of 16
    monkeypatch.setenv("HALLKIT_SUBGROUP_CAP", "16")
    rep = verify.suite_hall(prime=2, max_beta=5, cap=64)
    checks = {c.name: c for c in rep.checks}
    assert rep.passed, checks
    assert ", 7 betas skipped over cap," in checks["counts-match-oracle"].detail


def test_hall_symbolic_checks_run_on_every_beta(monkeypatch):
    # the betas of size 4 are over the cap, yet the symbolic checks compute
    # every one of their triples; the symmetry check reuses the mirrored
    # triple's polynomial, so no triple is computed twice
    calls = Counter()
    real = verify.hall_polynomial

    def counting(alpha, beta, gamma):
        calls[(alpha, beta, gamma)] += 1
        return real(alpha, beta, gamma)

    monkeypatch.setattr(verify, "hall_polynomial", counting)
    rep = verify.suite_hall(prime=2, max_beta=4, cap=8)
    assert rep.passed
    over_cap = {
        (alpha, beta, gamma)
        for beta in partitions_of(4)
        for k in range(5)
        for alpha in partitions_of(k)
        for gamma in partitions_of(4 - k)
    }
    assert over_cap <= set(calls)
    assert set(calls.values()) == {1}


def test_roundtrip_skips_realizations_over_cap():
    # at p = 3 the realizations with |beta| = 4 need 81 > 64 elements
    rep = verify.suite_roundtrip(max_beta=4, realize_max=4, cap=64)
    checks = {c.name: c for c in rep.checks}
    assert rep.passed, checks
    assert skipped(checks["realization-fidelity"]) > 0


def test_cli_verify_reports_skips_over_cap(capsys):
    code = main(["verify", "--suite", "hall", "--max-beta", "4", "--cap", "8"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["passed"] is True
    (check,) = [c for c in payload["suites"][0]["checks"] if c["name"] == "counts-match-oracle"]
    assert ", 5 betas skipped over cap," in check["detail"]
