import re

from hallkit import verify


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

