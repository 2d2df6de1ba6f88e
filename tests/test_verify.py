import dataclasses
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from hallkit import embeddings as emb
from hallkit import oracle, verify
from hallkit.caps import limits
from hallkit.cli import main
from hallkit.hall import hall_multiplicity_factored, hall_polynomial
from hallkit.partitions import partitions_of
from hallkit.qforms import QOrderFactored, QPolynomial, gl_order
from hallkit.s2cat import Picket, S2Object, aut_order, tableau_of_object
from hallkit.tableaux import _unchecked, restrict


def tally(rep) -> dict[str, tuple[int, int, int]]:
    """(run, skipped, failed) of each check."""
    return {c.name: (c.run, c.skipped, c.failed) for c in rep.checks}


def test_theorem2_skips_embeddings_over_cap(cold):
    # 729-element ambients at p = 3 exceed the cap: those embeddings are
    # skipped and counted instead of aborting the suite.
    with limits(general=512):
        rep = verify.suite_theorem2(count=40)
    (check,) = rep.checks
    assert check.passed, check.detail
    assert "40 embeddings (seed 20260808; p = 2, 3), 13 skipped over cap;" in check.detail
    assert tally(rep) == {"functor-tableau-identities": (27, 13, 0)}
    assert check.skip_reason == "skipped over cap: ambient order 3^8 exceeds cap 512"


def test_formulas_count_brute_force_skips(cold):
    # End(T(4,2)) has 2^10 maps: over the cap, so the pair is skipped in the
    # sweep and the anchor checks that need it report themselves skipped.
    with limits(general=512):
        rep = verify.suite_formulas(prime=2)
    checks = {c.name: c for c in rep.checks}
    assert all(c.passed for c in checks.values()), checks
    assert ", 1 skipped over cap," in checks["hom-lengths-vs-brute"].detail
    assert checks["aut-end-orders-vs-brute"].detail.startswith("80 objects, 831 skipped over cap,")
    assert checks["end-aut-brute-anchors"].detail.startswith("skipped over cap")
    assert checks["gl-order-vs-brute"].detail == "[1, 1, 6, 168] vs [1, 1, 6, 168]"
    assert tally(rep) == {
        "gl-order-vs-brute": (1, 0, 0),
        "aut-order-anchors": (3, 0, 0),
        "end-aut-brute-anchors": (0, 1, 0),
        "hom-lengths-vs-brute": (440, 1, 0),
        "tableau-hom-lengths-agree": (19131, 0, 0),
        "aut-end-orders-vs-brute": (80, 831, 0),
        # the kernel order needs no map walk: every object is within 512
        "end-orders-vs-kernel": (911, 0, 0),
        "bipicket-end-length-closed-form": (21, 0, 0),
        "orbit-formula": (0, 1, 0),
    }
    # a skipped one-shot check's detail is its skip reason
    anchor = checks["end-aut-brute-anchors"]
    assert anchor.skip_reason == anchor.detail


def test_formulas_skip_anchors_over_an_env_cap(capsys, monkeypatch, cold):
    # at HALLKIT_CAP=32 the 2^6-element ambient of T(4,2) is over the cap:
    # the anchor and orbit checks that build it report themselves skipped
    monkeypatch.setenv("HALLKIT_CAP", "32")
    code = main(["verify", "--suite", "formulas"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["passed"] is True
    checks = {c["name"]: c for c in payload["suites"][0]["checks"]}
    reason = "skipped over cap: ambient order 2^6 exceeds cap 32"
    for name in ("end-aut-brute-anchors", "orbit-formula"):
        assert checks[name]["detail"] == reason
        assert checks[name] == {
            "name": name, "passed": True, "detail": reason,
            "run": 0, "skipped": 1, "failed": 0, "skip_reason": reason,
        }


def test_details_name_the_primes_that_ran():
    # roundtrip and theorem2 take their primes as arguments, not from
    # verify --prime; their details say which ran
    rep = verify.suite_roundtrip(max_beta=2, realize_max=3, primes=(5,))
    checks = {c.name: c for c in rep.checks}
    assert "realizations (p = 5), 0 skipped over cap" in checks["realization-fidelity"].detail
    (check,) = verify.suite_theorem2(count=4).checks
    assert "(seed 20260808; p = 2, 3), 0 skipped over cap;" in check.detail


# (run, skipped, failed) of the three census checks and of the symbolic
# checks of suite_hall(2, 4) when the five beta of size 4 are over the cap
HALL_4_CAPPED = {
    "counts-match-oracle": (7, 5, 0),
    "per-tableau-counts-match": (7, 5, 0),
    "tableau-census-refines-type-census": (7, 5, 0),
    "alpha-gamma-symmetry": (78, 0, 0),
    "multiplicities-monic": (57, 0, 0),
    "degree-formula": (143, 0, 0),
    # the orbit identity never skips and reads |beta| <= 12 whatever max_beta
    "orbit-identity": (10158, 0, 0),
}


def test_hall_skips_betas_over_cap(cold):
    # |M(beta)| = 16 > 8 for the five beta of size 4: their censuses are
    # skipped and counted, and the report is still produced.
    with limits(general=8):
        rep = verify.suite_hall(prime=2, max_beta=4)
    checks = {c.name: c for c in rep.checks}
    assert rep.passed, checks
    assert ", 5 betas skipped over cap," in checks["counts-match-oracle"].detail
    assert tally(rep) == HALL_4_CAPPED


def test_hall_cap_never_raises_the_subgroup_cap(monkeypatch, cold):
    # --cap is the general cap: it may lower the census bound, but the
    # betas of size 5 (|M(beta)| = 32) stay over a subgroup cap of 16
    monkeypatch.setenv("HALLKIT_SUBGROUP_CAP", "16")
    with limits(general=64):
        rep = verify.suite_hall(prime=2, max_beta=5)
    checks = {c.name: c for c in rep.checks}
    assert rep.passed, checks
    assert ", 7 betas skipped over cap," in checks["counts-match-oracle"].detail
    assert (checks["counts-match-oracle"].run, checks["counts-match-oracle"].skipped) == (12, 7)


def test_census_checks_count_their_skipped_betas(capsys, cold):
    # at cap 0 all 7 beta censuses of size <= 3 are skipped: every census
    # check says so in its counts and in its detail
    code = main(["verify", "--suite", "hall", "--cap", "0", "--max-beta", "3", "--count", "5"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    checks = {c["name"]: c for c in payload["suites"][0]["checks"]}
    reason = "skipped over cap: ambient order 1 exceeds subgroup cap 0"
    for name in ("per-tableau-counts-match", "tableau-census-refines-type-census"):
        assert checks[name] == {
            "name": name, "passed": True, "detail": "7 betas skipped over cap, 0 bad",
            "run": 0, "skipped": 7, "failed": 0, "skip_reason": reason,
        }
    assert checks["counts-match-oracle"]["detail"] == "0 instances, 7 betas skipped over cap, 0 bad"
    assert (checks["counts-match-oracle"]["run"], checks["counts-match-oracle"]["skipped"]) == (0, 7)


def test_hall_symbolic_checks_run_on_every_beta(monkeypatch, cold):
    # the betas of size 4 are over the cap, yet the symbolic checks compute
    # every one of their triples; the symmetry check reuses the mirrored
    # triple's polynomial, so no triple is computed twice
    calls = Counter()
    real = verify.hall_polynomial

    def counting(alpha, beta, gamma):
        calls[(alpha, beta, gamma)] += 1
        return real(alpha, beta, gamma)

    monkeypatch.setattr(verify, "hall_polynomial", counting)
    with limits(general=8):
        rep = verify.suite_hall(prime=2, max_beta=4)
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


def test_roundtrip_skips_realizations_over_cap(cold):
    # at p = 3 the realizations with |beta| = 4 need 81 > 64 elements
    with limits(general=64):
        rep = verify.suite_roundtrip(max_beta=4, realize_max=4)
    checks = {c.name: c for c in rep.checks}
    assert rep.passed, checks
    assert ", 30 skipped over cap," in checks["realization-fidelity"].detail
    assert tally(rep) == {
        "tableau-object-tableau": (52, 0, 0),
        "object-tableau-object": (52, 0, 0),
        "realization-fidelity": (74, 30, 0),
    }


def test_cli_verify_reports_skips_over_cap(capsys, cold):
    code = main(["verify", "--suite", "hall", "--max-beta", "4", "--cap", "8"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["passed"] is True
    (check,) = [c for c in payload["suites"][0]["checks"] if c["name"] == "counts-match-oracle"]
    assert ", 5 betas skipped over cap," in check["detail"]
    assert (check["run"], check["skipped"], check["failed"]) == HALL_4_CAPPED[check["name"]]


# Failure paths: each check is made to fail by patching one name it reads,
# and its pass flag and detail are pinned.


def outcomes(rep) -> dict[str, tuple[bool, str]]:
    return {c.name: (c.passed, c.detail) for c in rep.checks}


def plus_one(fn):
    return lambda *args: fn(*args) + 1


def test_formulas_sweeps_fail_on_wrong_closed_forms(monkeypatch):
    monkeypatch.setattr(verify, "gl_order", lambda m: gl_order(m + 1))
    monkeypatch.setattr(verify, "hom_len_indec", plus_one(verify.hom_len_indec))
    monkeypatch.setattr(verify, "hom_len_tableau", plus_one(verify.hom_len_tableau))
    monkeypatch.setattr(verify, "end_power", plus_one(verify.end_power))
    monkeypatch.setattr(verify, "aut_order", lambda obj: aut_order(obj) * QOrderFactored.q_power(1))
    skipped_anchor = (True, "skipped over cap: hom space of size 1024 exceeds cap 512")
    with limits(general=512):
        rep = verify.suite_formulas(2)
    assert outcomes(rep) == {
        "gl-order-vs-brute": (False, "[1, 1, 6, 168] vs [1, 6, 168, 20160]"),
        "aut-order-anchors": (False, "q^9*(q-1); q^21*(q-1)^3; q^21*(q-1)^2"),
        "end-aut-brute-anchors": skipped_anchor,
        "hom-lengths-vs-brute": (False, "21^2 indec pairs, 1 skipped over cap, 440 bad"),
        "tableau-hom-lengths-agree": (False, "19131 mismatches"),
        # both Aut and End are wrong for every object: two mismatches each
        "aut-end-orders-vs-brute": (False, "80 objects, 831 skipped over cap, 160 bad"),
        "end-orders-vs-kernel": (False, "911 objects, 0 skipped over cap, 911 bad"),
        "bipicket-end-length-closed-form": (False, ""),
        "orbit-formula": skipped_anchor,
    }
    assert tally(rep) == {
        "gl-order-vs-brute": (1, 0, 1),
        "aut-order-anchors": (3, 0, 3),
        "end-aut-brute-anchors": (0, 1, 0),
        "hom-lengths-vs-brute": (440, 1, 440),
        "tableau-hom-lengths-agree": (19131, 0, 19131),
        # an object fails once, though both of its orders are wrong
        "aut-end-orders-vs-brute": (80, 831, 80),
        "end-orders-vs-kernel": (911, 0, 911),
        "bipicket-end-length-closed-form": (21, 0, 21),
        "orbit-formula": (0, 1, 0),
    }


def test_formulas_anchors_fail_on_wrong_brute_counts(monkeypatch):
    # at cap 1024 the anchor and orbit checks run instead of skipping
    monkeypatch.setattr(oracle, "hom_count", plus_one(oracle.hom_count))
    monkeypatch.setattr(oracle, "orbit_check", lambda E: False)
    with limits(general=1024):
        rep = verify.suite_formulas(2)
    checks = outcomes(rep)
    assert checks["end-aut-brute-anchors"] == (False, "End(T(4,2))=513, Aut(T(3,1))=16")
    assert checks["hom-lengths-vs-brute"] == (False, "21^2 indec pairs, 0 skipped over cap, 441 bad")
    assert checks["orbit-formula"] == (False, "")
    assert {name for name, (passed, _) in checks.items() if not passed} == {
        "end-aut-brute-anchors", "hom-lengths-vs-brute", "orbit-formula"
    }
    counts = tally(rep)
    assert counts["end-aut-brute-anchors"] == counts["orbit-formula"] == (1, 0, 1)
    assert counts["hom-lengths-vs-brute"] == (441, 0, 441)


@pytest.mark.parametrize(
    "max_beta, realize_max, tableaux, realizations",
    [
        (3, 3, "22 tableaux, 22 bad", "44 realizations (p = 2, 3), 13 skipped over cap, 5 bad"),
        (2, 3, "9 tableaux, 9 bad", "44 realizations (p = 2, 3), 13 skipped over cap, 5 bad"),
        (3, 2, "22 tableaux, 22 bad", "18 realizations (p = 2, 3), 0 skipped over cap, 2 bad"),
    ],
)
def test_roundtrip_fails_on_wrong_coders(monkeypatch, max_beta, realize_max, tableaux, realizations):
    # the encoder adds a summand P(0,1); the decoder of embeddings drops
    # every subscript, so only the realizations of subscript-free
    # tableaux still match
    def encode(obj):
        return tableau_of_object(S2Object.make(obj.summands + ((Picket(0, 1), 1),)))

    def decode(E, real=emb.klein_tableau):
        return _unchecked(real(E).gammas, ())

    monkeypatch.setattr(verify, "tableau_of_object", encode)
    monkeypatch.setattr(emb, "klein_tableau", decode)
    with limits(general=16):
        rep = verify.suite_roundtrip(max_beta=max_beta, realize_max=realize_max)
    assert outcomes(rep) == {
        "tableau-object-tableau": (False, tableaux),
        "object-tableau-object": (False, tableaux.replace("tableaux", "objects")),
        "realization-fidelity": (False, realizations),
    }
    # (run, skipped, failed) of both coder checks and of the realizations
    coded, realized = {
        (3, 3): ((22, 0, 22), (31, 13, 5)),
        (2, 3): ((9, 0, 9), (31, 13, 5)),
        (3, 2): ((22, 0, 22), (18, 0, 2)),
    }[max_beta, realize_max]
    assert tally(rep) == {
        "tableau-object-tableau": coded,
        "object-tableau-object": coded,
        "realization-fidelity": realized,
    }


def test_theorem2_lists_the_first_failures(monkeypatch):
    # a restriction one level too short; at cap 16 some embeddings are
    # skipped inside the battery, after its random draws
    monkeypatch.setattr(verify, "restrict", lambda t, ell, u: restrict(t, ell, max(u - 1, 0)))
    first = (
        "p=2 beta=(2, 1): reduce tableau s=0; p=2 beta=(2, 1): reduce tableau s=1; "
        "p=2 beta=(2, 1): approximation tableau ell=1; p=2 beta=(2, 1): approximation tableau ell=2; "
    )
    (check,) = verify.suite_theorem2(count=6).checks
    assert (check.passed, check.detail) == (
        False,
        "6 embeddings (seed 20260808; p = 2, 3), 0 skipped over cap; "
        + first + "p=3 beta=(2, 2, 1, 1, 1, 1): reduce tableau s=0",
    )
    assert (check.run, check.skipped, check.failed) == (6, 0, 6)
    with limits(general=16):
        (check,) = verify.suite_theorem2(count=30).checks
    assert (check.passed, check.detail) == (
        False,
        "30 embeddings (seed 20260808; p = 2, 3), 28 skipped over cap; "
        + first + "p=2 beta=(1, 1, 1, 1): reduce tableau s=0",
    )
    assert (check.run, check.skipped, check.failed) == (2, 28, 2)


def changed(triple, change):
    """hall_polynomial with `change` applied to the breakdown of `triple`."""
    def patched(alpha, beta, gamma):
        bd = hall_polynomial(alpha, beta, gamma)
        return change(bd) if (alpha, beta, gamma) == triple else bd
    return patched


def census_with_extra_subgroup(p, beta, real=oracle.census):
    """The census, with one more subgroup of type ((1), (1)) in M(1,1)."""
    record = real(p, beta)
    if beta != (1, 1):
        return record
    types = dict(record.types)
    types[(1,), (1,)] += 1
    return dataclasses.replace(record, types=types)


ONE = QPolynomial.one()
PAIR = ((1,), (1, 1), (1,))  # g = q + 1, one tableau


@pytest.mark.parametrize(
    "module, name, value, failing",
    [
        (
            verify,
            "hall_polynomial",
            changed(PAIR, lambda bd: dataclasses.replace(bd, total=bd.total + ONE)),
            {"counts-match-oracle": ("143 instances, 0 betas skipped over cap, 1 bad", 1)},
        ),
        (
            verify,
            "hall_polynomial",
            changed(((1,), (2, 1), (2,)), lambda bd: dataclasses.replace(bd, total=bd.total + ONE)),
            {
                "counts-match-oracle": ("143 instances, 0 betas skipped over cap, 1 bad", 1),
                "alpha-gamma-symmetry": ("1 bad", 1),
            },
        ),
        (
            verify,
            "hall_polynomial",
            changed(PAIR, lambda bd: dataclasses.replace(
                bd, per_tableau=tuple((t, poly + ONE) for t, poly in bd.per_tableau))),
            {"per-tableau-counts-match": ("0 betas skipped over cap, 1 bad", 1)},
        ),
        (
            verify,
            "hall_polynomial",
            changed(PAIR, lambda bd: dataclasses.replace(
                bd, per_tableau=tuple((t, poly + poly) for t, poly in bd.per_tableau))),
            {
                "per-tableau-counts-match": ("0 betas skipped over cap, 1 bad", 1),
                "multiplicities-monic": ("1 bad", 1),
            },
        ),
        (verify, "expected_degree", plus_one(verify.expected_degree), {"degree-formula": ("57 bad", 57)}),
        (
            verify,
            "hall_multiplicity_factored",
            lambda tab: hall_multiplicity_factored(tab) * QOrderFactored.q_power(1),
            {"orbit-identity": ("10158 tableaux with entries <= 2 and |beta| <= 12, 10158 bad", 10158)},
        ),
        (
            oracle,
            "census",
            census_with_extra_subgroup,
            {
                "counts-match-oracle": ("143 instances, 0 betas skipped over cap, 1 bad", 1),
                "tableau-census-refines-type-census": ("0 betas skipped over cap, 1 bad", 1),
            },
        ),
    ],
    ids=["total", "symmetry", "per-tableau", "monic", "degree", "orbit", "census"],
)
def test_hall_checks_fail_on_wrong_counts(monkeypatch, module, name, value, failing):
    monkeypatch.setattr(module, name, value)
    rep = verify.suite_hall(2, 4)
    assert {c.name: (c.detail, c.failed) for c in rep.checks if not c.passed} == failing
    # uncapped, every case of HALL_4_CAPPED runs
    assert {name: run for name, (run, _, _) in tally(rep).items()} == {
        name: run + skipped for name, (run, skipped, _) in HALL_4_CAPPED.items()
    }


def test_unknown_suite_is_a_value_error():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suites(("nope",))


TESTS_DIR = Path(__file__).parent


def without_elapsed(payload: dict) -> dict:
    for suite in payload["suites"]:
        del suite["elapsed"]
    return payload


def test_capped_report_is_pinned(capsys, cold):
    # every suite skips something at cap 16
    code = main(["verify", "--max-beta", "5", "--count", "20", "--cap", "16"])
    payload = without_elapsed(json.loads(capsys.readouterr().out))
    assert code == 0
    assert payload == json.loads((TESTS_DIR / "golden_verify_capped.json").read_text())


@pytest.mark.parametrize("cap", [0, 4, 16])
def test_cap_flag_equals_env_cap(capsys, monkeypatch, cap, cold):
    # --cap N puts N in force for every bound, diagrams included, as
    # HALLKIT_CAP=N does, from cold memos, so that no earlier test's
    # tableaux stand in for a walk under the cap
    argv = ["verify", "--suite", "hall", "--max-beta", "5"]
    assert main([*argv, "--cap", str(cap)]) == 0
    flagged = without_elapsed(json.loads(capsys.readouterr().out))
    monkeypatch.setenv("HALLKIT_CAP", str(cap))
    assert main(argv) == 0
    assert without_elapsed(json.loads(capsys.readouterr().out)) == flagged


def test_subgroup_cap_flag_raises_the_census_bound(capsys, monkeypatch, cold):
    # the default 2^10 skips the 15 beta of 7 boxes at p = 3, whose
    # lattices reach 3^7; --subgroup-cap 2187 runs them all, as
    # HALLKIT_SUBGROUP_CAP=2187 does
    argv = ["verify", "--suite", "hall", "--prime", "3", "--max-beta", "7"]
    assert main([*argv, "--subgroup-cap", "2187"]) == 0
    flagged = without_elapsed(json.loads(capsys.readouterr().out))
    assert [c["skipped"] for c in flagged["suites"][0]["checks"]] == [0] * 7
    monkeypatch.setenv("HALLKIT_SUBGROUP_CAP", "2187")
    assert main(argv) == 0
    assert without_elapsed(json.loads(capsys.readouterr().out)) == flagged


def test_hall_skips_betas_over_the_diagram_cap(cold):
    # at cap 4 the seven beta of size 5 have no breakdowns: each symbolic
    # check runs the cases of |beta| <= 4 and counts those seven skipped,
    # from cold memos
    with limits(general=4):
        rep = verify.suite_hall(prime=2, max_beta=5)
    assert rep.passed
    reason = "skipped over cap: diagram of 5 boxes exceeds cap 4"
    for name in ("alpha-gamma-symmetry", "multiplicities-monic", "degree-formula"):
        (check,) = [c for c in rep.checks if c.name == name]
        assert (check.run, check.skipped, check.failed) == (HALL_4_CAPPED[name][0], 7, 0)
        assert (check.detail, check.skip_reason) == ("7 betas skipped over cap, 0 bad", reason)


def test_golden_counts_agree_with_details():
    # in both pinned reports a check passed exactly when no case failed, and
    # every skip count a detail names is the check's skipped count
    for golden in ("golden_verify_default.json", "golden_verify_capped.json"):
        payload = json.loads((TESTS_DIR / golden).read_text())
        for check in (c for suite in payload["suites"] for c in suite["checks"]):
            assert check["passed"] == (check["failed"] == 0), check
            assert bool(check["skipped"]) == bool(check["skip_reason"]), check
            # no skip is silent: the detail of a check that skipped says so
            assert not check["skipped"] or "skipped over cap" in check["detail"], check
            named = re.search(r"(\d+) (?:betas )?skipped over", check["detail"])
            if named:
                assert int(named.group(1)) == check["skipped"], check
            elif check["detail"].startswith("skipped over cap"):
                # a skipped one-shot check
                assert (check["run"], check["skipped"]) == (0, 1), check
                assert check["detail"] == check["skip_reason"], check
