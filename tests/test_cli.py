import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hallkit.caps import general_cap
from hallkit.cli import main
from hallkit.hall import hall_polynomial
from hallkit.partitions import parse
from hallkit.qforms import evaluate
from hallkit.s2cat import parse_object
from hallkit.tableaux import KleinTableau, enumerate_lr

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hall_worked_example(capsys):
    code, out, _ = run(capsys, "hall", "--alpha", "3,2,1", "--gamma", "2,1", "--beta", "4,3,2")
    assert code == 0
    assert out.strip() == "2*q^2 + q - 1"


def test_hall_json_breakdown(capsys):
    code, out, _ = run(
        capsys,
        "hall", "--alpha", "3,2,1", "--gamma", "2,1", "--beta", "4,3,2",
        "--per-tableau", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"] == {"coeffs": {"2": 2, "1": 1, "0": -1}}
    assert sorted(t["multiplicity"] for t in payload["per_tableau"]) == [
        "q - 1", "q^2", "q^2",
    ]


def test_tableaux_count(capsys):
    code, out, _ = run(
        capsys,
        "tableaux", "klein", "--alpha", "3,2,1", "--beta", "4,3,2",
        "--gamma", "2,1", "--count",
    )
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(
        capsys,
        "tableaux", "lr", "--alpha", "3,2,1", "--beta", "4,3,2",
        "--gamma", "2,1", "--count",
    )
    assert code == 0 and out.strip() == "2"


def test_hall_incompatible_sizes_is_zero(capsys):
    code, out, _ = run(capsys, "hall", "--alpha", "1", "--beta", "2", "--gamma", "5")
    assert code == 0
    assert out.strip() == "0"


def test_embed_tableau(capsys):
    code, out, _ = run(
        capsys, "embed", "tableau", "--prime", "2", "--beta", "4,2", "--gens", "4,2"
    )
    assert code == 0
    assert out.splitlines()[0] == "3,1/3,2/4,2;2@4:2"


def test_embed_type(capsys):
    code, out, _ = run(
        capsys, "embed", "type", "--prime", "2", "--beta", "4,2", "--gens", "4,2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"alpha": [2], "beta": [4, 2], "gamma": [3, 1]}


def test_embed_type_output_pinned(capsys):
    argv = ["embed", "type", "--prime", "3", "--beta", "3,2,1", "--gens", "4,1,2;9,0,1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "(3,1) <= (3,2,1) quotient (2)\n"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == '{"alpha": [3, 1], "beta": [3, 2, 1], "gamma": [2]}\n'


def test_decompose_both_ways(capsys):
    code, out, _ = run(capsys, "decompose", "--object", "T(4,2) + P(1,3)")
    assert code == 0
    assert out.splitlines()[0] == "3,2,1/3,3,2/4,3,2;2@4:2"
    code, out, _ = run(capsys, "decompose", "--tableau", "3,2,1/3,3,2/4,3,2;2@4:2")
    assert code == 0
    assert out.strip() == "P(1,3) + T(4,2)"
    code, out, _ = run(
        capsys, "decompose", "--tableau",
        json.dumps({"gammas": [[3, 1], [3, 2], [4, 2]], "subscripts": [{"entry": 2, "row": 4, "subs": [2]}]}),
    )
    assert code == 0
    assert out.strip() == "T(4,2)"


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        '{"gammas": 5}',
        '{"gammas": [[3, 1], [3, 2], [4, 2]], "subscripts": [{"entry": 2, "subs": [2]}]}',
        # numbers that json reads as float infinity
        '{"gammas": [[1e400]]}',
        '{"gammas": [[2], [2]], "subscripts": [{"entry": 2, "row": 2, "subs": [1e400]}]}',
        '{"gammas": [[2], [2]], "subscripts": [{"entry": 1e400, "row": 2, "subs": [1]}]}',
        # a tableau is a chain of at least one partition
        '{"gammas": []}',
        # only JSON integers are numbers, and lists are not strings
        '{"gammas": [[2.5]]}',
        '{"gammas": ["21"]}',
        '{"gammas": [[true], [2]]}',
        '{"gammas": "12"}',
        '{"gammas": [[3, 1], [3, 2], [4, 2]], "subscripts": [{"entry": 2, "row": 4, "subs": "2"}]}',
        '{"gammas": [[3, 1], [3, 2], [4, 2]], "subscripts": [{"entry": 2.0, "row": 4, "subs": [2]}]}',
        # a chain padded with an empty top strip is no tableau's JSON
        '{"gammas": [[1], [1]]}',
        '{"gammas": [[], []]}',
    ],
)
def test_malformed_tableau_json_exits_one(capsys, text):
    code, out, err = run(capsys, "decompose", "--tableau", text)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("text", ["1/1", "-/-", '{"gammas": [[1], [1]]}'])
def test_padded_chain_exits_one(capsys, text):
    # an empty top strip is refused by both readers, with one message,
    # although the decoder would read the chain below it
    code, out, err = run(capsys, "decompose", "--tableau", text)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "empty top strip: entry 1 has no box",
    }


def test_repeated_cell_text_exits_one(capsys):
    code, out, err = run(capsys, "decompose", "--tableau", "3,2,1/3,3,2/4,3,2;2@4:1,2@4:2")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "cell (2,4) is given twice"}


def test_repeated_cell_json_exits_one(capsys):
    cell = {"entry": 2, "row": 4, "subs": [2]}
    text = json.dumps({"gammas": [[3, 2, 1], [3, 3, 2], [4, 3, 2]], "subscripts": [cell, cell]})
    code, out, err = run(capsys, "decompose", "--tableau", text)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "cell (2,4) is given twice"}


def test_tableau_text_starting_with_dash(capsys):
    # the empty first partition '-' is read as the flag's value, joined or
    # not, after the full flag name or any abbreviation argparse accepts
    for flag in ("--tableau", "--tab", "--t"):
        for argv in ([flag, "-/1/2;2@2:1"], [f"{flag}=-/1/2;2@2:1"]):
            code, out, err = run(capsys, "decompose", *argv)
            assert (code, out, err) == (0, "P(2,2)\n", "")
    code, out, err = run(capsys, "decompose", "--tab", "3,2,1/3,3,2/4,3,2;2@4:2")
    assert (code, out, err) == (0, "P(1,3) + T(4,2)\n", "")
    # a value that is another flag is still a usage error
    for flag in ("--tableau", "--tab"):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", flag, "--format", "json"])
        assert exc.value.code == 2


def test_invalid_tableau_exits_one(capsys):
    code, out, err = run(capsys, "decompose", "--tableau", "2/1")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "not a Klein tableau: chain not weakly increasing at level 1",
    }


@pytest.mark.parametrize(
    "text",
    [
        "1/2;5@2:1",
        json.dumps({"gammas": [[1], [2]], "subscripts": [{"entry": 5, "row": 2, "subs": [1]}]}),
    ],
)
def test_cell_outside_the_entries_exits_one(capsys, text):
    # the tableau is refused as it is built, in either form
    code, out, err = run(capsys, "decompose", "--tableau", text)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "subscript cell for entry 5 outside 2..1",
    }


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_empty_chain_with_a_cell_exits_one(capsys, fmt):
    # the empty chain is reported before the range of a subscript cell
    text = json.dumps({"gammas": [], "subscripts": [{"entry": 2, "row": 2, "subs": [1]}]})
    code, out, err = run(capsys, "decompose", "--tableau", text, "--format", fmt)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "an LR tableau needs at least one partition",
    }


def test_oracle_hall(capsys):
    code, out, _ = run(
        capsys,
        "oracle", "hall", "--prime", "2", "--beta", "4,3,2",
        "--alpha", "3,2,1", "--gamma", "2,1", "--by-tableau", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 9
    assert sorted(row["count"] for row in payload["by_tableau"]) == [1, 4, 4]


ORACLE_ARGS = (
    "oracle", "hall", "--prime", "2", "--beta", "4,3,2",
    "--alpha", "3,2,1", "--gamma", "2,1", "--by-tableau",
)


def _census_row(count, text, gammas, subscripts):
    return {
        "count": count,
        "tableau": {
            "gammas": gammas,
            "subscripts": [{"entry": e, "row": r, "subs": subs} for e, r, subs in subscripts],
        },
        "tableau_text": text,
    }


def test_oracle_hall_output_pinned(capsys):
    # the worked example 2q^2 + q - 1 = q^2 + (q - 1) + q^2 at q = 2, counted
    code, out, _ = run(capsys, *ORACLE_ARGS)
    assert code == 0
    assert out == (
        "9\n"
        "  2,1/3,2,1/3,3,2/4,3,2;2@2:1,2@3:2,3@4:2  ->  1\n"
        "  2,1/3,2,1/3,3,2/4,3,2;2@2:1,2@3:2,3@4:3  ->  4\n"
        "  2,1/3,2,1/4,2,2/4,3,2;2@2:1,2@4:3,3@3:2  ->  4\n"
    )
    code, out, _ = run(capsys, *ORACLE_ARGS, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload.pop("elapsed") >= 0
    left = [[2, 1], [3, 2, 1], [3, 3, 2], [4, 3, 2]]
    right = [[2, 1], [3, 2, 1], [4, 2, 2], [4, 3, 2]]
    assert payload == {
        "count": 9,
        "description": "subgroups of M((4, 3, 2)) at p=2",
        "by_tableau": [
            _census_row(
                1, "2,1/3,2,1/3,3,2/4,3,2;2@2:1,2@3:2,3@4:2",
                left, [(2, 2, [1]), (2, 3, [2]), (3, 4, [2])],
            ),
            _census_row(
                4, "2,1/3,2,1/3,3,2/4,3,2;2@2:1,2@3:2,3@4:3",
                left, [(2, 2, [1]), (2, 3, [2]), (3, 4, [3])],
            ),
            _census_row(
                4, "2,1/3,2,1/4,2,2/4,3,2;2@2:1,2@4:3,3@3:2",
                right, [(2, 2, [1]), (2, 4, [3]), (3, 3, [2])],
            ),
        ],
    }


def test_oracle_hall_odd_prime(capsys):
    alpha, beta, gamma = (2, 1), (3, 2, 1), (2, 1)
    code, out, _ = run(
        capsys,
        "oracle", "hall", "--prime", "3", "--beta", "3,2,1",
        "--alpha", "2,1", "--gamma", "2,1", "--by-tableau", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    bd = hall_polynomial(alpha, beta, gamma)
    assert payload["count"] == evaluate(bd.total, 3)
    by_tab = {row["tableau_text"]: row["count"] for row in payload["by_tableau"]}
    assert by_tab == {tab.to_text(): evaluate(poly, 3) for tab, poly in bd.per_tableau}


def test_long_single_row_chain(capsys):
    # 2,000 strips of one box each: the strip walk must not recurse per strip
    code, out, _ = run(capsys, "hall", "--beta", "2000", "--alpha", "2000")
    assert code == 0
    assert out.strip() == "1"


def test_long_single_column_strip(capsys):
    # beta = alpha = (1^1000): one strip with a box in each of 1,000 columns
    ones = ",".join(["1"] * 1000)
    code, out, _ = run(capsys, "hall", "--beta", ones, "--alpha", ones)
    assert code == 0
    assert out.strip() == "1"


def test_output_is_deterministic(capsys):
    args = [
        "hall", "--alpha", "3,2,1", "--gamma", "2,1", "--beta", "4,3,2",
        "--per-tableau", "--format", "json",
    ]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_domain_error_exits_one(capsys, cold):
    code, out, err = run(capsys, "embed", "tableau", "--prime", "2", "--beta", "25", "--gens", "")
    assert code == 1
    assert json.loads(err)["error"] == "CapExceeded"


def test_non_prime_exits_one(capsys):
    code, _, err = run(capsys, "embed", "tableau", "--prime", "4", "--beta", "2,1", "--gens", "")
    assert code == 1
    assert json.loads(err) == {"error": "ValueError", "message": "p must be a prime, got 4"}


@pytest.mark.parametrize(
    "argv",
    [
        ("embed", "tableau", "--beta", "1", "--gens", "1"),
        ("oracle", "hall", "--beta", "1", "--alpha", "1"),
    ],
)
def test_prime_above_cap_exits_one_at_once(capsys, argv, cold):
    # the cap is checked before any trial division by the primes up to sqrt(p)
    start = time.monotonic()
    code, _, err = run(capsys, *argv, "--prime", "1000000000000000003")
    assert time.monotonic() - start < 2
    assert code == 1
    assert json.loads(err)["error"] == "CapExceeded"


@pytest.mark.parametrize(
    "argv",
    [
        ("embed", "type", "--prime", "3", "--beta", "100000", "--gens", ""),
        ("oracle", "hall", "--prime", "3", "--beta", "100000", "--alpha", "1"),
        ("embed", "type", "--prime", "3", "--beta", "100000000", "--gens", ""),
    ],
)
def test_huge_ambient_exits_one_at_once(capsys, argv, cold):
    # the order p^|beta| is neither computed nor printed in full
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 2
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "CapExceeded"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_huge_diagram_exits_one_at_once(capsys, fmt, cold):
    # a diagram of 10^11 boxes, over the general cap, is refused before
    # any row is built, in either format
    start = time.monotonic()
    code, out, err = run(capsys, "decompose", "--object", "P(1,99999999999)", "--format", fmt)
    assert time.monotonic() - start < 2
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "CapExceeded"
    assert "diagram of 99999999999 boxes exceeds cap" in json.loads(err)["message"]


HUGE = "100000000000"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [("hall",), ("tableaux", "lr", "--count")])
def test_huge_type_exits_one_at_once(capsys, argv, fmt, cold):
    # beta = alpha = (10^11) asks for a chain of 10^11 one-box strips: its
    # diagram is over the general cap, so the type is refused before
    # alpha is conjugated or any strip is walked
    start = time.monotonic()
    code, out, err = run(capsys, *argv, "--beta", HUGE, "--alpha", HUGE, "--format", fmt)
    assert time.monotonic() - start < 1
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "CapExceeded",
        "message": f"diagram of {HUGE} boxes exceeds cap {general_cap()}",
    }


@pytest.mark.parametrize("text", ["99999999999/" + HUGE, '{"gammas": [[99999999999], [%s]]}' % HUGE])
def test_huge_tableau_exits_one_at_once(capsys, text, cold):
    # the tableau readers refuse a diagram over the general cap, as the
    # object reader does for P(1,10^11), the object of this tableau
    start = time.monotonic()
    code, out, err = run(capsys, "decompose", "--tableau", text)
    assert time.monotonic() - start < 1
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "CapExceeded",
        "message": f"diagram of {HUGE} boxes exceeds cap {general_cap()}",
    }


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_huge_object_exits_one_at_once(capsys, fmt, cold):
    # 99,999,999 copies of P(1,1) make a diagram of that many boxes, over
    # the general cap: refused before any summand tableau is merged
    start = time.monotonic()
    code, out, err = run(capsys, "decompose", "--object", "99999999*P(1,1)", "--format", fmt)
    assert time.monotonic() - start < 1
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "CapExceeded",
        "message": f"diagram of 99999999 boxes exceeds cap {general_cap()}",
    }


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_zero_picket_exits_one_at_once(capsys, fmt):
    # P(0,0) is the zero module, not a summand: its size 0 passes the
    # diagram bound, so it is refused as it is parsed, before any copy
    start = time.monotonic()
    code, out, err = run(capsys, "decompose", "--object", "99999999*P(0,0)", "--format", fmt)
    assert time.monotonic() - start < 1
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "invalid picket P_0^0"}


# numerals that read_int refuses: '_', '+', an Arabic-Indic 3 and an em space
odd_numerals = st.sampled_from(["1_0", "+2", "\u0663", "\u20032"])


def _with_strays(text, strays):
    """text with each (position, character) inserted in turn."""
    for pos, char in strays:
        pos %= len(text) + 1
        text = text[:pos] + char + text[pos:]
    return text


summand_texts = st.one_of(
    st.builds("P({},{})".format, st.integers(0, 3), st.integers(0, 7)),
    st.builds("T({},{})".format, st.integers(0, 8), st.integers(0, 7)),
)
# sums as to_text writes them, some with a stray '_', '+', Arabic-Indic 3 or em space
object_texts = st.builds(
    _with_strays,
    st.lists(
        st.builds(str.__add__, st.sampled_from(["", "0*", "1*", "2*", "3*"]), summand_texts),
        min_size=1, max_size=4,
    ).map(" + ".join),
    st.lists(st.tuples(st.integers(0, 60), st.sampled_from("_+\u0663\u2003")), max_size=1),
)


def _main_out_err(*argv):
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(object_texts)
def test_decompose_object_roundtrips_or_exits_one(text):
    # any object text either fails with one JSON diagnostic, or its
    # tableau decodes back to the object's own text
    code, out, err = _main_out_err("decompose", "--object", text, "--format", "json")
    if code == 1:
        assert out == "" and sorted(json.loads(err)) == ["error", "message"]
        return
    assert code == 0 and err == ""
    tab = json.dumps(json.loads(out)["tableau"])
    code, out, err = _main_out_err("decompose", "--tableau", tab)
    assert (code, err) == (0, "")
    assert out.strip() == parse_object(text).to_text()


json_numbers = st.one_of(st.integers(0, 4), st.sampled_from([2.5, True, "2"]))
subscript_cells = st.fixed_dictionaries(
    {"entry": json_numbers, "row": json_numbers, "subs": st.lists(json_numbers, max_size=2)}
)
tableau_dicts = st.fixed_dictionaries(
    {"gammas": st.lists(st.lists(json_numbers, max_size=3), min_size=1, max_size=3)},
    optional={"subscripts": st.lists(subscript_cells, max_size=2)},
)


def _json_leaves(value):
    if isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _json_leaves(item)
    else:
        yield value


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tableau_dicts)
def test_decompose_tableau_json_roundtrips_or_exits_one(data):
    # tableau JSON either fails with one JSON diagnostic, or holds only
    # integers and its object's tableau is the tableau read from it
    code, out, err = _main_out_err("decompose", "--tableau", json.dumps(data), "--format", "json")
    if code == 1:
        assert out == "" and sorted(json.loads(err)) == ["error", "message"]
        return
    assert code == 0 and err == ""
    assert all(type(x) is int for x in _json_leaves(data))
    code, out, err = _main_out_err("decompose", "--object", json.loads(out)["text"], "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["tableau"] == KleinTableau.from_json(data).to_json()


# mostly partitions, else any parts: zero, negative, unsorted, empty or
# numerals that read_int refuses
part_texts = st.one_of(
    *[st.lists(st.integers(1, 3), max_size=4).map(lambda ps: sorted(ps, reverse=True))] * 3,
    st.lists(st.one_of(st.integers(-1, 3), st.just(""), odd_numerals), max_size=4),
).map(lambda parts: ",".join(map(str, parts)))


def _boxes(text):
    """Boxes of the parts that read as positive."""
    return sum(int(tok) for tok in text.split(",") if tok.isascii() and tok.isdigit())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 2, 2, 3, 3, 5, -2, 0, 1, 4, 9, 10**20]),
    part_texts.filter(lambda text: _boxes(text) <= 5),
    part_texts,
    part_texts,
    st.sampled_from([None, None, 16, 16, 1, 0]),
)
def test_oracle_hall_counts_or_exits_one(prime, beta, alpha, gamma, cap):
    # any prime, partition texts and subgroup cap either fail with one
    # JSON diagnostic, or count the Hall polynomial's value at the prime
    argv = ["oracle", "hall", f"--prime={prime}", f"--beta={beta}"]
    argv += [f"--alpha={alpha}", f"--gamma={gamma}"]
    if cap is not None:
        argv.append(f"--subgroup-cap={cap}")
    code, out, err = _main_out_err(*argv)
    if code == 1:
        assert out == "" and sorted(json.loads(err)) == ["error", "message"]
        return
    assert code == 0 and err == ""
    want = evaluate(hall_polynomial(parse(alpha), parse(beta), parse(gamma)).total, prime)
    assert int(out) == want


def _with_huge_part(text, i):
    """text with a part of 10^11 inserted before its i-th part."""
    parts = text.split(",") if text else []
    parts.insert(min(i, len(parts)), HUGE)
    return ",".join(parts)


type_texts = st.one_of(part_texts, st.builds(_with_huge_part, part_texts, st.integers(0, 4)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(type_texts, type_texts, type_texts)
def test_hall_and_lr_count_match_the_library_or_exit_one(beta, alpha, gamma):
    # any partition texts, a part of 10^11 among them, either fail at
    # once with one JSON diagnostic, or print the library's total and
    # LR tableau count
    flags = [f"--beta={beta}", f"--alpha={alpha}", f"--gamma={gamma}"]
    for argv, want in [
        (["hall"], lambda *t: hall_polynomial(*t).total.to_text()),
        (["tableaux", "lr", "--count"], lambda *t: str(len(enumerate_lr(*t)))),
    ]:
        start = time.monotonic()
        code, out, err = _main_out_err(*argv, *flags)
        assert time.monotonic() - start < 1, argv
        if code == 1:
            assert out == "" and sorted(json.loads(err)) == ["error", "message"]
            continue
        assert code == 0 and err == ""
        assert out.strip() == want(parse(alpha), parse(beta), parse(gamma))


# Klein tableau texts as ``to_text`` writes them; decompose refuses the
# last, with entries up to 3
KLEIN_TEXTS = [
    "-/1/2;2@2:1",
    "2/2,1/3,1;2@3:1",
    "1,1/2,2/3,2;2@3:2",
    "3,1,1/3,2,1,1/4,2,2,1;2@2:1,2@4:2",
    "2,1/3,2,1/4,2,2/4,3,2;2@2:1,2@4:3,3@3:2",
]
text_numbers = st.one_of(st.integers(0, 4), st.just(-1), st.just(HUGE), odd_numerals)
cell_texts = st.builds(
    "{}@{}:{}".format,
    text_numbers,
    text_numbers,
    st.lists(text_numbers, max_size=3).map(lambda subs: "+".join(map(str, subs))),
)


def _chain_text(gammas, cells, semicolon):
    """gammas joined by '/', then ';' and the cells joined by ','."""
    text = "/".join(gammas)
    return f"{text};{','.join(cells)}" if cells or semicolon else text


# real texts and chains of '-', empty or any partition texts (a part of
# 10^11 among them) with cells empty, repeated or of any numbers, each
# with up to two stray separators, spaces, '_', Arabic-Indic 3s or em spaces
tableau_texts = st.builds(
    _with_strays,
    st.one_of(
        st.sampled_from(KLEIN_TEXTS),
        st.builds(
            _chain_text,
            st.lists(st.one_of(st.sampled_from(["-", ""]), type_texts), min_size=1, max_size=4),
            st.lists(st.one_of(st.sampled_from(["2@2:1", "2@3:1+2"]), cell_texts), max_size=3),
            st.booleans(),
        ),
    ),
    st.lists(st.tuples(st.integers(0, 60), st.sampled_from(";,@:+ _\u0663\u2003")), max_size=2),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tableau_texts)
def test_decompose_tableau_text_roundtrips_or_exits_one(text):
    # tableau text either fails at once with one JSON diagnostic, or its
    # object's tableau is the tableau read from it
    start = time.monotonic()
    code, out, err = _main_out_err("decompose", "--tableau", text, "--format", "json")
    assert time.monotonic() - start < 1, text
    if code == 1:
        assert out == "" and sorted(json.loads(err)) == ["error", "message"]
        return
    assert code == 0 and err == ""
    code, out, err = _main_out_err("decompose", "--object", json.loads(out)["text"], "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["tableau"] == KleinTableau.from_text(text).to_json()


@pytest.mark.parametrize(
    "text, obj",
    [("", "0"), (";", "0"), ("-;", "0"), (" - ", "0"), ("- /1", "P(1,1)"), (" - / 1 ;", "P(1,1)")],
)
def test_tableau_text_edge_cases(capsys, text, obj):
    # the zero tableau is written '-' or '', and ';' may end a text with
    # no cells after it; spaces around '-' are read as around any part
    assert run(capsys, "decompose", "--tableau", text) == (0, obj + "\n", "")


def test_embed_gens_starting_with_dash(capsys):
    # a negative coordinate is taken modulo p^{beta_i}; a value starting
    # with '-' is read as the flag's value, joined or not, after the full
    # flag name or any abbreviation argparse accepts
    argv = ["embed", "type", "--prime", "2", "--beta", "2,1"]
    for gens in (["--gens", "-1,-1"], ["--gens=-1,-1"], ["--gen", "-1,-1"], ["--g", "-1,-1"]):
        assert run(capsys, *argv, *gens) == (0, "(2) <= (2,1) quotient (1)\n", "")
    # a value that is another flag is still a usage error
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--gens", "--format", "json"])
    assert exc.value.code == 2


# generator texts: negative, huge, empty or refused coordinates, any count of them
gens_texts = st.lists(
    st.lists(st.one_of(st.integers(-9, 9), st.just(10**30), st.just(""), odd_numerals), max_size=4)
    .map(lambda coords: ",".join(map(str, coords))),
    max_size=3,
).map(";".join)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from(["tableau", "lr", "type"]),
    st.sampled_from([2, 2, 2, 3, 3, 5, -2, 0, 1, 4, 9, 1048583, 10**20]),
    st.one_of(part_texts.filter(lambda text: _boxes(text) <= 5),
              st.builds(_with_huge_part, part_texts, st.integers(0, 4))),
    gens_texts,
    st.sampled_from([None, None, 0, 1, 8, 64]),
)
def test_embed_prints_or_exits_one(what, prime, beta, gens, cap):
    # any prime, partition text and generator text either print or fail
    # at once with one JSON diagnostic; --cap N reads as HALLKIT_CAP=N
    argv = ["embed", what, f"--prime={prime}", f"--beta={beta}", "--gens", gens]
    start = time.monotonic()
    got = _main_out_err(*argv, *([] if cap is None else [f"--cap={cap}"]))
    assert time.monotonic() - start < 1, argv
    code, out, err = got
    if code == 1:
        assert out == "" and sorted(json.loads(err)) == ["error", "message"]
    else:
        assert code == 0 and out and err == ""
    if cap is not None:
        with mock.patch.dict(os.environ, {"HALLKIT_CAP": str(cap)}):
            assert _main_out_err(*argv) == got


@pytest.mark.parametrize(
    "argv, text",
    [
        (("hall", "--beta", "1_0", "--alpha", "1_0"), "1_0"),
        (("hall", "--beta", "\u0663", "--alpha", "\u0663"), "\u0663"),
        (("decompose", "--tableau", "+2/+2,1/3,1;2@3:1"), "+2"),
        (("decompose", "--object", "P(1,\u0663)"), "\u0663"),
        (("embed", "type", "--prime", "2", "--beta", "2,1", "--gens", "1_1,0"), "1_1"),
    ],
)
def test_non_canonical_numerals_exit_one(capsys, argv, text):
    # every text reader reads its numbers by read_int: no '_', '+' or
    # other scripts' digits
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError", "message": f"not an integer: {text!r}"}


@pytest.mark.parametrize(
    "flags",
    [
        ("embed", "type", "--beta", "2,1", "--gens", "1,0", "--prime", "\u0662"),
        ("oracle", "hall", "--beta", "2,1", "--prime", "\u0662"),
        ("verify", "--suite", "theorem2", "--prime", "\u0662"),
        ("verify", "--suite", "theorem2", "--seed", "1_0"),
        ("verify", "--suite", "theorem2", "--count", "\u0663"),
    ],
)
def test_non_canonical_flag_numbers_exit_two(capsys, flags):
    # an integer flag reads its value by read_int, as a usage error
    with pytest.raises(SystemExit) as exc:
        main(list(flags))
    assert exc.value.code == 2
    assert f"not an integer: {flags[-1]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("env", ["HALLKIT_CAP", "HALLKIT_SUBGROUP_CAP"])
@pytest.mark.parametrize("text", ["1_6", "+16", "\u0661\u0666", "", "16.0"])
def test_non_canonical_cap_env_exits_one(capsys, monkeypatch, env, text, cold):
    # the caps read their environment variables by read_int too: a value
    # it refuses is one JSON diagnostic naming the variable, not a cap
    monkeypatch.setenv(env, text)
    code, out, err = run(capsys, "oracle", "hall", "--prime", "2", "--beta", "2,1", "--alpha", "1")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError", "message": f"{env}: not an integer: {text!r}"}
    monkeypatch.setenv(env, " 16 ")
    assert run(capsys, "oracle", "hall", "--prime", "2", "--beta", "2,1", "--alpha", "1")[0] == 0


def test_wide_diagram_renders_in_linear_time(capsys):
    # 40,000 copies of P(1,1): one row of 40,000 boxes, built from one
    # summand tableau and one walk per column
    start = time.monotonic()
    code, out, _ = run(capsys, "decompose", "--object", "40000*P(1,1)")
    assert time.monotonic() - start < 3
    assert code == 0
    text, row = out.rstrip("\n").split("\n")
    assert text == "-/" + ",".join(["1"] * 40000)
    assert row == "  ".join(["1"] * 40000)


def test_bad_partition_exits_one(capsys):
    code, _, err = run(capsys, "hall", "--alpha", "1,2", "--beta", "2,1", "--gamma", "")
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["hall", "--alpha", "1"])  # missing required --beta
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("verify", "--suite", "theorem2", "--count", "-3"),
        ("verify", "--suite", "hall", "--max-beta", "-1"),
        ("verify", "--suite", "roundtrip", "--cap", "-3"),
        ("embed", "tableau", "--prime", "2", "--beta", "2,1", "--cap", "-1"),
        ("oracle", "hall", "--beta", "2,1", "--subgroup-cap", "-1"),
        ("verify", "--count", "x"),
    ],
)
def test_negative_verify_sizes_exit_two(capsys, flags):
    # sizes and caps are checked at parse time, like every usage error
    with pytest.raises(SystemExit) as exc:
        main(list(flags))
    assert exc.value.code == 2
    want = "not an integer: 'x'" if flags[-1] == "x" else "must be >= 0"
    assert want in capsys.readouterr().err


def test_verify_single_fast_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "theorem2", "--count", "6", "--seed", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["suites"][0]["suite"] == "theorem2"


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "hallkit", "hall", "--alpha", "3,2,1", "--beta", "4,3,2", "--gamma", "2,1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "2*q^2 + q - 1"


def test_tableaux_listing_text_and_json(capsys):
    # each tableau in text form, followed by its ASCII diagram
    code, out, _ = run(capsys, "tableaux", "klein", "--alpha", "3,2,1", "--beta", "4,3,2", "--gamma", "2,1")
    assert code == 0
    assert out == (
        "2,1/3,2,1/3,3,2/4,3,2;2@2:1,2@3:2,3@4:2\n"
        ".    .    1\n.    1    2_1\n1    2_2\n3_2\n"
        "2,1/3,2,1/3,3,2/4,3,2;2@2:1,2@3:2,3@4:3\n"
        ".    .    1\n.    1    2_1\n1    2_2\n3_3\n"
        "2,1/3,2,1/4,2,2/4,3,2;2@2:1,2@4:3,3@3:2\n"
        ".    .    1\n.    1    2_1\n1    3_2\n2_3\n"
    )
    code, out, _ = run(
        capsys, "tableaux", "lr", "--alpha", "3,2,1", "--beta", "4,3,2", "--gamma", "2,1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "tableaux": [
            {"gammas": [[2, 1], [3, 2, 1], [3, 3, 2], [4, 3, 2]]},
            {"gammas": [[2, 1], [3, 2, 1], [4, 2, 2], [4, 3, 2]]},
        ]
    }
    code, out, _ = run(capsys, "tableaux", "klein", "--alpha", "5", "--beta", "4,3,2", "--gamma", "2,1,1")
    assert (code, out) == (0, "(none)\n")


def test_embed_lr_text_and_json(capsys):
    argv = ("embed", "lr", "--prime", "2", "--beta", "4,2", "--gens", "4,2")
    assert run(capsys, *argv) == (0, "3,1/3,2/4,2\n", "")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out) == {"gammas": [[3, 1], [3, 2], [4, 2]]}


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_one_quietly(unbuffered):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # the read end is closed before the spawn, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hallkit", "hall", "--alpha", "3,2,1", "--beta", "4,3,2",
             "--gamma", "2,1", "--per-tableau"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""
