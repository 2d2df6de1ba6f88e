import gc
import random
import re
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hallkit import tableaux
from hallkit.caps import limits
from hallkit.embeddings import klein_tableau, realize
from hallkit.errors import CapExceeded, EntryTooLarge, NoRefinement, RangeError
from hallkit.hall import dominant_refinement, hall_multiplicity, hall_multiplicity_factored, lr_multiplicity
from hallkit.partitions import conjugate, contains, partitions_of, row_length
from hallkit.qforms import QPolynomial
from hallkit.s2cat import (
    Bipicket,
    enumerate_objects,
    hom_len_tableau,
    object_of_tableau,
    tableau_of_object,
)
from hallkit.tableaux import (
    KleinTableau,
    LRTableau,
    ascii_diagram,
    direct_sum_tableau,
    enumerate_klein,
    enumerate_klein_entries2,
    enumerate_klein_refinements,
    enumerate_lr,
    restrict,
    tableau_type,
    validate_klein,
    validate_lr,
)

# the worked-example tableau and its two siblings
PI_2 = KleinTableau.make(
    [(2, 1), (3, 2, 1), (3, 3, 2), (4, 3, 2)],
    {(2, 2): [1], (2, 3): [2], (3, 4): [2]},
)
PI_3 = KleinTableau.make(
    [(2, 1), (3, 2, 1), (3, 3, 2), (4, 3, 2)],
    {(2, 2): [1], (2, 3): [2], (3, 4): [3]},
)
PI_1 = KleinTableau.make(
    [(2, 1), (3, 2, 1), (4, 2, 2), (4, 3, 2)],
    {(2, 2): [1], (2, 4): [3], (3, 3): [2]},
)


def test_validate_lr_examples():
    ok, _ = validate_lr([(2, 1), (3, 2, 1), (3, 3, 2), (4, 3, 2)])
    assert ok
    ok, _ = validate_lr([(3, 1), (3, 1)])
    assert ok
    ok, reason = validate_lr([(), (2,)])
    assert not ok and "horizontal" in reason


def test_validate_lr_lattice_violation():
    # second strip larger than the first in a trailing column
    ok, reason = validate_lr([(1,), (2,), (2, 1)])
    assert not ok and "lattice" in reason


@pytest.mark.parametrize(
    "gammas, reason",
    [
        ([(1, 2)], "not a partition chain: parts must be weakly decreasing: (1, 2)"),
        ([], "empty chain"),
        ([(2,), (1,)], "chain not weakly increasing at level 1"),
        ([(), (2,)], "strip 1 is not horizontal"),
        ([(1,), (2,), (2, 1)], "lattice permutation fails at level 2"),
        ([(), (1,), (2,), (2, 1)], "lattice permutation fails at level 3"),
    ],
)
def test_validate_lr_reasons(gammas, reason):
    assert validate_lr(gammas) == (False, reason)


# the worked-example chain; its entry-2 boxes in rows 2 and 3 sit on
# entry-1 boxes, so their subscripts 1 and 2 are forced
CHAIN = [(2, 1), (3, 2, 1), (3, 3, 2), (4, 3, 2)]


def _raw(gammas, cells=None):
    """The tableau that make would build from these fields, unchecked,
    for tests that hand the validator input it refuses."""
    gs = tuple(map(tuple, gammas))
    return tableaux._unchecked(gs, tableaux._levels(gs, cells or {}))


@pytest.mark.parametrize(
    "tab, reason",
    [
        # built unchecked, a tableau can carry a level past its last entry
        (tableaux._unchecked(((1,), (2,)), (((2, (1,)),),)), "1 subscript levels for entries 2..1"),
        (
            tableaux._unchecked(tuple(CHAIN), (((2, (1,)), (3, (2, 1))), ((4, (2,)),))),
            "cell (2,3) subscripts not weakly increasing",
        ),
        (_raw(CHAIN, {(2, 2): [1], (2, 3): [2]}), "cell (3,4) has 0 subscripts, needs 1"),
        (
            _raw(CHAIN, {(2, 1): [1], (2, 2): [1], (2, 3): [2], (3, 4): [2]}),
            "cell (2,1) has 1 subscripts, needs 0",
        ),
        (
            _raw(CHAIN, {(2, 2): [2], (2, 3): [2], (3, 4): [2]}),
            "cell (2,2) subscript out of range (ii)",
        ),
        (
            _raw(CHAIN, {(2, 2): [1], (2, 3): [1], (3, 4): [2]}),
            "cell (2,3) misses forced subscript 2 (iii)",
        ),
        (
            _raw(CHAIN, {(2, 2): [1], (2, 3): [2], (3, 4): [1]}),
            "too many symbols 3_1 for row 1 (iv)",
        ),
        (_raw([(1,), (2,), (2, 1)]), "lattice permutation fails at level 2"),
    ],
)
def test_validate_klein_reasons(tab, reason):
    assert validate_klein(tab) == (False, reason)
    # the constructor refuses the same fields with the same reason
    with pytest.raises(ValueError, match=f"^{re.escape('not a Klein tableau: ' + reason)}$"):
        KleinTableau(tab.gammas, tab.levels)


def test_make_refuses_cells_outside_the_entries():
    # a subscript cell's entry must lie in 2..e, whatever builds the tableau
    with pytest.raises(ValueError, match=r"^subscript cell for entry 2 outside 2\.\.1$"):
        KleinTableau.make([(1,), (2,)], {(2, 2): [1]})
    with pytest.raises(ValueError, match=r"^subscript cell for entry 1 outside 2\.\.2$"):
        KleinTableau.make([(), (1,), (2,)], {(1, 1): [1]})
    # an empty chain is refused as such before any cell's entry range
    with pytest.raises(ValueError, match=r"^an LR tableau needs at least one partition$"):
        KleinTableau.make([], {(2, 2): [1]})
    # an empty cell is dropped, not checked; every entry 2..e gets a level
    tab = KleinTableau.make([(), (1,), (2,), (2,)], {(5, 1): [], (2, 2): [1]})
    assert tab.levels == (((2, (1,)),), ())
    assert list(tab.cells()) == [(2, 2, (1,))]


def test_tableau_type_examples():
    tab = LRTableau(((2, 1), (3, 2, 1), (3, 3, 2), (4, 3, 2)))
    assert tableau_type(tab) == ((3, 2, 1), (4, 3, 2), (2, 1))
    assert tableau_type(LRTableau(((3, 1),))) == ((), (3, 1), (3, 1))
    assert tableau_type(LRTableau(((3, 1), (3, 2), (4, 2)))) == ((2,), (4, 2), (3, 1))


def test_enumerate_lr_examples():
    assert len(enumerate_lr((3, 2, 1), (4, 3, 2), (2, 1))) == 2
    tabs = enumerate_lr((1,), (2,), (1,))
    assert len(tabs) == 1 and tabs[0].gammas == ((1,), (2,))
    assert enumerate_lr((5,), (4, 3, 2), (2, 1)) == ()


def test_enumerate_lr_outputs_have_requested_type():
    for n in range(7):
        for beta in partitions_of(n):
            for k in range(n + 1):
                for alpha in partitions_of(k):
                    for gamma in partitions_of(n - k):
                        for tab in enumerate_lr(alpha, beta, gamma):
                            ok, reason = validate_lr(tab.gammas)
                            assert ok, reason
                            assert tableau_type(tab) == (alpha, beta, gamma)


def _unpruned_chains(beta, sizes):
    """Every chain down from beta that removes, at level ell, each 0/1
    drop of the columns with sizes[ell-1] boxes and leaves a partition,
    kept when validate_lr accepts it, sorted."""
    n = len(beta)
    chains = [(beta,)]
    for size in reversed(sizes):
        lower = []
        for chain in chains:
            top = chain[0] + (0,) * (n - len(chain[0]))
            for drops in product((0, 1), repeat=n):
                lam = [v - d for v, d in zip(top, drops)]
                if sum(drops) == size and min(lam, default=0) >= 0 and lam == sorted(lam, reverse=True):
                    lower.append((tuple(x for x in lam if x),) + chain)
        chains = lower
    return sorted(gs for gs in chains if validate_lr(gs)[0])


def test_lr_chains_match_unpruned_walk(monkeypatch, cold):
    # the lattice, room and column cuts of the climb table lose no chain,
    # and a type outside the size and containment check has none
    strips, walked = tableaux._strips_up, []
    monkeypatch.setattr(tableaux, "_strips_up", lambda *args: walked.append(args) or strips(*args))
    triples = chains = zero = rejected = 0
    for n in range(9):
        for beta in partitions_of(n):
            for k in range(n + 1):
                for alpha in partitions_of(k):
                    by_base: dict = {}
                    for gs in _unpruned_chains(beta, conjugate(alpha)):
                        by_base.setdefault(gs[0], []).append(gs)
                    for gamma in partitions_of(n - k):
                        steps = len(walked)
                        got = [lr.gammas for lr in enumerate_lr(alpha, beta, gamma)]
                        assert got == by_base.get(gamma, []), (alpha, beta, gamma)
                        triples, chains = triples + 1, chains + len(got)
                        zero += not got
                        rejected += not got and len(walked) == steps
    assert (triples, chains) == (6830, 1351)
    # the size and containment check rejects most zero types without a walk
    assert (zero, rejected) == (5500, 5010)


def test_entries2_chains_match_unpruned_walk():
    # with no floor and no slack, the strip walker loses no chain of at
    # most 2 strips whose top strip is nonempty
    total = 0
    for n in range(11):
        for beta in partitions_of(n):
            a_max = len(beta) + 1
            sizes = [()] + [(a,) for a in range(1, a_max + 1)]
            sizes += [(a, b) for a in range(1, a_max + 1) for b in range(1, a + 1)]
            want = {gs for s in sizes for gs in _unpruned_chains(beta, s)}
            assert {tab.gammas for tab in enumerate_klein_entries2(beta)} == want, beta
            total += len(want)
    assert total == 3065


def test_strips_yield_their_own_suffix_counts(monkeypatch, cold):
    # every strip the walker yields comes with the suffix counts of its
    # skew, padded to len(beta) + 1, as the entries-<=2 enumerator and
    # then enumerate_lr climb beta's one table (enumerate_lr walks only
    # the states that the former left unclimbed)
    up, seen = tableaux._strips_up, {"up": 0}

    def checked_up(lam, top, size, above):
        for mu, suffix in up(lam, top, size, above):
            assert suffix == tableaux._suffix_counts(tableaux._padded(mu, len(top)), lam), (mu, lam)
            seen["up"] += 1
            yield mu, suffix

    monkeypatch.setattr(tableaux, "_strips_up", checked_up)
    for n in range(9):
        for beta in partitions_of(n):
            tableaux._entries2.__wrapped__(beta)  # past the per-beta memo
            for k in range(n + 1):
                for alpha in partitions_of(k):
                    for gamma in partitions_of(n - k):
                        enumerate_lr(alpha, beta, gamma)
    assert seen == {"up": 1338}


def test_entries2_walk_work(monkeypatch, cold):
    # every beta with |beta| <= 12, past the per-beta memo: one table
    # climbed per beta makes 10,050 walker calls in 11,532 reads of a
    # type, each bottom asked only for t >= its two-box columns; 2,494
    # reads find no chain (the strip sizes bounded by hand per bottom
    # made 8,400 walker calls)
    strips, chains, calls, reads = tableaux._strips_up, tableaux._chains, [], []

    def counted(*args):
        got = chains(*args)
        reads.append(len(got))
        return got

    monkeypatch.setattr(tableaux, "_strips_up", lambda *args: calls.append(1) or strips(*args))
    monkeypatch.setattr(tableaux, "_chains", counted)
    betas = [beta for n in range(13) for beta in partitions_of(n)]
    total = sum(len(tableaux._entries2.__wrapped__(beta)) for beta in betas)
    assert (len(betas), total, len(calls)) == (272, 10158, 10050)
    assert (len(reads), reads.count(0)) == (11532, 2494)
    assert tableaux._climbs.cache_info().misses == 272


def test_chains_leave_the_table_sorted(cold):
    # every type with |beta| <= 9 reads its chains sorted with no sort of
    # its own, from a cold table and from one that every other type of
    # beta warmed first, in reverse order: the chain order is the table's,
    # fixed where _climb tables a state, whichever type climbs it
    for n in range(10):
        for beta in partitions_of(n):
            inside = [a for k in range(n + 1) for a in partitions_of(k) if contains(beta, a)]
            types = [(a, g) for a in inside for g in inside if sum(a) + sum(g) == n]
            for i, (alpha, gamma) in enumerate(types):
                cold()
                chains = tableaux._chains(beta, alpha, gamma)
                assert chains == sorted(chains), (alpha, beta, gamma)
                cold()
                for other in reversed(types[:i] + types[i + 1 :]):
                    tableaux._chains(beta, *other)
                warm = tableaux._chains(beta, alpha, gamma)
                assert warm == sorted(warm) == chains, (alpha, beta, gamma)


def test_entries2_enumerator_ignores_the_diagram_cap(cold):
    # cold memos and a diagram cap of 0: the entries-<=2 enumerator reads
    # its chains past enumerate_lr's cap check, so every beta with
    # |beta| <= 12 still gives its tableaux
    with limits(general=0):
        total = sum(len(enumerate_klein_entries2(b)) for n in range(13) for b in partitions_of(n))
    assert total == 10158


def test_lr_walk_work_on_the_sweep_beta(monkeypatch, cold):
    # every type inside (5,4,3,2,1,1), as the hall_sweep benchmark walks
    # them, from a cleared table: each climb state is walked once, 1,807
    # successor calls (a fresh upward walk per type made 7,168, the walk
    # down from beta to the floor gamma 11,621)
    beta = (5, 4, 3, 2, 1, 1)
    inside = [a for k in range(sum(beta) + 1) for a in partitions_of(k) if contains(beta, a)]
    types = [(a, g) for a in inside for g in inside if sum(a) + sum(g) == sum(beta)]
    strips, calls = tableaux._strips_up, []
    monkeypatch.setattr(tableaux, "_strips_up", lambda *args: calls.append(1) or strips(*args))
    chains = sum(len(enumerate_lr(alpha, beta, gamma)) for alpha, gamma in types)
    assert (len(types), chains) == (1808, 2208)
    assert len(calls) <= 1807, len(calls)
    assert tableaux._climbs.cache_info().misses == 1


def _fresh_strips_up(lam, top, lower, size, above):
    """The strip walker with the lattice bound ``lower`` inside it, as
    the fresh walk per type called it: each (mu, suffix) of a strip of
    size boxes on lam inside top, suffix at most lower, that the above
    strips still to come can fill up to top."""
    low = lam + (0,) * (len(top) - len(lam))
    stack = [(len(top), size, 0, (0, 0, None))]
    while stack:
        i, remaining, room, fixed = stack.pop()
        s = fixed[1]
        if remaining > i or s > lower[i] or room > above * s:
            continue
        if not i:
            parts, suffix = [], []
            while fixed:
                v, t, fixed = fixed
                if v:
                    parts.append(v)
                suffix.append(t)
            yield tuple(parts), tuple(suffix)
            continue
        i -= 1
        v, gap = low[i], top[i] - low[i]
        if gap <= above and v >= fixed[0]:
            stack.append((i, remaining, room + gap, (v, s, fixed)))
        if remaining and 0 < gap <= above + 1:
            stack.append((i, remaining - 1, room + gap - 1, (v + 1, s + 1, fixed)))


def _fresh_lr(alpha, beta, gamma):
    """The reference: one depth-first walk per type, each strip bounded
    by the suffix counts of the strip below it; the sorted chains."""
    if sum(alpha) + sum(gamma) != sum(beta) or not (contains(beta, alpha) and contains(beta, gamma)):
        return []
    sizes = conjugate(alpha)
    e = len(sizes)
    chains = []
    stack = [(0, (gamma,), (len(beta),) * (len(beta) + 1))]
    while stack:
        ell, chain, lower = stack.pop()
        if ell == e:
            chains.append(chain)
            continue
        for mu, suffix in _fresh_strips_up(chain[-1], beta, lower, sizes[ell], e - ell - 1):
            stack.append((ell + 1, chain + (mu,), suffix))
    return sorted(chains)


def test_climb_table_matches_a_fresh_walk_per_type(cold):
    # every type with |beta| <= 9, in order, read first from a cleared
    # table (which the types of each beta fill as they go) and then from
    # the warm one, before the next beta's table replaces it, gives the
    # chains of a fresh walk per type
    for n in range(10):
        for beta in partitions_of(n):
            triples = [
                (alpha, beta, gamma)
                for k in range(n + 1)
                for alpha in partitions_of(k)
                for gamma in partitions_of(n - k)
            ]
            want = [_fresh_lr(*t) for t in triples]
            for _ in ("cold", "warm"):
                assert [[lr.gammas for lr in enumerate_lr(*t)] for t in triples] == want
    # item 16's triples at |beta| = 27, 36 and 45
    for alpha, beta, gamma, count in [
        ((4, 3, 2, 2, 1), (6, 6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1), 49),
        ((6, 5, 4, 3, 2), (8, 7, 6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1, 1), 392),
        ((6, 5, 4, 3, 2, 1), tuple(range(9, 0, -1)), (6, 5, 4, 3, 3, 2, 1), 3700),
    ]:
        got = [lr.gammas for lr in enumerate_lr(alpha, beta, gamma)]
        assert len(got) == count and got == _fresh_lr(alpha, beta, gamma)


def test_deep_chains_are_walked_in_linear_time():
    # a chain of 40,000 one-box strips is built once, at its leaf; so is
    # one strip over 40,000 columns
    beta, ones = (40000,), (1,) * 40000
    start = time.process_time()
    (lr,) = enumerate_lr(beta, beta, ())
    middle = time.process_time()
    (wide,) = enumerate_lr(ones, ones, ())
    end = time.process_time()
    assert lr.gammas == ((),) + tuple((k,) for k in range(1, 40001))
    assert wide.gammas == ((), ones)
    assert middle - start < 1 and end - middle < 1


def test_climb_table_lives_while_its_beta_is_read(cold):
    # the 40,000 climb states of a deep chain go once a type of another
    # beta is walked: only the table of the beta being read is kept
    tracemalloc.start()
    try:
        with limits(general=10**6):
            enumerate_lr((40000,), (40000,), ())
        assert len(enumerate_lr((2, 1), (3, 2, 1), (2, 1))) == 2
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 2 * 10**6, kept


def test_klein_refinement_examples():
    lr = LRTableau(((2, 1), (3, 2, 1), (3, 3, 2), (4, 3, 2)))
    refinements = enumerate_klein_refinements(lr)
    assert refinements == (PI_2, PI_3)
    # pickets refine uniquely: all subscripts forced to row - 1
    picket_lr = LRTableau(((3,), (4,), (5,)))
    (only,) = enumerate_klein_refinements(picket_lr)
    assert only.levels == (((5, (4,)),),)
    # the bipicket tableau has the unique subscript r = 2
    (only,) = enumerate_klein_refinements(LRTableau(((3, 1), (3, 2), (4, 2))))
    assert only.levels == (((4, (2,)),),)


def test_enumerate_klein_examples():
    assert enumerate_klein((3, 2, 1), (4, 3, 2), (2, 1)) == (PI_2, PI_3, PI_1)
    assert len(enumerate_klein((1,), (1,), ())) == 1
    assert len(enumerate_klein((2, 1), (2, 1), ())) == 1


def test_tall_strip_reads_only_its_capped_rows(monkeypatch, cold):
    # one level whose strips sit at height 10^7: the subscripts are drawn
    # from the rows that hold caps, with no scan of the rows below
    m = 10**7
    # the diagram of beta = (m) is over the default general cap
    monkeypatch.setenv("HALLKIT_CAP", str(m))
    start = time.monotonic()
    (only,) = enumerate_klein((2,), (m,), (m - 2,))
    assert time.monotonic() - start < 0.5
    assert only.levels == (((m, (m - 1,)),),)


def test_enumerated_klein_tableaux_are_valid_and_typed():
    for n in range(7):
        for beta in partitions_of(n):
            for k in range(n + 1):
                for alpha in partitions_of(k):
                    for gamma in partitions_of(n - k):
                        for tab in enumerate_klein(alpha, beta, gamma):
                            ok, reason = validate_klein(tab)
                            assert ok, reason
                            assert tableau_type(tab) == (alpha, beta, gamma)


def test_every_lr_tableau_has_a_refinement():
    for n in range(8):
        for beta in partitions_of(n):
            for k in range(n + 1):
                for alpha in partitions_of(k):
                    for gamma in partitions_of(n - k):
                        for lr in enumerate_lr(alpha, beta, gamma):
                            assert enumerate_klein_refinements(lr)


def _brute_force_refinements(lr):
    """Every product of per-cell subscript multisets (from product over
    1..m-1, sorted and de-duplicated) that validate_klein accepts, sorted
    by subscripts."""
    gs = lr.gammas
    cells = []
    for ell in range(2, len(gs)):
        for m in range(1, max(gs[ell], default=0) + 1):
            k = row_length(gs[ell], m) - row_length(gs[ell - 1], m)
            if k:
                options = sorted({tuple(sorted(t)) for t in product(range(1, m), repeat=k)})
                cells.append([((ell, m), subs) for subs in options])
    tabs = (_raw(gs, dict(combo)) for combo in product(*cells))
    return sorted((t for t in tabs if validate_klein(t)[0]), key=lambda t: list(t.cells()))


def test_klein_refinements_match_brute_force():
    # complete and in canonical order, for every LR tableau with |beta| <= 7
    lrs = tabs = 0
    for n in range(8):
        for beta in partitions_of(n):
            for k in range(n + 1):
                for alpha in partitions_of(k):
                    for gamma in partitions_of(n - k):
                        for lr in enumerate_lr(alpha, beta, gamma):
                            got = enumerate_klein_refinements(lr)
                            assert list(got) == _brute_force_refinements(lr), lr
                            lrs, tabs = lrs + 1, tabs + len(got)
    assert (lrs, tabs) == (637, 642)


def test_restrict_worked_example():
    # one symbol 2_2 in row 4 after dropping to the top two strips
    expected = KleinTableau.make(
        [(3, 2, 1), (3, 3, 2), (4, 3, 2)], {(2, 4): [2]}
    )
    assert restrict(PI_2, 3, 2) == expected
    assert restrict(PI_2, 3, 3) == PI_2  # identity at full depth
    assert restrict(PI_2, 4, 1) == KleinTableau.make([(4, 3, 2), (4, 3, 2)])


def test_restrict_range_errors():
    with pytest.raises(RangeError):
        restrict(PI_2, 5, 1)
    with pytest.raises(RangeError):
        restrict(PI_2, 2, 3)


def test_restrictions_of_valid_tableaux_are_valid():
    for tab in enumerate_klein((3, 2, 1), (4, 3, 2), (2, 1)):
        for ell in range(2, tab.e + 1):
            ok, reason = validate_klein(restrict(tab, ell, 2))
            assert ok, reason


def test_valid_iff_all_two_restrictions_valid():
    # randomized converse: arbitrary subscript assignments on a valid chain
    rng = random.Random(7)
    lr = LRTableau(((2, 1), (3, 2, 1), (3, 3, 2), (4, 3, 2)))
    cells = [(2, 2, 1), (2, 3, 1), (3, 4, 1)]  # (entry, row, box count)
    for _ in range(200):
        subs = {
            (ell, m): [rng.randrange(1, m) for _ in range(cnt)]
            for ell, m, cnt in cells
        }
        tab = _raw(lr.gammas, subs)
        whole, _ = validate_klein(tab)
        parts = all(
            validate_klein(restrict(tab, ell, 2))[0] for ell in range(2, tab.e + 1)
        )
        assert whole == parts


def test_direct_sum_examples():
    from hallkit.s2cat import Bipicket, Picket, S2Object, tableau_of_object

    t42 = tableau_of_object(S2Object.of(Bipicket(4, 2)))
    p13 = tableau_of_object(S2Object.of(Picket(1, 3)))
    total = direct_sum_tableau(t42, p13)
    assert total == KleinTableau.make(
        [(3, 2, 1), (3, 3, 2), (4, 3, 2)], {(2, 4): [2]}
    )
    empty = KleinTableau.make([()])
    assert direct_sum_tableau(total, empty) == total
    primed = direct_sum_tableau(
        direct_sum_tableau(
            tableau_of_object(S2Object.of(Picket(2, 4))),
            tableau_of_object(S2Object.of(Picket(0, 3))),
        ),
        tableau_of_object(S2Object.of(Picket(1, 2))),
    )
    assert primed == KleinTableau.make(
        [(3, 2, 1), (3, 3, 2), (4, 3, 2)], {(2, 4): [3]}
    )


def test_direct_sum_commutative_associative():
    tabs = enumerate_klein_entries2((3, 2))
    for a in tabs:
        for b in tabs:
            assert direct_sum_tableau(a, b) == direct_sum_tableau(b, a)
    a, b, c = tabs[0], tabs[len(tabs) // 2], tabs[-1]
    assert direct_sum_tableau(direct_sum_tableau(a, b), c) == direct_sum_tableau(
        a, direct_sum_tableau(b, c)
    )
    assert direct_sum_tableau(a, b, c) == direct_sum_tableau(direct_sum_tableau(a, b), c)
    assert direct_sum_tableau() == KleinTableau.make([()])
    assert direct_sum_tableau(c) == c


def test_entries2_enumerator_matches_type_enumerator():
    for n in range(7):
        for beta in partitions_of(n):
            direct = set(enumerate_klein_entries2(beta))
            by_type = set()
            for k in range(n + 1):
                for alpha in partitions_of(k, max_part=2):
                    for gamma in partitions_of(n - k):
                        by_type.update(enumerate_klein(alpha, beta, gamma))
            assert direct == by_type


def test_entries2_enumerator_is_complete():
    # the reference is the object bijection, independent of the strip walker
    by_top: dict = {}
    for obj in enumerate_objects(8):
        tab = tableau_of_object(obj)
        by_top.setdefault(tab.beta, set()).add(tab)
    for n in range(9):
        for beta in partitions_of(n):
            assert set(enumerate_klein_entries2(beta)) == by_top.get(beta, set())


def test_klein_count_at_least_lr_count():
    for n in range(7):
        for beta in partitions_of(n):
            for k in range(n + 1):
                for alpha in partitions_of(k):
                    for gamma in partitions_of(n - k):
                        nlr = len(enumerate_lr(alpha, beta, gamma))
                        nk = len(enumerate_klein(alpha, beta, gamma))
                        assert nk >= nlr


def test_text_and_json_roundtrip():
    for tab in (PI_1, PI_2, PI_3, KleinTableau.make([()]), KleinTableau.make([(3, 1)])):
        assert KleinTableau.from_text(tab.to_text()) == tab
        assert KleinTableau.from_json(tab.to_json()) == tab


def test_overflowing_json_numbers_are_value_errors():
    # json reads 1e400 as float infinity, which is no JSON integer
    inf = float("1e400")
    cases = [
        {"gammas": [[inf]]},
        {"gammas": [[2], [2]], "subscripts": [{"entry": 2, "row": 2, "subs": [inf]}]},
        {"gammas": [[2], [2]], "subscripts": [{"entry": 2, "row": inf, "subs": [1]}]},
    ]
    for data in cases:
        with pytest.raises(ValueError, match="^malformed tableau JSON"):
            KleinTableau.from_json(data)


def test_json_shape():
    assert PI_2.to_json() == {
        "gammas": [[2, 1], [3, 2, 1], [3, 3, 2], [4, 3, 2]],
        "subscripts": [
            {"entry": 2, "row": 2, "subs": [1]},
            {"entry": 2, "row": 3, "subs": [2]},
            {"entry": 3, "row": 4, "subs": [2]},
        ],
    }


def test_lr_chain_renders_as_the_klein_text_without_subscripts():
    # a Klein tableau's text and JSON extend its LR chain's
    lr = LRTableau(PI_2.gammas)
    assert lr.to_text() == str(lr) == "2,1/3,2,1/3,3,2/4,3,2"
    assert PI_2.to_text() == lr.to_text() + ";2@2:1,2@3:2,3@4:2"
    assert lr.to_json() == {"gammas": PI_2.to_json()["gammas"]}
    assert LRTableau(((), (1,))).to_text() == "-/1"


def test_enumeration_is_deterministic():
    first = enumerate_klein((3, 2, 1), (4, 3, 2), (2, 1))
    second = enumerate_klein((3, 2, 1), (4, 3, 2), (2, 1))
    assert first == second
    keys = [(t.gammas, list(t.cells())) for t in first]
    assert keys == sorted(keys)


def test_ascii_diagram_examples():
    # columns are parts, '.' marks the base, subscripts go to their
    # columns left to right, and each row stops at its last box
    tab = KleinTableau.from_text("3,2,1/3,3,2/4,3,2;2@4:2")
    assert ascii_diagram(tab) == ".    .    .\n.    .    1\n.    1\n2_2"
    tab = KleinTableau.from_text("-/1,1/2,2;2@2:1+1")
    assert ascii_diagram(tab) == "1    1\n2_1  2_1"
    assert ascii_diagram(LRTableau(((),))) == "(empty)"


def test_ascii_diagram_is_bounded_by_the_general_cap(monkeypatch, cold):
    # a diagram with more boxes than the general cap is refused before any
    # row is built
    tab = KleinTableau.from_text("3,2,1/3,3,2/4,3,2;2@4:2")
    monkeypatch.setenv("HALLKIT_CAP", "9")
    assert ascii_diagram(tab).endswith("2_2")
    monkeypatch.setenv("HALLKIT_CAP", "8")
    with pytest.raises(CapExceeded, match="diagram of 9 boxes exceeds cap 8"):
        ascii_diagram(tab)


def test_constructors_refuse_what_the_validators_refuse():
    # a chain that is no LR tableau, and a level that is no subscript
    # choice of its chain, are refused where the tableau is built
    with pytest.raises(NoRefinement, match=r"^not an LR tableau: chain not weakly increasing at level 1$"):
        LRTableau(((2,), (1,)))
    for build in (
        lambda: KleinTableau.from_text("1,1/2,1/2,2"),
        lambda: KleinTableau.from_json({"gammas": [[1, 1], [2, 1], [2, 2]]}),
    ):
        with pytest.raises(ValueError, match=r"^not a Klein tableau: lattice permutation fails at level 2$"):
            build()
    with pytest.raises(ValueError, match=r"^not a Klein tableau: cell \(2,3\) misses forced subscript 2 \(iii\)$"):
        KleinTableau.make([(1,), (2,), (3,)], {(2, 3): [1]})
    # built directly, levels must have make's form, and gammas must be
    # partition's canonical tuples
    for levels in ((((2, (1,)), (2, (1,))),), (((3, (2,)), (2, (1,))),), (((2, ()), (3, (2,))),)):
        with pytest.raises(ValueError, match="level 2 is not one nonempty cell per row, rows increasing"):
            KleinTableau(tuple(CHAIN[:3]), levels)
    for gammas in (((2, 0),), [(2,)], ([2],)):
        for cls in (LRTableau, KleinTableau):
            with pytest.raises(ValueError, match="gammas are not a tuple of canonical partitions"):
                cls(gammas)
    # an empty chain is refused as such by both
    for cls in (LRTableau, KleinTableau):
        with pytest.raises(ValueError, match="^an LR tableau needs at least one partition$"):
            cls(())


def test_readers_refuse_in_order_cap_then_top_strip_then_validity(cold):
    # 2/1 has no empty top strip and fails validity; 1/1 is valid with an
    # empty top strip; the over-cap chains also fail one or both
    with pytest.raises(ValueError, match="^not a Klein tableau: chain not weakly increasing at level 1$"):
        KleinTableau.from_text("2/1")
    with pytest.raises(ValueError, match="^empty top strip: entry 1 has no box$"):
        KleinTableau.from_text("1/1")
    with pytest.raises(ValueError, match="^empty top strip: entry 2 has no box$"):
        KleinTableau.from_text("2/1/1")
    with pytest.raises(CapExceeded):
        KleinTableau.from_text("99999999999/100000000000")
    with pytest.raises(CapExceeded):
        KleinTableau.from_text("2/100000000000")
    with pytest.raises(CapExceeded):
        KleinTableau.from_text("100000000000/100000000000")


# every LR chain with |beta| <= 5; the test draws those with e >= 2, and
# chains of any small partitions
LR_CHAINS = sorted(
    {
        lr.gammas
        for n in range(6)
        for beta in partitions_of(n)
        for k in range(n + 1)
        for alpha in partitions_of(k)
        for gamma in partitions_of(n - k)
        for lr in enumerate_lr(alpha, beta, gamma)
    }
)
small_partitions = st.lists(st.integers(1, 3), max_size=3).map(lambda ps: tuple(sorted(ps, reverse=True)))
chains = st.one_of(
    st.sampled_from([gs for gs in LR_CHAINS if len(gs) > 2]),
    st.lists(small_partitions, min_size=1, max_size=4).map(tuple),
)


@st.composite
def chains_and_cells(draw):
    """A chain and (entry, row) cells for entries 2..e: a refinement of an
    LR chain, as it is or with one cell redrawn, or cells of any small
    subscripts, in any order."""
    gs = draw(chains)
    e = len(gs) - 1
    if e < 2:
        return gs, {}
    cell = st.tuples(st.integers(2, e), st.integers(1, 4))
    subs = st.lists(st.integers(0, 4), max_size=3)
    way = draw(st.sampled_from(["refinement", "refinement", "redrawn", "any"]))
    if gs in LR_CHAINS and way != "any":
        tab = draw(st.sampled_from(enumerate_klein_refinements(LRTableau(gs))))
        cells = {(ell, m): list(ss) for ell, m, ss in tab.cells()}
        if way == "redrawn":
            cells[draw(cell)] = draw(subs)
        return gs, cells
    return gs, draw(st.dictionaries(cell, subs, max_size=3))


def _consume(tab):
    """Call every public function that takes a Klein tableau; each returns
    or raises only its documented domain error."""
    hall_multiplicity(tab)
    hall_multiplicity_factored(tab)
    hom_len_tableau(tab, Bipicket(4, 2))
    assert ascii_diagram(tab) and tableau_type(tab)[1] == tab.beta
    assert validate_klein(direct_sum_tableau(tab, tab)) == (True, None)
    for ell in range(tab.e + 3):
        for u in range(ell + 2):
            try:
                assert validate_klein(restrict(tab, ell, u)) == (True, None)
            except RangeError:
                assert not u <= ell <= tab.e + 1
    try:
        obj = object_of_tableau(tab)
        E = realize(tab, 2)
    except EntryTooLarge:
        assert any(g != tab.gammas[2] for g in tab.gammas[3:])
        return
    # a tableau whose top strip has a box is the tableau of its object
    if tab.e == 0 or tab.gammas[-1] != tab.gammas[-2]:
        assert tableau_of_object(obj) == tab == klein_tableau(E)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(chains_and_cells())
def test_every_build_is_checked_and_every_built_tableau_is_consumable(drawn):
    gs, cells = drawn
    raw = _raw(gs, cells)
    reason = validate_klein(raw)[1]
    # the same cells, rows and subscripts reversed, built directly
    flipped = tableaux._unchecked(
        gs, tuple(tuple((m, ss[::-1]) for m, ss in level[::-1]) for level in raw.levels)
    )
    read = f"empty top strip: entry {raw.e} has no box" if raw.e and gs[-1] == gs[-2] else None
    builds = [
        (lambda: KleinTableau(gs, raw.levels), raw, reason),
        (lambda: KleinTableau(gs, flipped.levels), flipped, validate_klein(flipped)[1]),
        (lambda: KleinTableau.make(gs, cells), raw, reason),
        (lambda: KleinTableau.from_text(raw.to_text()), raw, reason),
        (lambda: KleinTableau.from_json(raw.to_json()), raw, reason),
    ]
    for i, (build, want, why) in enumerate(builds):
        refusal = read if i >= 3 and read else why and f"not a Klein tableau: {why}"
        if refusal:
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == refusal
        else:
            assert build() == want
    lr_reason = validate_lr(gs)[1]
    if lr_reason:
        with pytest.raises(NoRefinement) as info:
            LRTableau(gs)
        assert str(info.value) == f"not an LR tableau: {lr_reason}"
    else:
        lr = LRTableau(gs)
        assert lr_multiplicity(lr) == sum(map(hall_multiplicity, enumerate_klein_refinements(lr)), QPolynomial.zero())
        assert dominant_refinement(lr) in enumerate_klein_refinements(lr)
    if reason is None:
        _consume(KleinTableau(gs, raw.levels))
