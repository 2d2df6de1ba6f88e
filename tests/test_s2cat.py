import pytest

from hallkit.errors import EntryTooLarge
from hallkit.partitions import partitions_of
from hallkit.qforms import QOrderFactored, evaluate, gl_order
from hallkit.s2cat import (
    Bipicket,
    Indecomposable,
    Picket,
    S2Object,
    aut_order,
    aut_order_module,
    bipicket,
    end_power,
    enumerate_objects,
    hom_len_indec,
    hom_len_obj,
    hom_len_tableau,
    level_aut_orders,
    object_of_tableau,
    parse_object,
    tableau_of_object,
)
from hallkit.tableaux import KleinTableau, chain_columns, enumerate_klein_entries2, restrict

T42 = Bipicket(4, 2)
P13 = Picket(1, 3)
PI = KleinTableau.make([(3, 2, 1), (3, 3, 2), (4, 3, 2)], {(2, 4): [2]})
PI_PRIME = KleinTableau.make([(3, 2, 1), (3, 3, 2), (4, 3, 2)], {(2, 4): [3]})


def QO(power, factors=()):
    return QOrderFactored.from_parts(power, dict(factors))


def test_bipicket_boundary_is_a_picket():
    assert bipicket(4, 3) == Picket(2, 4)
    assert bipicket(4, 2) == Bipicket(4, 2)
    with pytest.raises(ValueError):
        Bipicket(4, 3)


def test_a_summand_is_its_tuple():
    # a bare (ell, m, r) equals and hashes as the summand it names, and
    # make names it; pickets come before bipickets
    assert Picket(1, 3) == (1, 3, 0) and hash(T42) == hash((2, 4, 2))
    obj = S2Object.make({(2, 4, 2): 1, (1, 3, 0): 2, (2, 5, 0): 1})
    assert obj == S2Object.of(T42, P13, P13, Picket(2, 5))
    assert all(type(x) is Indecomposable for x, _ in obj.summands)
    assert obj.to_text() == "2*P(1,3) + P(2,5) + T(4,2)"


def test_make_names_every_summand_through_its_constructor():
    # a key that is not a picket or bipicket, or a multiplicity that is
    # not an int, is refused on every path through make, so no object
    # holds a summand whose tableau is not a Klein tableau
    for mults, message in [
        ({(3, 4, 0): 1}, r"^invalid picket P_3\^4$"),
        ({(2, 4, 3): 1}, r"^invalid bipicket T\(4,3\)$"),
        ({(0, 0, 0): 1}, r"^invalid picket P_0\^0$"),
        ({(1, 5, 2): 1}, r"^invalid bipicket \(1,5,2\): a bipicket has ell = 2$"),
        ({(1, 2, 0): 1.5}, r"^multiplicity 1.5 is not an int$"),
        ({(1, 2, 0): True}, r"^multiplicity True is not an int$"),
        ({(1, 2, 0): -1}, r"^multiplicities must be >= 0$"),
    ]:
        with pytest.raises(ValueError, match=message):
            S2Object.make(mults)
    with pytest.raises(ValueError, match=r"^invalid picket P_3\^4$"):
        S2Object.of(Indecomposable(3, 4, 0))
    # a zero multiplicity names no summand
    assert S2Object.make({(1, 2, 0): 0, (2, 4, 2): 1}) == S2Object.of(T42)


def test_zero_picket_is_refused():
    # P(0,0) is the zero module, not an indecomposable
    with pytest.raises(ValueError, match=r"^invalid picket P_0\^0$"):
        Picket(0, 0)
    with pytest.raises(ValueError, match=r"^invalid picket P_0\^0$"):
        parse_object("3*P(0,0) + P(1,1)")
    with pytest.raises(ValueError, match=r"^invalid picket P_0\^0$"):
        S2Object.from_json({"summands": [{"kind": "P", "ell": 0, "m": 0, "mult": 1}]})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"summands": [{"kind": "X", "m": 4, "r": 2, "mult": 1}]}, "unknown summand kind 'X'"),
        ({"summands": [{"kind": "T", "m": 4, "mult": 1}]}, "lacks the field 'r'"),
        ({"summands": [{"ell": 1, "m": 3}]}, "lacks the field 'kind'"),
        ({}, "lacks the field 'summands'"),
        ({"summands": 5}, "malformed object JSON"),
        ({"summands": [{"kind": "P", "ell": [1], "m": 3}]}, "malformed object JSON"),
        ({"summands": [{"kind": "P", "ell": 1, "m": 3, "mult": -1}]}, "multiplicities must be >= 0"),
        # only JSON integers are numbers: no float, string or bool
        ({"summands": [{"kind": "P", "ell": 1.5, "m": 2.9, "mult": 2.2}]}, "malformed object JSON"),
        ({"summands": [{"kind": "P", "ell": 1, "m": 3, "mult": 2.2}]}, "malformed object JSON"),
        ({"summands": [{"kind": "T", "m": "4", "r": 2}]}, "malformed object JSON"),
        ({"summands": [{"kind": "P", "ell": True, "m": 3}]}, "malformed object JSON"),
        ({"summands": {"kind": "P", "ell": 1, "m": 3}}, "malformed object JSON"),
    ],
)
def test_object_from_json_rejects_malformed_input(data, message):
    with pytest.raises(ValueError, match=message):
        S2Object.from_json(data)


def test_tableau_of_object_examples():
    assert tableau_of_object(S2Object.of(T42, P13)) == PI
    assert tableau_of_object(
        S2Object.of(Picket(2, 4), Picket(0, 3), Picket(1, 2))
    ) == PI_PRIME
    assert tableau_of_object(S2Object.of(Picket(0, 5))) == KleinTableau.make([(5,)])


def test_object_of_tableau_examples():
    assert object_of_tableau(PI) == S2Object.of(T42, P13)
    assert object_of_tableau(PI_PRIME) == S2Object.of(
        Picket(2, 4), Picket(0, 3), Picket(1, 2)
    )
    # a subscript-free chain [gamma, gamma] decodes to empty pickets
    flat = KleinTableau.make([(3, 1), (3, 1)])
    assert object_of_tableau(flat) == S2Object.of(Picket(0, 3), Picket(0, 1))


def test_object_of_tableau_rejects_large_entries():
    tab = KleinTableau.make(
        [(), (1,), (2,), (3,)], {(2, 2): [1], (3, 3): [2]}
    )
    with pytest.raises(EntryTooLarge):
        object_of_tableau(tab)


def test_object_of_tableau_rejects_cells_of_other_entries():
    # no tableau carries a cell outside its entries 2..e, so the decoder
    # never reads past one; symbols of entry 3 on an empty strip are refused
    with pytest.raises(ValueError, match="entry 5 outside 2..2"):
        KleinTableau.make([(), (1,), (2,)], {(2, 2): [1], (5, 2): [1]})
    with pytest.raises(ValueError, match="entry 2 outside 2..1"):
        KleinTableau.make([(), (1,)], {(2, 2): [1]})
    with pytest.raises(ValueError, match=r"cell \(3,2\) has 1 subscripts, needs 0"):
        KleinTableau.make([(), (1,), (2,), (2,)], {(2, 2): [1], (3, 2): [1]})
    with pytest.raises(EntryTooLarge):
        object_of_tableau(KleinTableau.make([(), (1,), (2,), (3,)], {(2, 2): [1], (3, 3): [2]}))
    assert object_of_tableau(KleinTableau.make([(), (1,), (2,)], {(2, 2): [1]})) == S2Object.of(
        Picket(2, 2)
    )


def test_roundtrip_small():
    for n in range(7):
        for beta in partitions_of(n):
            for tab in enumerate_klein_entries2(beta):
                obj = object_of_tableau(tab)
                assert tableau_of_object(obj) == tab
    for obj in enumerate_objects(6):
        assert object_of_tableau(tableau_of_object(obj)) == obj


def test_padded_chain_decodes_to_the_same_object():
    # restrict pads the chain with a repeated top level at ell = e+1, and
    # hall's last telescoping factor reads that padded chain: padding must
    # never change the decoded object
    for n in range(9):
        for beta in partitions_of(n):
            for tab in enumerate_klein_entries2(beta):
                padded = restrict(tab, tab.e + 1, tab.e + 1)
                assert object_of_tableau(padded) == object_of_tableau(tab)


def test_hom_len_examples():
    assert hom_len_indec(T42, T42) == 9  # End length m + 3r - 1
    assert hom_len_indec(T42, P13) == 5
    assert hom_len_indec(P13, T42) == 5
    assert hom_len_obj(S2Object.of(T42, P13), P13) == 8
    assert hom_len_obj(S2Object.make({}), P13) == 0
    assert hom_len_obj(S2Object.of(Picket(0, 2)), Picket(0, 3)) == 2


def test_hom_len_tableau_examples():
    t42_tab = tableau_of_object(S2Object.of(T42))
    assert hom_len_tableau(t42_tab, P13) == 5
    # target P(0, m): only the base partition matters
    assert hom_len_tableau(PI, Picket(0, 2)) == 5  # rows 1 and 2 of (3,2,1)
    for m in range(3, 9):
        for r in range(1, m - 1):
            tab = tableau_of_object(S2Object.of(bipicket(m, r)))
            assert hom_len_tableau(tab, bipicket(m, r)) == m + 3 * r - 1


def test_hom_len_tableau_matches_additive_route():
    from hallkit.s2cat import enumerate_indecomposables

    targets = enumerate_indecomposables(6)
    for obj in enumerate_objects(7):
        tab = tableau_of_object(obj)
        for y in targets:
            assert hom_len_tableau(tab, y) == hom_len_obj(obj, y)


def test_aut_order_anchor_values():
    assert aut_order(S2Object.of(T42)) == QO(8, {1: 1})
    assert aut_order(S2Object.of(Picket(1, 4), Picket(0, 3), Picket(0, 2))) == QO(
        20, {1: 3}
    )
    assert aut_order(S2Object.of(T42, P13)) == QO(20, {1: 2})


def test_aut_order_matches_gl_product():
    # the one exponent vector equals q^(end - sum k^2) * prod |GL_k|
    for obj in enumerate_objects(8):
        want = QOrderFactored.q_power(end_power(obj) - sum(k * k for _, k in obj.summands))
        for _, k in obj.summands:
            want = want * gl_order(k)
        assert aut_order(obj) == want, obj


def test_chain_aut_orders_match_decoded_objects():
    # the Aut orders priced from a chain (padded with its top), one per
    # level of level-2 symbols, equal the decoded objects', for every
    # tableau with entries <= 2 and |beta| <= 10; the tableaux of one chain
    # are priced together, from one count of the chain
    tabs = [tab for n in range(11) for beta in partitions_of(n) for tab in enumerate_klein_entries2(beta)]
    assert len(tabs) == 3170
    by_chain: dict = {}
    for tab in tabs:
        by_chain.setdefault((tab.gammas + (tab.beta,) * 2)[:3], []).append(tab)
    for chain, group in by_chain.items():
        levels = tuple((tab.levels + ((),))[0] for tab in group)
        orders = level_aut_orders(chain, chain_columns(*chain), levels)
        for tab, order in zip(group, orders, strict=True):
            assert order == aut_order(object_of_tableau(tab)), tab


def test_aut_order_module_examples():
    assert aut_order_module((1,)) == QO(0, {1: 1})
    assert aut_order_module((1, 1)) == gl_order(2)
    assert evaluate(aut_order_module((1, 1)), 2) == 6
    assert evaluate(aut_order_module((2, 1)), 2) == 8


def test_worked_example_restriction_orders():
    # the three automorphism-group orders produced along the telescoping
    # product for the middle tableau of the worked example
    pi2 = KleinTableau.make(
        [(2, 1), (3, 2, 1), (3, 3, 2), (4, 3, 2)],
        {(2, 2): [1], (2, 3): [2], (3, 4): [2]},
    )
    assert object_of_tableau(restrict(pi2, 3, 2)) == S2Object.of(T42, P13)
    assert object_of_tableau(restrict(pi2, 3, 1)) == S2Object.of(
        Picket(1, 4), Picket(0, 3), Picket(0, 2)
    )
    assert object_of_tableau(restrict(pi2, 2, 2)) == S2Object.of(
        Picket(1, 3), Picket(2, 3), Picket(2, 2)
    )
    assert object_of_tableau(restrict(pi2, 2, 1)) == S2Object.of(
        Picket(0, 3), Picket(1, 3), Picket(1, 2)
    )
    assert object_of_tableau(restrict(pi2, 4, 1)) == S2Object.of(
        Picket(0, 4), Picket(0, 3), Picket(0, 2)
    )


def test_end_power_additivity():
    obj = S2Object.of(T42, P13)
    assert end_power(obj) == 9 + 5 + 5 + 3


def test_text_forms():
    obj = S2Object.of(T42, P13, P13)
    assert parse_object(obj.to_text()) == obj
    assert parse_object("T(4,2) + 2*P(1,3)") == obj
    assert parse_object("0") == S2Object.make({})
    assert S2Object.from_json(obj.to_json()) == obj
