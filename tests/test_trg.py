import pytest

import latticekit as lk
from conftest import DIAMOND_TEXT, brute_force_covers


def test_parse_diamond(diamond):
    assert diamond.n == 4
    assert diamond.edge_count == 4
    assert list(diamond.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert diamond.in_neighbours[3] == [1, 2]


def test_parse_singleton():
    g = lk.parse_trg("lattice v1\n1 0\n")
    assert g.n == 1
    assert g.edge_count == 0


def test_parse_comments_and_blanks():
    text = "# a diamond\n\nlattice v1\n4 4  # counts\n0 1\n\n0 2\n1 3\n2 3\n"
    assert lk.parse_trg(text) == lk.parse_trg(DIAMOND_TEXT)


def test_parse_bytes_roundtrip(diamond):
    assert lk.parse_trg(lk.format_trg(diamond).encode()) == diamond


@pytest.mark.parametrize("text,line,fragment", [
    ("lattice v2\n1 0\n", 1, "header"),
    ("lattice v1\nx 0\n", 2, "node count"),
    ("lattice v1\n0 0\n", 2, "positive"),
    ("lattice v1\n2 1\n0 5\n", 3, "out of range"),
    ("lattice v1\n2 1\n1 1\n", 3, "self-loop"),
    ("lattice v1\n2 2\n0 1\n0 1\n", 4, "duplicate"),
    ("lattice v1\n2 2\n0 1\n", 3, "expected 2 edges"),
    ("lattice v1\n2 0\n0 1\n", 3, "unexpected line"),
    ("", 1, "header"),
    ("lattice v1\n", 1, "count line"),
    (b"lattice v1\n2 1\n0 \xff1\n", 3, "UTF-8"),
    (b"# caf\xc3\xa9\r\n\xe9\n", 2, "0xe9"),
])
def test_parse_errors_name_the_line(text, line, fragment):
    with pytest.raises(lk.ParseError) as err:
        lk.parse_trg(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_divisor12_matches_brute_force_covering(divisor12):
    # independent oracle: direct divisibility on the divisor values
    values = [1, 2, 3, 4, 6, 12]
    ids = {v: i for i, v in enumerate(values)}
    expected = sorted(
        (ids[a], ids[b])
        for a, b in brute_force_covers(values, lambda a, b: b % a == 0 and a != b)
    )
    assert sorted(divisor12.edges()) == expected


def test_format_is_canonical(diamond):
    assert lk.format_trg(diamond) == DIAMOND_TEXT
    assert lk.format_trg(lk.parse_trg(lk.format_trg(diamond))) == DIAMOND_TEXT


def test_dot_export_one_item_per_line(diamond):
    dot = lk.to_dot(diamond)
    assert dot.count("->") == diamond.edge_count
    for x in range(diamond.n):
        assert f"  {x};" in dot


def test_validate_reduction_accepts_diamond(diamond):
    assert lk.validate_reduction(diamond).ok


def test_validate_reduction_flags_transitive_edge():
    g = lk.parse_trg("lattice v1\n4 5\n0 1\n0 2\n1 3\n2 3\n0 3\n")
    report = lk.validate_reduction(g)
    assert not report.ok
    assert report.edge == (0, 3)
    assert "transitive" in report.message


def test_validate_reduction_flags_cycle():
    g = lk.parse_trg("lattice v1\n3 3\n0 1\n1 2\n2 0\n")
    report = lk.validate_reduction(g)
    assert not report.ok
    assert report.cycle is not None
    assert "cycle" in report.message


def test_linear_extension_chain():
    g = lk.generate(lk.FamilySpec("chain", 3))
    ext = lk.linear_extension(g)
    assert ext.order == [0, 1, 2]
    assert ext.position == [0, 1, 2]


def test_linear_extension_diamond_tie_break(diamond):
    # ascending-id tie break fixes the order completely
    assert lk.linear_extension(diamond).order == [0, 1, 2, 3]


def test_linear_extension_bottom_then_ascending():
    # antichain of three over a common bottom
    g = lk.parse_trg("lattice v1\n4 3\n0 1\n0 2\n0 3\n")
    assert lk.linear_extension(g).order == [0, 1, 2, 3]


def test_linear_extension_is_valid(family_zoo):
    for _, g in family_zoo:
        ext = lk.linear_extension(g)
        for u, v in g.edges():
            assert ext.position[u] < ext.position[v]


def test_linear_extension_rejects_cycle():
    g = lk.parse_trg("lattice v1\n2 2\n0 1\n1 0\n")
    with pytest.raises(lk.StructureError):
        lk.linear_extension(g)


def test_downset_upset_diamond(diamond):
    assert lk.downset(diamond, 3) == {0, 1, 2, 3}
    assert lk.downset(diamond, 1) == {0, 1}
    assert lk.upset(diamond, 0) == {0, 1, 2, 3}
    assert lk.upset(diamond, 2) == {2, 3}


def test_downset_restriction_blocks_descent(diamond):
    assert lk.downset(diamond, 3, restrict={1, 3}) == {1, 3}


def test_restriction_must_contain_start(diamond):
    with pytest.raises(ValueError):
        lk.downset(diamond, 3, restrict={0, 1})


def test_upset_singleton():
    g = lk.parse_trg("lattice v1\n1 0\n")
    assert lk.upset(g, 0) == {0}


def test_flip_chain():
    g = lk.generate(lk.FamilySpec("chain", 3))
    f = lk.flip(g)
    assert sorted(f.edges()) == [(1, 0), (2, 1)]


def test_flip_involution(family_zoo):
    for _, g in family_zoo:
        assert lk.flip(lk.flip(g)) == g


def test_flip_reverses_order(divisor12):
    c = lk.transitive_closure(divisor12)
    cf = lk.transitive_closure(lk.flip(divisor12))
    for x in range(divisor12.n):
        for y in range(divisor12.n):
            assert c.leq(x, y) == cf.leq(y, x)


def test_downset_upset_meet_only_at_self(family_zoo):
    for _, g in family_zoo:
        for x in range(g.n):
            assert lk.downset(g, x) & lk.upset(g, x) == {x}


def test_flip_swaps_downset_and_upset(family_zoo):
    for _, g in family_zoo:
        f = lk.flip(g)
        for x in range(g.n):
            assert lk.downset(f, x) == lk.upset(g, x)


def test_with_top_adds_virtual_maximum():
    g = lk.parse_trg("lattice v1\n2 0\n")  # two-element antichain
    g2, top, added = lk.with_top(g)
    assert added and top == 2 and g2.n == 3
    assert g2.in_neighbours[2] == [0, 1]
    assert lk.validate_reduction(g2).ok


def test_with_top_keeps_existing_top(diamond):
    g2, top, added = lk.with_top(diamond)
    assert not added and top == 3 and g2 is diamond
