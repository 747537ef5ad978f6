import pytest

from colorcert import alon_tarsi, catalog


def test_catalog_has_nineteen_entries_with_unique_tags():
    entries = catalog.catalog()
    assert len(entries) == 19
    tags = [e.tag for e in entries]
    names = [e.name for e in entries]
    assert len(set(tags)) == 19 and len(set(names)) == 19


def test_every_entry_is_a_certificate():
    # each stored orientation really has unequal even/odd counts and
    # each vertex's outdegree stays below its budget slot
    for e in catalog.catalog():
        assert e.ee != e.eo
        assert alon_tarsi.eulerian_counts(e.digraph) == (e.ee, e.eo)


def test_expected_counts_exact():
    expect = {
        "1a": (2, 1), "1b": (4, 3), "1c": (81, 80), "1d": (16, 17),
        "1e": (512, 515), "1f": (751, 750), "1g": (1097, 1096),
        "1h": (108, 107), "1i": (30, 28),
        "2a": (14, 12), "2b": (4, 2), "2c": (3, 1), "2d": (14, 15),
        "2e": (13, 11), "2f": (5, 3), "2g": (22, 16), "2h": (72, 74),
        "4a": (8, 9), "4b": (14, 15),
    }
    got = {e.tag: (e.ee, e.eo) for e in catalog.catalog()}
    assert got == expect


def test_lookup_by_tag_and_name():
    e = catalog.catalog_entry("1a")
    assert catalog.catalog_entry(e.name) is e
    with pytest.raises(KeyError):
        catalog.catalog_entry("nope")


def test_low_set_matches_outdegrees():
    for e in catalog.catalog():
        g = e.digraph.support()
        lows = e.low_set()
        for v in range(g.n):
            if e.digraph.out_degree(v) == g.degree(v) - 1:
                assert v in lows
            else:
                assert v not in lows


def test_clique_order_catalog_shape():
    entries = catalog.clique_order_catalog()
    assert len(entries) == 3
    assert [e.tag for e in entries] == ["3a", "3b", "3c"]
    for e in entries:
        assert len(e.edge_origin) == sum(m for _, _, m in e.root.edges)
        assert len(e.expected_degrees) == len(e.edge_origin)
    # the emphasized (full-budget) vertices appear only in the second entry
    assert not entries[0].emphasized
    assert len(entries[1].emphasized) == 6
    assert not entries[2].emphasized


def test_two_join_catalog_shape():
    entries = catalog.two_join_catalog()
    assert len(entries) == 2
    assert [t for t, _, _, _ in entries] == ["5a", "5b"]
