import pytest

import latticekit as lk
from latticekit.metrics import ceil_log, ceil_pow, ceil_sqrt


def test_fit_exact_three_halves():
    pts = [(n, n ** 1.5) for n in (64, 128, 256, 512, 1024)]
    fit = lk.fit_scaling(pts)
    assert abs(fit.slope - 1.5) < 1e-9
    assert fit.residual < 1e-18


def test_fit_exact_three_quarters():
    pts = [(n, n ** 0.75) for n in (64, 256, 1024, 4096)]
    fit = lk.fit_scaling(pts)
    assert abs(fit.slope - 0.75) < 1e-9


def test_fit_requires_four_points():
    with pytest.raises(ValueError):
        lk.fit_scaling([(1, 1), (2, 2), (3, 3)])


def test_fit_requires_positive_values():
    with pytest.raises(ValueError):
        lk.fit_scaling([(1, 1), (2, 0), (3, 3), (4, 4)])


def test_fit_deterministic():
    pts = [(64, 100.0), (128, 260.0), (256, 700.0), (512, 1900.0)]
    a = lk.fit_scaling(pts)
    b = lk.fit_scaling(pts)
    assert a.slope == b.slope and a.intercept == b.intercept


def test_boolean_down_entry_slope():
    pts = []
    for m in range(6, 13):
        g = lk.generate(lk.FamilySpec("boolean", m))
        idx = lk.build_order_index(g)
        pts.append((g.n, idx.down_entries))
    assert lk.fit_scaling(pts).slope <= 1.6


def test_space_report_totals(diamond):
    idx = lk.build_meet_index(diamond)
    rep = lk.space_report(idx)
    assert rep.total == (rep.header_meet_cells + rep.down_entries
                         + rep.subheader_meet_cells + rep.pair_table_cells
                         + rep.residual_list_cells + rep.tree_nodes
                         + rep.leaf_cells)


def test_space_report_empty_residual_lists(chain9):
    # chain blocks split into chains again: every subblock is principal
    idx = lk.build_meet_index(chain9)
    rep = lk.space_report(idx)
    assert rep.n == 9
    assert rep.residual_list_cells >= 0


def test_space_report_invariant_under_queries(diamond):
    idx = lk.build_meet_index(diamond)
    before = lk.space_report(idx)
    for x in range(4):
        for y in range(4):
            idx.meet(x, y)
            idx.join(x, y)
    after = lk.space_report(idx)
    assert before == after


def test_query_stats_reset():
    stats = lk.QueryStats()
    stats.order_tests = 5
    stats.candidate_count = 3
    stats.reset()
    assert stats.order_tests == 0
    assert stats.candidate_count == 0
    assert stats.total_probes == 0


def test_helpers():
    assert ceil_sqrt(16) == 4
    assert ceil_sqrt(17) == 5
    assert ceil_pow(100, 0.5) == 10
    assert ceil_pow(100, 1.0) == 100
    assert ceil_pow(100, 0.75) == 32
    assert ceil_log(16, 2) == 4
    assert ceil_log(17, 2) == 5
    assert ceil_log(2, 8) == 1
