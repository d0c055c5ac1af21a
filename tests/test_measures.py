import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datarecon.measures import (
    Layout,
    build_measure,
    load_dataset,
    load_measure,
    recon_statistics,
    save_measure,
    stat_errors,
    write_rows,
)

LAYOUT_XY = Layout(p=3, x_idx=(0, 1), y_idx=2, frozen_idx=(0,))
LAYOUT_X = Layout(p=2, x_idx=(0, 1))


class TestBuildMeasure:
    def test_unit_weight_default(self):
        m = build_measure([(1.0, 2.0)])
        assert m.weights.tolist() == [1.0]

    def test_total_mass_is_weight_sum(self):
        m = build_measure([(0.0,), (2.0,)], (0.5, 1.5))
        stats = recon_statistics(m, Layout(p=1, x_idx=(0,)))
        assert stats.total_mass == 2.0

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            build_measure([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_measure([(1.0,), (2.0,)], (1.0,))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            build_measure([(np.nan,)])
        with pytest.raises(ValueError):
            build_measure([(1.0,)], (np.inf,))


class TestReconStatistics:
    def test_single_point_outer_product(self):
        m = build_measure([(1.0, 3.0, 2.0)])
        stats = recon_statistics(m, LAYOUT_XY)
        np.testing.assert_allclose(stats.weighted_gram, [[1, 3], [3, 9]])
        np.testing.assert_allclose(stats.weighted_xy, [2, 6])
        assert stats.weighted_yy == 4.0

    def test_linear_in_weights(self):
        m2 = build_measure([(1.0, 3.0, 2.0)], (2.0,))
        s1 = recon_statistics(build_measure([(1.0, 3.0, 2.0)]), LAYOUT_XY)
        s2 = recon_statistics(m2, LAYOUT_XY)
        assert s2.total_mass == 2 * s1.total_mass
        np.testing.assert_allclose(s2.weighted_gram, 2 * s1.weighted_gram)
        np.testing.assert_allclose(s2.weighted_xy, 2 * s1.weighted_xy)
        assert s2.weighted_yy == 2 * s1.weighted_yy

    def test_pure_x_layout_has_no_y_fields(self):
        stats = recon_statistics(build_measure([(1.0, 2.0)]), LAYOUT_X)
        assert stats.weighted_xy is None
        assert stats.weighted_yy is None

    def test_gram_symmetric(self):
        rng = np.random.default_rng(0)
        m = build_measure(
            np.column_stack([np.ones(7), rng.standard_normal((7, 2))]),
            rng.standard_normal(7),
        )
        layout = Layout(p=3, x_idx=(0, 1), y_idx=2, frozen_idx=(0,))
        g = recon_statistics(m, layout).weighted_gram
        assert np.max(np.abs(g - g.T)) < 1e-12

    def test_layout_dimension_mismatch(self):
        with pytest.raises(ValueError):
            recon_statistics(build_measure([(1.0, 2.0)]), LAYOUT_XY)

    @given(
        w1=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        w2=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_additive_in_weights(self, w1, w2):
        pts = [(1.0, 0.5, 2.0), (1.0, -1.0, 0.3), (1.0, 2.0, -0.7)]
        s1 = recon_statistics(build_measure(pts, w1), LAYOUT_XY)
        s2 = recon_statistics(build_measure(pts, w2), LAYOUT_XY)
        s12 = recon_statistics(build_measure(pts, np.add(w1, w2)), LAYOUT_XY)
        scale = max(abs(s12.total_mass), 1.0)
        assert abs(s12.total_mass - (s1.total_mass + s2.total_mass)) <= 1e-12 * scale
        np.testing.assert_allclose(
            s12.weighted_gram, s1.weighted_gram + s2.weighted_gram,
            rtol=1e-12, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((6, 2))
        w = rng.standard_normal(6)
        perm = rng.permutation(6)
        s1 = recon_statistics(build_measure(pts, w), LAYOUT_X)
        s2 = recon_statistics(build_measure(pts[perm], w[perm]), LAYOUT_X)
        np.testing.assert_allclose(s1.weighted_gram, s2.weighted_gram, rtol=1e-12)
        np.testing.assert_allclose(s1.weighted_sum, s2.weighted_sum, rtol=1e-12)

    def test_unit_weights_match_target_exactly(self):
        rng = np.random.default_rng(2)
        pts = np.column_stack([np.ones(5), rng.standard_normal((5, 2))])
        sa = recon_statistics(build_measure(pts), LAYOUT_XY)
        sb = recon_statistics(build_measure(pts, np.ones(5)), LAYOUT_XY)
        assert all(v == 0.0 for v in stat_errors(sa, sb).values())


class TestColumns:
    def test_trace_row_order(self):
        s = recon_statistics(build_measure([(1.0, 3.0, 2.0), (1.0, -1.0, 0.5)]), LAYOUT_XY)
        names, values = zip(*s.columns())
        assert names == ("total_mass", "mean_c1", "var_c1", "mean_c2", "var_c2",
                         "gram_0_0", "gram_0_1", "gram_1_1", "xy_0", "xy_1", "yy")
        assert values == (s.total_mass, *s.moments().values(),
                          *s.weighted_gram[np.triu_indices(2)], *s.weighted_xy, s.weighted_yy)

    def test_no_y_columns_without_y(self):
        names = [n for n, _ in recon_statistics(build_measure([(1.0, 2.0)]), LAYOUT_X).columns()]
        assert names == ["total_mass", "mean_c0", "var_c0", "mean_c1", "var_c1",
                         "gram_0_0", "gram_0_1", "gram_1_1"]


class TestStatErrors:
    def test_identical_is_zero(self):
        s = recon_statistics(build_measure([(1.0, 3.0, 2.0)]), LAYOUT_XY)
        assert all(v == 0.0 for v in stat_errors(s, s).values())

    def test_total_mass_error(self):
        a = recon_statistics(build_measure([(1.0, 0.0, 0.0)], (434.0,)), LAYOUT_XY)
        b = recon_statistics(build_measure([(1.0, 0.0, 0.0)], (400.0,)), LAYOUT_XY)
        assert stat_errors(a, b)["total_mass"] == pytest.approx(34 / 434, rel=1e-12)

    def test_different_layouts_rejected(self):
        pts = [(1.0, 3.0, 2.0)]
        a = recon_statistics(build_measure(pts), LAYOUT_XY)
        b = recon_statistics(build_measure(pts), Layout(p=3, x_idx=(0, 1, 2)))
        with pytest.raises(ValueError, match="statistics computed under different layouts"):
            stat_errors(a, b)

    def test_each_group_reports_its_largest_error(self):
        # keys in trace order; an array statistic's error is its worst entry
        a = recon_statistics(build_measure([(1.0, 2.0, 4.0)]), LAYOUT_XY)
        b = recon_statistics(build_measure([(1.0, 3.0, 4.0)]), LAYOUT_XY)
        errs = stat_errors(a, b)
        assert list(errs) == ["total_mass", "weighted_sum", "weighted_gram", "weighted_xy",
                              "weighted_yy", "mean_c1", "var_c1", "mean_c2", "var_c2"]
        assert errs["weighted_sum"] == 0.5          # (1, 2, 4) -> (1, 3, 4)
        assert errs["weighted_gram"] == 1.25        # gram_1_1: 4 -> 9
        assert errs["weighted_xy"] == 0.5           # xy_1: 8 -> 12
        assert errs["weighted_yy"] == 0.0
        assert errs["var_c1"] == 0.0                # one point: zero variance

    def test_two_point_variance_derivation(self):
        layout = Layout(p=1, x_idx=(0,))
        s = recon_statistics(build_measure([(0.0,), (2.0,)], (1.0, 1.0)), layout)
        moments = s.moments()
        assert moments["mean_c0"] == pytest.approx(1.0)
        assert moments["var_c0"] == pytest.approx(1.0)


class TestCsvRoundTrips:
    def test_dataset_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((4, 3))
        path = tmp_path / "data.csv"
        write_rows(path, ("a", "b", "c"), pts)
        loaded, names = load_dataset(path)
        assert names == ("a", "b", "c")
        assert np.array_equal(loaded, pts)

    def test_measure_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        m = build_measure(rng.standard_normal((4, 2)), rng.standard_normal(4))
        path = tmp_path / "measure.csv"
        save_measure(path, m, LAYOUT_X)
        loaded = load_measure(path)
        assert np.array_equal(loaded.weights, m.weights)
        assert np.array_equal(loaded.points, m.points)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="row 3"):
            load_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(ValueError, match="row 3 contains a non-finite value"):
            load_dataset(path)


class TestLayout:
    def test_free_idx_excludes_frozen(self):
        assert LAYOUT_XY.free_idx == (1, 2)
        assert LAYOUT_XY.p_free == 2

    def test_frozen_coordinates_are_pinned_at_one(self):
        assert LAYOUT_XY.frozen_value == 1.0
        with pytest.raises(TypeError, match="frozen_values"):
            Layout(p=2, x_idx=(0,), y_idx=1, frozen_idx=(0,), frozen_values=(2.0,))

    def test_incomplete_coverage_rejected(self):
        with pytest.raises(ValueError):
            Layout(p=3, x_idx=(0, 1))

    def test_frozen_outside_x_rejected(self):
        with pytest.raises(ValueError):
            Layout(p=2, x_idx=(0,), y_idx=1, frozen_idx=(1,))

    @pytest.mark.parametrize("fields,key", [
        ({"p": 2.7, "x_idx": (0, 1)}, "p"),
        ({"p": 2, "x_idx": (0.0, 1.0)}, "x_idx"),
        ({"p": 2, "x_idx": 0}, "x_idx"),
        ({"p": 2, "x_idx": (0,), "y_idx": True}, "y_idx"),
        ({"p": 2, "x_idx": (0, 1), "frozen_idx": (0.0,)}, "frozen_idx"),
        ({"p": 1, "x_idx": (0,), "names": ("a", 1)}, "names"),
    ])
    def test_field_types_checked(self, fields, key):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            Layout(**fields)

    def test_lists_become_tuples(self):
        layout = Layout(p=2, x_idx=[0], y_idx=1, frozen_idx=[0])
        assert layout.x_idx == (0,) and layout.frozen_idx == (0,)
