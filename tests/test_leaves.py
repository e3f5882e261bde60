"""Histogram and unimodal piecewise-linear leaf distributions."""

import warnings

import numpy as np
import pytest

from mspn import CATEGORICAL, CONTINUOUS, StatType
from mspn.data import DISCRETE
from mspn.errors import DomainError
from mspn.inference import _LeafTable
from mspn.leaves import (
    HistogramLeaf,
    PiecewiseLinearLeaf,
    fit_histogram,
    fit_isotonic_pwl,
    leaf_density_batch,
    leaf_sample,
    leaf_support,
)
from mspn.structure import iter_nodes

from conftest import FIXTURE_MODEL_NAMES, leaf_cdf, reference_density


def tent_leaf(variable=0):
    """Triangular density on [0, 2] peaking at x=1."""
    return PiecewiseLinearLeaf(
        variable, CONTINUOUS, np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]), 1
    )


class TestHistogramLeafConstruction:
    def test_masses_must_normalize(self):
        with pytest.raises(DomainError):
            HistogramLeaf(0, CONTINUOUS, np.array([0.0, 1.0]), np.array([0.9]))

    def test_edges_must_increase(self):
        with pytest.raises(DomainError):
            HistogramLeaf(
                0, CONTINUOUS, np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.5])
            )

    def test_negative_mass_rejected(self):
        with pytest.raises(DomainError):
            HistogramLeaf(
                0, CONTINUOUS, np.array([0.0, 0.5, 1.0]), np.array([1.5, -0.5])
            )

    def test_scope_is_single_variable(self):
        leaf = HistogramLeaf(3, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0]))
        assert leaf.scope == (3,)
        assert leaf.n_bins == 1

    @pytest.mark.parametrize("edges, masses, smoothing, unseen", [
        ([0.0, 1.0, 2.0], [0.5, np.nan], 0.0, 0.0),
        ([np.nan, 1.0, 2.0], [0.5, 0.5], 0.0, 0.0),
        ([0.0, 1.0, np.inf], [0.5, 0.5], 0.0, 0.0),
        ([-np.inf, 1.0, 2.0], [0.5, 0.5], 0.0, 0.0),
        ([0.0, 1.0, 2.0], [0.5, 0.5], np.nan, 0.0),
        ([0.0, 1.0, 2.0], [0.5, 0.5], np.inf, 0.0),
        ([0.0, 1.0, 2.0], [0.5, 0.5], 0.0, np.nan),
        ([0.0, 1.0, 2.0], [0.5, 0.5], 0.0, np.inf),
    ])
    def test_non_finite_parameters_rejected(self, edges, masses, smoothing, unseen):
        with pytest.raises(DomainError):
            HistogramLeaf(0, CONTINUOUS, np.array(edges), np.array(masses), smoothing, unseen)


class TestPiecewiseLinearLeafConstruction:
    def test_must_integrate_to_one(self):
        with pytest.raises(DomainError):
            PiecewiseLinearLeaf(
                0, CONTINUOUS, np.array([0.0, 1.0]), np.array([0.5, 0.5]), 0
            )

    def test_must_be_unimodal_around_mode(self):
        with pytest.raises(DomainError):
            PiecewiseLinearLeaf(
                0,
                CONTINUOUS,
                np.array([0.0, 1.0, 2.0, 3.0]),
                np.array([0.6, 0.1, 0.6, 0.1]),
                0,
            )

    def test_categorical_domain_rejected(self):
        with pytest.raises(DomainError):
            PiecewiseLinearLeaf(
                0, CATEGORICAL, np.array([0.0, 2.0]), np.array([0.5, 0.5]), 0
            )

    @pytest.mark.parametrize("knots_x, knots_y", [
        ([0.0, 1.0, 2.0], [0.0, np.nan, 0.0]),
        ([0.0, 1.0, 2.0], [np.nan, 1.0, 0.0]),
        ([0.0, np.nan, 2.0], [0.0, 1.0, 0.0]),
        ([0.0, 1.0, np.inf], [0.0, 1.0, 0.0]),
        ([-np.inf, 1.0, 2.0], [0.0, 1.0, 0.0]),
        ([0.0, 1.0, 2.0], [0.0, np.inf, 0.0]),
    ])
    def test_non_finite_knots_rejected(self, knots_x, knots_y):
        with pytest.raises(DomainError):
            PiecewiseLinearLeaf(0, CONTINUOUS, np.array(knots_x), np.array(knots_y), 1)


@pytest.mark.parametrize("make", [
    lambda: HistogramLeaf(0, DISCRETE, np.array([0.1, 0.9]), np.array([1.0])),
    lambda: HistogramLeaf(0, DISCRETE, np.array([-2.9, -2.6, -2.1]), np.array([0.5, 0.5])),
    lambda: PiecewiseLinearLeaf(0, DISCRETE, np.array([0.1, 0.9]), np.array([1.25, 1.25]), 0),
], ids=["histogram", "histogram of two bins", "piecewise linear"])
def test_discrete_leaf_without_an_integer_is_rejected(make):
    # the sampler and MPE would find no integer to put the mass on
    with pytest.raises(DomainError, match="holds no integer"):
        make()


@pytest.mark.parametrize("make", [
    lambda: HistogramLeaf(0, DISCRETE, np.array([0.1, 1.0]), np.array([1.0])),
    lambda: PiecewiseLinearLeaf(0, DISCRETE, np.array([-1.0, -0.5]), np.array([2.0, 2.0]), 0),
    lambda: HistogramLeaf(0, CONTINUOUS, np.array([0.1, 0.9]), np.array([1.0])),
], ids=["histogram touching 1", "piecewise linear touching -1", "continuous"])
def test_a_support_holding_one_integer_is_enough(make):
    make()


@pytest.mark.parametrize("make", [
    lambda: HistogramLeaf(0, CONTINUOUS, np.array([0.0, np.inf, np.inf, 1.0]),
                          np.array([0.3, 0.3, 0.4])),
    lambda: PiecewiseLinearLeaf(0, CONTINUOUS, np.array([0.0, np.inf, np.inf, 1.0]),
                                np.array([0.0, 1.0, 1.0, 0.0]), 1),
    lambda: PiecewiseLinearLeaf(0, CONTINUOUS, np.array([0.0, 1.0, 2.0, 3.0]),
                                np.array([0.0, np.inf, np.inf, 0.0]), 1),
    lambda: HistogramLeaf(0, CONTINUOUS, np.array([-1e308, 1e308]), np.array([1.0])),
    lambda: HistogramLeaf(0, DISCRETE, np.array([-1e308, 0.5, 1e308]), np.array([0.5, 0.5])),
    lambda: PiecewiseLinearLeaf(0, CONTINUOUS, np.array([-1e308, 1e308, 1.5e308]),
                                np.array([0.0, 1.0, 0.0]), 1),
], ids=["histogram edges", "knots_x", "knots_y", "histogram span", "discrete histogram span",
        "piecewise-linear span"])
def test_adjacent_interior_infinities_raise_only_the_domain_error(make):
    # inf - inf, or a span x[-1] - x[0] past the largest double, would make
    # numpy warn before the check could reject the leaf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            make()


def test_the_widest_span_a_double_holds_is_a_leaf():
    top = np.finfo(np.float64).max
    leaf = HistogramLeaf(0, CONTINUOUS, np.array([-top / 2, top / 2]), np.array([1.0]))
    assert leaf_support(leaf) == (-top / 2, top / 2)


@pytest.mark.parametrize("edges", [[0.0, 1.5, 3.0], [1.0, 2.0, 3.0], [0.0, 1.0, 3.0],
                                   [-1.0, 0.0, 1.0]])
def test_categorical_edges_must_be_the_codes(edges):
    # every density rule reads a categorical leaf's bins as the codes 0 .. arity - 1
    with pytest.raises(DomainError, match="categorical bin edges"):
        HistogramLeaf(0, CATEGORICAL, np.array(edges), np.array([0.4, 0.6]))


@pytest.mark.parametrize("make, message", [
    (lambda: HistogramLeaf(0, CONTINUOUS, np.array([0.0, np.inf]), np.array([1.0])),
     "bin edges must be finite and strictly increasing"),
    (lambda: HistogramLeaf(0, DISCRETE, np.array([0.1, 0.9]), np.array([0.5]), np.inf),
     "discrete leaf support [0.1, 0.9] holds no integer"),
    (lambda: HistogramLeaf(0, CONTINUOUS, np.array([0.0, 5e-324]), np.array([0.5]), np.inf),
     "masses must be a probability vector"),
    (lambda: PiecewiseLinearLeaf(0, CONTINUOUS, np.array([0.0, 1.0, 2.0]),
                                 np.array([2.0, 0.0, 2.0]), 0),
     "knot densities must be unimodal around mode_index"),
    (lambda: PiecewiseLinearLeaf(0, CONTINUOUS, np.array([0.0, 1e-300, 2e-300]),
                                 np.array([0.0, 1e300, 0.0]), 5),
     "mode_index out of range"),
], ids=["not finite, too wide", "no integer, bad mass, bad smoothing",
        "bad mass, density overflow, bad smoothing", "not unimodal, area 2",
        "mode out of range, slopes overflow"])
def test_a_leaf_breaking_several_rules_is_told_the_first(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


class TestFitHistogramCategorical:
    def test_laplace_smoothed_masses(self):
        leaf = fit_histogram(
            np.array([0.0, 0.0, 0.0, 1.0]), StatType(CATEGORICAL, ("a", "b")), 1.0
        )
        np.testing.assert_allclose(leaf.masses, [4 / 6, 2 / 6])

    def test_unseen_mass_formula(self):
        leaf = fit_histogram(
            np.array([0.0, 0.0, 0.0, 1.0]), StatType(CATEGORICAL, ("a", "b")), 1.0
        )
        assert leaf.unseen_mass == 1.0 / (4 + 1.0 * 3)

    def test_no_smoothing_keeps_empirical_frequencies(self):
        leaf = fit_histogram(
            np.array([0.0, 1.0, 1.0, 1.0]), StatType(CATEGORICAL, ("a", "b")), 0.0
        )
        np.testing.assert_array_equal(leaf.masses, [0.25, 0.75])
        assert leaf.unseen_mass == 0.0

    def test_unseen_category_gets_smoothed_mass(self):
        leaf = fit_histogram(
            np.zeros(10), StatType(CATEGORICAL, ("a", "b", "c")), 1.0
        )
        assert leaf.masses[1] == leaf.masses[2] == 1.0 / 13
        assert leaf.masses[0] == 11.0 / 13


class TestFitHistogramNumeric:
    def test_single_value_becomes_unit_bin(self):
        leaf = fit_histogram(np.full(5, 7.25), StatType(CONTINUOUS), 0.0)
        np.testing.assert_array_equal(leaf.edges, [6.75, 7.75])
        np.testing.assert_array_equal(leaf.masses, [1.0])

    def test_uniform_data_density_near_one(self):
        x = np.random.default_rng(0).uniform(0.0, 1.0, 10000)
        leaf = fit_histogram(x, StatType(CONTINUOUS), 0.0)
        widths = np.diff(leaf.edges)
        dens = leaf.masses / widths
        assert np.all(np.abs(dens - 1.0) < 0.15)

    def test_smoothing_extends_support(self):
        x = np.random.default_rng(1).uniform(0.0, 1.0, 500)
        plain = fit_histogram(x, StatType(CONTINUOUS), 0.0)
        smoothed = fit_histogram(x, StatType(CONTINUOUS), 1.0)
        assert smoothed.edges[0] < plain.edges[0]
        assert smoothed.edges[-1] > plain.edges[-1]

    def test_smoothing_contracts_mass_ratio(self):
        # heavier smoothing pulls bin masses toward uniform
        x = np.concatenate(
            [np.random.default_rng(2).normal(0, 0.3, 900), np.array([5.0] * 10)]
        )
        ratios = []
        for delta in (0.0, 1.0, 10.0):
            leaf = fit_histogram(x, StatType(CONTINUOUS), delta)
            m = leaf.masses[leaf.masses > 0]
            ratios.append(m.max() / m.min())
        assert ratios[0] > ratios[1] > ratios[2]

    def test_discrete_bins_are_integer_aligned(self):
        x = np.array([0.0, 1.0, 1.0, 3.0, 4.0])
        leaf = fit_histogram(x, StatType(DISCRETE), 0.0)
        np.testing.assert_array_equal(
            leaf.edges, [-0.5, 0.5, 1.5, 2.5, 3.5, 4.5]
        )
        np.testing.assert_allclose(leaf.masses, [0.2, 0.4, 0.0, 0.2, 0.2])

    def test_discrete_smoothing_adds_flank_values(self):
        x = np.array([2.0, 2.0, 3.0])
        leaf = fit_histogram(x, StatType(DISCRETE), 1.0)
        assert leaf.edges[0] == 0.5 and leaf.edges[-1] == 4.5
        assert abs(leaf.masses.sum() - 1.0) <= 1e-12

    def test_masses_always_normalized(self):
        r = np.random.default_rng(3)
        for delta in (0.0, 0.5, 2.0):
            leaf = fit_histogram(r.exponential(2.0, 400), StatType(CONTINUOUS), delta)
            assert abs(leaf.masses.sum() - 1.0) <= 1e-12


class TestFitIsotonicPwl:
    def test_fitted_density_is_unimodal(self):
        r = np.random.default_rng(4)
        leaf = fit_isotonic_pwl(r.normal(0.0, 1.0, 3000), StatType(CONTINUOUS), 1.0)
        y = leaf.knots_y
        m = leaf.mode_index
        assert np.all(np.diff(y[: m + 1]) >= 0)
        assert np.all(np.diff(y[m:]) <= 0)

    def test_density_integrates_to_one(self):
        r = np.random.default_rng(5)
        leaf = fit_isotonic_pwl(r.exponential(1.0, 2000), StatType(CONTINUOUS), 1.0)
        x, y = leaf.knots_x, leaf.knots_y
        integral = np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
        assert abs(integral - 1.0) <= 1e-9

    def test_endpoints_have_zero_density(self):
        r = np.random.default_rng(6)
        leaf = fit_isotonic_pwl(r.uniform(0, 1, 1000), StatType(CONTINUOUS), 1.0)
        assert leaf.knots_y[0] == 0.0 and leaf.knots_y[-1] == 0.0

    def test_discrete_variable_supported(self):
        r = np.random.default_rng(7)
        leaf = fit_isotonic_pwl(
            r.binomial(10, 0.4, 2000).astype(float), StatType(DISCRETE), 1.0
        )
        assert leaf.domain == DISCRETE
        assert abs(leaf_cdf(leaf, leaf_support(leaf)[1]) - 1.0) < 1e-9

    def test_slopes_that_overflow_are_a_domain_error(self):
        # densities near 1/(rows * 1e-300) are finite, their slopes are not
        values = np.linspace(-1.0, 1.0, 300) ** 3 * 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="--leaf histogram"):
                fit_isotonic_pwl(values, StatType(CONTINUOUS), 1.0)
            assert np.isfinite(fit_histogram(values, StatType(CONTINUOUS), 1.0).masses).all()


class TestLeafDensity:
    def test_histogram_density_is_mass_over_width(self):
        leaf = HistogramLeaf(
            0, CONTINUOUS, np.array([0.0, 1.0, 3.0]), np.array([0.4, 0.6])
        )
        np.testing.assert_array_equal(
            leaf_density_batch(leaf, np.array([0.5, 2.0, 5.0])), [0.4, 0.3, 0.0]
        )

    def test_discrete_histogram_is_a_pmf(self):
        leaf = HistogramLeaf(
            0, DISCRETE, np.array([-0.5, 0.5, 1.5]), np.array([0.25, 0.75])
        )
        np.testing.assert_array_equal(
            leaf_density_batch(leaf, np.array([0.0, 1.0])), [0.25, 0.75]
        )

    def test_categorical_unknown_code_gets_unseen_mass(self):
        leaf = HistogramLeaf(
            0,
            CATEGORICAL,
            np.array([0.0, 1.0, 2.0]),
            np.array([0.7, 0.3]),
            smoothing=1.0,
            unseen_mass=0.05,
        )
        np.testing.assert_array_equal(
            leaf_density_batch(leaf, np.array([0.0, 5.0])), [0.7, 0.05]
        )

    def test_tent_interpolates_linearly(self):
        leaf = tent_leaf()
        np.testing.assert_array_equal(
            leaf_density_batch(leaf, np.array([0.5, 1.0, 2.5])), [0.5, 1.0, 0.0]
        )

    def test_batch_matches_scalar(self):
        leaf = tent_leaf()
        xs = np.array([-1.0, 0.25, 1.0, 1.75, 9.0])
        np.testing.assert_array_equal(
            leaf_density_batch(leaf, xs), [leaf_density_batch(leaf, xs[i:i + 1])[0]
                                           for i in range(xs.size)]
        )


def edge_leaves():
    """One leaf per edge of a family: one bin, one segment, categorical arity 2,
    and discrete histograms whose bins span more than ``MAX_UNIT_BINS`` integers."""
    return [
        HistogramLeaf(0, CONTINUOUS, np.array([0.5, 2.0]), np.array([1.0])),
        HistogramLeaf(0, DISCRETE, np.array([3.5, 4.5]), np.array([1.0])),
        PiecewiseLinearLeaf(0, CONTINUOUS, np.array([1.0, 3.0]), np.array([0.0, 1.0]), 1),
        PiecewiseLinearLeaf(0, DISCRETE, np.array([-0.5, 1.5]), np.array([0.5, 0.5]), 0),
        HistogramLeaf(0, CATEGORICAL, np.arange(3.0), np.array([0.3, 0.7]), 1.0, 0.02),
        HistogramLeaf(0, CATEGORICAL, np.arange(3.0), np.array([1.0, 0.0])),
        HistogramLeaf(0, DISCRETE, np.array([-0.5, 2999.5, 6000.25]), np.array([0.7, 0.3])),
        HistogramLeaf(0, DISCRETE, np.array([-5000.0, -2500.0, 10.0, 4000.5]),
                      np.array([0.2, 0.5, 0.3])),
    ]


def probe_points(leaf):
    """Every knot and midpoint, the floats next to both support ends, and +-1e100.

    Queries take category codes as nonnegative integers only, so a
    categorical leaf keeps those.
    """
    x = leaf.knots_x if isinstance(leaf, PiecewiseLinearLeaf) else leaf.edges
    ends = (x[0], x[-1] - 1.0 if leaf.domain == CATEGORICAL else x[-1])
    points = np.concatenate([x, 0.5 * (x[1:] + x[:-1]),
                             [np.nextafter(e, side) for e in ends for side in (-np.inf, np.inf)],
                             [-1e100, 1e100]])
    if leaf.domain == CATEGORICAL:
        points = points[(points == np.rint(points)) & (points >= 0)]
    return points


@pytest.mark.parametrize("source", [*FIXTURE_MODEL_NAMES, "edge leaves"])
def test_every_density_path_agrees_with_the_reference(source, request):
    # single rows read the plan's flat leaf table, batches, grids and settle
    # tables leaf_density_batch; both read each leaf's knot table, and must
    # give the family-by-family reference density bit for bit
    if source == "edge leaves":
        leaves = edge_leaves()
    else:
        model = request.getfixturevalue("fixture_models")[source][1]
        leaves = [node for _, node in iter_nodes(model.root)
                  if isinstance(node, (HistogramLeaf, PiecewiseLinearLeaf))]
    for leaf in leaves:
        points = probe_points(leaf)
        want = reference_density(leaf, points).tobytes()
        # far below a leaf, slope * (x - x_j) may overflow; the range mask drops it
        with np.errstate(over="ignore", invalid="ignore"):
            single = _LeafTable([leaf] * points.size).density(points)
        assert single.tobytes() == want, (source, leaf)
        assert leaf_density_batch(leaf, points).tobytes() == want, (source, leaf)


class TestLeafCdf:
    def test_histogram_cdf_interpolates(self):
        leaf = HistogramLeaf(
            0, CONTINUOUS, np.array([0.0, 1.0, 2.0]), np.array([0.4, 0.6])
        )
        assert leaf_cdf(leaf, -1.0) == 0.0
        assert leaf_cdf(leaf, 0.5) == 0.2
        assert leaf_cdf(leaf, 1.0) == 0.4
        assert leaf_cdf(leaf, 2.0) == 1.0

    def test_tent_cdf_is_quadratic(self):
        leaf = tent_leaf()
        assert leaf_cdf(leaf, 1.0) == 0.5
        np.testing.assert_allclose(leaf_cdf(leaf, 0.5), 0.125)
        assert leaf_cdf(leaf, 3.0) == 1.0

    def test_categorical_cdf_steps_on_codes(self):
        leaf = HistogramLeaf(
            0, CATEGORICAL, np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.2, 0.5, 0.3])
        )
        np.testing.assert_allclose(leaf_cdf(leaf, 1.0), 0.7)


class TestLeafSampling:
    def test_samples_stay_inside_support(self):
        r = np.random.default_rng(8)
        x = r.normal(0, 1, 1000)
        for leaf in (
            fit_histogram(x, StatType(CONTINUOUS), 1.0),
            fit_isotonic_pwl(x, StatType(CONTINUOUS), 1.0),
        ):
            lo, hi = leaf_support(leaf)
            draws = np.array([leaf_sample(leaf, r) for _ in range(500)])
            assert draws.min() >= lo and draws.max() <= hi

    def test_deterministic_categorical_always_draws_that_code(self):
        leaf = HistogramLeaf(
            0, CATEGORICAL, np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0])
        )
        r = np.random.default_rng(9)
        assert all(leaf_sample(leaf, r) == 0.0 for _ in range(50))

    def test_discrete_samples_are_integers(self):
        r = np.random.default_rng(10)
        leaf = fit_histogram(
            r.integers(0, 6, 500).astype(float), StatType(DISCRETE), 1.0
        )
        draws = np.array([leaf_sample(leaf, r) for _ in range(300)])
        np.testing.assert_array_equal(draws, np.rint(draws))

    def test_tent_sampler_matches_known_mean(self):
        r = np.random.default_rng(11)
        leaf = tent_leaf()
        draws = np.array([leaf_sample(leaf, r) for _ in range(100000)])
        assert abs(draws.mean() - 1.0) <= 0.01

    def test_histogram_sampler_matches_bin_masses(self):
        leaf = HistogramLeaf(
            0, CONTINUOUS, np.array([0.0, 1.0, 2.0]), np.array([0.25, 0.75])
        )
        r = np.random.default_rng(12)
        draws = np.array([leaf_sample(leaf, r) for _ in range(20000)])
        frac = (draws < 1.0).mean()
        assert abs(frac - 0.25) < 0.02

    def test_pwl_sampler_matches_cdf(self):
        # one-sample Kolmogorov-Smirnov against the leaf's own CDF
        r = np.random.default_rng(13)
        x = r.normal(0, 1, 2000)
        leaf = fit_isotonic_pwl(x, StatType(CONTINUOUS), 1.0)
        draws = np.sort([leaf_sample(leaf, r) for _ in range(20000)])
        cdf = np.array([leaf_cdf(leaf, float(v)) for v in draws])
        n = draws.size
        grid = np.arange(1, n + 1) / n
        ks = np.max(np.maximum(np.abs(grid - cdf), np.abs(grid - 1.0 / n - cdf)))
        assert ks < 0.015


class TestLeafSupport:
    def test_histogram_support_is_edge_range(self):
        leaf = HistogramLeaf(
            0, CONTINUOUS, np.array([-2.0, 0.0, 5.0]), np.array([0.5, 0.5])
        )
        assert leaf_support(leaf) == (-2.0, 5.0)

    def test_pwl_support_is_knot_range(self):
        assert leaf_support(tent_leaf()) == (0.0, 2.0)
