"""Acceptance gate: each stated criterion runs here and prints one verdict line.

Every test exercises one criterion at its stated tolerance and reports
through ``record_criterion``, so running this module prints a PASS/FAIL
line per criterion in the terminal summary. Criteria are checked exactly
as stated — no slack is added and none is removed.
"""

import time

import numpy as np

from mspn import (
    CATEGORICAL,
    CONTINUOUS,
    Evidence,
    LearnConfig,
    ProductNode,
    StatType,
    SumNode,
    deserialize,
    iter_nodes,
    learn_mspn,
    log_conditional,
    log_evaluate,
    log_evaluate_batch,
    mi_graph,
    mpe,
    mutual_information,
    rdc,
    sample,
    serialize,
    validate,
)
from mspn.cli import main
from mspn.leaves import (
    HistogramLeaf,
    PiecewiseLinearLeaf,
    fit_histogram,
    leaf_sample,
)
from mspn.structure import Mspn
from conftest import (
    H14_COLS,
    HYBRID6_COLS,
    leaf_cdf,
    make_dataset,
    make_hybrid14,
    make_hybrid6,
    record_criterion,
)

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def anchored_evidence(data, model) -> Evidence:
    """Observe variable 0 at a value the model gives real mass to.

    The in-sample lower quartile (or the modal category) is guaranteed to
    sit inside a populated region; a median can land in the zero-density
    gap between well-separated mixture components.
    """
    n = model.n_vars
    col = data.column(0)
    if data.schema.stat_type(0).is_categorical:
        codes, counts = np.unique(col, return_counts=True)
        anchor = float(codes[np.argmax(counts)])
    else:
        anchor = float(np.quantile(col, 0.25, method="nearest"))
    observed = np.zeros(n, dtype=bool)
    observed[0] = True
    values = np.zeros(n)
    values[0] = anchor
    return Evidence(values, observed)


def best_of_conditional_samples(model, evidence, seed: int, draws: int) -> float:
    """Highest joint log value among conditional samples from the model."""
    rng = np.random.default_rng(seed)
    full = np.ones(model.n_vars, dtype=bool)
    best = -np.inf
    for _ in range(draws):
        completion = sample(model, evidence, rng)
        best = max(best, log_evaluate(model, Evidence(completion, full)))
    return best


def mixture_cdf(model, points: np.ndarray) -> np.ndarray:
    """CDF of a single-variable model: weight-flattened sum of leaf CDFs."""
    def terms(node, weight):
        if isinstance(node, SumNode):
            out = []
            for w, child in zip(node.weights, node.children):
                out.extend(terms(child, weight * float(w)))
            return out
        return [(weight, node)]

    total = np.zeros(points.size)
    for weight, leaf in terms(model.root, 1.0):
        total += weight * np.array([leaf_cdf(leaf, float(x)) for x in points])
    return total


class TestCriterion1Validity:
    def test_every_fixture_validates_and_wide_learning_is_fast(self, fixture_models):
        reports = {
            name: validate(model) for name, (_, model) in fixture_models.items()
        }
        all_valid = all(report.ok for report in reports.values())

        # the fixture models above were learned first, so this learn does
        # not pay the process's first-call costs
        data = make_dataset(H14_COLS, make_hybrid14(2024, 5000))
        start = time.perf_counter()
        wide = learn_mspn(data, LearnConfig())
        elapsed = time.perf_counter() - start
        wide_ok = validate(wide).ok

        record_criterion(
            1,
            all_valid and wide_ok and elapsed < 60.0,
            f"{len(reports)} fixture models valid={all_valid}; "
            f"14-variable/5000-row learn {elapsed:.2f}s (< 60s), valid={wide_ok}",
        )


class TestCriterion2Normalization:
    def test_marginalized_mass_is_one_and_numeric_integration_agrees(
        self, fixture_models, blobs2d_data, blobs2d_model
    ):
        worst = 0.0
        for _, model in fixture_models.values():
            total = np.exp(log_evaluate(model, Evidence.marginalized(model.n_vars)))
            worst = max(worst, abs(total - 1.0))

        # 2-d midpoint rule over a frame extending past the leaf supports
        cells = 1500
        lo0, hi0 = blobs2d_data.column(0).min() - 3, blobs2d_data.column(0).max() + 3
        lo1, hi1 = blobs2d_data.column(1).min() - 3, blobs2d_data.column(1).max() + 3
        w0, w1 = (hi0 - lo0) / cells, (hi1 - lo1) / cells
        mid0 = lo0 + (np.arange(cells) + 0.5) * w0
        mid1 = lo1 + (np.arange(cells) + 0.5) * w1
        mask = np.ones(2, dtype=bool)
        integral = 0.0
        for chunk in np.array_split(mid0, 50):
            grid = np.column_stack(
                [np.repeat(chunk, cells), np.tile(mid1, chunk.size)]
            )
            integral += float(
                np.exp(log_evaluate_batch(blobs2d_model, grid, mask)).sum()
            ) * w0 * w1

        record_criterion(
            2,
            worst <= 1e-12 and abs(integral - 1.0) <= 1e-3,
            f"max |exp(marginalized) - 1| = {worst:.2e} (<= 1e-12); "
            f"2-d integral error {abs(integral - 1.0):.2e} (<= 1e-3)",
        )


class TestCriterion3RdcPower:
    def test_hundred_seed_null_power_symmetry_and_invariance(self):
        null_ok = power_ok = symmetric_ok = invariant_ok = 0
        for trial in range(100):
            r = np.random.default_rng(10_000 + trial)
            config = LearnConfig(seed=trial)
            indep = make_dataset(
                [("x", CONTINUOUS, None), ("y", CONTINUOUS, None)],
                np.column_stack([r.uniform(0, 1, 1000), r.uniform(0, 1, 1000)]),
            )
            x = r.uniform(-1.0, 1.0, 1000)
            curve = make_dataset(
                [("x", CONTINUOUS, None), ("y", CONTINUOUS, None)],
                np.column_stack([x, x**2]),
            )
            warped = make_dataset(
                [("x", CONTINUOUS, None), ("y", CONTINUOUS, None)],
                np.column_stack([np.exp(x), x**2]),
            )
            null = rdc(indep, 0, 1, config)
            power = rdc(curve, 0, 1, config)
            null_ok += null < 0.15
            power_ok += power > 0.8
            symmetric_ok += rdc(indep, 1, 0, config) == null
            invariant_ok += rdc(warped, 0, 1, config) == power

        record_criterion(
            3,
            null_ok >= 95 and power_ok >= 95
            and symmetric_ok == 100 and invariant_ok == 100,
            f"independent < 0.15 in {null_ok}/100 (>= 95); "
            f"y=x^2 > 0.8 in {power_ok}/100 (>= 95); "
            f"symmetry {symmetric_ok}/100, monotone invariance {invariant_ok}/100 "
            f"bit-exact (== 100)",
        )


class TestCriterion4DensityLift:
    def test_learned_model_beats_factorized_baseline_on_held_out_rows(
        self, hybrid6_train, hybrid6_test, hybrid6_model
    ):
        config = LearnConfig()
        baseline_root = ProductNode(
            tuple(range(6)),
            tuple(
                fit_histogram(
                    hybrid6_train.column(j),
                    hybrid6_train.schema.stat_type(j),
                    config.smoothing,
                    j,
                )
                for j in range(6)
            ),
        )
        baseline = Mspn(baseline_root, hybrid6_train.schema, config)
        assert validate(baseline).ok

        full = np.ones(6, dtype=bool)
        model_mean = float(
            log_evaluate_batch(hybrid6_model, hybrid6_test.values, full).mean()
        )
        baseline_mean = float(
            log_evaluate_batch(baseline, hybrid6_test.values, full).mean()
        )
        lift = model_mean - baseline_mean

        record_criterion(
            4,
            lift >= 0.1,
            f"held-out mean log-likelihood {model_mean:.3f} vs factorized "
            f"baseline {baseline_mean:.3f}: lift {lift:.3f} nats/row (>= 0.1)",
        )


class TestCriterion5InferenceIdentities:
    def test_conditional_identity_mpe_dominance_and_visit_budget(
        self, fixture_models
    ):
        from collections import Counter

        identity_err = 0.0
        min_margin = np.inf
        budget_ok = True

        for name, (data, model) in fixture_models.items():
            n = model.n_vars

            # conditional-ratio identity on a fully-specified query
            if n > 1:
                given = anchored_evidence(data, model)
                row = data.values[0].copy()
                query_mask = ~given.observed
                query = Evidence(np.where(query_mask, row, 0.0), query_mask)
                lhs = log_conditional(model, query, given)
                merged = query.merged(given)
                rhs = log_evaluate(model, merged) - log_evaluate(model, given)
                identity_err = max(identity_err, abs(lhs - rhs))

            # MPE dominance over 1000 conditional samples, marginalized
            # evidence and (for multivariate models) anchored evidence
            evidences = [Evidence.marginalized(n)]
            if n > 1:
                evidences.append(anchored_evidence(data, model))
            for evidence in evidences:
                _, mpe_value = mpe(model, evidence)
                best = best_of_conditional_samples(model, evidence, seed=5, draws=1000)
                min_margin = min(min_margin, mpe_value - best)

            # visit budget: every query type stays within 2x node count
            queries = [
                lambda c: log_evaluate(model, Evidence.marginalized(n), counter=c),
                lambda c: mpe(model, Evidence.marginalized(n), counter=c),
                lambda c: sample(
                    model, Evidence.marginalized(n), np.random.default_rng(0),
                    counter=c,
                ),
            ]
            if n > 1:
                queries.append(
                    lambda c, g=anchored_evidence(data, model): log_conditional(
                        model, Evidence.marginalized(n), g, counter=c
                    )
                )
            for run in queries:
                counter = Counter()
                run(counter)
                total = sum(counter.values())
                budget_ok = budget_ok and total <= 2 * model.node_count
                budget_ok = budget_ok and max(counter.values()) <= 2

        record_criterion(
            5,
            identity_err <= 1e-12 and min_margin >= 0.0 and budget_ok,
            f"conditional identity max err {identity_err:.1e} (<= 1e-12); "
            f"MPE vs 1000 conditional samples min margin {min_margin:+.5f} (>= 0); "
            f"visit budget <= 2x node count on all query kinds: {budget_ok}",
        )


class TestCriterion6SamplingFidelity:
    def test_ks_statistic_and_mixture_weight_recovery(self, uni1d_model, mix2_model):
        rng = np.random.default_rng(606)
        evidence = Evidence.marginalized(1)
        draws = np.sort(
            np.array([sample(uni1d_model, evidence, rng)[0] for _ in range(50_000)])
        )
        cdf = mixture_cdf(uni1d_model, draws)
        n = draws.size
        upper = np.arange(1, n + 1) / n
        lower = np.arange(0, n) / n
        ks = max(float(np.max(upper - cdf)), float(np.max(cdf - lower)))

        weights = np.sort(np.asarray(mix2_model.root.weights))
        weight_err = float(np.max(np.abs(weights - np.array([0.3, 0.7]))))

        record_criterion(
            6,
            ks <= 0.01 and weight_err <= 0.01,
            f"KS statistic {ks:.4f} over 50000 draws (<= 0.01); "
            f"two-component weights recovered within {weight_err:.4f} (<= 0.01)",
        )


class TestCriterion7MutualInformation:
    def test_independence_duplication_and_planted_edge(
        self, cont_indep_model, hybrid6_model
    ):
        mi_indep, _ = mutual_information(cont_indep_model, 0, 1)

        def bit_leaf(variable, value):
            masses = np.zeros(2)
            masses[value] = 1.0
            return HistogramLeaf(variable, CATEGORICAL, np.arange(3.0), masses)

        coupled_root = SumNode(
            (0, 1),
            np.array([0.5, 0.5]),
            (
                ProductNode((0, 1), (bit_leaf(0, 0), bit_leaf(1, 0))),
                ProductNode((0, 1), (bit_leaf(0, 1), bit_leaf(1, 1))),
            ),
        )
        coupled_data = make_dataset(
            [("left", CATEGORICAL, ("n", "y")), ("right", CATEGORICAL, ("n", "y"))],
            [[0.0, 0.0]],
        )
        coupled = Mspn(coupled_root, coupled_data.schema, LearnConfig())
        mi_coupled, _ = mutual_information(coupled, 0, 1)
        coupled_err = abs(mi_coupled - np.log(2.0))

        graph = mi_graph(hybrid6_model)
        best = max(graph.edges(), key=lambda edge: edge[3])

        record_criterion(
            7,
            mi_indep < 1e-6 and coupled_err <= 1e-3 and (best[0], best[1]) == (0, 1),
            f"independent-pair MI {mi_indep:.1e} (< 1e-6); duplicated-bit MI "
            f"within {coupled_err:.1e} of log 2 (<= 1e-3); strongest nmi edge "
            f"{(best[0], best[1])} == (0, 1)",
        )


class TestCriterion8Determinism:
    def test_seeded_cli_learning_and_round_trip_are_bit_stable(
        self, tmp_path, hybrid6_model, hybrid6_test
    ):
        r = np.random.default_rng(314)
        m = 400
        mode = r.choice(2, size=m, p=[0.6, 0.4])
        temp = np.where(mode == 0, r.uniform(0.0, 1.0, m), r.uniform(2.0, 3.0, m))
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(
            '{"columns":[{"name":"temp","type":"continuous"},'
            '{"name":"mode","type":"categorical","categories":["low","high"]}]}'
        )
        train_path = tmp_path / "train.csv"
        lines = ["temp,mode"]
        lines += [
            f"{t:.6f},{'low' if c == 0 else 'high'}" for t, c in zip(temp, mode)
        ]
        train_path.write_text("\n".join(lines) + "\n")

        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out_a, out_b):
            code = main(
                ["learn", "--data", str(train_path), "--schema", str(schema_path),
                 "--out", str(out), "--seed", "7"]
            )
            assert code == 0
        identical = out_a.read_bytes() == out_b.read_bytes()

        restored = deserialize(serialize(hybrid6_model))
        rng = np.random.default_rng(424242)
        rows = hybrid6_test.values
        exact = 0
        for _ in range(100):
            row = rows[rng.integers(0, rows.shape[0])].copy()
            observed = rng.random(6) < 0.5
            evidence = Evidence(row, observed)
            if log_evaluate(hybrid6_model, evidence) == log_evaluate(
                restored, evidence
            ):
                exact += 1

        record_criterion(
            8,
            identical and exact == 100,
            f"seed-7 relearn byte-identical: {identical}; round trip preserved "
            f"log_evaluate bit-exactly on {exact}/100 random evidences",
        )


class TestCriterion9LeafQuality:
    def test_uniform_bins_tent_mean_and_fixture_unimodality(self, fixture_models):
        r = np.random.default_rng(2718)
        uniform = fit_histogram(
            r.uniform(0.0, 1.0, 10_000), StatType(CONTINUOUS), smoothing=0.0
        )
        densities = uniform.masses / np.diff(uniform.edges)
        flatness = float(np.max(np.abs(densities - 1.0)))

        tent = PiecewiseLinearLeaf(
            0, CONTINUOUS, np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]), 1
        )
        draws = np.array([leaf_sample(tent, r) for _ in range(100_000)])
        tent_err = abs(float(draws.mean()) - 1.0)

        unimodal = True
        pwl_count = 0
        for _, model in fixture_models.values():
            for _, node in iter_nodes(model.root):
                if isinstance(node, PiecewiseLinearLeaf):
                    pwl_count += 1
                    k = node.mode_index
                    rising = np.all(np.diff(node.knots_y[: k + 1]) >= 0)
                    falling = np.all(np.diff(node.knots_y[k:]) <= 0)
                    unimodal = unimodal and bool(rising and falling)

        record_criterion(
            9,
            flatness <= 0.15 and tent_err <= 0.01 and unimodal,
            f"uniform bin densities within {flatness:.3f} of 1.0 (<= 0.15); "
            f"tent sampling mean off by {tent_err:.4f} (<= 0.01); "
            f"{pwl_count} isotonic leaves all unimodal: {unimodal}",
        )
