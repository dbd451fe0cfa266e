//! Stratified sampled-κ estimator for large overlays.
//!
//! The paper's c-sampling ([`crate::sampled`]) still evaluates `c·n · (n−1)`
//! pairs — quadratic in `n`, which is what makes a per-minute κ feed
//! unaffordable beyond a few hundred nodes. This module trades the exact
//! sweep for a **fixed pair budget**: it draws a stratified random sample
//! of non-adjacent ordered pairs, computes their vertex connectivities, and
//! reports the stratified mean with a confidence interval.
//!
//! Stratification is by source out-degree quantile. A source's out-degree
//! caps every flow leaving it (the same observation behind the paper's
//! smallest-out-degree source selection), so out-degree strata separate the
//! low-flow tail from the bulk and shrink the estimator variance well below
//! simple random sampling at equal budget.
//!
//! The estimate targets the **mean** pairwise connectivity (the paper's
//! "Avg" curves). The minimum cannot be bracketed by a mean-style CI, so it
//! is reported separately as [`KappaEstimate::min_sampled`] — an upper
//! bound on the true `κ_min`, exact whenever the strong-connectivity
//! pre-check already pins `κ_min = 0` (the common failure mode the paper
//! attributes to a handful of disconnected nodes).
//!
//! When the pair population fits inside the budget the estimator silently
//! becomes the exhaustive sweep: every non-adjacent pair is evaluated once,
//! the CI collapses to a point, and [`KappaEstimate::exact`] is set — this
//! is the property the validation tests lean on at small `n`.

use crate::pair::PairEvaluator;
use flowgraph::scc::is_strongly_connected;
use flowgraph::DiGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration for [`sampled_kappa`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SampledKappaConfig {
    /// Total pair budget. The estimator never evaluates more flows than
    /// this, independent of `n` — the property that makes live per-minute
    /// estimation affordable at 1k–10k nodes.
    pub target_pairs: usize,
    /// Number of out-degree quantile strata. Clamped to the vertex count.
    pub strata: usize,
    /// Two-sided confidence level of the interval, e.g. `0.95`.
    pub confidence: f64,
    /// Seed for the pair draw. Estimation is fully deterministic given
    /// `(graph, config)`.
    pub seed: u64,
}

impl Default for SampledKappaConfig {
    fn default() -> Self {
        SampledKappaConfig {
            target_pairs: 2_000,
            strata: 4,
            confidence: 0.95,
            seed: 0x5eed_cafe,
        }
    }
}

/// Result of a stratified sampled-κ estimation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct KappaEstimate {
    /// Stratified estimate of the mean pairwise vertex connectivity.
    pub kappa_est: f64,
    /// Lower edge of the confidence interval (clamped at 0).
    pub ci_lo: f64,
    /// Upper edge of the confidence interval.
    pub ci_hi: f64,
    /// Confidence level the interval was built for.
    pub confidence: f64,
    /// Smallest connectivity among the evaluated pairs — an upper bound on
    /// the true `κ_min`. Exactly 0 (and exact) whenever the graph is not
    /// strongly connected.
    pub min_sampled: u64,
    /// Whether the strong-connectivity pre-check passed.
    pub strongly_connected: bool,
    /// Pairs whose flow was actually computed.
    pub pairs_sampled: usize,
    /// Non-empty strata used.
    pub strata_used: usize,
    /// `true` when every non-adjacent ordered pair was evaluated, making
    /// `kappa_est` the exact mean and the interval a point.
    pub exact: bool,
}

impl KappaEstimate {
    /// Whether `value` lies inside the confidence interval.
    pub fn brackets(&self, value: f64) -> bool {
        self.ci_lo <= value && value <= self.ci_hi
    }

    fn trivial(kappa: f64, min: u64, strongly: bool, confidence: f64) -> Self {
        KappaEstimate {
            kappa_est: kappa,
            ci_lo: kappa,
            ci_hi: kappa,
            confidence,
            min_sampled: min,
            strongly_connected: strongly,
            pairs_sampled: 0,
            strata_used: 0,
            exact: true,
        }
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation, absolute
/// error below 1.15e-9 — far inside what a sampling CI can resolve).
/// Implemented locally because the offline build environment carries no
/// statistics crate.
fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// Per-stratum accumulator: Welford over sampled flows.
#[derive(Clone, Copy, Default)]
struct StratumStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl StratumStats {
    fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Unbiased sample variance (0 below two samples).
    fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }
}

/// One out-degree stratum: a contiguous run of the out-degree-sorted vertex
/// order, with per-vertex non-adjacent-target counts for weighted source
/// draws.
struct Stratum {
    /// Vertices in this stratum.
    vertices: Vec<u32>,
    /// Cumulative non-adjacent-pair counts over `vertices` (for weighted
    /// source selection); `cum.last()` is the stratum's pair population.
    cum: Vec<u64>,
}

impl Stratum {
    fn population(&self) -> u64 {
        self.cum.last().copied().unwrap_or(0)
    }

    /// Draws a source vertex with probability proportional to its number
    /// of non-adjacent targets.
    fn draw_source(&self, rng: &mut SmallRng) -> u32 {
        let ticket = rng.random_range(0..self.population());
        let idx = self.cum.partition_point(|&c| c <= ticket);
        self.vertices[idx]
    }
}

/// Estimates the mean pairwise vertex connectivity of `g` by stratified
/// pair sampling. See the module docs for the estimator design.
///
/// # Example
///
/// ```
/// use flowgraph::generators::bidirected_cycle;
/// use kad_resilience::estimator::{sampled_kappa, SampledKappaConfig};
///
/// let g = bidirected_cycle(16);
/// let est = sampled_kappa(&g, &SampledKappaConfig::default());
/// // 16 · 13 non-adjacent pairs fit the default budget: exact answer.
/// assert!(est.exact);
/// assert_eq!(est.kappa_est, 2.0);
/// assert!(est.brackets(2.0));
/// ```
pub fn sampled_kappa(g: &DiGraph, config: &SampledKappaConfig) -> KappaEstimate {
    let n = g.node_count();
    let confidence = config.confidence;
    if n <= 1 {
        return KappaEstimate::trivial(0.0, 0, true, confidence);
    }
    let strongly = is_strongly_connected(g);
    if g.is_complete() {
        let k = (n - 1) as f64;
        return KappaEstimate::trivial(k, (n - 1) as u64, strongly, confidence);
    }

    // Per-vertex non-adjacent target counts. `DiGraph` stores simple edges,
    // so vertex v has exactly `n - 1 - out_degree(v)` non-adjacent targets.
    let targets = |v: u32| (n - 1 - g.out_degree(v)) as u64;
    let order = g.vertices_by_out_degree();
    let population: u64 = order.iter().map(|&v| targets(v)).sum();
    if population == 0 {
        // Every ordered pair is an edge (possible with asymmetric near-
        // complete graphs): follow the complete-graph convention.
        let k = (n - 1) as f64;
        return KappaEstimate::trivial(k, (n - 1) as u64, strongly, confidence);
    }

    let mut eval = PairEvaluator::new(g);
    if population <= config.target_pairs as u64 {
        return exhaustive_estimate(g, &mut eval, strongly, confidence);
    }

    // Out-degree quantile strata: contiguous runs of the sorted order with
    // (near-)equal vertex counts, empty ones dropped.
    let strata_count = config.strata.clamp(1, n);
    let mut strata: Vec<Stratum> = Vec::with_capacity(strata_count);
    let chunk = n.div_ceil(strata_count);
    for vs in order.chunks(chunk) {
        let mut cum = Vec::with_capacity(vs.len());
        let mut acc = 0u64;
        for &v in vs {
            acc += targets(v);
            cum.push(acc);
        }
        if acc > 0 {
            strata.push(Stratum {
                vertices: vs.to_vec(),
                cum,
            });
        }
    }

    // Proportional allocation by largest remainder (so the allocations sum
    // to the full budget), then a floor of 2 per stratum (variance needs
    // two samples) — the floor can push the total slightly above the
    // budget for extremely skewed strata, never below.
    let budget = config.target_pairs as u64;
    let mut alloc: Vec<u64> = strata
        .iter()
        .map(|s| (budget * s.population()) / population)
        .collect();
    let assigned: u64 = alloc.iter().sum();
    let mut by_remainder: Vec<usize> = (0..strata.len()).collect();
    by_remainder.sort_by_key(|&i| {
        let rem = (budget * strata[i].population()) % population;
        (std::cmp::Reverse(rem), i)
    });
    for &i in by_remainder.iter().take((budget - assigned) as usize) {
        alloc[i] += 1;
    }
    for a in &mut alloc {
        *a = (*a).max(2);
    }

    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut min_flow = u64::MAX;
    let mut sampled = 0usize;
    let mut stats: Vec<StratumStats> = vec![StratumStats::default(); strata.len()];
    for (stratum, (&n_h, stat)) in strata.iter().zip(alloc.iter().zip(stats.iter_mut())) {
        for _ in 0..n_h {
            let v = stratum.draw_source(&mut rng);
            // Rejection-sample a non-adjacent target. Expected tries are
            // n / (non-adjacent targets of v) — small for the sparse
            // graphs overlays produce, and termination is guaranteed
            // because v has at least one non-adjacent target (weighted
            // draw never selects a source with zero).
            let flow = loop {
                let w = rng.random_range(0..n as u32);
                if w == v {
                    continue;
                }
                if let Some(flow) = eval.connectivity(v, w, None) {
                    break flow;
                }
            };
            stat.record(flow as f64);
            min_flow = min_flow.min(flow);
            sampled += 1;
        }
    }

    // Stratified mean and variance: est = Σ W_h·x̄_h with
    // Var(est) = Σ W_h²·(1 − n_h/N_h)·s_h²/n_h (finite-population
    // correction included — strata the budget nearly exhausts contribute
    // nearly nothing).
    let mut est = 0.0;
    let mut var = 0.0;
    for (stratum, stat) in strata.iter().zip(&stats) {
        let w_h = stratum.population() as f64 / population as f64;
        let n_h = stat.count as f64;
        let fpc = (1.0 - n_h / stratum.population() as f64).max(0.0);
        est += w_h * stat.mean;
        var += w_h * w_h * fpc * stat.variance() / n_h;
    }
    let z = normal_quantile(0.5 + confidence / 2.0);
    let half = z * var.sqrt();
    KappaEstimate {
        kappa_est: est,
        ci_lo: (est - half).max(0.0),
        ci_hi: est + half,
        confidence,
        min_sampled: if strongly { min_flow } else { 0 },
        strongly_connected: strongly,
        pairs_sampled: sampled,
        strata_used: strata.len(),
        exact: false,
    }
}

/// The pair population fits the budget: evaluate every non-adjacent
/// ordered pair once. The result is exact and the interval a point.
fn exhaustive_estimate(
    g: &DiGraph,
    eval: &mut PairEvaluator,
    strongly: bool,
    confidence: f64,
) -> KappaEstimate {
    let n = g.node_count();
    let mut sum = 0u128;
    let mut count = 0usize;
    let mut min_flow = u64::MAX;
    for v in 0..n as u32 {
        for w in 0..n as u32 {
            let Some(flow) = eval.connectivity(v, w, None) else {
                continue;
            };
            sum += u128::from(flow);
            count += 1;
            min_flow = min_flow.min(flow);
        }
    }
    if count == 0 {
        let k = (n - 1) as f64;
        return KappaEstimate::trivial(k, (n - 1) as u64, strongly, confidence);
    }
    let mean = sum as f64 / count as f64;
    KappaEstimate {
        kappa_est: mean,
        ci_lo: mean,
        ci_hi: mean,
        confidence,
        min_sampled: if strongly { min_flow } else { 0 },
        strongly_connected: strongly,
        pairs_sampled: count,
        strata_used: 1,
        exact: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampled::sampled_connectivity;
    use crate::AnalysisConfig;
    use flowgraph::generators::{complete, cycle, gnp, random_k_out_symmetric, star};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn exact_mean(g: &DiGraph) -> f64 {
        sampled_connectivity(g, &AnalysisConfig::exact())
            .avg
            .expect("exact sweep defines the mean")
    }

    #[test]
    fn normal_quantile_matches_known_values() {
        // Classic two-sided z values.
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-5);
        assert!((normal_quantile(0.995) - 2.575_829).abs() < 1e-5);
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.025) + 1.959_964).abs() < 1e-5);
        // Tail branch.
        assert!((normal_quantile(0.001) + 3.090_232).abs() < 1e-5);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let config = SampledKappaConfig::default();
        let e = sampled_kappa(&DiGraph::new(0), &config);
        assert_eq!((e.kappa_est, e.min_sampled, e.exact), (0.0, 0, true));
        let s = sampled_kappa(&DiGraph::new(1), &config);
        assert_eq!((s.kappa_est, s.min_sampled, s.exact), (0.0, 0, true));
    }

    #[test]
    fn complete_graph_is_trivially_exact() {
        let est = sampled_kappa(&complete(9), &SampledKappaConfig::default());
        assert!(est.exact);
        assert_eq!(est.kappa_est, 8.0);
        assert_eq!(est.min_sampled, 8);
        assert_eq!(est.pairs_sampled, 0);
    }

    #[test]
    fn disconnected_graph_reports_zero_min() {
        // Two disjoint bidirected triangles: not strongly connected, so
        // κ_min is exactly 0 regardless of sampling.
        let g = DiGraph::from_edges(
            6,
            [
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 0),
                (0, 2),
                (3, 4),
                (4, 3),
                (4, 5),
                (5, 4),
                (5, 3),
                (3, 5),
            ],
        );
        let est = sampled_kappa(&g, &SampledKappaConfig::default());
        assert!(!est.strongly_connected);
        assert_eq!(est.min_sampled, 0);
        assert!(est.exact, "30 pairs fit any default budget");
        assert!(est.brackets(exact_mean(&g)));
    }

    #[test]
    fn star_graph_degenerate_case() {
        // A bidirected star: every leaf pair's connectivity is 1 (through
        // the hub); hub↔leaf pairs are adjacent and skipped.
        let g = star(8);
        let est = sampled_kappa(&g, &SampledKappaConfig::default());
        assert!(est.exact);
        assert_eq!(est.kappa_est, 1.0);
        assert_eq!(est.min_sampled, 1);
        assert!(est.strongly_connected);
    }

    #[test]
    fn directed_cycle_exact_at_small_n() {
        let g = cycle(10);
        let est = sampled_kappa(&g, &SampledKappaConfig::default());
        assert!(est.exact);
        assert_eq!(est.kappa_est, 1.0);
        assert_eq!(est.min_sampled, 1);
        assert_eq!(est.ci_lo, est.ci_hi);
    }

    #[test]
    fn small_population_matches_exact_sweep_exactly() {
        let mut rng = SmallRng::seed_from_u64(41);
        for _ in 0..8 {
            let g = gnp(18, 0.25, &mut rng);
            let est = sampled_kappa(&g, &SampledKappaConfig::default());
            assert!(est.exact, "18·17 pairs fit the default budget");
            let mean = exact_mean(&g);
            assert!((est.kappa_est - mean).abs() < 1e-9);
            assert!(est.brackets(mean));
        }
    }

    #[test]
    fn sampling_brackets_exact_on_kademlia_like_graphs() {
        // Force genuine sampling with a small budget on symmetric k-out
        // graphs (the closest synthetic analogue of Kademlia connectivity
        // graphs) and check the CI brackets the exact mean. Seeds are
        // fixed; at 99% nominal confidence all cells passing is the
        // expected outcome, not luck.
        let mut rng = SmallRng::seed_from_u64(77);
        for trial in 0..6 {
            let g = random_k_out_symmetric(48, 5, &mut rng);
            let config = SampledKappaConfig {
                target_pairs: 400,
                confidence: 0.99,
                seed: 1000 + trial,
                ..SampledKappaConfig::default()
            };
            let est = sampled_kappa(&g, &config);
            assert!(!est.exact, "budget 400 < 48·42ish pairs");
            assert!(est.pairs_sampled >= 400);
            let mean = exact_mean(&g);
            assert!(
                est.brackets(mean),
                "trial {trial}: CI [{}, {}] misses exact mean {mean}",
                est.ci_lo,
                est.ci_hi
            );
        }
    }

    #[test]
    fn estimation_is_deterministic() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = random_k_out_symmetric(40, 4, &mut rng);
        let config = SampledKappaConfig {
            target_pairs: 300,
            ..SampledKappaConfig::default()
        };
        let a = sampled_kappa(&g, &config);
        let b = sampled_kappa(&g, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn min_sampled_upper_bounds_true_min() {
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..6 {
            let g = gnp(30, 0.3, &mut rng);
            let exact = sampled_connectivity(&g, &AnalysisConfig::exact());
            let est = sampled_kappa(
                &g,
                &SampledKappaConfig {
                    target_pairs: 200,
                    ..SampledKappaConfig::default()
                },
            );
            assert!(est.min_sampled >= exact.min);
        }
    }

    #[test]
    fn budget_caps_work_at_scale() {
        // The whole point: pairs evaluated stays near the budget even as
        // the population explodes.
        let mut rng = SmallRng::seed_from_u64(3);
        let g = random_k_out_symmetric(300, 8, &mut rng);
        let config = SampledKappaConfig {
            target_pairs: 500,
            ..SampledKappaConfig::default()
        };
        let est = sampled_kappa(&g, &config);
        assert!(!est.exact);
        assert!(est.pairs_sampled >= 500);
        assert!(
            est.pairs_sampled < 520,
            "floor-of-2 slack only: {}",
            est.pairs_sampled
        );
        assert!(est.strata_used >= 2);
    }
}
