//! Property-based tests for the connectivity analysis layer.

use flowgraph::even::EvenNetwork;
use flowgraph::generators;
use flowgraph::maxflow::EdmondsKarp;
use flowgraph::DiGraph;
use kad_resilience::attack::{
    simulate_attack, AttackStrategy, Campaign, CampaignConfig, CampaignStrategy,
    IncrementalConnectivity,
};
use kad_resilience::estimator::{sampled_kappa, SampledKappaConfig};
use kad_resilience::graph::{exact_connectivity, has_connectivity_at_least};
use kad_resilience::pair::PairEvaluator;
use kad_resilience::sampled::sampled_connectivity;
use kad_resilience::{analyze_graph, AnalysisConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_digraph(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 5)
            .prop_map(move |edges| DiGraph::from_edges(n, edges))
    })
}

/// Brute-force Edmonds–Karp oracle: `κ(v, w)` for every non-adjacent
/// ordered pair, in source-major order.
fn oracle_flows(g: &DiGraph) -> Vec<u64> {
    let n = g.node_count() as u32;
    let mut even = EvenNetwork::from_graph(g);
    (0..n)
        .flat_map(|v| (0..n).map(move |w| (v, w)))
        .filter_map(|(v, w)| even.vertex_connectivity(&EdmondsKarp::new(), v, w, None))
        .collect()
}

/// The oracle's minimum, with the sweep's convention for graphs without a
/// non-adjacent pair (`n − 1`, as for complete graphs).
fn oracle_min(g: &DiGraph, flows: &[u64]) -> u64 {
    flows
        .iter()
        .copied()
        .min()
        .unwrap_or(g.node_count() as u64 - 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sampling can only raise the observed minimum; c = 1.0 equals the
    /// exact sweep.
    #[test]
    fn sampling_bounds(g in arb_digraph(14)) {
        let exact = sampled_connectivity(&g, &AnalysisConfig::exact());
        let sampled = sampled_connectivity(
            &g,
            &AnalysisConfig { min_sources: 2, ..AnalysisConfig::default() },
        );
        prop_assert!(sampled.min >= exact.min);
        let full_again = sampled_connectivity(&g, &AnalysisConfig::exact());
        prop_assert_eq!(exact, full_again, "exact sweep is deterministic");
    }

    /// The engine agrees with the Edmonds–Karp oracle on every pair, with
    /// and without a cutoff (a cut-off value is a certified lower bound:
    /// at least the cutoff, never above the exact value).
    #[test]
    fn solver_equivalence(g in arb_digraph(12), cutoff in 1u64..6) {
        let n = g.node_count() as u32;
        let mut eval = PairEvaluator::new(&g);
        let mut even = EvenNetwork::from_graph(&g);
        for v in 0..n {
            for w in 0..n {
                let exact = even.vertex_connectivity(&EdmondsKarp::new(), v, w, None);
                prop_assert_eq!(eval.connectivity(v, w, None), exact, "({}, {})", v, w);
                let bounded = eval.connectivity(v, w, Some(cutoff));
                match (bounded, exact) {
                    (Some(b), Some(e)) if e >= cutoff => {
                        prop_assert!(b >= cutoff && b <= e, "({}, {}): {} vs {}", v, w, b, e);
                    }
                    _ => prop_assert_eq!(bounded, exact, "below cutoff the value is exact"),
                }
            }
        }
    }

    /// The min-only sweep the live sampler runs (cutoff pruning, every
    /// source) finds the oracle's minimum and zero-pair count.
    #[test]
    fn batched_sweep_matches_per_pair(g in arb_digraph(12)) {
        let sweep = sampled_connectivity(
            &g,
            &AnalysisConfig { sample_fraction: 1.0, ..AnalysisConfig::min_only() },
        );
        let flows = oracle_flows(&g);
        prop_assert_eq!(sweep.min, oracle_min(&g, &flows));
        prop_assert_eq!(sweep.pairs_evaluated, flows.len());
        prop_assert_eq!(sweep.zero_pairs, flows.iter().filter(|&&f| f == 0).count());
    }

    /// The exact sweep equals a brute-force Edmonds–Karp sweep over every
    /// non-adjacent ordered pair.
    #[test]
    fn exact_sweep_matches_brute_force_oracle(g in arb_digraph(12)) {
        let sweep = sampled_connectivity(&g, &AnalysisConfig::exact());
        let flows = oracle_flows(&g);
        let min = oracle_min(&g, &flows);
        prop_assert_eq!(sweep.min, min);
        prop_assert_eq!(sweep.pairs_evaluated, flows.len());
        prop_assert_eq!(sweep.zero_pairs, flows.iter().filter(|&&f| f == 0).count());
        let avg = if flows.is_empty() {
            min as f64
        } else {
            flows.iter().sum::<u64>() as f64 / flows.len() as f64
        };
        prop_assert_eq!(sweep.avg, Some(avg));
    }

    /// Cutoff pruning preserves the exact minimum.
    #[test]
    fn cutoff_preserves_minimum(g in arb_digraph(12)) {
        let full = sampled_connectivity(&g, &AnalysisConfig::exact());
        let pruned = sampled_connectivity(
            &g,
            &AnalysisConfig { use_cutoff: true, ..AnalysisConfig::exact() },
        );
        prop_assert_eq!(full.min, pruned.min);
    }

    /// Equation 2 as a theorem: removing any fewer-than-κ vertices leaves
    /// the graph strongly connected.
    #[test]
    fn equation2_theorem(g in arb_digraph(10), seed in any::<u64>()) {
        // Densify with a bidirected ring so κ >= 2 is common (sparse random
        // digraphs are almost always 0- or 1-connected).
        let mut g = g;
        let n = g.node_count() as u32;
        for v in 0..n {
            g.add_edge(v, (v + 1) % n);
            g.add_edge((v + 1) % n, v);
        }
        let kappa = exact_connectivity(&g, &AnalysisConfig::default());
        if kappa < 2 {
            return Ok(()); // nothing to remove within budget
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..8 {
            let outcome = simulate_attack(
                &g,
                (kappa - 1) as usize,
                AttackStrategy::Random,
                &mut rng,
            )
            .expect("budget κ−1 < n");
            prop_assert!(outcome.survivors_connected, "κ={} attack disconnected", kappa);
        }
    }

    /// The threshold decision procedure brackets the exact value.
    #[test]
    fn decision_procedure_brackets(g in arb_digraph(10)) {
        let config = AnalysisConfig::default();
        let kappa = exact_connectivity(&g, &config);
        prop_assert!(has_connectivity_at_least(&g, kappa));
        prop_assert!(!has_connectivity_at_least(&g, kappa + 1));
    }

    /// Reports are internally consistent.
    #[test]
    fn report_consistency(g in arb_digraph(12)) {
        let report = analyze_graph(&g, &AnalysisConfig::exact());
        prop_assert_eq!(report.node_count, g.node_count());
        prop_assert_eq!(report.edge_count, g.edge_count());
        let avg = report.avg_connectivity.expect("exact analysis keeps the mean");
        prop_assert!(report.min_connectivity as f64 <= avg + 1e-9
            || report.pairs_evaluated == 0);
        prop_assert_eq!(report.strongly_connected, report.disconnected_nodes == 0);
        if !report.strongly_connected {
            prop_assert_eq!(report.min_connectivity, 0);
        }
        prop_assert!(report.reciprocity >= 0.0 && report.reciprocity <= 1.0);
        prop_assert_eq!(report.resilience(), report.min_connectivity.saturating_sub(1));
    }

    /// On symmetric k-out graphs (Kademlia-like), the paper's default
    /// sampling finds the exact minimum.
    #[test]
    fn paper_sampling_exact_on_kademlia_like(seed in any::<u64>(), n in 20usize..60) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::random_k_out_symmetric(n, 4, &mut rng);
        let exact = sampled_connectivity(&g, &AnalysisConfig::exact());
        let sampled = sampled_connectivity(&g, &AnalysisConfig::default());
        prop_assert_eq!(sampled.min, exact.min);
    }

    /// A campaign replayed from the same RNG stream seed is byte-identical:
    /// same compromise schedule, same κ series, same flow counts.
    #[test]
    fn campaign_replay_is_byte_identical(g in arb_digraph(12), seed in any::<u64>()) {
        for strategy in [
            CampaignStrategy::Random,
            CampaignStrategy::HighestDegree,
            CampaignStrategy::MinCutGuided,
        ] {
            let budget = (g.node_count() / 2).max(1);
            let config = CampaignConfig { strategy, budget, seed };
            let a = Campaign::new(&g, config).expect("budget < n").run();
            let b = Campaign::new(&g, config).expect("budget < n").run();
            prop_assert_eq!(a, b, "{:?}", strategy);
        }
    }

    /// The incremental dirty-pair tracker agrees exactly with a full
    /// re-sweep after every removal.
    #[test]
    fn incremental_matches_full_resweep(g in arb_digraph(10), seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tracker = IncrementalConnectivity::new(&g);
        let mut removed = std::collections::HashSet::new();
        for _ in 0..g.node_count().min(4) {
            let alive = tracker.alive_vertices();
            if alive.len() <= 1 {
                break;
            }
            let victim = alive[rand::Rng::random_range(&mut rng, 0..alive.len())];
            tracker.remove(victim).expect("alive victim");
            removed.insert(victim);
            let (survivor, _) = g.remove_vertices(&removed);
            let oracle = sampled_connectivity(
                &survivor,
                &AnalysisConfig { parallel: false, ..AnalysisConfig::exact() },
            );
            let got = tracker.summary();
            prop_assert_eq!(got.min, oracle.min);
            prop_assert_eq!(got.pairs_evaluated, oracle.pairs_evaluated);
            prop_assert_eq!(got.zero_pairs, oracle.zero_pairs);
            let avg = got.avg.expect("tracker keeps full flow values");
            let oracle_avg = oracle.avg.expect("exact sweep defines the mean");
            prop_assert!((avg - oracle_avg).abs() < 1e-12);
        }
    }

    /// Interleaved removals, restores, and edge insertions stay in exact
    /// agreement with a from-scratch re-sweep of the current topology.
    #[test]
    fn incremental_insertion_matches_full_resweep(
        g in arb_digraph(9),
        seed in any::<u64>(),
        script in proptest::collection::vec(0u8..4, 1..8),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tracker = IncrementalConnectivity::new(&g);
        // Current topology mirrored outside the tracker: base graph grown
        // by insertions, minus the currently removed vertex set.
        let mut grown = g.clone();
        let n = g.node_count() as u32;
        let mut removed = std::collections::HashSet::new();
        for op in script {
            match op {
                // Remove a random alive vertex (keep at least one alive).
                0 | 1 => {
                    let alive = tracker.alive_vertices();
                    if alive.len() <= 1 {
                        continue;
                    }
                    let victim = alive[rand::Rng::random_range(&mut rng, 0..alive.len())];
                    tracker.remove(victim).expect("alive victim");
                    removed.insert(victim);
                }
                // Restore a random removed vertex.
                2 => {
                    if removed.is_empty() {
                        continue;
                    }
                    let mut gone: Vec<u32> = removed.iter().copied().collect();
                    gone.sort_unstable();
                    let back = gone[rand::Rng::random_range(&mut rng, 0..gone.len())];
                    tracker.restore(back).expect("was removed");
                    removed.remove(&back);
                }
                // Insert a random new edge between alive vertices.
                _ => {
                    let u = rand::Rng::random_range(&mut rng, 0..n);
                    let v = rand::Rng::random_range(&mut rng, 0..n);
                    if u == v || removed.contains(&u) || removed.contains(&v) {
                        continue;
                    }
                    tracker.insert_edge(u, v).expect("alive endpoints");
                    grown.add_edge(u, v);
                }
            }
            let (survivor, _) = grown.remove_vertices(&removed);
            let oracle = sampled_connectivity(
                &survivor,
                &AnalysisConfig { parallel: false, ..AnalysisConfig::exact() },
            );
            let got = tracker.summary();
            prop_assert_eq!(got.min, oracle.min);
            prop_assert_eq!(got.pairs_evaluated, oracle.pairs_evaluated);
            prop_assert_eq!(got.zero_pairs, oracle.zero_pairs);
            let avg = got.avg.expect("tracker keeps full flow values");
            let oracle_avg = oracle.avg.expect("exact sweep defines the mean");
            prop_assert!((avg - oracle_avg).abs() < 1e-12);
        }
    }

    /// Densification never lowers exact connectivity.
    #[test]
    fn densification_monotone(g in arb_digraph(10), extra in proptest::collection::vec((0u32..10, 0u32..10), 0..20)) {
        let before = exact_connectivity(&g, &AnalysisConfig::default());
        let mut h = g.clone();
        let n = h.node_count() as u32;
        for (u, v) in extra {
            if u < n && v < n && u != v {
                h.add_edge(u, v);
            }
        }
        let after = exact_connectivity(&h, &AnalysisConfig::default());
        prop_assert!(after >= before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small pair populations take the estimator's exhaustive path: the
    /// estimate IS the exact mean (identical integer sum and count, so the
    /// floats match bit-for-bit) and the interval collapses to a point on
    /// it.
    #[test]
    fn estimator_exhaustive_path_matches_exact_sweep(g in arb_digraph(14)) {
        let est = sampled_kappa(&g, &SampledKappaConfig::default());
        prop_assert!(est.exact, "14*13 pairs always fit the default budget");
        let exact = sampled_connectivity(&g, &AnalysisConfig::exact());
        let mean = exact.avg.expect("exact sweep defines the mean");
        prop_assert_eq!(est.kappa_est, mean);
        prop_assert_eq!(est.ci_lo, est.ci_hi);
        prop_assert!(est.brackets(mean));
        if est.strongly_connected {
            prop_assert!(est.min_sampled >= exact.min);
        } else {
            prop_assert_eq!(est.min_sampled, 0);
            prop_assert_eq!(exact.min, 0, "SCC pre-check agrees with sweep");
        }
    }

    /// With a budget genuinely below the pair population, the stratified
    /// CI brackets the exact mean — on the graph family the estimator is
    /// built for: symmetric k-out graphs, the synthetic analogue of
    /// Kademlia connectivity graphs (well-concentrated flows; a nominal
    /// normal CI on arbitrary zero-inflated digraphs would be fiction).
    /// Confidence is 99.9% and the proptest seed is deterministic, so this
    /// encodes fixed validation cells, not a flaky coin flip.
    #[test]
    fn estimator_ci_brackets_exact_under_sampling(
        n in 30usize..56,
        k in 3usize..7,
        seed in 0u64..1024,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::random_k_out_symmetric(n, k, &mut rng);
        let config = SampledKappaConfig {
            target_pairs: 150,
            confidence: 0.999,
            seed: seed ^ 0xbeef,
            ..SampledKappaConfig::default()
        };
        let est = sampled_kappa(&g, &config);
        prop_assert!(!est.exact, "population n(n-1-k) far exceeds 150");
        let exact = sampled_connectivity(&g, &AnalysisConfig::exact());
        let mean = exact.avg.expect("exact sweep defines the mean");
        prop_assert!(est.ci_lo <= est.ci_hi);
        prop_assert!(
            est.brackets(mean),
            "CI [{}, {}] misses exact mean {}",
            est.ci_lo, est.ci_hi, mean
        );
        if est.strongly_connected {
            prop_assert!(est.min_sampled >= exact.min);
        } else {
            prop_assert_eq!(est.min_sampled, 0);
        }
    }
}
