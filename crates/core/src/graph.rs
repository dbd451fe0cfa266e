//! Exact graph connectivity `κ(D)` (paper, Section 4.4).

use crate::sampled::connectivity_from_sources;
use crate::AnalysisConfig;
use flowgraph::scc::is_strongly_connected;
use flowgraph::DiGraph;

/// Computes the exact vertex connectivity of the graph:
///
/// * `n − 1` for complete graphs (definition),
/// * `0` whenever the graph is not strongly connected (cheap `O(V+E)`
///   pre-check),
/// * otherwise the minimum of `κ(v, w)` over all `n(n−1)` non-adjacent
///   ordered pairs, computed with cutoff pruning (sound for the minimum).
///
/// The parallelism setting of `config` is honoured; its sampling fraction
/// is ignored (this is the full analysis).
///
/// # Example
///
/// ```
/// use flowgraph::generators::{complete, cycle};
/// use kad_resilience::graph::exact_connectivity;
/// use kad_resilience::AnalysisConfig;
///
/// let config = AnalysisConfig::default();
/// assert_eq!(exact_connectivity(&complete(6), &config), 5);
/// assert_eq!(exact_connectivity(&cycle(6), &config), 1);
/// ```
pub fn exact_connectivity(g: &DiGraph, config: &AnalysisConfig) -> u64 {
    let n = g.node_count();
    if n <= 1 {
        return 0;
    }
    if g.is_complete() {
        return (n - 1) as u64;
    }
    if !is_strongly_connected(g) {
        return 0;
    }
    let sources: Vec<u32> = (0..n as u32).collect();
    let sweep = AnalysisConfig {
        use_cutoff: true,
        ..*config
    };
    connectivity_from_sources(g, &sources, &sweep).min
}

/// Tests whether `κ(D) >= threshold` without computing the exact value
/// (Even's classical decision procedure: every pair flow is cut off at
/// `threshold`).
///
/// Useful when only Equation 2 matters: a network tolerates `a`
/// compromised nodes iff `κ(D) > a`, i.e. `has_connectivity_at_least(g,
/// a + 1)`.
pub fn has_connectivity_at_least(g: &DiGraph, threshold: u64) -> bool {
    let n = g.node_count();
    if threshold == 0 {
        return true;
    }
    if n <= 1 {
        return false;
    }
    if g.is_complete() {
        return (n - 1) as u64 >= threshold;
    }
    if !is_strongly_connected(g) {
        return false;
    }
    if (g.min_degree() as u64) < threshold {
        // κ(D) ≤ min degree for non-complete graphs.
        return false;
    }
    let mut eval = crate::pair::PairEvaluator::new(g);
    for v in 0..n as u32 {
        for w in 0..n as u32 {
            if let Some(flow) = eval.connectivity(v, w, Some(threshold)) {
                if flow < threshold {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgraph::generators::{bidirected_cycle, complete, cycle, gnp, paper_figure1};
    use flowgraph::DiGraph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn config() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    #[test]
    fn known_connectivities() {
        assert_eq!(exact_connectivity(&complete(4), &config()), 3);
        assert_eq!(exact_connectivity(&cycle(7), &config()), 1);
        assert_eq!(exact_connectivity(&bidirected_cycle(7), &config()), 2);
        assert_eq!(exact_connectivity(&paper_figure1(), &config()), 0);
    }

    #[test]
    fn tiny_graphs() {
        assert_eq!(exact_connectivity(&DiGraph::new(0), &config()), 0);
        assert_eq!(exact_connectivity(&DiGraph::new(1), &config()), 0);
        // Two mutually-linked vertices form a complete graph on 2 vertices.
        let g = DiGraph::from_edges(2, [(0, 1), (1, 0)]);
        assert_eq!(exact_connectivity(&g, &config()), 1);
    }

    #[test]
    fn disconnected_graph_is_zero() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]);
        assert_eq!(exact_connectivity(&g, &config()), 0);
    }

    #[test]
    fn connectivity_bounded_by_min_degree() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10 {
            let g = gnp(16, 0.4, &mut rng);
            let kappa = exact_connectivity(&g, &config());
            if !g.is_complete() {
                assert!(kappa <= g.min_degree() as u64);
            }
        }
    }

    #[test]
    fn adding_edges_never_decreases_connectivity() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut g = gnp(12, 0.25, &mut rng);
        let before = exact_connectivity(&g, &config());
        // Densify.
        for u in 0..12u32 {
            for v in 0..12u32 {
                if u != v && (u + v) % 3 == 0 {
                    g.add_edge(u, v);
                }
            }
        }
        let after = exact_connectivity(&g, &config());
        assert!(after >= before, "{after} < {before}");
    }

    #[test]
    fn decision_procedure_matches_exact() {
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..8 {
            let g = gnp(14, 0.35, &mut rng);
            let kappa = exact_connectivity(&g, &config());
            assert!(has_connectivity_at_least(&g, kappa));
            assert!(!has_connectivity_at_least(&g, kappa + 1));
            assert!(has_connectivity_at_least(&g, 0));
        }
    }

    #[test]
    fn decision_procedure_edge_cases() {
        assert!(has_connectivity_at_least(&complete(5), 4));
        assert!(!has_connectivity_at_least(&complete(5), 5));
        assert!(!has_connectivity_at_least(&DiGraph::new(1), 1));
        assert!(has_connectivity_at_least(&DiGraph::new(1), 0));
    }
}
