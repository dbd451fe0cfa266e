//! Pairwise vertex connectivity `κ(v, w)`.

use flowgraph::even::{EdgeCapacity, EvenNetwork};
use flowgraph::maxflow::{BatchedDinic, FlowWorkspace};
use flowgraph::DiGraph;
use std::sync::Arc;

/// Computes `κ(v, w)` for a single pair: the number of node-disjoint
/// `v -> w` paths, equivalently the size of a minimum `v`-`w` vertex cut.
///
/// Returns `None` when `v == w` or `(v, w)` is an edge (vertex connectivity
/// is undefined for adjacent pairs; the paper excludes them from Equation
/// 1's minimum).
///
/// This convenience function rebuilds the Even transformation per call; use
/// [`PairEvaluator`] to amortize the construction over many pairs.
///
/// # Example
///
/// ```
/// use flowgraph::generators::paper_figure1;
/// use kad_resilience::pair::pair_connectivity;
///
/// let g = paper_figure1();
/// assert_eq!(pair_connectivity(&g, 0, 8), Some(1));
/// ```
pub fn pair_connectivity(g: &DiGraph, v: u32, w: u32) -> Option<u64> {
    PairEvaluator::new(g).connectivity(v, w, None)
}

/// Reusable evaluator: one Even network, one batched max-flow engine, one
/// workspace — many pairs, zero per-pair allocation.
///
/// The engine is [`BatchedDinic`]: pairs that share a source reuse one
/// clean-network BFS level graph, and a capacity-bound early exit skips
/// the final certifying BFS on bound-attaining pairs.
///
/// Cloning is cheap and exact: the underlying graph is shared (`Arc`) and
/// the residual network is duplicated so each clone can run independently
/// — clones are how the parallel sweep hands each rayon worker its own
/// evaluator.
#[derive(Clone)]
pub struct PairEvaluator {
    even: EvenNetwork,
    engine: BatchedDinic,
    workspace: FlowWorkspace,
}

impl PairEvaluator {
    /// Builds the evaluator for a graph.
    pub fn new(g: &DiGraph) -> Self {
        Self::from_shared(Arc::new(g.clone()))
    }

    /// Builds the evaluator around an already-shared graph, avoiding the
    /// graph clone of [`PairEvaluator::new`].
    pub fn from_shared(g: Arc<DiGraph>) -> Self {
        let even = EvenNetwork::from_shared(g, EdgeCapacity::Unit);
        let workspace = FlowWorkspace::for_network(even.network());
        PairEvaluator {
            even,
            engine: BatchedDinic::new(),
            workspace,
        }
    }

    /// `κ(v, w)`, or `None` for adjacent/equal pairs. With a cutoff the
    /// result may be any certified lower bound `>= cutoff`.
    pub fn connectivity(&mut self, v: u32, w: u32, cutoff: Option<u64>) -> Option<u64> {
        let n = self.even.original_node_count() as u32;
        assert!(v < n && w < n, "vertex out of range");
        let graph = self.even.graph();
        if v == w || graph.has_edge(v, w) {
            return None;
        }
        // κ(v, w) ≤ min(outdeg(v), indeg(w)) on the unit Even network —
        // tighter than the generic capacity-bound scan and free to compute.
        let bound = (graph.out_degree(v) as u64).min(graph.in_degree(w) as u64);
        let (s, t) = (EvenNetwork::out_vertex(v), EvenNetwork::in_vertex(w));
        Some(self.engine.max_flow_bounded(
            self.even.network_mut(),
            s,
            t,
            cutoff,
            Some(bound),
            &mut self.workspace,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgraph::generators::{bidirected_cycle, complete, paper_figure1};
    use flowgraph::maxflow::EdmondsKarp;

    /// The reference oracle: `κ(v, w)` by Edmonds–Karp on a fresh Even
    /// network.
    fn oracle(g: &DiGraph, v: u32, w: u32) -> Option<u64> {
        EvenNetwork::from_graph(g).vertex_connectivity(&EdmondsKarp::new(), v, w, None)
    }

    #[test]
    fn figure1_pair() {
        let g = paper_figure1();
        assert_eq!(pair_connectivity(&g, 0, 8), Some(1));
        assert_eq!(oracle(&g, 0, 8), Some(1));
    }

    #[test]
    fn adjacent_pairs_undefined() {
        let g = paper_figure1();
        assert_eq!(pair_connectivity(&g, 0, 1), None);
        assert_eq!(pair_connectivity(&g, 3, 3), None);
    }

    #[test]
    fn complete_graph_all_adjacent() {
        let g = complete(5);
        for v in 0..5 {
            for w in 0..5 {
                assert_eq!(pair_connectivity(&g, v, w), None);
            }
        }
    }

    #[test]
    fn evaluator_reuse_matches_one_shot() {
        let g = bidirected_cycle(10);
        let mut eval = PairEvaluator::new(&g);
        for v in 0..10u32 {
            for w in 0..10u32 {
                assert_eq!(
                    eval.connectivity(v, w, None),
                    pair_connectivity(&g, v, w),
                    "pair ({v},{w})"
                );
            }
        }
    }

    #[test]
    fn cutoff_certifies_lower_bound() {
        let g = bidirected_cycle(12);
        let mut eval = PairEvaluator::new(&g);
        let bounded = eval.connectivity(0, 6, Some(1)).expect("non-adjacent");
        assert!(bounded >= 1);
        let exact = eval.connectivity(0, 6, None).expect("non-adjacent");
        assert_eq!(exact, 2);
    }

    #[test]
    fn clone_preserves_solver() {
        // A clone runs the same engine: it agrees with the oracle on every
        // pair.
        let g = bidirected_cycle(6);
        let eval = PairEvaluator::new(&g);
        let mut cloned = eval.clone();
        assert_eq!(cloned.connectivity(0, 3, None), Some(2));
        for v in 0..6u32 {
            for w in 0..6u32 {
                assert_eq!(
                    cloned.connectivity(v, w, None),
                    oracle(&g, v, w),
                    "({v},{w})"
                );
            }
        }
    }

    #[test]
    fn clone_mid_sweep_is_independent() {
        // Cloning after some pairs have run must not leak residual state:
        // the clone and the original agree with a fresh evaluator on every
        // remaining pair.
        let g = bidirected_cycle(8);
        let mut eval = PairEvaluator::new(&g);
        for w in 2..6u32 {
            eval.connectivity(0, w, None);
        }
        let mut cloned = eval.clone();
        let mut fresh = PairEvaluator::new(&g);
        for v in 0..8u32 {
            for w in 0..8u32 {
                let expected = fresh.connectivity(v, w, None);
                assert_eq!(eval.connectivity(v, w, None), expected, "orig ({v},{w})");
                assert_eq!(cloned.connectivity(v, w, None), expected, "clone ({v},{w})");
            }
        }
    }
}
