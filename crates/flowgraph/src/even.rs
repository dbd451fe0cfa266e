//! Even's vertex-splitting transformation (paper, Section 4.3).
//!
//! Vertex connectivity asks for the minimum number of *vertices* whose
//! removal disconnects `w` from `v`. Max-flow algorithms bound *edges*, so
//! Even's transformation splits every vertex `x` of the directed graph
//! `D(V, E)` into an incoming copy `x'` and an outgoing copy `x''` joined by
//! an internal arc `(x', x'')` of capacity 1:
//!
//! * every original edge `(u, x)` becomes an arc `(u'', x')`;
//! * the max flow from `v''` to `w'` in the transformed network `D'` equals
//!   the vertex connectivity `κ(v, w)` for **non-adjacent** `v, w`
//!   (Menger's theorem).
//!
//! The transformed network has `2n` vertices and `m + n` arcs, exactly as
//! stated in the paper.
//!
//! The paper assigns capacity 1 to the transformed edge arcs; infinite
//! capacity yields the same flow value for non-adjacent pairs (any unit of
//! flow through an edge must also traverse an internal arc) but guarantees
//! that minimum cuts consist of internal arcs only, which is what
//! [`crate::mincut`] needs to read off the vertex cut. Both variants are
//! offered via [`EdgeCapacity`]; their equivalence is property-tested.

use crate::digraph::DiGraph;
use crate::maxflow::{FlowNetwork, FlowWorkspace, MaxFlow, INF_CAP};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Capacity assigned to transformed edge arcs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeCapacity {
    /// Capacity 1, exactly as in the paper's construction (Figure 1).
    #[default]
    Unit,
    /// Effectively unbounded capacity; minimum cuts then contain only
    /// internal (vertex) arcs.
    Infinite,
}

/// An Even-transformed flow network, remembering enough of the original
/// graph to refuse adjacent pairs.
///
/// # Example
///
/// ```
/// use flowgraph::{DiGraph, EvenNetwork};
/// use flowgraph::maxflow::{Dinic, MaxFlow};
///
/// // 0 -> 1 -> 2 and 0 -> 3 -> 2: two vertex-disjoint paths.
/// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (0, 3), (3, 2)]);
/// let mut even = EvenNetwork::from_graph(&g);
/// assert_eq!(even.vertex_connectivity(&Dinic::new(), 0, 2, None), Some(2));
/// // Adjacent pairs have no defined vertex connectivity.
/// assert_eq!(even.vertex_connectivity(&Dinic::new(), 0, 1, None), None);
/// ```
/// Cloning an `EvenNetwork` — e.g. to hand each sweep worker its own
/// mutable residual state — shares the original graph behind an [`Arc`]
/// and only duplicates the flow network itself.
#[derive(Clone, Debug)]
pub struct EvenNetwork {
    net: FlowNetwork,
    graph: Arc<DiGraph>,
    edge_cap: EdgeCapacity,
}

impl EvenNetwork {
    /// Builds the transformation with unit edge capacities (the paper's
    /// construction).
    pub fn from_graph(graph: &DiGraph) -> Self {
        Self::with_edge_capacity(graph, EdgeCapacity::Unit)
    }

    /// Builds the transformation with a chosen edge-arc capacity.
    pub fn with_edge_capacity(graph: &DiGraph, edge_cap: EdgeCapacity) -> Self {
        Self::from_shared(Arc::new(graph.clone()), edge_cap)
    }

    /// Builds the transformation around an already-shared graph, avoiding
    /// the graph clone of [`EvenNetwork::with_edge_capacity`].
    pub fn from_shared(graph: Arc<DiGraph>, edge_cap: EdgeCapacity) -> Self {
        let n = graph.node_count();
        let mut net = FlowNetwork::new(2 * n);
        // Internal arcs x' -> x'' with capacity 1 (vertex capacity).
        for x in 0..n as u32 {
            net.add_arc(Self::in_vertex(x), Self::out_vertex(x), 1);
        }
        let cap = match edge_cap {
            EdgeCapacity::Unit => 1,
            EdgeCapacity::Infinite => INF_CAP,
        };
        for (u, x) in graph.edges() {
            net.add_arc(Self::out_vertex(u), Self::in_vertex(x), cap);
        }
        EvenNetwork {
            net,
            graph,
            edge_cap,
        }
    }

    /// Incoming copy `x'` of original vertex `x`.
    #[inline]
    pub fn in_vertex(x: u32) -> u32 {
        2 * x
    }

    /// Arc id of the internal arc `x' -> x''` in the transformed network.
    ///
    /// Internal arcs are created first during construction, one per original
    /// vertex in ascending order, and every arc consumes two residual slots
    /// (forward + reverse), so vertex `x`'s internal arc is id `2x`. The
    /// mapping is an invariant of the constructor and is asserted by tests;
    /// incremental connectivity tracking uses it to delete vertices in place
    /// (zero the internal arc's base capacity) and to read which vertices a
    /// computed flow crossed.
    #[inline]
    pub fn internal_arc(x: u32) -> u32 {
        2 * x
    }

    /// Outgoing copy `x''` of original vertex `x`.
    #[inline]
    pub fn out_vertex(x: u32) -> u32 {
        2 * x + 1
    }

    /// Maps a transformed vertex back to its original vertex.
    #[inline]
    pub fn original_vertex(transformed: u32) -> u32 {
        transformed / 2
    }

    /// Whether a transformed vertex is an incoming copy (`x'`).
    #[inline]
    pub fn is_in_copy(transformed: u32) -> bool {
        transformed.is_multiple_of(2)
    }

    /// Number of vertices in the *original* graph.
    pub fn original_node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The edge-arc capacity mode this network was built with.
    pub fn edge_capacity(&self) -> EdgeCapacity {
        self.edge_cap
    }

    /// The underlying flow network (`2n` vertices, `m + n` arcs).
    pub fn network(&self) -> &FlowNetwork {
        &self.net
    }

    /// Mutable access to the underlying flow network, e.g. to run a solver
    /// manually or to inspect arc flows after a computation.
    pub fn network_mut(&mut self) -> &mut FlowNetwork {
        &mut self.net
    }

    /// The original connectivity graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Restores residual capacities so another pair can be computed.
    pub fn reset(&mut self) {
        self.net.reset();
    }

    /// Computes `κ(v, w)` — the vertex connectivity from `v` to `w` — with
    /// the given solver.
    ///
    /// Returns `None` when `v == w` or when the edge `(v, w)` exists: the
    /// minimum vertex cut (and hence `κ`) is undefined for adjacent pairs
    /// and the paper excludes them from the minimum (Equation 1).
    ///
    /// The network is reset before the computation, so calls are
    /// independent. If `cutoff` is `Some(c)` the returned value may be any
    /// certified lower bound `>= c` (see [`MaxFlow::max_flow`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` or `w` is out of range.
    pub fn vertex_connectivity<S: MaxFlow + ?Sized>(
        &mut self,
        solver: &S,
        v: u32,
        w: u32,
        cutoff: Option<u64>,
    ) -> Option<u64> {
        let mut workspace = FlowWorkspace::new();
        self.vertex_connectivity_with(solver, v, w, cutoff, &mut workspace)
    }

    /// [`EvenNetwork::vertex_connectivity`] with caller-owned scratch: the
    /// network is retargeted to the new `(v, w)` pair in place (its journal
    /// undoes only the arcs the previous run touched) and the solver runs
    /// against `workspace`, so sweeping many pairs allocates nothing.
    pub fn vertex_connectivity_with<S: MaxFlow + ?Sized>(
        &mut self,
        solver: &S,
        v: u32,
        w: u32,
        cutoff: Option<u64>,
        workspace: &mut FlowWorkspace,
    ) -> Option<u64> {
        assert!(
            (v as usize) < self.graph.node_count() && (w as usize) < self.graph.node_count(),
            "vertex out of range"
        );
        if v == w || self.graph.has_edge(v, w) {
            return None;
        }
        self.net.reset();
        Some(solver.max_flow_with(
            &mut self.net,
            Self::out_vertex(v),
            Self::in_vertex(w),
            cutoff,
            workspace,
        ))
    }
}

/// Builds a plain unit-capacity flow network from a directed graph
/// (capacity 1 per edge, no vertex splitting).
///
/// Max flow in this network is the *edge* connectivity between the chosen
/// pair — the quantity Figure 1(a) of the paper contrasts with the vertex
/// connectivity of the transformed graph.
pub fn unit_flow_network(graph: &DiGraph) -> FlowNetwork {
    let mut net = FlowNetwork::new(graph.node_count());
    for (u, v) in graph.edges() {
        net.add_arc(u, v, 1);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::paper_figure1;
    use crate::maxflow::{Dinic, EdmondsKarp};

    #[test]
    fn figure1_edge_flow_is_3() {
        // Paper, Figure 1(a): maximum flow from a to i in the original
        // connectivity graph is 3.
        let g = paper_figure1();
        let mut net = unit_flow_network(&g);
        assert_eq!(Dinic::new().max_flow(&mut net, 0, 8, None), 3);
    }

    #[test]
    fn figure1_vertex_connectivity_is_1() {
        // Paper, Figure 1(b): in the transformed graph the max flow from a''
        // to i' equals the vertex connectivity of 1 (cut vertex e).
        let g = paper_figure1();
        for solver in [&Dinic::new() as &dyn MaxFlow, &EdmondsKarp::new()] {
            let mut even = EvenNetwork::from_graph(&g);
            assert_eq!(
                even.vertex_connectivity(solver, 0, 8, None),
                Some(1),
                "solver {}",
                solver.name()
            );
        }
    }

    #[test]
    fn transformed_sizes_match_paper() {
        // "The resulting graph D' has 2n vertices and m + n edges."
        let g = paper_figure1();
        let even = EvenNetwork::from_graph(&g);
        assert_eq!(even.network().node_count(), 2 * g.node_count());
        assert_eq!(even.network().arc_count(), g.edge_count() + g.node_count());
    }

    #[test]
    fn adjacent_pairs_are_undefined() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let mut even = EvenNetwork::from_graph(&g);
        assert_eq!(even.vertex_connectivity(&Dinic::new(), 0, 1, None), None);
        assert_eq!(even.vertex_connectivity(&Dinic::new(), 0, 0, None), None);
        // 2 -> 0 does not exist, so that direction is defined.
        assert!(even
            .vertex_connectivity(&Dinic::new(), 2, 0, None)
            .is_some());
    }

    #[test]
    fn unit_and_infinite_caps_agree_on_non_adjacent_pairs() {
        let g = paper_figure1();
        let mut unit = EvenNetwork::from_graph(&g);
        let mut inf = EvenNetwork::with_edge_capacity(&g, EdgeCapacity::Infinite);
        for v in 0..9u32 {
            for w in 0..9u32 {
                let a = unit.vertex_connectivity(&Dinic::new(), v, w, None);
                let b = inf.vertex_connectivity(&Dinic::new(), v, w, None);
                assert_eq!(a, b, "pair ({v},{w})");
            }
        }
    }

    #[test]
    fn vertex_index_mapping_roundtrip() {
        for x in 0..100u32 {
            assert_eq!(EvenNetwork::original_vertex(EvenNetwork::in_vertex(x)), x);
            assert_eq!(EvenNetwork::original_vertex(EvenNetwork::out_vertex(x)), x);
            assert!(EvenNetwork::is_in_copy(EvenNetwork::in_vertex(x)));
            assert!(!EvenNetwork::is_in_copy(EvenNetwork::out_vertex(x)));
        }
    }

    #[test]
    fn internal_arc_ids_match_construction() {
        let g = paper_figure1();
        let even = EvenNetwork::from_graph(&g);
        for x in 0..g.node_count() as u32 {
            let arc = EvenNetwork::internal_arc(x);
            // The internal arc runs x' -> x'' with unit capacity.
            assert_eq!(even.network().arc_head(arc), EvenNetwork::out_vertex(x));
            assert_eq!(even.network().residual(arc), 1, "unit vertex capacity");
        }
    }

    #[test]
    fn internal_arcs_witness_disjoint_paths() {
        // Two vertex-disjoint paths 0 -> 1 -> 3 and 0 -> 2 -> 3: after the
        // flow, exactly the interior vertices 1 and 2 carry flow through
        // their internal arcs (the invariant incremental tracking reads).
        let g = DiGraph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
        let mut even = EvenNetwork::from_graph(&g);
        assert_eq!(even.vertex_connectivity(&Dinic::new(), 0, 3, None), Some(2));
        let crossed: Vec<u32> = (0..4u32)
            .filter(|&x| even.network().flow(EvenNetwork::internal_arc(x)) > 0)
            .collect();
        assert_eq!(crossed, vec![1, 2]);
    }

    #[test]
    fn connectivity_bounded_by_degrees() {
        let g = paper_figure1();
        let mut even = EvenNetwork::from_graph(&g);
        for v in 0..9u32 {
            for w in 0..9u32 {
                if let Some(k) = even.vertex_connectivity(&Dinic::new(), v, w, None) {
                    assert!(k <= g.out_degree(v) as u64, "κ({v},{w}) > dout");
                    assert!(k <= g.in_degree(w) as u64, "κ({v},{w}) > din");
                }
            }
        }
    }
}
