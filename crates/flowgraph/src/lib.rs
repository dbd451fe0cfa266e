//! Directed graphs and maximum-flow machinery for vertex-connectivity
//! analysis.
//!
//! This crate rebuilds, in pure Rust, the graph-algorithmic substrate used by
//! Heck et al. in *Evaluating Connection Resilience for the Overlay Network
//! Kademlia* (2017):
//!
//! * [`DiGraph`] — the *connectivity graph*: one vertex per overlay node, a
//!   directed edge `(v, w)` iff `w` appears in `v`'s routing table.
//! * [`even::EvenNetwork`] — Even's vertex-splitting transformation, which
//!   reduces vertex connectivity to maximum flow (Section 4.3 of the paper).
//! * [`maxflow`] — the max-flow engine: [`maxflow::BatchedDinic`] runs
//!   every connectivity sweep (shared-source level-graph reuse plus a
//!   capacity-bound early exit), built on the phases of [`maxflow::Dinic`];
//!   [`maxflow::EdmondsKarp`] is the reference oracle the tests compare
//!   against. All support *early cutoff*, the key trick that makes
//!   minimum-connectivity search tractable. The paper ran the C solver HIPR
//!   through DIMACS files; a max-flow value does not depend on the solver,
//!   so neither is needed here.
//! * [`scc`] — strong-connectivity pre-checks (a graph that is not strongly
//!   connected has vertex connectivity zero).
//! * [`mincut`] / [`paths`] — minimum vertex cut extraction and Menger path
//!   witnesses (the node-disjoint paths whose count *is* the resilience).
//! * [`generators`] — deterministic random-graph generators used by tests,
//!   property tests and benches.
//!
//! # Example
//!
//! Compute the vertex connectivity between two vertices of the example graph
//! from Figure 1 of the paper (maximum edge flow 3, vertex connectivity 1):
//!
//! ```
//! use flowgraph::generators::paper_figure1;
//! use flowgraph::even::EvenNetwork;
//! use flowgraph::maxflow::{Dinic, MaxFlow};
//!
//! let g = paper_figure1();
//! let (a, i) = (0, 8);
//! let mut even = EvenNetwork::from_graph(&g);
//! let kappa = even.vertex_connectivity(&Dinic::new(), a, i, None);
//! assert_eq!(kappa, Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digraph;
pub mod even;
pub mod generators;
pub mod maxflow;
pub mod mincut;
pub mod paths;
pub mod scc;

pub use digraph::DiGraph;
pub use even::EvenNetwork;
pub use maxflow::{Dinic, EdmondsKarp, FlowNetwork, FlowWorkspace, MaxFlow};
