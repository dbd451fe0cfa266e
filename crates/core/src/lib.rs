//! Vertex-connectivity and resilience analysis of Kademlia networks — the
//! primary contribution of *Evaluating Connection Resilience for the
//! Overlay Network Kademlia* (Heck, Kieselmann, Wacker, 2017).
//!
//! Given a routing-table snapshot of a running overlay (or any directed
//! graph), this crate computes:
//!
//! * `κ(v, w)` for vertex pairs ([`pair`]) via Even's transformation and
//!   the batched max-flow engine (`flowgraph::maxflow::BatchedDinic`),
//! * the exact graph connectivity `κ(D)` ([`graph`]) — minimum over all
//!   non-adjacent ordered pairs, with the complete-graph shortcut and a
//!   strong-connectivity pre-check,
//! * the paper's sampled connectivity ([`sampled`]): flows from the `c·n`
//!   vertices of smallest out-degree to all targets (`c = 0.02` was
//!   validated by the authors on 20 full analyses; the [`sampled`] module
//!   ships the same validation as a reproducible experiment),
//! * minimum & average connectivity reports ([`report`]), the resilience
//!   arithmetic of Equation 2 ([`resilience`]), and attack simulations that
//!   empirically validate it ([`attack`]) — both one-shot removals and
//!   temporal [`attack::Campaign`]s whose per-step `κ` is maintained by an
//!   incremental dirty-pair tracker ([`attack::incremental`]).
//!
//! The per-pair flow computations parallelize with rayon — the stand-in for
//! the 24-node Opteron cluster the authors used.
//!
//! # Example
//!
//! ```
//! use flowgraph::generators::bidirected_cycle;
//! use kad_resilience::graph::exact_connectivity;
//! use kad_resilience::AnalysisConfig;
//!
//! // A bidirected ring: every non-adjacent pair is joined by exactly two
//! // vertex-disjoint paths (clockwise and counter-clockwise).
//! let g = bidirected_cycle(8);
//! let kappa = exact_connectivity(&g, &AnalysisConfig::default());
//! assert_eq!(kappa, 2);
//! // An attacker must compromise 2 nodes to cut the ring: resilience r=1.
//! assert_eq!(kad_resilience::resilience::resilience_from_connectivity(kappa), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod estimator;
pub mod graph;
pub mod pair;
pub mod pipeline;
pub mod report;
pub mod resilience;
pub mod sampled;

pub use estimator::{sampled_kappa, KappaEstimate, SampledKappaConfig};
pub use pipeline::{analyze_graph, analyze_snapshot, snapshot_to_digraph};
pub use report::ConnectivityReport;

use serde::{Deserialize, Serialize};

/// How the connectivity of a graph is measured.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Fraction `c` of vertices (smallest out-degree first) used as flow
    /// sources; `1.0` reproduces the full `n(n−1)` analysis. The paper
    /// found `c = 0.02` sufficient on every graph it validated.
    pub sample_fraction: f64,
    /// Always evaluate at least this many source vertices, so tiny graphs
    /// are analysed exactly. (`0.02 · 250 = 5` sources is the paper's small
    /// network; for 50-node test graphs a bare `c·n = 1` would be far too
    /// coarse.)
    pub min_sources: usize,
    /// Use the current running minimum as a max-flow cutoff (clamped to at
    /// least 1). Roughly an order of magnitude faster, but the per-pair
    /// values become lower bounds, so the *average* connectivity is no
    /// longer meaningful — the minimum and the zero-pair count stay exact.
    /// The paper computed full flows (no cutoff); benches quantify the
    /// trade-off.
    pub use_cutoff: bool,
    /// Compute pair flows on rayon worker threads.
    pub parallel: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            sample_fraction: 0.02,
            min_sources: 8,
            use_cutoff: false,
            parallel: true,
        }
    }
}

impl AnalysisConfig {
    /// A configuration that evaluates every source (the full `n(n−1)` pair
    /// analysis of Section 4.4).
    pub fn exact() -> Self {
        AnalysisConfig {
            sample_fraction: 1.0,
            ..AnalysisConfig::default()
        }
    }

    /// The paper's production setting: `c = 0.02`, full flow values.
    pub fn paper_sampled() -> Self {
        AnalysisConfig::default()
    }

    /// Fast minimum-only configuration (cutoff pruning enabled).
    pub fn min_only() -> Self {
        AnalysisConfig {
            use_cutoff: true,
            ..AnalysisConfig::default()
        }
    }

    /// Number of source vertices to evaluate for an `n`-vertex graph.
    pub fn source_count(&self, n: usize) -> usize {
        let by_fraction = (self.sample_fraction * n as f64).ceil() as usize;
        by_fraction.max(self.min_sources).min(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_count_respects_floor_and_cap() {
        let config = AnalysisConfig::default();
        assert_eq!(config.source_count(4), 4); // capped at n
        assert_eq!(config.source_count(100), 8); // floor of 8
        assert_eq!(config.source_count(1000), 20); // 2%
    }

    #[test]
    fn exact_config_uses_all_sources() {
        let config = AnalysisConfig::exact();
        assert_eq!(config.source_count(123), 123);
    }

    #[test]
    fn min_only_enables_cutoff() {
        assert!(AnalysisConfig::min_only().use_cutoff);
        assert!(!AnalysisConfig::paper_sampled().use_cutoff);
    }
}
