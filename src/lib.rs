//! # kademlia-resilience
//!
//! Umbrella crate for the full reproduction of Heck, Kieselmann & Wacker,
//! *Evaluating Connection Resilience for the Overlay Network Kademlia*
//! (2017). It re-exports the workspace crates so applications can depend on
//! a single package:
//!
//! * [`dessim`] — deterministic discrete-event simulation kernel (the
//!   PeerSim substitute).
//! * [`kademlia`] — the Kademlia overlay protocol running on `dessim`.
//! * [`flowgraph`] — directed graphs, Even's transformation and the
//!   batched max-flow engine (the HIPR substitute), with Edmonds–Karp as
//!   the reference oracle.
//! * [`kad_resilience`] — vertex-connectivity and resilience analysis (the
//!   paper's primary contribution).
//! * [`kad_experiments`] — the scenario matrix and figure/table harness.
//!
//! # Quickstart
//!
//! Simulate a small network, snapshot it, and measure its resilience:
//!
//! ```
//! use kademlia_resilience::prelude::*;
//!
//! let config = ScenarioBuilder::quick(64, 20).seed(7).build();
//! let outcome = run_scenario(&config);
//! let last = outcome.snapshots.last().expect("snapshots recorded");
//! println!(
//!     "κ(D) = {} → tolerates {} compromised nodes",
//!     last.report.min_connectivity,
//!     last.report.resilience()
//! );
//! ```

pub use dessim;
pub use flowgraph;
pub use kad_experiments;
pub use kad_resilience;
pub use kademlia;

/// Convenience re-exports covering the common end-to-end workflow.
pub mod prelude {
    pub use dessim::time::SimTime;
    pub use flowgraph::{DiGraph, EvenNetwork};
    pub use kad_experiments::runner::run_scenario;
    pub use kad_experiments::scenario::{Scenario, ScenarioBuilder};
    pub use kad_resilience::report::ConnectivityReport;
    pub use kad_resilience::resilience;
    pub use kademlia::config::KademliaConfig;
    pub use kademlia::id::NodeId;
}
