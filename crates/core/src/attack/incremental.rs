//! Incremental pairwise-connectivity tracking under vertex removal.
//!
//! A temporal attack campaign asks for `κ` of the survivor graph after
//! *every* compromise. Recomputing the full `n(n−1)`-pair sweep per step
//! costs `T` full sweeps for a `T`-step campaign; this module maintains the
//! sweep incrementally instead, with two stacked ideas:
//!
//! 1. **Dirty-pair journal.** The max flow solved for a pair `(v, w)`
//!    yields `κ(v, w)` vertex-disjoint paths (Menger); the tracker stores
//!    that path decomposition and indexes it vertex → pairs. Removing a
//!    vertex can only lower connectivity, and it can lower `κ(v, w)` only
//!    by cutting one of the recorded paths — so pairs whose decomposition
//!    avoids the victim keep their cached value untouched. Journal entries
//!    are invalidated lazily: a popped entry is checked against the pair's
//!    *current* decomposition before it triggers work.
//! 2. **Path repair instead of re-solve.** A single removal breaks at most
//!    one of a pair's disjoint paths, so `κ` drops by at most 1. For a
//!    dirty pair the tracker replays the `κ − 1` surviving unit paths into
//!    the residual network (arc ids are stable: the Even network is built
//!    once and a removal just zeroes the victim's internal arc in place via
//!    [`set_base_capacity`](flowgraph::maxflow::FlowNetwork::set_base_capacity))
//!    and runs **one** augmentation — `O(E)` instead of `O(κ·E)` — to
//!    decide between `κ` and `κ − 1`.
//!
//! Everything runs on the PR-1 workspace-reuse flow engine: one
//! [`FlowWorkspace`], journaled `O(touched)` resets, zero steady-state
//! allocation in the solver. Three later additions compound it:
//!
//! * **Batched initial sweep.** The `n(n−1)`-pair construction sweep runs
//!   source-major, so it rides the shared-source
//!   [`BatchedDinic`] level-graph cache
//!   with per-pair alive-degree capacity bounds — most pairs cost one
//!   blocking flow instead of three `O(E)` passes (see
//!   `flowgraph::maxflow::batched`). Repairs use the same bounds to skip
//!   the probe augmentation entirely when the replayed paths already attain
//!   the bound.
//! * **Incremental insertion.** [`IncrementalConnectivity::restore`]
//!   (a removed vertex rejoins with its original edges) and
//!   [`IncrementalConnectivity::insert_edge`] (a genuinely new routing-table
//!   edge, journaled as a fresh Even arc) are the inverse of removal: one
//!   cap-1 arc (re)appears, so any pair's `κ` rises by **at most 1** — the
//!   cached decomposition is replayed and one augmentation decides. Only
//!   pairs whose cached value sits *below* their alive-degree bound can
//!   rise, which prunes most of the pair set per insertion.
//! * **Cut cache.** Every mutation bumps a topology epoch;
//!   [`IncrementalConnectivity::summary`] memoizes its aggregate keyed on
//!   that epoch, so repeated κ queries between mutations — exactly what a
//!   per-minute sampler does — are `O(1)`.
//!
//! Engine: every solve runs [`BatchedDinic`] and every repair or
//! reinforcement one [`probe_unit_augment`]. Decomposition extraction needs
//! a genuine flow in the residual network, which both leave behind.
//!
//! # Example
//!
//! ```
//! use flowgraph::generators::bidirected_cycle;
//! use kad_resilience::attack::IncrementalConnectivity;
//!
//! let g = bidirected_cycle(8);
//! let mut tracker = IncrementalConnectivity::new(&g);
//! assert_eq!(tracker.summary().min, 2);
//! // Removing one ring node leaves a path: κ drops to 1.
//! tracker.remove(3).expect("vertex exists");
//! assert_eq!(tracker.summary().min, 1);
//! // A second removal (non-adjacent to the gap) severs the path.
//! tracker.remove(6).expect("vertex exists");
//! assert_eq!(tracker.summary().min, 0);
//! ```

use super::AttackError;
use crate::sampled::SampledConnectivity;
use flowgraph::even::{EdgeCapacity, EvenNetwork};
use flowgraph::maxflow::{probe_unit_augment, BatchedDinic, FlowWorkspace};
use flowgraph::DiGraph;
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

/// Sentinel for pairs with no defined connectivity: self-pairs, adjacent
/// pairs, and pairs with a removed endpoint.
const UNDEFINED: u64 = u64::MAX;

/// What one [`IncrementalConnectivity::remove`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemovalStats {
    /// Pairs whose cached decomposition used the removed vertex and which
    /// were therefore repaired (replay + one augmentation).
    pub pairs_reevaluated: usize,
    /// Pairs dropped because the removed vertex was one of their endpoints.
    pub pairs_dropped: usize,
}

/// What one [`IncrementalConnectivity::restore`] or
/// [`IncrementalConnectivity::insert_edge`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertionStats {
    /// Pairs given a single reinforcing augmentation (their cached value
    /// sat below the alive-degree bound, so the insertion could raise it).
    pub pairs_reevaluated: usize,
    /// Pairs whose `κ` actually rose (always by exactly 1).
    pub pairs_raised: usize,
    /// Pairs solved from scratch (the restored vertex's own rows/columns).
    pub pairs_solved_fresh: usize,
}

/// Exact all-pairs vertex connectivity of a shrinking graph, updated
/// incrementally as vertices are removed (see the module docs).
///
/// The tracked quantity is the full non-adjacent ordered-pair sweep of
/// Section 4.4 — the same pair set as
/// [`sampled_connectivity`](crate::sampled::sampled_connectivity) under
/// [`AnalysisConfig::exact`](crate::AnalysisConfig::exact), with full flow
/// values (no cutoff pruning, so the average stays meaningful). Agreement
/// with a from-scratch re-sweep after every removal is tested exactly.
#[derive(Clone, Debug)]
pub struct IncrementalConnectivity {
    n: usize,
    /// The intact input graph — adjacency is static (an edge disappears
    /// only when an endpoint dies, and those pairs are dropped anyway).
    original: Arc<DiGraph>,
    /// Survivor graph over the original indices; removed vertices stay as
    /// isolated placeholders. Campaign strategies re-plan against this.
    graph: DiGraph,
    /// Even network built once from `original`; a removal zeroes the
    /// victim's internal arc in place, so arc ids never shift and recorded
    /// path decompositions stay replayable.
    even: EvenNetwork,
    removed: Vec<bool>,
    alive: usize,
    /// `values[v * n + w]` — cached `κ(v, w)` or [`UNDEFINED`].
    values: Vec<u64>,
    /// Per-pair unit-path decomposition: each path a list of Even-network
    /// arc ids carrying one unit from `v''` to `w'`.
    paths: Vec<Vec<Vec<u32>>>,
    /// Journal: vertex → pair codes whose decomposition crossed it when the
    /// pair was last solved (entries go stale on re-solve; filtered lazily).
    uses: Vec<Vec<u32>>,
    /// Scratch for the solver.
    workspace: FlowWorkspace,
    /// Generation stamps over arc ids for decomposition tracing.
    arc_seen: Vec<u32>,
    generation: u32,
    /// Engine solves and probes so far (instrumentation: benches and tests
    /// assert the incremental path solves far fewer flows than naive
    /// re-sweeps).
    flows: u64,
    /// Shared-source level-graph engine for full solves.
    batched: BatchedDinic,
    /// In-neighbors of each vertex in the *original* graph — what
    /// [`IncrementalConnectivity::restore`] re-wires (DiGraph stores only
    /// out-adjacency).
    original_in: Vec<Vec<u32>>,
    /// Edges inserted after construction ([`IncrementalConnectivity::insert_edge`]);
    /// adjacency (= pair undefinedness) is `original ∪ added_edges`.
    added_edges: HashSet<(u32, u32)>,
    /// Topology journal epoch: bumped by every remove/restore/insert_edge.
    epoch: u64,
    /// Memoized [`IncrementalConnectivity::summary`], keyed on `epoch`.
    summary_cache: Cell<Option<(u64, SampledConnectivity)>>,
}

impl IncrementalConnectivity {
    /// Builds the tracker with one full sweep over all non-adjacent ordered
    /// pairs (`n(n−1) − m` max-flow computations), driven by the batched
    /// shared-source engine.
    pub fn new(g: &DiGraph) -> Self {
        let n = g.node_count();
        let original = Arc::new(g.clone());
        let even = EvenNetwork::from_shared(Arc::clone(&original), EdgeCapacity::Unit);
        let arc_slots = even.network().arc_count() * 2;
        let mut original_in = vec![Vec::new(); n];
        for (u, v) in g.edges() {
            original_in[v as usize].push(u);
        }
        let mut tracker = IncrementalConnectivity {
            n,
            original,
            graph: g.clone(),
            even,
            removed: vec![false; n],
            alive: n,
            values: vec![UNDEFINED; n * n],
            paths: vec![Vec::new(); n * n],
            uses: vec![Vec::new(); n],
            workspace: FlowWorkspace::new(),
            arc_seen: vec![0; arc_slots],
            generation: 0,
            flows: 0,
            batched: BatchedDinic::new(),
            original_in,
            added_edges: HashSet::new(),
            epoch: 0,
            summary_cache: Cell::new(None),
        };
        // Source-major order: every row shares one cached level graph.
        for v in 0..n as u32 {
            for w in 0..n as u32 {
                tracker.solve_full(v, w);
            }
        }
        tracker
    }

    /// Number of vertices still alive.
    pub fn alive(&self) -> usize {
        self.alive
    }

    /// Whether `x` has been removed.
    pub fn is_removed(&self, x: u32) -> bool {
        self.removed.get(x as usize).copied().unwrap_or(true)
    }

    /// The survivor graph: original vertex indices, removed vertices left
    /// isolated (degree 0). Strategies re-plan against this view.
    pub fn survivor_graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Alive vertices, ascending.
    pub fn alive_vertices(&self) -> Vec<u32> {
        (0..self.n as u32)
            .filter(|&v| !self.removed[v as usize])
            .collect()
    }

    /// Total max-flow computations performed (initial sweep + repairs).
    pub fn flows_computed(&self) -> u64 {
        self.flows
    }

    /// Cached `κ(v, w)`, or `None` for self/adjacent pairs and pairs with a
    /// removed endpoint.
    pub fn pair_value(&self, v: u32, w: u32) -> Option<u64> {
        if (v as usize) >= self.n || (w as usize) >= self.n {
            return None;
        }
        let value = self.values[self.code(v, w)];
        (value != UNDEFINED).then_some(value)
    }

    /// Removes vertex `x` and repairs exactly the pairs whose cached path
    /// decomposition crossed it.
    ///
    /// # Errors
    ///
    /// [`AttackError::VertexOutOfRange`] / [`AttackError::AlreadyRemoved`]
    /// on invalid victims — campaigns surface these instead of panicking.
    pub fn remove(&mut self, x: u32) -> Result<RemovalStats, AttackError> {
        if (x as usize) >= self.n {
            return Err(AttackError::VertexOutOfRange(x));
        }
        if self.removed[x as usize] {
            return Err(AttackError::AlreadyRemoved(x));
        }
        self.removed[x as usize] = true;
        self.alive -= 1;

        // Survivor view for the strategies: isolate x.
        let outs: Vec<u32> = self.graph.out_neighbors(x).to_vec();
        for w in outs {
            self.graph.remove_edge(x, w);
        }
        for u in 0..self.n as u32 {
            self.graph.remove_edge(u, x);
        }

        // Flow view: zero the internal arc in place (reset first so no
        // residual flow is mixed into the new base capacities).
        let internal = EvenNetwork::internal_arc(x);
        self.even.network_mut().reset();
        self.even.network_mut().set_base_capacity(internal, 0);

        // Drop pairs with endpoint x.
        let mut dropped = 0usize;
        for other in 0..self.n as u32 {
            for code in [self.code(x, other), self.code(other, x)] {
                if self.values[code] != UNDEFINED {
                    self.values[code] = UNDEFINED;
                    dropped += 1;
                }
                self.paths[code].clear();
            }
        }

        // Dirty pairs: journal entries whose *current* decomposition still
        // crosses x.
        let mut dirty = std::mem::take(&mut self.uses[x as usize]);
        dirty.sort_unstable();
        dirty.dedup();
        dirty.retain(|&code| {
            self.values[code as usize] != UNDEFINED
                && self.paths[code as usize]
                    .iter()
                    .any(|path| path.contains(&internal))
        });

        let reevaluated = dirty.len();
        for code in dirty {
            self.repair_pair(code as usize, internal);
        }
        self.epoch += 1;
        self.summary_cache.set(None);
        Ok(RemovalStats {
            pairs_reevaluated: reevaluated,
            pairs_dropped: dropped,
        })
    }

    /// Restores a previously removed vertex with its original edges (the
    /// inverse of [`IncrementalConnectivity::remove`]): a node re-joining
    /// the overlay, or a defense healing a routing table.
    ///
    /// Cost model: the restored vertex's own `2(alive − 1)` pairs are solved
    /// fresh (they had no cached value); every other pair rises by **at
    /// most 1** and only if its cached `κ` sits below its alive-degree
    /// bound, so it costs one replay + one augmentation — and pairs already
    /// at their bound are skipped outright.
    ///
    /// # Errors
    ///
    /// [`AttackError::VertexOutOfRange`] / [`AttackError::NotRemoved`] when
    /// `x` is invalid or still alive.
    pub fn restore(&mut self, x: u32) -> Result<InsertionStats, AttackError> {
        if (x as usize) >= self.n {
            return Err(AttackError::VertexOutOfRange(x));
        }
        if !self.removed[x as usize] {
            return Err(AttackError::NotRemoved(x));
        }
        self.removed[x as usize] = false;
        self.alive += 1;

        // Survivor view: re-wire x's alive-alive edges (original ∪ added).
        let outs: Vec<u32> = self.original.out_neighbors(x).to_vec();
        for w in outs {
            if !self.removed[w as usize] {
                self.graph.add_edge(x, w);
            }
        }
        let ins: Vec<u32> = self.original_in[x as usize].clone();
        for u in ins {
            if !self.removed[u as usize] {
                self.graph.add_edge(u, x);
            }
        }
        let added: Vec<(u32, u32)> = self
            .added_edges
            .iter()
            .copied()
            .filter(|&(u, w)| {
                (u == x && !self.removed[w as usize]) || (w == x && !self.removed[u as usize])
            })
            .collect();
        for (u, w) in added {
            self.graph.add_edge(u, w);
        }

        // Flow view: re-open the internal arc (reset first, as in remove).
        let internal = EvenNetwork::internal_arc(x);
        self.even.network_mut().reset();
        self.even.network_mut().set_base_capacity(internal, 1);

        self.after_insertion(Some(x))
    }

    /// Inserts a brand-new directed edge `(u, v)` into the tracked topology
    /// — a routing-table entry that did not exist at construction. The Even
    /// network gains one journaled cap-1 arc `u'' → v'`; by the same
    /// argument as [`IncrementalConnectivity::restore`], every pair rises by
    /// at most 1 and one replayed augmentation decides.
    ///
    /// Inserting an edge that already exists is a no-op (zero stats).
    ///
    /// # Errors
    ///
    /// [`AttackError::VertexOutOfRange`] for bad endpoints (including
    /// `u == v`: self-loops carry no flow and are rejected),
    /// [`AttackError::AlreadyRemoved`] when an endpoint is dead.
    pub fn insert_edge(&mut self, u: u32, v: u32) -> Result<InsertionStats, AttackError> {
        if (u as usize) >= self.n || u == v {
            return Err(AttackError::VertexOutOfRange(u));
        }
        if (v as usize) >= self.n {
            return Err(AttackError::VertexOutOfRange(v));
        }
        if self.removed[u as usize] {
            return Err(AttackError::AlreadyRemoved(u));
        }
        if self.removed[v as usize] {
            return Err(AttackError::AlreadyRemoved(v));
        }
        if self.is_adjacent(u, v) {
            return Ok(InsertionStats {
                pairs_reevaluated: 0,
                pairs_raised: 0,
                pairs_solved_fresh: 0,
            });
        }
        // Flow view: one new cap-1 edge arc. add_arc bumps the network's
        // base epoch, which invalidates the batched engine's level cache.
        let net = self.even.network_mut();
        net.reset();
        net.add_arc(EvenNetwork::out_vertex(u), EvenNetwork::in_vertex(v), 1);
        let arc_slots = net.arc_count() * 2;
        self.arc_seen.resize(arc_slots, 0);

        self.added_edges.insert((u, v));
        self.graph.add_edge(u, v);
        // (u, v) is now adjacent: its κ is no longer defined.
        let code = self.code(u, v);
        self.values[code] = UNDEFINED;
        self.paths[code].clear();

        self.after_insertion(None)
    }

    /// Shared tail of [`IncrementalConnectivity::restore`] /
    /// [`IncrementalConnectivity::insert_edge`]: fresh-solve the restored
    /// vertex's own pairs (if any), then reinforce every cached pair whose
    /// value sits below its alive-degree bound.
    fn after_insertion(&mut self, restored: Option<u32>) -> Result<InsertionStats, AttackError> {
        let mut fresh = 0usize;
        if let Some(x) = restored {
            for other in 0..self.n as u32 {
                if other == x || self.removed[other as usize] {
                    continue;
                }
                for (a, b) in [(x, other), (other, x)] {
                    self.solve_full(a, b);
                    fresh += usize::from(!self.is_adjacent(a, b));
                }
            }
        }
        let candidates: Vec<usize> = (0..self.values.len())
            .filter(|&code| {
                let (v, w) = self.decode(code);
                if restored == Some(v) || restored == Some(w) {
                    return false; // just solved fresh
                }
                let value = self.values[code];
                value != UNDEFINED && value < self.alive_bound(v, w)
            })
            .collect();
        let mut raised = 0usize;
        let reevaluated = candidates.len();
        for code in candidates {
            if self.reinforce_pair(code) {
                raised += 1;
            }
        }
        self.epoch += 1;
        self.summary_cache.set(None);
        Ok(InsertionStats {
            pairs_reevaluated: reevaluated,
            pairs_raised: raised,
            pairs_solved_fresh: fresh,
        })
    }

    /// Topology journal epoch: bumped by every successful mutation
    /// ([`remove`](Self::remove), [`restore`](Self::restore),
    /// [`insert_edge`](Self::insert_edge)). The key of the summary cut
    /// cache; samplers can use it to detect staleness of derived state.
    pub fn topology_epoch(&self) -> u64 {
        self.epoch
    }

    /// Aggregates the cached pairs into the same shape the sweep in
    /// [`crate::sampled`] produces for the survivor graph: minimum, mean,
    /// evaluated-pair count, zero-pair count. (`sources_used` is the number
    /// of alive vertices.)
    ///
    /// Memoized on the topology epoch: between mutations every call after
    /// the first is `O(1)`, so a per-minute sampler can query κ freely.
    pub fn summary(&self) -> SampledConnectivity {
        if let Some((epoch, cached)) = self.summary_cache.get() {
            if epoch == self.epoch {
                return cached;
            }
        }
        let computed = self.compute_summary();
        self.summary_cache.set(Some((self.epoch, computed)));
        computed
    }

    fn compute_summary(&self) -> SampledConnectivity {
        if self.alive <= 1 {
            return SampledConnectivity {
                min: 0,
                avg: Some(0.0),
                pairs_evaluated: 0,
                sources_used: 0,
                zero_pairs: 0,
            };
        }
        let mut min = u64::MAX;
        let mut sum: u128 = 0;
        let mut pairs = 0usize;
        let mut zeros = 0usize;
        for v in 0..self.n as u32 {
            if self.removed[v as usize] {
                continue;
            }
            let row = v as usize * self.n;
            for w in 0..self.n as u32 {
                if self.removed[w as usize] {
                    continue;
                }
                let value = self.values[row + w as usize];
                if value == UNDEFINED {
                    continue;
                }
                sum += value as u128;
                pairs += 1;
                if value == 0 {
                    zeros += 1;
                }
                min = min.min(value);
            }
        }
        if pairs == 0 {
            // Every surviving ordered pair is adjacent: the survivor graph
            // is complete, κ = alive − 1 by definition.
            let k = (self.alive - 1) as u64;
            return SampledConnectivity {
                min: k,
                avg: Some(k as f64),
                pairs_evaluated: 0,
                sources_used: 0,
                zero_pairs: 0,
            };
        }
        SampledConnectivity {
            min,
            avg: Some(sum as f64 / pairs as f64),
            pairs_evaluated: pairs,
            sources_used: self.alive,
            zero_pairs: zeros,
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    #[inline]
    fn code(&self, v: u32, w: u32) -> usize {
        v as usize * self.n + w as usize
    }

    #[inline]
    fn decode(&self, code: usize) -> (u32, u32) {
        ((code / self.n) as u32, (code % self.n) as u32)
    }

    /// Whether `(v, w)` is an edge of the tracked topology (original or
    /// inserted later) — such pairs have no defined `κ`.
    #[inline]
    fn is_adjacent(&self, v: u32, w: u32) -> bool {
        self.original.has_edge(v, w) || self.added_edges.contains(&(v, w))
    }

    /// Menger upper bound from alive degrees: disjoint `v → w` paths use
    /// distinct alive first hops and distinct alive last hops, and the
    /// survivor graph holds exactly the alive-alive edges.
    #[inline]
    fn alive_bound(&self, v: u32, w: u32) -> u64 {
        (self.graph.out_degree(v) as u64).min(self.graph.in_degree(w) as u64)
    }

    /// Initial-sweep solve of `(v, w)` from scratch. No-ops for
    /// self/adjacent pairs.
    fn solve_full(&mut self, v: u32, w: u32) {
        let code = self.code(v, w);
        if v == w || self.is_adjacent(v, w) {
            self.values[code] = UNDEFINED;
            return;
        }
        let bound = self.alive_bound(v, w);
        let flow = self.batched.max_flow_bounded(
            self.even.network_mut(),
            EvenNetwork::out_vertex(v),
            EvenNetwork::in_vertex(w),
            None,
            Some(bound),
            &mut self.workspace,
        );
        self.flows += 1;
        self.record(code, v, w, flow);
    }

    /// Repairs a dirty pair: replay the surviving unit paths, then try one
    /// augmentation to recover the broken unit. (`κ` drops by at most 1 per
    /// removal, so one augmentation decides between `κ` and `κ − 1`.)
    fn repair_pair(&mut self, code: usize, broken_internal: u32) {
        let _span = kad_telemetry::span::span("repair");
        let (v, w) = self.decode(code);
        let mut surviving = std::mem::take(&mut self.paths[code]);
        surviving.retain(|path| !path.contains(&broken_internal));
        let replayed = surviving.len() as u64;
        if replayed >= self.alive_bound(v, w) {
            // The surviving paths already attain the alive-degree bound:
            // they are a maximum flow. No replay, no probe, no re-trace —
            // the surviving list *is* the new decomposition, and its `uses`
            // journal entries (a superset of the old ones) stay valid
            // because stale entries are filtered lazily.
            self.values[code] = replayed;
            self.paths[code] = surviving;
            return;
        }
        let s = EvenNetwork::out_vertex(v);
        let t = EvenNetwork::in_vertex(w);
        let net = self.even.network_mut();
        net.reset();
        for path in &surviving {
            for &a in path {
                net.push(a, 1);
            }
        }
        // One augmentation decides whether κ kept its value or dropped by
        // one. The probe is a single early-exit BFS that augments the
        // moment it reaches `t` (an exhausted BFS certifies failure).
        let extra = probe_unit_augment(self.even.network_mut(), s, t, &mut self.workspace);
        self.flows += 1;
        debug_assert!(extra <= 1, "κ can drop by at most 1 per removal");
        if extra == 0 {
            // The probe found nothing: the network's flow is exactly the
            // replayed paths, so they are the decomposition — skip the
            // re-trace.
            self.values[code] = replayed;
            self.paths[code] = surviving;
            return;
        }
        self.record(code, v, w, replayed + extra);
    }

    /// Raises a pair after an insertion: replay the cached decomposition
    /// (every recorded path is still valid — capacities only grew), then one
    /// augmentation decides whether the new arc buys an extra disjoint path.
    /// Returns `true` when `κ` rose.
    fn reinforce_pair(&mut self, code: usize) -> bool {
        let (v, w) = self.decode(code);
        let old = self.values[code];
        let cached = std::mem::take(&mut self.paths[code]);
        let s = EvenNetwork::out_vertex(v);
        let t = EvenNetwork::in_vertex(w);
        let net = self.even.network_mut();
        net.reset();
        for path in &cached {
            for &a in path {
                net.push(a, 1);
            }
        }
        let extra = probe_unit_augment(self.even.network_mut(), s, t, &mut self.workspace);
        self.flows += 1;
        debug_assert!(extra <= 1, "one new cap-1 arc raises κ by at most 1");
        if extra == 0 {
            // κ did not rise: the cached decomposition is still a maximum
            // flow, so put it back instead of re-tracing it.
            self.values[code] = old;
            self.paths[code] = cached;
            return false;
        }
        self.record(code, v, w, old + extra);
        extra == 1
    }

    /// Records value + path decomposition of the flow currently in the Even
    /// network for pair `(v, w)`, and journals the crossed vertices.
    fn record(&mut self, code: usize, v: u32, w: u32, value: u64) {
        self.values[code] = value;
        let s = EvenNetwork::out_vertex(v);
        let t = EvenNetwork::in_vertex(w);
        self.generation += 1;
        let generation = self.generation;
        let net = self.even.network();
        let internal_bound = (2 * self.n) as u32;
        let mut paths = Vec::with_capacity(value as usize);
        for _ in 0..value {
            let mut path = Vec::new();
            let mut u = s;
            while u != t {
                let mut next = None;
                for &a in net.arcs_from(u) {
                    // Forward arcs have even ids; follow unconsumed flow.
                    if a & 1 == 0 && net.flow(a) > 0 && self.arc_seen[a as usize] != generation {
                        next = Some(a);
                        break;
                    }
                }
                let a = next.expect("flow conservation yields s-t paths");
                self.arc_seen[a as usize] = generation;
                path.push(a);
                u = net.arc_head(a);
            }
            paths.push(path);
        }
        for path in &paths {
            for &a in path {
                if a < internal_bound {
                    // Internal arc of vertex a/2: journal the crossing.
                    self.uses[(a / 2) as usize].push(code as u32);
                }
            }
        }
        self.paths[code] = paths;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampled::sampled_connectivity;
    use crate::AnalysisConfig;
    use flowgraph::generators::{bidirected_cycle, complete, gnp, random_k_out_symmetric};
    use rand::rngs::SmallRng;
    use rand::Rng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    /// Full-re-sweep oracle: dense survivor graph → exact sweep.
    fn full_resweep(g: &DiGraph, removed: &HashSet<u32>) -> SampledConnectivity {
        let (survivor, _) = g.remove_vertices(removed);
        sampled_connectivity(
            &survivor,
            &AnalysisConfig {
                parallel: false,
                ..AnalysisConfig::exact()
            },
        )
    }

    fn assert_matches_full(tracker: &IncrementalConnectivity, oracle: &SampledConnectivity) {
        let got = tracker.summary();
        assert_eq!(got.min, oracle.min, "min diverged");
        assert_eq!(got.pairs_evaluated, oracle.pairs_evaluated, "pair count");
        assert_eq!(got.zero_pairs, oracle.zero_pairs, "zero pairs");
        let got_avg = got.avg.expect("tracker always has full flow values");
        let oracle_avg = oracle.avg.expect("exact sweep runs without cutoff");
        assert!(
            (got_avg - oracle_avg).abs() < 1e-12,
            "avg diverged: {got_avg} vs {oracle_avg}"
        );
    }

    #[test]
    fn matches_full_resweep_after_every_step() {
        // The acceptance test of the incremental path: exact agreement with
        // a from-scratch sweep after every single removal, across graph
        // families.
        let mut rng = SmallRng::seed_from_u64(11);
        let graphs = [
            random_k_out_symmetric(18, 4, &mut rng),
            gnp(16, 0.3, &mut rng),
            bidirected_cycle(14),
        ];
        for g in &graphs {
            let mut tracker = IncrementalConnectivity::new(g);
            let mut removed: HashSet<u32> = HashSet::new();
            assert_matches_full(&tracker, &full_resweep(g, &removed));
            for _ in 0..6 {
                let alive = tracker.alive_vertices();
                let victim = alive[rng.random_range(0..alive.len())];
                tracker.remove(victim).expect("valid victim");
                removed.insert(victim);
                assert_matches_full(&tracker, &full_resweep(g, &removed));
            }
        }
    }

    #[test]
    fn every_pair_value_matches_oracle_after_removals() {
        // Not just the aggregates: each cached κ(v, w) individually equals
        // the from-scratch value on the survivor graph.
        let mut rng = SmallRng::seed_from_u64(23);
        let g = random_k_out_symmetric(14, 3, &mut rng);
        let mut tracker = IncrementalConnectivity::new(&g);
        let mut removed: HashSet<u32> = HashSet::new();
        for victim in [3u32, 9, 0] {
            tracker.remove(victim).expect("valid victim");
            removed.insert(victim);
        }
        let (survivor, keep) = g.remove_vertices(&removed);
        let mut oracle = crate::pair::PairEvaluator::new(&survivor);
        for (new_v, &old_v) in keep.iter().enumerate() {
            for (new_w, &old_w) in keep.iter().enumerate() {
                assert_eq!(
                    tracker.pair_value(old_v, old_w),
                    oracle.connectivity(new_v as u32, new_w as u32, None),
                    "pair ({old_v},{old_w})"
                );
            }
        }
    }

    #[test]
    fn incremental_solves_fewer_flows_than_resweeps() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = random_k_out_symmetric(24, 4, &mut rng);
        let mut tracker = IncrementalConnectivity::new(&g);
        let initial_flows = tracker.flows_computed();
        let steps = 5;
        for _ in 0..steps {
            let alive = tracker.alive_vertices();
            let victim = alive[rng.random_range(0..alive.len())];
            tracker.remove(victim).expect("valid victim");
        }
        let incremental_extra = tracker.flows_computed() - initial_flows;
        // A naive approach re-solves every surviving pair each step; the
        // incremental journal must do strictly less than one full sweep's
        // worth of extra flows per step on average — and each of its
        // "flows" is a single repair augmentation, not a full solve.
        assert!(
            incremental_extra < initial_flows * steps,
            "incremental {incremental_extra} flows vs naive ≈ {}",
            initial_flows * steps
        );
    }

    #[test]
    fn removal_errors_are_typed() {
        let g = bidirected_cycle(5);
        let mut tracker = IncrementalConnectivity::new(&g);
        assert_eq!(tracker.remove(9), Err(AttackError::VertexOutOfRange(9)));
        tracker.remove(2).expect("first removal");
        assert_eq!(tracker.remove(2), Err(AttackError::AlreadyRemoved(2)));
        assert!(tracker.is_removed(2));
        assert!(tracker.is_removed(99), "out of range counts as gone");
        assert_eq!(tracker.alive(), 4);
    }

    #[test]
    fn complete_graph_convention_survives_removals() {
        let g = complete(5);
        let mut tracker = IncrementalConnectivity::new(&g);
        assert_eq!(tracker.summary().min, 4);
        tracker.remove(0).expect("valid");
        let summary = tracker.summary();
        assert_eq!(summary.min, 3, "K5 minus a vertex is K4");
        assert_eq!(summary.pairs_evaluated, 0);
        tracker.remove(1).expect("valid");
        tracker.remove(2).expect("valid");
        tracker.remove(3).expect("valid");
        assert_eq!(tracker.summary().min, 0, "single survivor");
    }

    #[test]
    fn pair_values_track_removals() {
        let g = bidirected_cycle(8);
        let mut tracker = IncrementalConnectivity::new(&g);
        assert_eq!(tracker.pair_value(0, 4), Some(2));
        assert_eq!(tracker.pair_value(0, 1), None, "adjacent");
        tracker.remove(2).expect("valid");
        assert_eq!(tracker.pair_value(0, 4), Some(1), "one path cut");
        assert_eq!(tracker.pair_value(0, 2), None, "endpoint removed");
    }

    #[test]
    fn per_pair_engine_matches_batched_engine() {
        // The tracker's batched solves and unit-probe repairs against a
        // per-pair Edmonds–Karp oracle on the survivor graph, after every
        // removal.
        use flowgraph::maxflow::EdmondsKarp;
        let mut rng = SmallRng::seed_from_u64(41);
        let g = random_k_out_symmetric(16, 4, &mut rng);
        let mut tracker = IncrementalConnectivity::new(&g);
        let mut removed: HashSet<u32> = HashSet::new();
        for victim in [5u32, 12, 1] {
            tracker.remove(victim).expect("valid");
            removed.insert(victim);
            let (survivor, keep) = g.remove_vertices(&removed);
            let mut even = EvenNetwork::from_graph(&survivor);
            for (new_v, &old_v) in keep.iter().enumerate() {
                for (new_w, &old_w) in keep.iter().enumerate() {
                    assert_eq!(
                        tracker.pair_value(old_v, old_w),
                        even.vertex_connectivity(
                            &EdmondsKarp::new(),
                            new_v as u32,
                            new_w as u32,
                            None
                        ),
                        "pair ({old_v},{old_w}) after removing {victim}"
                    );
                }
            }
        }
    }

    #[test]
    fn restore_inverts_remove() {
        let mut rng = SmallRng::seed_from_u64(17);
        let g = random_k_out_symmetric(14, 3, &mut rng);
        let mut tracker = IncrementalConnectivity::new(&g);
        let pristine = tracker.summary();
        tracker.remove(4).expect("valid");
        tracker.remove(9).expect("valid");
        let stats = tracker.restore(9).expect("was removed");
        assert!(stats.pairs_solved_fresh > 0, "9's own pairs re-solved");
        tracker.restore(4).expect("was removed");
        assert_eq!(tracker.alive(), 14);
        assert!(!tracker.is_removed(4));
        // Back to the intact graph: every aggregate and pair value matches
        // a freshly built tracker.
        assert_eq!(tracker.summary(), pristine);
        let oracle = IncrementalConnectivity::new(&g);
        for v in 0..14u32 {
            for w in 0..14u32 {
                assert_eq!(
                    tracker.pair_value(v, w),
                    oracle.pair_value(v, w),
                    "({v},{w})"
                );
            }
        }
    }

    #[test]
    fn interleaved_removals_and_restores_match_resweep() {
        let mut rng = SmallRng::seed_from_u64(29);
        let g = random_k_out_symmetric(15, 4, &mut rng);
        let mut tracker = IncrementalConnectivity::new(&g);
        let mut removed: HashSet<u32> = HashSet::new();
        // remove, remove, restore, remove, restore, restore — checking the
        // full oracle after every single step.
        let script: [(bool, u32); 6] = [
            (true, 2),
            (true, 7),
            (false, 2),
            (true, 11),
            (false, 7),
            (false, 11),
        ];
        for (kill, x) in script {
            if kill {
                tracker.remove(x).expect("valid victim");
                removed.insert(x);
            } else {
                tracker.restore(x).expect("was removed");
                removed.remove(&x);
            }
            assert_matches_full(&tracker, &full_resweep(&g, &removed));
        }
    }

    #[test]
    fn insert_edge_matches_fresh_tracker_on_grown_graph() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = random_k_out_symmetric(12, 3, &mut rng);
        let mut tracker = IncrementalConnectivity::new(&g);
        // Find a non-adjacent ordered pair to wire up.
        let (u, v) = (0..12u32)
            .flat_map(|u| (0..12u32).map(move |v| (u, v)))
            .find(|&(u, v)| u != v && !g.has_edge(u, v))
            .expect("sparse graph has a non-edge");
        let stats = tracker.insert_edge(u, v).expect("valid insertion");
        assert!(stats.pairs_raised <= stats.pairs_reevaluated);
        let mut grown = g.clone();
        grown.add_edge(u, v);
        let oracle = IncrementalConnectivity::new(&grown);
        assert_eq!(tracker.summary(), oracle.summary());
        for a in 0..12u32 {
            for b in 0..12u32 {
                assert_eq!(
                    tracker.pair_value(a, b),
                    oracle.pair_value(a, b),
                    "({a},{b})"
                );
            }
        }
        // Re-inserting is a no-op.
        let again = tracker.insert_edge(u, v).expect("duplicate tolerated");
        assert_eq!(again.pairs_reevaluated, 0);
        assert_eq!(again.pairs_solved_fresh, 0);
    }

    #[test]
    fn insertion_survives_subsequent_removals() {
        // The inserted arc lives in the Even network's journal; removals
        // after an insertion must keep matching the grown-graph oracle.
        let mut rng = SmallRng::seed_from_u64(37);
        let g = random_k_out_symmetric(13, 3, &mut rng);
        let mut tracker = IncrementalConnectivity::new(&g);
        let (u, v) = (0..13u32)
            .flat_map(|u| (0..13u32).map(move |v| (u, v)))
            .find(|&(u, v)| u != v && !g.has_edge(u, v))
            .expect("non-edge exists");
        tracker.insert_edge(u, v).expect("valid insertion");
        let mut grown = g.clone();
        grown.add_edge(u, v);
        let mut removed: HashSet<u32> = HashSet::new();
        for _ in 0..3 {
            let alive = tracker.alive_vertices();
            let victim = alive[rng.random_range(0..alive.len())];
            tracker.remove(victim).expect("valid victim");
            removed.insert(victim);
            assert_matches_full(&tracker, &full_resweep(&grown, &removed));
        }
    }

    #[test]
    fn insertion_errors_are_typed() {
        let g = bidirected_cycle(6);
        let mut tracker = IncrementalConnectivity::new(&g);
        assert_eq!(tracker.restore(0), Err(AttackError::NotRemoved(0)));
        assert_eq!(tracker.restore(9), Err(AttackError::VertexOutOfRange(9)));
        assert_eq!(
            tracker.insert_edge(3, 3),
            Err(AttackError::VertexOutOfRange(3))
        );
        assert_eq!(
            tracker.insert_edge(0, 9),
            Err(AttackError::VertexOutOfRange(9))
        );
        tracker.remove(2).expect("valid");
        assert_eq!(
            tracker.insert_edge(2, 4),
            Err(AttackError::AlreadyRemoved(2))
        );
        assert_eq!(
            tracker.insert_edge(4, 2),
            Err(AttackError::AlreadyRemoved(2))
        );
    }

    #[test]
    fn summary_cut_cache_keyed_on_epoch() {
        let g = bidirected_cycle(7);
        let mut tracker = IncrementalConnectivity::new(&g);
        let e0 = tracker.topology_epoch();
        let first = tracker.summary();
        assert_eq!(tracker.summary(), first, "cached hit is identical");
        assert_eq!(tracker.topology_epoch(), e0, "summary is read-only");
        tracker.remove(3).expect("valid");
        assert!(tracker.topology_epoch() > e0, "mutation bumps the epoch");
        let second = tracker.summary();
        assert_ne!(first, second, "cache invalidated by the removal");
        assert_eq!(tracker.summary(), second);
    }
}
