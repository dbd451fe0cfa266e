//! Batched multi-pair Dinic: shared-source level-graph reuse.
//!
//! A κ(D) sweep solves `n−1` max-flows *from the same source* before moving
//! to the next one, and every solve starts from the same clean (reset)
//! network. Per-pair Dinic therefore repeats two target-independent
//! `O(E)` passes per pair: the opening BFS (identical for every target of a
//! source) and the final failing BFS that certifies maximality.
//! [`BatchedDinic`] removes both:
//!
//! * **Level-graph reuse.** One *full* BFS per (source, base-epoch) layers
//!   the clean network once; because it is computed on the reset network and
//!   never stops at a sink, it is a valid first-phase level graph for
//!   *every* target. Re-targeting costs an `O(n/64)` bitset copy instead of
//!   an `O(E)` BFS, and the blocking flow walks only the levels below the
//!   target's, so the layers past it cost nothing. Later phases fall back
//!   to per-target BFS that stops at the target's layer — the phase
//!   sequence after phase one is ordinary Dinic, so values stay exact.
//!   A pair that stops short of both its cutoff and its capacity bound —
//!   the pairs a κ_min sweep is looking for — always runs at least one of
//!   them, since only a failing BFS certifies its value.
//! * **Capacity-bound early exit.** `min(Σ cap out of s, Σ cap into t)` is
//!   an upper bound on the max flow; when the achieved flow reaches it, it
//!   *is* the maximum and the failing BFS is skipped. On Even/unit networks
//!   this bound is `min(outdeg, indeg)`, which most pairs in the paper's
//!   overlays attain — the common pair cost drops from three `O(E)` passes
//!   to one blocking flow over the shared level graph.
//!
//! Reusing a stale or target-agnostic level graph can never produce a wrong
//! value: the blocking-flow DFS only pushes along positive-residual paths
//! (valid augmenting paths regardless of the level graph's provenance), and
//! termination still requires either the capacity bound to be met or a fresh
//! BFS to fail — both exact certificates.

use super::dinic::{blocking_flow, level_bfs};
use super::{bit_set, bit_test, check_endpoints, words_for, FlowNetwork, FlowWorkspace};

/// Upper bound on the `s -> t` max flow of the clean network: the smaller of
/// the total capacity leaving `s` and the total capacity entering `t`.
///
/// Call on a reset network (residuals == base capacities). Callers that know
/// a tighter structural bound — e.g. alive-degree bounds on Even-transformed
/// connectivity networks — can pass it to
/// [`BatchedDinic::max_flow_bounded`] instead.
pub fn capacity_bound(net: &FlowNetwork, s: u32, t: u32) -> u64 {
    let out = net
        .arcs_from(s)
        .iter()
        .fold(0u64, |acc, &a| acc.saturating_add(net.residual(a)));
    // Capacity *into* t is the base capacity of each forward arc whose
    // reverse stub leaves t.
    let into = net
        .arcs_from(t)
        .iter()
        .fold(0u64, |acc, &a| acc.saturating_add(net.residual(a ^ 1)));
    out.min(into)
}

/// Sends at most one unit of augmenting flow from `s` to `t` on a network
/// that may already hold flow (e.g. a replayed path decomposition): a
/// single BFS over the residual graph with parent pointers, stopping the
/// moment `t` is discovered, then one unit pushed along the discovered
/// path. Returns the units sent; `0` means no augmenting path exists (the
/// exhausted BFS is the exactness certificate).
///
/// This is the probe the incremental κ tracker runs per dirty pair:
/// removing a vertex or inserting a cap-1 arc changes any pair's max flow
/// by at most 1, so one augmentation decides between the replayed value
/// and its successor. Augmenting along the BFS parent chain the moment `t`
/// is discovered skips the level-graph DFS a Dinic phase would add. Like
/// the Dinic kernels, the BFS walks [`FlowNetwork::scan_arcs`], so the
/// replayed flow's few open stubs are the only ones it scans.
///
/// # Panics
///
/// Panics if `s == t` or either vertex is out of range.
pub fn probe_unit_augment(
    net: &mut FlowNetwork,
    s: u32,
    t: u32,
    workspace: &mut FlowWorkspace,
) -> u64 {
    let _span = kad_telemetry::span::span("probe");
    check_endpoints(net, s, t);
    let n = net.node_count();
    workspace.ensure_basic(n);
    let words = words_for(n);
    let FlowWorkspace {
        label,
        queue,
        visited,
        ..
    } = workspace;
    // `label` doubles as the parent-arc array: the arc over which BFS first
    // reached each vertex (only read for visited vertices).
    let parent = &mut label[..n];
    visited[..words].iter_mut().for_each(|w| *w = 0);
    queue.clear();
    bit_set(visited, s);
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        for &a in net.scan_arcs(u) {
            if net.residual(a) == 0 {
                continue;
            }
            let v = net.arc_head(a);
            if bit_test(visited, v) {
                continue;
            }
            bit_set(visited, v);
            parent[v as usize] = a;
            if v == t {
                // Augment one unit along the parent chain and stop.
                let mut x = t;
                while x != s {
                    let a = parent[x as usize];
                    net.push(a, 1);
                    x = net.arc_head(a ^ 1);
                }
                return 1;
            }
            queue.push_back(v);
        }
    }
    0
}

/// Multi-pair max-flow engine that caches one clean-network BFS level graph
/// per (source, [`FlowNetwork::base_epoch`]) and reuses it across targets.
///
/// Unlike the [`super::MaxFlow`] solvers this type is stateful (`&mut self`)
/// — the cache is the point — so it does not implement the trait; sweeps
/// hold one engine per worker alongside their [`FlowWorkspace`]. Every call
/// resets the network first, so callers need not (and must not rely on)
/// residual state between calls.
///
/// # Example
///
/// ```
/// use flowgraph::maxflow::{BatchedDinic, Dinic, FlowNetwork, FlowWorkspace, MaxFlow};
///
/// let mut net = FlowNetwork::new(4);
/// net.add_arc(0, 1, 1);
/// net.add_arc(0, 2, 1);
/// net.add_arc(1, 3, 1);
/// net.add_arc(2, 3, 1);
/// let mut engine = BatchedDinic::new();
/// let mut ws = FlowWorkspace::new();
/// // Same source, several targets: the level graph is built once.
/// for t in [3u32, 2, 1] {
///     let batched = engine.max_flow(&mut net, 0, t, None, &mut ws);
///     net.reset();
///     assert_eq!(batched, Dinic::new().max_flow(&mut net, 0, t, None));
///     net.reset();
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct BatchedDinic {
    source: u32,
    epoch: u64,
    valid: bool,
    /// BFS levels of the clean network from `source` (meaningful only where
    /// the `base_reach` bit is set).
    base_level: Vec<u32>,
    /// Bitset of vertices reachable from `source` in the clean network.
    base_reach: Vec<u64>,
}

impl BatchedDinic {
    /// Creates an engine with an empty cache.
    pub fn new() -> Self {
        BatchedDinic::default()
    }

    /// Computes the exact maximum `s -> t` flow (or a certified lower bound
    /// `>= c` when `cutoff = Some(c)` stops it early), reusing the cached
    /// level graph when `s` and the network's base epoch match the previous
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either vertex is out of range.
    pub fn max_flow(
        &mut self,
        net: &mut FlowNetwork,
        s: u32,
        t: u32,
        cutoff: Option<u64>,
        workspace: &mut FlowWorkspace,
    ) -> u64 {
        self.max_flow_bounded(net, s, t, cutoff, None, workspace)
    }

    /// Like [`BatchedDinic::max_flow`], with a caller-supplied upper bound on
    /// the max flow (`known_bound`) replacing the generic
    /// [`capacity_bound`] scan. The bound must be sound — a flow value equal
    /// to it is reported as exact without a certifying BFS.
    pub fn max_flow_bounded(
        &mut self,
        net: &mut FlowNetwork,
        s: u32,
        t: u32,
        cutoff: Option<u64>,
        known_bound: Option<u64>,
        workspace: &mut FlowWorkspace,
    ) -> u64 {
        let _span = kad_telemetry::span::span("blocking-flow");
        check_endpoints(net, s, t);
        net.reset();
        let n = net.node_count();
        workspace.ensure_basic(n);
        if !self.valid
            || self.source != s
            || self.epoch != net.base_epoch()
            || self.base_level.len() != n
        {
            self.relayer(net, s, workspace);
        }
        if !bit_test(&self.base_reach, t) {
            // Unreachable even with zero flow: the max flow is exactly 0.
            return 0;
        }
        let bound = known_bound.unwrap_or_else(|| capacity_bound(net, s, t));
        let stop = cutoff.map_or(bound, |c| c.min(bound));
        if stop == 0 {
            // cutoff 0 asks for nothing; bound 0 certifies a zero max flow.
            return 0;
        }
        let words = words_for(n);
        let FlowWorkspace {
            label,
            cur,
            queue,
            path,
            visited,
            ..
        } = workspace;
        let level = &mut label[..n];
        let cur = &mut cur[..n];

        // Phase 1 on the cached clean-network level graph: an O(n/64) copy
        // replaces the per-target BFS.
        visited[..words].copy_from_slice(&self.base_reach[..words]);
        cur.iter_mut().for_each(|c| *c = 0);
        let mut flow = blocking_flow(net, s, t, &self.base_level, visited, cur, path, stop);
        loop {
            if flow >= stop {
                // Either the cutoff is satisfied or the capacity bound is
                // attained — and a flow meeting an upper bound is maximal.
                return flow;
            }
            if !level_bfs(net, s, Some(t), level, visited, queue) {
                return flow;
            }
            cur.iter_mut().for_each(|c| *c = 0);
            flow += blocking_flow(net, s, t, level, visited, cur, path, stop - flow);
        }
    }

    /// Rebuilds the cached level graph: one full BFS over the clean network,
    /// layering everything reachable from `s` (no sink to stop at).
    fn relayer(&mut self, net: &FlowNetwork, s: u32, workspace: &mut FlowWorkspace) {
        let _span = kad_telemetry::span::span("layering");
        let n = net.node_count();
        self.base_level.clear();
        self.base_level.resize(n, u32::MAX);
        self.base_reach.clear();
        self.base_reach.resize(words_for(n), 0);
        level_bfs(
            net,
            s,
            None,
            &mut self.base_level,
            &mut self.base_reach,
            &mut workspace.queue,
        );
        self.source = s;
        self.epoch = net.base_epoch();
        self.valid = true;
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Dinic, MaxFlow};
    use super::*;

    fn clrs_network() -> FlowNetwork {
        let mut net = FlowNetwork::new(6);
        net.add_arc(0, 1, 16);
        net.add_arc(0, 2, 13);
        net.add_arc(1, 2, 10);
        net.add_arc(2, 1, 4);
        net.add_arc(1, 3, 12);
        net.add_arc(3, 2, 9);
        net.add_arc(2, 4, 14);
        net.add_arc(4, 3, 7);
        net.add_arc(3, 5, 20);
        net.add_arc(4, 5, 4);
        net
    }

    fn dinic_value(net: &mut FlowNetwork, s: u32, t: u32) -> u64 {
        net.reset();
        let v = Dinic::new().max_flow(net, s, t, None);
        net.reset();
        v
    }

    #[test]
    fn matches_dinic_across_shared_source_targets() {
        let mut net = clrs_network();
        let mut engine = BatchedDinic::new();
        let mut ws = FlowWorkspace::new();
        for t in [5u32, 4, 3, 2, 1] {
            let expected = dinic_value(&mut net, 0, t);
            let got = engine.max_flow(&mut net, 0, t, None, &mut ws);
            assert_eq!(got, expected, "target {t}");
        }
    }

    #[test]
    fn source_switch_invalidates_cache() {
        let mut net = clrs_network();
        let mut engine = BatchedDinic::new();
        let mut ws = FlowWorkspace::new();
        for (s, t) in [(0u32, 5u32), (1, 5), (0, 5), (2, 3)] {
            let expected = dinic_value(&mut net, s, t);
            let got = engine.max_flow(&mut net, s, t, None, &mut ws);
            assert_eq!(got, expected, "pair {s}->{t}");
        }
    }

    #[test]
    fn base_capacity_edit_invalidates_cache() {
        let mut net = clrs_network();
        let mut engine = BatchedDinic::new();
        let mut ws = FlowWorkspace::new();
        assert_eq!(engine.max_flow(&mut net, 0, 5, None, &mut ws), 23);
        // Deleting arc 0 -> 1 (id 0) drops the max flow to 13's bottleneck.
        net.reset();
        net.set_base_capacity(0, 0);
        let expected = dinic_value(&mut net, 0, 5);
        assert_eq!(engine.max_flow(&mut net, 0, 5, None, &mut ws), expected);
    }

    #[test]
    fn added_arc_invalidates_cache() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 1);
        let mut engine = BatchedDinic::new();
        let mut ws = FlowWorkspace::new();
        assert_eq!(engine.max_flow(&mut net, 0, 2, None, &mut ws), 0);
        net.reset();
        net.add_arc(1, 2, 1);
        assert_eq!(engine.max_flow(&mut net, 0, 2, None, &mut ws), 1);
    }

    #[test]
    fn unreachable_target_is_zero_without_flow_work() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 3);
        net.add_arc(2, 3, 3);
        let mut engine = BatchedDinic::new();
        let mut ws = FlowWorkspace::new();
        assert_eq!(engine.max_flow(&mut net, 0, 3, None, &mut ws), 0);
        assert_eq!(net.touched_len(), 0);
    }

    #[test]
    fn cutoff_certifies_lower_bound() {
        let mut net = FlowNetwork::new(52);
        for mid in 1..51 {
            net.add_arc(0, mid, 1);
            net.add_arc(mid, 51, 1);
        }
        let mut engine = BatchedDinic::new();
        let mut ws = FlowWorkspace::new();
        let flow = engine.max_flow(&mut net, 0, 51, Some(7), &mut ws);
        assert!((7..=50).contains(&flow));
        // Cutoff above the max still returns the exact value.
        let exact = engine.max_flow(&mut net, 0, 51, Some(1000), &mut ws);
        assert_eq!(exact, 50);
    }

    #[test]
    fn sound_known_bound_is_exact() {
        let mut net = clrs_network();
        let mut engine = BatchedDinic::new();
        let mut ws = FlowWorkspace::new();
        // 23 is the true max; any sound bound >= 23 must not change it.
        for bound in [23u64, 24, 1000] {
            let got = engine.max_flow_bounded(&mut net, 0, 5, None, Some(bound), &mut ws);
            assert_eq!(got, 23, "bound {bound}");
        }
    }

    #[test]
    fn multi_phase_pairs_still_exact() {
        // Needs >= 2 Dinic phases: the reused level graph alone cannot
        // finish, so the fresh-BFS fallback must engage.
        let mut net = FlowNetwork::new(6);
        net.add_arc(0, 1, 1);
        net.add_arc(0, 2, 1);
        net.add_arc(1, 3, 1);
        net.add_arc(2, 3, 1);
        net.add_arc(3, 4, 1);
        net.add_arc(3, 5, 1);
        net.add_arc(4, 5, 1);
        let mut engine = BatchedDinic::new();
        let mut ws = FlowWorkspace::new();
        assert_eq!(engine.max_flow(&mut net, 0, 5, None, &mut ws), 2);
    }

    #[test]
    fn probe_augments_one_unit_until_max_flow() {
        let mut net = clrs_network();
        let mut ws = FlowWorkspace::new();
        let max = dinic_value(&mut net, 0, 5);
        // Repeated probes from the clean network reach exactly the max flow
        // one unit at a time, then certify with a zero.
        let mut sent = 0;
        while probe_unit_augment(&mut net, 0, 5, &mut ws) == 1 {
            sent += 1;
            assert!(sent <= max, "probe overshot the max flow");
        }
        assert_eq!(sent, max);
        assert_eq!(probe_unit_augment(&mut net, 0, 5, &mut ws), 0);
    }

    #[test]
    fn probe_respects_replayed_flow() {
        // Two disjoint unit paths 0→1→3 and 0→2→3; replay one of them and
        // the probe must find exactly the other, then nothing.
        let mut net = FlowNetwork::new(4);
        let a01 = net.add_arc(0, 1, 1);
        net.add_arc(0, 2, 1);
        let a13 = net.add_arc(1, 3, 1);
        net.add_arc(2, 3, 1);
        net.push(a01, 1);
        net.push(a13, 1);
        let mut ws = FlowWorkspace::new();
        assert_eq!(probe_unit_augment(&mut net, 0, 3, &mut ws), 1);
        assert_eq!(probe_unit_augment(&mut net, 0, 3, &mut ws), 0);
    }

    #[test]
    fn capacity_bound_is_sound_and_tight_on_stars() {
        let mut net = FlowNetwork::new(52);
        for mid in 1..51 {
            net.add_arc(0, mid, 1);
            net.add_arc(mid, 51, 1);
        }
        assert_eq!(capacity_bound(&net, 0, 51), 50);
        let clrs = clrs_network();
        assert!(capacity_bound(&clrs, 0, 5) >= 23);
    }
}
