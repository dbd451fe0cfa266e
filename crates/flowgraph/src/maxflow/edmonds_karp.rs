//! Edmonds–Karp: shortest augmenting paths by BFS.
//!
//! `O(V · E²)` in general, but on the unit-capacity Even networks used for
//! connectivity the number of augmentations is bounded by the connectivity
//! value itself, so it is perfectly serviceable there. It is the crate's
//! one reference oracle: obviously correct, and what the tests compare the
//! production engine ([`super::BatchedDinic`]) and [`super::Dinic`]
//! against. No production path runs it.

use super::{check_endpoints, FlowNetwork, FlowWorkspace, MaxFlow};

/// The Edmonds–Karp maximum-flow algorithm.
///
/// # Example
///
/// ```
/// use flowgraph::maxflow::{EdmondsKarp, FlowNetwork, MaxFlow};
///
/// let mut net = FlowNetwork::new(3);
/// net.add_arc(0, 1, 2);
/// net.add_arc(1, 2, 1);
/// assert_eq!(EdmondsKarp::new().max_flow(&mut net, 0, 2, None), 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdmondsKarp {
    _priv: (),
}

impl EdmondsKarp {
    /// Creates a new solver.
    pub fn new() -> Self {
        EdmondsKarp { _priv: () }
    }
}

impl MaxFlow for EdmondsKarp {
    fn max_flow_with(
        &self,
        net: &mut FlowNetwork,
        s: u32,
        t: u32,
        cutoff: Option<u64>,
        workspace: &mut FlowWorkspace,
    ) -> u64 {
        check_endpoints(net, s, t);
        let n = net.node_count();
        let mut flow: u64 = 0;
        workspace.ensure_basic(n);
        // pred[v] = arc id used to reach v in the current BFS.
        let pred = &mut workspace.label[..n];
        let queue = &mut workspace.queue;

        loop {
            if let Some(c) = cutoff {
                if flow >= c {
                    return flow;
                }
            }
            pred.iter_mut().for_each(|p| *p = u32::MAX);
            queue.clear();
            queue.push_back(s);
            pred[s as usize] = u32::MAX - 1; // mark visited
            let mut found = false;
            'bfs: while let Some(u) = queue.pop_front() {
                for &a in net.arcs_from(u) {
                    if net.residual(a) == 0 {
                        continue;
                    }
                    let v = net.arc_head(a);
                    if pred[v as usize] != u32::MAX {
                        continue;
                    }
                    pred[v as usize] = a;
                    if v == t {
                        found = true;
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
            if !found {
                return flow;
            }
            // Bottleneck along the path t -> s.
            let mut bottleneck = u64::MAX;
            let mut v = t;
            while v != s {
                let a = pred[v as usize];
                bottleneck = bottleneck.min(net.residual(a));
                v = net.arc_head(a ^ 1);
            }
            let mut v = t;
            while v != s {
                let a = pred[v as usize];
                net.push(a, bottleneck);
                v = net.arc_head(a ^ 1);
            }
            flow += bottleneck;
        }
    }

    fn name(&self) -> &'static str {
        "edmonds-karp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_network() {
        // Classic example that forces flow cancellation over the middle arc.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 1);
        net.add_arc(0, 2, 1);
        net.add_arc(1, 2, 1);
        net.add_arc(1, 3, 1);
        net.add_arc(2, 3, 1);
        assert_eq!(EdmondsKarp::new().max_flow(&mut net, 0, 3, None), 2);
    }

    #[test]
    fn cutoff_exactly_at_value() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 5);
        assert_eq!(EdmondsKarp::new().max_flow(&mut net, 0, 1, Some(5)), 5);
    }

    #[test]
    fn cutoff_zero_returns_zero_immediately() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 5);
        assert_eq!(EdmondsKarp::new().max_flow(&mut net, 0, 1, Some(0)), 0);
    }
}
