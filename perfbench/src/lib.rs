//! Session runner for the benchmark's two n=250 session workloads.
//!
//! Both workloads run a paper scenario at [`Scale::Paper`] through the
//! library's [`SessionDriver`] and its own actors. Every number is taken
//! from outside the program: wall-clock stamps around actor hooks
//! (timing decorators, on only in traced sessions) and around calls
//! into public layer functions (`SimNetwork::snapshot`,
//! `kad_resilience::snapshot_to_digraph` / `analyze_graph`). The output
//! checks run inside the minute loop but stamp their own
//! time, which is subtracted from every measured interval.

use kad_experiments::scale::Scale;
use kad_experiments::scenario::{paper, Scenario};
use kad_experiments::session::{
    ChurnActor, EndCtx, JoinSchedule, LiveKappaActor, MinuteActor, MinuteCtx, SessionDriver,
    TrafficActor, TrafficOrigins,
};
use kademlia::SimNetwork;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Overlay size of both workloads: the paper's small network.
pub const N: usize = 250;

/// Churn minutes between two grid-sampler analyses (`paper_churn_n250`).
pub const GRID_EVERY: u64 = 10;

/// The in-process workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper Simulation E at n=250: churn 1/1, 10 lookups + 1 store per
    /// node-minute from churn start, full-flow κ analysis on a grid.
    PaperChurn,
    /// Paper Simulation G shape at n=250 without data traffic: churn
    /// 10/10, the library's live κ_min feed every churn minute.
    LiveKappa,
}

impl Workload {
    /// Parses a workload name as the benchmark command spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_churn_n250" => Some(Workload::PaperChurn),
            "live_kappa_n250" => Some(Workload::LiveKappa),
            _ => None,
        }
    }

    /// The scenario one session runs: the `scenario::paper` preset at
    /// paper scale, re-seeded and cut to `churn_minutes` of churn.
    pub fn scenario(self, seed: u64, churn_minutes: u64) -> Scenario {
        let mut scenario = match self {
            Workload::PaperChurn => paper::sim_ef(Scale::Paper, false, 20),
            Workload::LiveKappa => {
                let mut s = paper::sim_gh(Scale::Paper, false, 20, 3);
                s.traffic = None;
                s
            }
        };
        scenario.seed = seed;
        scenario.churn_minutes = churn_minutes;
        scenario
    }
}

/// What a decorated actor's hook time counts towards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    /// Schedule actors (joins, churn, traffic): `on_minute` time.
    Schedule,
    /// The library's `LiveKappaActor`: one evaluation per churn minute.
    LiveKappa,
    /// The benchmark's grid sampler.
    Grid,
}

/// Wall-clock record of one session, filled by the actors below.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Start of the first churn minute.
    pub setup_end: Option<Instant>,
    /// Time spent in output checks so far (excluded from measurements).
    pub excluded: Duration,
    /// `excluded` as it stood at `setup_end`.
    pub excluded_at_setup_end: Duration,
    /// Traced: time in schedule actors' `on_minute` hooks.
    pub schedule: Duration,
    /// Traced: per-minute time outside actor hooks (action apply plus
    /// `SimNetwork::run_until`), summed over every minute.
    pub drive: Duration,
    /// Traced: that time for each churn minute, in ms.
    pub drive_churn_ms: Vec<f64>,
    drive_open: Option<Instant>,
    /// Traced: each live κ evaluation, in ms.
    pub live_kappa_ms: Vec<f64>,
    /// Traced: live κ evaluations that returned 0.
    pub live_kappa_zero: usize,
    /// Traced: time in the grid sampler.
    pub grid: Duration,
    /// `SimNetwork::snapshot` calls made by the checker, in ms.
    pub snapshot_ms: Vec<f64>,
    /// Grid sampler `snapshot_to_digraph` calls, in ms.
    pub digraph_ms: Vec<f64>,
    /// Grid sampler `analyze_graph` calls, in ms.
    pub analyze_ms: Vec<f64>,
    /// Pairs the grid sampler's analyses evaluated.
    pub pairs_evaluated: u64,
}

type Shared = Rc<RefCell<Recorder>>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Marks the end of set-up: the boundary of the first churn minute.
struct PhaseMarker {
    stabilization: u64,
    rec: Shared,
}

impl MinuteActor for PhaseMarker {
    fn on_minute(&mut self, _net: &mut SimNetwork, ctx: &mut MinuteCtx<'_>) {
        if ctx.minute == self.stabilization {
            let mut rec = self.rec.borrow_mut();
            rec.setup_end = Some(Instant::now());
            rec.excluded_at_setup_end = rec.excluded;
        }
    }
}

/// Forwards to the inner actor from churn start on, so data traffic
/// starts with churn and set-up stays the overlay build alone.
struct FromChurnStart<A>(A);

impl<A: MinuteActor> MinuteActor for FromChurnStart<A> {
    fn on_minute(&mut self, net: &mut SimNetwork, ctx: &mut MinuteCtx<'_>) {
        if ctx.minute >= ctx.base.stabilization_minutes {
            self.0.on_minute(net, ctx);
        }
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }
}

/// Every [`GRID_EVERY`] churn minutes: snapshot, digraph, and the
/// scenario's own analysis (`scenario.analysis`: the registry's c=0.02
/// full-flow sweep). Publishes κ_min so the checker sees it.
struct GridSampler {
    stabilization: u64,
    rec: Shared,
}

impl MinuteActor for GridSampler {
    fn at_minute_end(&mut self, net: &mut SimNetwork, ctx: &mut EndCtx<'_>) {
        let since = ctx.at_minute.saturating_sub(self.stabilization);
        if since == 0 || !since.is_multiple_of(GRID_EVERY) {
            return;
        }
        let snap = net.snapshot();
        let t1 = Instant::now();
        let g = kad_resilience::snapshot_to_digraph(&snap);
        let t2 = Instant::now();
        let report = kad_resilience::analyze_graph(&g, &ctx.base.analysis);
        let t3 = Instant::now();
        ctx.shared
            .publish_kappa(ctx.at_minute, report.min_connectivity);
        let mut rec = self.rec.borrow_mut();
        rec.digraph_ms.push(ms(t2 - t1));
        rec.analyze_ms.push(ms(t3 - t2));
        rec.pairs_evaluated += report.pairs_evaluated as u64;
    }
}

/// Timing decorator around one actor (traced sessions only).
struct Timed {
    inner: Box<dyn MinuteActor>,
    role: Role,
    rec: Shared,
}

impl MinuteActor for Timed {
    fn on_minute(&mut self, net: &mut SimNetwork, ctx: &mut MinuteCtx<'_>) {
        let t0 = Instant::now();
        self.inner.on_minute(net, ctx);
        let t1 = Instant::now();
        let mut rec = self.rec.borrow_mut();
        if self.role == Role::Schedule {
            rec.schedule += t1 - t0;
        }
        // The last actor's exit opens the minute's drive interval.
        rec.drive_open = Some(t1);
    }

    fn at_minute_end(&mut self, net: &mut SimNetwork, ctx: &mut EndCtx<'_>) {
        let t0 = Instant::now();
        let mut rec = self.rec.borrow_mut();
        if let Some(open) = rec.drive_open.take() {
            rec.drive += t0 - open;
            if ctx.at_minute > ctx.base.stabilization_minutes {
                rec.drive_churn_ms.push(ms(t0 - open));
            }
        }
        drop(rec);
        self.inner.at_minute_end(net, ctx);
        let t1 = Instant::now();
        let mut rec = self.rec.borrow_mut();
        match self.role {
            Role::Schedule => {}
            Role::Grid => rec.grid += t1 - t0,
            Role::LiveKappa => {
                if let Some((minute, kappa)) = ctx.shared.last_kappa {
                    if minute == ctx.at_minute {
                        rec.live_kappa_ms.push(ms(t1 - t0));
                        rec.live_kappa_zero += usize::from(kappa == 0);
                    }
                }
            }
        }
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// Minimum out-degree of a graph given as an edge list over `0..n`.
fn min_out_degree(n: usize, edges: &[(u32, u32)]) -> u64 {
    let mut degree = vec![0u64; n];
    for &(from, _) in edges {
        degree[from as usize] += 1;
    }
    degree.into_iter().min().unwrap_or(0)
}

/// Whether every vertex reaches every other: a forward and a backward
/// search from vertex 0 both cover the graph.
fn strongly_connected(n: usize, edges: &[(u32, u32)]) -> bool {
    if n <= 1 {
        return true;
    }
    let covers = |forward: bool| {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            let (from, to) = if forward { (a, b) } else { (b, a) };
            adj[from as usize].push(to as usize);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    };
    covers(true) && covers(false)
}

/// Checks one published κ_min against its snapshot: κ_min never exceeds
/// the minimum out-degree, and is 0 exactly when the graph is not
/// strongly connected. Any correct κ engine passes. Returns the failures.
fn check_kappa(n: usize, edges: &[(u32, u32)], kappa: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let min_out = min_out_degree(n, edges);
    if kappa > min_out {
        failures.push(format!("kappa {kappa} above min out-degree {min_out}"));
    }
    let connected = strongly_connected(n, edges);
    if (kappa == 0) == connected {
        failures.push(format!(
            "kappa {kappa} but strongly connected = {connected}"
        ));
    }
    failures
}

/// The output checks, run after every churn minute with their own time
/// stamped and excluded: alive count, and each κ_min published this
/// minute against the snapshot it was computed on.
struct Checker {
    size: usize,
    stabilization: u64,
    rec: Shared,
    checks: u64,
    failures: Vec<String>,
    /// Every `(minute, κ_min)` checked.
    kappa_series: Vec<(u64, u64)>,
}

impl MinuteActor for Checker {
    fn at_minute_end(&mut self, net: &mut SimNetwork, ctx: &mut EndCtx<'_>) {
        let t0 = Instant::now();
        if ctx.at_minute > self.stabilization {
            self.checks += 1;
            if net.alive_count() != self.size {
                self.failures.push(format!(
                    "minute {}: {} alive, expected {}",
                    ctx.at_minute,
                    net.alive_count(),
                    self.size
                ));
            }
            if let Some((minute, kappa)) = ctx.shared.last_kappa {
                if minute == ctx.at_minute {
                    let s0 = Instant::now();
                    let snap = net.snapshot();
                    self.rec.borrow_mut().snapshot_ms.push(ms(s0.elapsed()));
                    self.checks += 2;
                    for failure in check_kappa(snap.node_count(), snap.edges(), kappa) {
                        self.failures.push(format!("minute {minute}: {failure}"));
                    }
                    self.kappa_series.push((minute, kappa));
                }
            }
        }
        self.rec.borrow_mut().excluded += t0.elapsed();
    }
}

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Digest of a session's outputs: every kademlia/dessim counter and the
/// checked κ_min series.
fn outputs_digest(counters: &[(String, u64)], kappa_series: &[(u64, u64)]) -> u64 {
    let mut text = String::new();
    for (name, value) in counters {
        text.push_str(&format!("{name}={value}\n"));
    }
    for (minute, kappa) in kappa_series {
        text.push_str(&format!("kappa@{minute}={kappa}\n"));
    }
    fnv1a(text.into_bytes())
}

/// One measured session.
#[derive(Debug)]
pub struct Session {
    /// Whether the actors were decorated.
    pub traced: bool,
    /// Wall time of the whole session, checks excluded.
    pub wall: Duration,
    /// Set-up part of `wall`: joins and stabilization.
    pub setup: Duration,
    /// Checks made.
    pub checks: u64,
    /// Failed checks.
    pub failures: Vec<String>,
    /// Final counters, in name order.
    pub counters: Vec<(String, u64)>,
    /// Digest of the final counters and the checked κ_min series.
    pub digest: u64,
    /// The timing record.
    pub rec: Recorder,
}

/// Runs one session of `workload` on `scenario`, decorated when `traced`.
pub fn run_session(workload: Workload, scenario: &Scenario, traced: bool) -> Session {
    let rec: Shared = Rc::default();
    let stabilization = scenario.stabilization_minutes;
    let start = Instant::now();
    let mut driver = SessionDriver::new(scenario);
    let mut actors: Vec<(Box<dyn MinuteActor>, Role)> = vec![
        (Box::new(JoinSchedule::new(&mut driver)), Role::Schedule),
        (Box::new(ChurnActor), Role::Schedule),
    ];
    match workload {
        Workload::PaperChurn => {
            let traffic = TrafficActor::new(TrafficOrigins::AllAlive);
            actors.push((Box::new(FromChurnStart(traffic)), Role::Schedule));
            let sampler = GridSampler {
                stabilization,
                rec: rec.clone(),
            };
            actors.push((Box::new(sampler), Role::Grid));
        }
        Workload::LiveKappa => {
            let kappa = LiveKappaActor::new(stabilization + 1);
            actors.push((Box::new(kappa), Role::LiveKappa));
        }
    }
    let mut boxed: Vec<Box<dyn MinuteActor>> = vec![Box::new(PhaseMarker {
        stabilization,
        rec: rec.clone(),
    })];
    for (inner, role) in actors {
        boxed.push(if traced {
            Box::new(Timed {
                inner,
                role,
                rec: rec.clone(),
            })
        } else {
            inner
        });
    }
    let mut checker = Checker {
        size: scenario.size,
        stabilization,
        rec: rec.clone(),
        checks: 0,
        failures: Vec::new(),
        kappa_series: Vec::new(),
    };
    let mut refs: Vec<&mut dyn MinuteActor> = Vec::new();
    for actor in boxed.iter_mut() {
        refs.push(actor.as_mut());
    }
    refs.push(&mut checker);
    driver.run(&mut refs);
    let end = Instant::now();

    let (net, _shared) = driver.finish();
    let counters: Vec<(String, u64)> = net
        .counters()
        .iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect();
    let digest = outputs_digest(&counters, &checker.kappa_series);
    let rec = std::mem::take(&mut *rec.borrow_mut());
    let wall = (end - start).saturating_sub(rec.excluded);
    let setup = rec.setup_end.map_or(wall, |at| {
        (at - start).saturating_sub(rec.excluded_at_setup_end)
    });
    Session {
        traced,
        wall,
        setup,
        checks: checker.checks,
        failures: checker.failures,
        counters,
        digest,
        rec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: Workload, seed: u64) -> Scenario {
        let mut s = workload.scenario(seed, 4);
        s.size = 24;
        s.stabilization_minutes = 40;
        s
    }

    #[test]
    fn same_seed_gives_same_inputs_and_digest() {
        for workload in [Workload::PaperChurn, Workload::LiveKappa] {
            assert_eq!(workload.scenario(7, 30), workload.scenario(7, 30));
            let a = run_session(workload, &small(workload, 7), false);
            let b = run_session(workload, &small(workload, 7), true);
            assert!(a.failures.is_empty(), "{:?}", a.failures);
            assert!(a.checks > 0);
            assert_eq!(a.digest, b.digest, "decorators must not change outputs");
        }
    }

    #[test]
    fn different_seed_changes_inputs_and_digest() {
        let workload = Workload::LiveKappa;
        assert_ne!(workload.scenario(7, 30), workload.scenario(8, 30));
        let a = run_session(workload, &small(workload, 7), false);
        let b = run_session(workload, &small(workload, 8), false);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn workloads_keep_the_paper_settings() {
        let e = Workload::PaperChurn.scenario(1, 30);
        assert_eq!((e.size, e.protocol.k, e.protocol.alpha), (N, 20, 3));
        assert_eq!(e.protocol.staleness_limit, 1);
        assert!(e.traffic.is_some());
        let g = Workload::LiveKappa.scenario(1, 30);
        assert_eq!((g.size, g.protocol.k), (N, 20));
        assert_eq!(g.churn.remove_per_min, 10);
        assert!(g.traffic.is_none());
    }

    #[test]
    fn checker_rejects_kappa_above_min_out_degree() {
        // A bidirected 4-cycle: out-degree 2 everywhere, κ = 2.
        let edges = [
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 3),
            (3, 2),
            (3, 0),
            (0, 3),
        ];
        assert!(check_kappa(4, &edges, 2).is_empty());
        assert_eq!(check_kappa(4, &edges, 3).len(), 1);
        // Zero on a strongly connected graph is wrong too.
        assert_eq!(check_kappa(4, &edges, 0).len(), 1);
    }

    #[test]
    fn checker_wants_zero_exactly_when_not_strongly_connected() {
        let one_way = [(0, 1), (1, 2)];
        assert!(!strongly_connected(3, &one_way));
        assert!(check_kappa(3, &one_way, 0).is_empty());
        assert!(!check_kappa(3, &one_way, 1).is_empty());
    }
}
