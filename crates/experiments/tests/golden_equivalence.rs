//! Golden-equivalence suite: the session-engine refactor must not change
//! a single output byte.
//!
//! The files under `tests/golden/` were generated by the pre-refactor
//! hand-rolled minute loops (`repro {campaign,service,defend} --scale
//! bench --seed 1`). Every test here re-runs the same grid in-process
//! through the current runners and asserts the rendered CSVs are
//! **byte-identical** to those pinned outputs — the acceptance criterion
//! for porting the runners onto the shared [`kad_experiments::session`]
//! driver. A diff in any of these tests means the refactor changed the
//! event order, an RNG draw, or a format string somewhere.
//!
//! `sampling-table0.csv` and `fig2-figure0.csv` pin the two κ-heavy
//! registry outputs (`repro sampling` and `repro fig2`, same scale and
//! seed; their SHA-256 sums are the ones `perfbench/pinned.json` checks).
//! They guard the max-flow kernels: a kernel change may route different
//! flows but must not change one κ value.

use kad_experiments::matrix::MatrixRunner;
use kad_experiments::scale::Scale;

const SEED: u64 = 1;

/// First differing line (1-based) between two CSV strings, for a readable
/// failure message instead of a megabyte assert_eq dump.
fn assert_csv_identical(kind: &str, actual: &str, golden: &str) {
    if actual == golden {
        return;
    }
    let line = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .map_or_else(
            || actual.lines().count().min(golden.lines().count()) + 1,
            |i| i + 1,
        );
    let show = |s: &str| s.lines().nth(line - 1).unwrap_or("<missing>").to_string();
    panic!(
        "{kind} diverged from the pre-refactor golden at line {line}:\n  \
         golden: {}\n  actual: {}\n(total {} golden / {} actual lines)",
        show(golden),
        show(actual),
        golden.lines().count(),
        actual.lines().count(),
    );
}

#[test]
fn campaign_csv_is_byte_identical_to_pre_refactor_golden() {
    use kad_experiments::campaign::{campaign_csv, campaign_grid, run_campaign_grid};
    let grid = campaign_grid(Scale::Bench, SEED);
    let outcomes = run_campaign_grid(&MatrixRunner::new(), &grid, |_, _| {});
    assert_csv_identical(
        "campaign-timeseries.csv",
        &campaign_csv(&outcomes),
        include_str!("golden/campaign-timeseries.csv"),
    );
}

#[test]
fn service_csvs_are_byte_identical_to_pre_refactor_goldens() {
    use kad_experiments::service::{
        run_service_grid, service_grid, service_hops_csv, service_timeseries_csv,
    };
    let grid = service_grid(Scale::Bench, SEED);
    let outcomes = run_service_grid(&MatrixRunner::new(), &grid, |_, _| {});
    assert_csv_identical(
        "service-timeseries.csv",
        &service_timeseries_csv(&outcomes),
        include_str!("golden/service-timeseries.csv"),
    );
    assert_csv_identical(
        "service-hops.csv",
        &service_hops_csv(&outcomes),
        include_str!("golden/service-hops.csv"),
    );
}

/// The load engine must be *inert* when its arrival process is silent: a
/// rate-0 [`kad_experiments::LoadSpec`] wired into every service cell —
/// fanout sink installed, hot keys drawn, actor in the minute loop — must
/// leave both service CSVs byte-identical to the pre-load goldens. This
/// pins the two halves of the opt-in contract: the load actor's own RNG
/// streams (`load-keys`, `load-arrivals`) are label-isolated from the
/// harness streams, and a silent process draws nothing and issues nothing.
#[test]
fn rate_zero_load_actor_leaves_service_csvs_byte_identical() {
    use kad_experiments::service::{
        run_service_grid, service_grid, service_hops_csv, service_timeseries_csv,
    };
    use kad_experiments::traffic::ArrivalProcess;
    use kad_experiments::LoadSpec;
    let mut grid = service_grid(Scale::Bench, SEED);
    for scenario in &mut grid {
        scenario.load = Some(LoadSpec::new(
            ArrivalProcess::Poisson { rate_per_min: 0.0 },
            scenario.base.stabilization_minutes,
        ));
    }
    let outcomes = run_service_grid(&MatrixRunner::new(), &grid, |_, _| {});
    assert_csv_identical(
        "service-timeseries.csv (rate-0 load)",
        &service_timeseries_csv(&outcomes),
        include_str!("golden/service-timeseries.csv"),
    );
    assert_csv_identical(
        "service-hops.csv (rate-0 load)",
        &service_hops_csv(&outcomes),
        include_str!("golden/service-hops.csv"),
    );
}

#[test]
fn defense_csvs_are_byte_identical_to_pre_refactor_goldens() {
    use kad_experiments::defense::{
        defense_grid, defense_summary_csv, defense_timeseries_csv, run_defense_grid,
    };
    let grid = defense_grid(Scale::Bench, SEED);
    let outcomes = run_defense_grid(&MatrixRunner::new(), &grid, |_, _| {});
    assert_csv_identical(
        "defense-timeseries.csv",
        &defense_timeseries_csv(&outcomes),
        include_str!("golden/defense-timeseries.csv"),
    );
    assert_csv_identical(
        "defense-summary.csv",
        &defense_summary_csv(&outcomes),
        include_str!("golden/defense-summary.csv"),
    );
}

/// The flight recorder must be a pure observer: running a grid with
/// `observe` on — journal created and wired into the telemetry fanout,
/// span profile installed per cell, minute seals folded — must leave the
/// golden CSVs byte-identical. Journal recording draws no randomness and
/// never touches the network, and the span guards only read the clock;
/// this pins both claims on a full grid against the same goldens the
/// un-observed tests use.
#[test]
fn observed_campaign_csv_is_byte_identical_to_golden() {
    use kad_experiments::campaign::{campaign_csv, campaign_grid, run_campaign_grid};
    let mut grid = campaign_grid(Scale::Bench, SEED);
    for scenario in &mut grid {
        scenario.base.observe = true;
    }
    let outcomes = run_campaign_grid(&MatrixRunner::new(), &grid, |_, _| {});
    assert_csv_identical(
        "campaign-timeseries.csv (observed)",
        &campaign_csv(&outcomes),
        include_str!("golden/campaign-timeseries.csv"),
    );
}

/// Same contract for the defense grid, whose cells compose the journal
/// with an existing telemetry sink through a fanout: fanning the records
/// out to the journal must not perturb a byte of the goldens.
#[test]
fn observed_defense_csvs_are_byte_identical_to_goldens() {
    use kad_experiments::defense::{
        defense_grid, defense_summary_csv, defense_timeseries_csv, run_defense_grid,
    };
    let mut grid = defense_grid(Scale::Bench, SEED);
    for scenario in &mut grid {
        scenario.base.observe = true;
    }
    let outcomes = run_defense_grid(&MatrixRunner::new(), &grid, |_, _| {});
    assert_csv_identical(
        "defense-timeseries.csv (observed)",
        &defense_timeseries_csv(&outcomes),
        include_str!("golden/defense-timeseries.csv"),
    );
    assert_csv_identical(
        "defense-summary.csv (observed)",
        &defense_summary_csv(&outcomes),
        include_str!("golden/defense-summary.csv"),
    );
}

/// Runs one registry experiment at bench scale and returns its CSVs in
/// the order `repro --out` writes them (figures, then tables).
fn registry_csvs(id: kad_experiments::figures::ExperimentId) -> Vec<String> {
    let result = kad_experiments::figures::run_experiment(id, Scale::Bench, SEED);
    let figures = result.figures.iter().map(|f| f.to_csv());
    figures
        .chain(result.tables.iter().map(|t| t.to_csv()))
        .collect()
}

/// The κ-heavy registry outputs: `repro sampling` estimates κ from sampled
/// vertex pairs and `repro fig2` measures κ_min/κ_avg every minute, so a
/// max-flow kernel change that altered a single value shows up here.
#[test]
fn sampling_csv_is_byte_identical_to_golden() {
    use kad_experiments::figures::ExperimentId;
    let csvs = registry_csvs(ExperimentId::Sampling);
    assert_eq!(csvs.len(), 1, "sampling renders one table");
    assert_csv_identical(
        "sampling-table0.csv",
        &csvs[0],
        include_str!("golden/sampling-table0.csv"),
    );
}

#[test]
fn fig2_csv_is_byte_identical_to_golden() {
    use kad_experiments::figures::ExperimentId;
    let csvs = registry_csvs(ExperimentId::Fig2);
    assert_eq!(csvs.len(), 1, "fig2 renders one figure");
    assert_csv_identical(
        "fig2-figure0.csv",
        &csvs[0],
        include_str!("golden/fig2-figure0.csv"),
    );
}
