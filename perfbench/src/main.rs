//! `kad_perfbench <paper_churn_n250|live_kappa_n250> --seed S --minutes M
//! --sessions R --trace 0|1`
//!
//! Runs one untimed warm-up (the joins alone), then `R` identical sessions of `M`
//! churn minutes each, and prints one JSON object of raw measurements on
//! stdout. With `--trace 1` every untraced session is followed by a
//! decorated one, so the trace overhead is measured on the same inputs.
//! `perfbench/run.py` turns the output into the benchmark's metrics.

use kad_perfbench::{run_session, Session, Workload};
use std::fmt::Write;

struct Args {
    workload: Workload,
    seed: u64,
    minutes: u64,
    sessions: usize,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let name = raw.next().ok_or("missing workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let (mut seed, mut minutes, mut sessions, mut trace) = (None, None, None, false);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|_| format!("bad {flag} {v:?}"));
        match flag.as_str() {
            "--seed" => seed = Some(number(&value)?),
            "--minutes" => minutes = Some(number(&value)?.max(1)),
            "--sessions" => sessions = Some(number(&value)?.clamp(1, 64) as usize),
            "--trace" => trace = number(&value)? != 0,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        minutes: minutes.ok_or("missing --minutes")?,
        sessions: sessions.ok_or("missing --sessions")?,
        trace,
    })
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
    format!("[{}]", items.join(","))
}

fn session_json(s: &Session) -> String {
    let r = &s.rec;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"traced\":{},\"wall_s\":{:.9},\"setup_s\":{:.9},\"checks\":{},\"failures\":[{}],\"digest\":\"{:016x}\",\"counters\":{{{}}}",
        s.traced,
        s.wall.as_secs_f64(),
        s.setup.as_secs_f64(),
        s.checks,
        s.failures
            .iter()
            .map(|f| format!("{f:?}"))
            .collect::<Vec<_>>()
            .join(","),
        s.digest,
        s.counters
            .iter()
            .map(|(name, value)| format!("{name:?}:{value}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    let _ = write!(
        out,
        ",\"schedule_s\":{:.9},\"drive_s\":{:.9},\"grid_s\":{:.9},\"drive_churn_ms\":{},\"live_kappa_ms\":{},\"live_kappa_zero\":{},\"snapshot_ms\":{},\"digraph_ms\":{},\"analyze_ms\":{},\"pairs_evaluated\":{}}}",
        r.schedule.as_secs_f64(),
        r.drive.as_secs_f64(),
        r.grid.as_secs_f64(),
        list(&r.drive_churn_ms),
        list(&r.live_kappa_ms),
        r.live_kappa_zero,
        list(&r.snapshot_ms),
        list(&r.digraph_ms),
        list(&r.analyze_ms),
        r.pairs_evaluated,
    );
    out
}

/// Peak resident set of this process in KiB (`VmHWM`).
fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("kad_perfbench: {message}");
            std::process::exit(2);
        }
    };
    let mut warm = args.workload.scenario(args.seed, 0);
    warm.stabilization_minutes = warm.setup_minutes;
    let warmup = run_session(args.workload, &warm, false);
    let scenario = args.workload.scenario(args.seed, args.minutes);
    let mut sessions = Vec::new();
    for _ in 0..args.sessions {
        sessions.push(run_session(args.workload, &scenario, false));
        if args.trace {
            sessions.push(run_session(args.workload, &scenario, true));
        }
    }
    let body: Vec<String> = sessions.iter().map(session_json).collect();
    println!(
        "{{\"seed\":{},\"minutes\":{},\"warmup_s\":{:.9},\"vmhwm_kib\":{},\"sessions\":[{}]}}",
        args.seed,
        args.minutes,
        warmup.wall.as_secs_f64(),
        vm_hwm_kib(),
        body.join(",")
    );
}
