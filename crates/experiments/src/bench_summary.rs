//! Aggregation of the criterion-shim bench reports.
//!
//! Every `cargo bench` target writes one machine-readable report,
//! `BENCH_<bench>.json`, shaped
//! `{"bench": "perf_kappa", "results": [{"id": "kappa/batched_min_sweep/n96",
//! "median_ns": 1234, ...}, ...]}`. `repro bench` sweeps a directory for
//! those files and folds them into a single `BENCH_summary.json` mapping
//! `<bench>/<id>` to its median nanoseconds — the committed performance
//! snapshot that successive PRs diff against, and what the CI
//! `kappa-perf-smoke` job parses to compare the batched engine against the
//! per-pair baseline.
//!
//! The reports are flat, machine-written JSON with a fixed key order, so
//! the scanner below parses them by hand (the build environment has no
//! JSON crate) and rejects anything it does not recognize rather than
//! guessing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Median nanoseconds per fully-qualified bench id (`<bench>/<group>/<id>`),
/// sorted — the content of `BENCH_summary.json`.
pub type BenchSummary = BTreeMap<String, u64>;

/// Extracts the string value following `"<key>":` at `from` onward.
fn scan_string(text: &str, key: &str, from: usize) -> Option<(String, usize)> {
    let marker = format!("\"{key}\":");
    let at = text[from..].find(&marker)? + from + marker.len();
    let rest = text[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    let consumed = text.len() - rest.len() + end + 1;
    Some((rest[..end].to_string(), consumed))
}

/// Extracts the unsigned integer following `"<key>":` at `from` onward.
fn scan_u64(text: &str, key: &str, from: usize) -> Option<(u64, usize)> {
    let marker = format!("\"{key}\":");
    let at = text[from..].find(&marker)? + from + marker.len();
    let rest = text[at..].trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() {
        return None;
    }
    let consumed = text.len() - rest.len() + digits.len();
    Some((digits.parse().ok()?, consumed))
}

/// Parses one criterion-shim report into `(bench-qualified id, median_ns)`
/// rows. Returns `Err` with a description when the shape is not the
/// shim's.
///
/// Each result's `median_ns` is looked up only inside that result's own
/// (flat) object, so a result missing its median is an error rather than
/// silently borrowing the next result's.
pub fn parse_bench_report(text: &str) -> Result<Vec<(String, u64)>, String> {
    let (bench, mut cursor) =
        scan_string(text, "bench", 0).ok_or("missing \"bench\" name".to_string())?;
    let mut rows = Vec::new();
    while let Some((id, after_id)) = scan_string(text, "id", cursor) {
        let object_end = text[after_id..]
            .find('}')
            .map_or(text.len(), |at| after_id + at);
        let (median, after_median) = scan_u64(&text[..object_end], "median_ns", after_id)
            .ok_or_else(|| format!("result {id:?} has no \"median_ns\""))?;
        rows.push((format!("{bench}/{id}"), median));
        cursor = after_median;
    }
    if rows.is_empty() {
        return Err(format!("report for {bench:?} contains no results"));
    }
    Ok(rows)
}

/// Scans `dir` for `BENCH_*.json` reports (excluding a previous
/// `BENCH_summary.json`) and folds them into one summary. Files that fail
/// to read (e.g. non-UTF-8 content) or to parse are reported in the error
/// list but do not abort the sweep.
pub fn summarize_dir(dir: &Path) -> std::io::Result<(BenchSummary, Vec<String>)> {
    let mut summary = BenchSummary::new();
    let mut problems = Vec::new();
    let mut names: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| {
            name.starts_with("BENCH_") && name.ends_with(".json") && name != "BENCH_summary.json"
        })
        .collect();
    names.sort_unstable();
    for name in names {
        let parsed = std::fs::read_to_string(dir.join(&name))
            .map_err(|err| err.to_string())
            .and_then(|text| parse_bench_report(&text));
        match parsed {
            Ok(rows) => summary.extend(rows),
            Err(why) => problems.push(format!("{name}: {why}")),
        }
    }
    Ok((summary, problems))
}

/// Renders the summary as the `BENCH_summary.json` content: one sorted
/// `"id": median_ns` entry per line, byte-stable for a given input set.
pub fn render_summary(summary: &BenchSummary) -> String {
    let mut out = String::from("{\n");
    for (i, (id, median)) in summary.iter().enumerate() {
        let comma = if i + 1 < summary.len() { "," } else { "" };
        let _ = writeln!(out, "  \"{id}\": {median}{comma}");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{"bench":"perf_demo","results":[
        {"id":"grp/fast/n32","median_ns":1500,"mean_ns":1600,"iters":100},
        {"id":"grp/slow/n32","median_ns":9000,"mean_ns":9100,"iters":10}]}"#;

    #[test]
    fn parses_the_shim_shape() {
        let rows = parse_bench_report(REPORT).expect("valid report");
        assert_eq!(
            rows,
            vec![
                ("perf_demo/grp/fast/n32".to_string(), 1500),
                ("perf_demo/grp/slow/n32".to_string(), 9000),
            ]
        );
    }

    #[test]
    fn rejects_malformed_reports() {
        assert!(parse_bench_report("{}").is_err(), "no bench name");
        assert!(
            parse_bench_report(r#"{"bench":"x","results":[]}"#).is_err(),
            "no results"
        );
        assert!(
            parse_bench_report(r#"{"bench":"x","results":[{"id":"a"}]}"#).is_err(),
            "result without median"
        );
    }

    #[test]
    fn median_is_taken_from_the_result_itself() {
        // A result without a median must not borrow the next result's.
        let err =
            parse_bench_report(r#"{"bench":"x","results":[{"id":"a"},{"id":"b","median_ns":5}]}"#)
                .expect_err("result a has no median");
        assert!(err.contains("\"a\""), "{err}");
    }

    #[test]
    fn renders_sorted_stable_json() {
        let mut summary = BenchSummary::new();
        summary.insert("b/later".to_string(), 2);
        summary.insert("a/first".to_string(), 1);
        assert_eq!(
            render_summary(&summary),
            "{\n  \"a/first\": 1,\n  \"b/later\": 2\n}\n"
        );
        assert_eq!(render_summary(&BenchSummary::new()), "{\n}\n");
    }

    #[test]
    fn directory_sweep_skips_prior_summary_and_reports_problems() {
        let dir = std::env::temp_dir().join(format!("bench-summary-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::fs::write(dir.join("BENCH_perf_demo.json"), REPORT).expect("write report");
        std::fs::write(dir.join("BENCH_broken.json"), "{}").expect("write broken");
        std::fs::write(dir.join("BENCH_summary.json"), "{\n}\n").expect("write old summary");
        std::fs::write(dir.join("unrelated.json"), "{}").expect("write unrelated");
        let (summary, problems) = summarize_dir(&dir).expect("sweep");
        assert_eq!(summary.len(), 2, "{summary:?}");
        assert_eq!(summary["perf_demo/grp/fast/n32"], 1500);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("BENCH_broken.json"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_sweep_reports_and_skips_non_utf8_reports() {
        let dir = std::env::temp_dir().join(format!("bench-summary-utf8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::fs::write(dir.join("BENCH_a_binary.json"), [0xff, 0xfe, 0x00]).expect("write binary");
        std::fs::write(dir.join("BENCH_perf_demo.json"), REPORT).expect("write report");
        let (summary, problems) = summarize_dir(&dir).expect("sweep continues past the bad file");
        assert_eq!(summary.len(), 2, "{summary:?}");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("BENCH_a_binary.json"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
