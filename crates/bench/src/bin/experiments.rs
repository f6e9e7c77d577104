//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--plot] [--jobs N] [--out DIR]
//!             [--faults] [--admission] [--bench-profile]
//!             [--serve-txns N] [--serve-scale S] <id>... | all | serve | chaos-smoke | list
//! ```
//!
//! Ids: table1 fig4a fig4b fig4c fig4d fig4e fig4f fig5a table2 fig5b
//! fig5c fig5d fig5e fig5f ablate-recovery ablate-iowait ablate-policies
//! ablate-disk-sched ext-shared-locks ext-criticality ext-branching
//! faults faults-admission serve-vt
//!
//! `--faults` and `--admission` are shorthands that enqueue the
//! fault-injection robustness sweeps (`faults` and `faults-admission`
//! respectively) alongside any ids given.
//!
//! `--bench-profile` runs the scheduler-overhead profile (incremental
//! engine vs the always-recompute oracle, wall-clock timed) and writes
//! `<out>/BENCH_scheduling.json`. Both JSON documents are stamped with
//! the current git commit, and every run appends one row per scenario
//! to `<out>/bench-history.csv` (epoch seconds + commit + headline
//! counters), so regressions can be traced across commits. It may be
//! given alone or alongside experiment ids; with `--quick` it profiles
//! only the small CI regression-smoke bursts instead of the full
//! policy × MPL sweep.
//!
//! `serve` is the wall-clock serving benchmark (not an experiment id —
//! its numbers are machine-dependent, so it never joins `all`): it
//! replays a `--serve-txns`-transaction trading-day trace (default 1M)
//! through the serving front-end at `--serve-scale`× real time (default
//! 600), prints sustained requests/sec and p50/p95/p99 wall latency,
//! and writes `<out>/BENCH_serving.json` plus the repo-root headline
//! `BENCH_serve.json`. The deterministic counterpart is the `serve-vt`
//! experiment id, whose CSV is committed and byte-gated.
//!
//! `chaos-smoke` is the wall-clock chaos smoke (also a benchmark mode,
//! also excluded from `all`): overload pacing, deadline shedding,
//! adaptive admission, disk + CPU fault injection and an injected
//! engine panic in one short run, asserting the supervision guarantees
//! (no hung tickets, every submission accounted, the crash recorded)
//! and writing `<out>/BENCH_chaos.json`. Its deterministic counterparts
//! are the `chaos` and `chaos-crash` experiment ids.
//!
//! Replications fan out across worker threads (`--jobs N`; default: all
//! available hardware threads; `--jobs 1` forces serial). The merge is
//! deterministic — output tables and CSVs are byte-identical for every
//! jobs count. Per-experiment timing goes to stderr and, machine
//! readable, to `<out>/timing.json` — merged per experiment, so a run
//! of one sweep never clobbers the recorded timings of the others.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rtx_bench::experiments::{run_group_with, GroupReport, ALL_IDS};
use rtx_bench::plot::render_chart;
use rtx_bench::Scale;
use rtx_rtdb::runner::{Parallelism, ReplicationOptions};

/// The current git revision (short), or `"unknown"` outside a checkout
/// — the bench documents are stamped with it so numbers stay traceable
/// to the code that produced them.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Append one row per profiled scenario to the bench history CSV,
/// writing the header first when the file does not exist yet.
fn append_bench_history(
    path: &std::path::Path,
    commit: &str,
    rows: &[rtx_bench::ScenarioSummary],
) -> std::io::Result<()> {
    use std::io::Write as _;
    let epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let fresh = !path.exists();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if fresh {
        writeln!(
            f,
            "epoch_s,commit,scenario,policy,mpl,cached_pick_ns,sched_speedup,\
             heap_stale_pops,index_migrations,retired_walks,\
             pair_cache_evictions,pair_cache_probes,retired_compactions"
        )?;
    }
    // The log is append-only, so its 13 columns stay: new rows write 0 in
    // the columns of counters whose mechanisms are gone — the two
    // pair-cache ones (the pair-verdict memo) and the two `retired_*`
    // ones (the timed half of the priority index, whose batched walks and
    // compactions they counted under their original names).
    for r in rows {
        writeln!(
            f,
            "{epoch},{commit},{},{},{},{:.1},{:.2},{},{},0,0,0,0",
            r.name,
            r.policy,
            r.mpl,
            r.cached_pick_ns,
            r.sched_speedup,
            r.heap_stale_pops,
            r.index_migrations,
        )?;
    }
    Ok(())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments [--quick] [--plot] [--jobs N] [--out DIR] \
         [--faults] [--admission] [--bench-profile] \
         [--serve-txns N] [--serve-scale S] <id>... | all | serve | chaos-smoke | list"
    );
    eprintln!("ids: {}", ALL_IDS.join(" "));
    ExitCode::FAILURE
}

/// One `timing.json` record.
struct TimingRecord {
    ids: Vec<&'static str>,
    runs: u64,
    wall_seconds: f64,
    busy_seconds: f64,
    speedup_estimate: f64,
}

/// One rendered timing entry: its merge key (the joined id list) and its
/// single-line JSON object.
fn timing_entry(r: &TimingRecord) -> (String, String) {
    let ids: Vec<String> = r.ids.iter().map(|id| format!("\"{id}\"")).collect();
    let key = ids.join(", ");
    let line = format!(
        "{{\"ids\": [{key}], \"runs\": {}, \"wall_seconds\": {:.3}, \
         \"busy_seconds\": {:.3}, \"speedup_estimate\": {:.2}}}",
        r.runs, r.wall_seconds, r.busy_seconds, r.speedup_estimate,
    );
    (key, line)
}

/// The merge key of an entry line previously written by
/// [`timing_json`], if the line is one (`{"ids": [...], ...}`).
fn timing_entry_key(line: &str) -> Option<String> {
    let rest = line.trim().strip_prefix("{\"ids\": [")?;
    Some(rest.split(']').next()?.to_string())
}

/// Render `timing.json`, merging this run's records into `existing`
/// (the file's previous contents, if any). Entries are keyed by their id
/// list: re-run sweeps replace their old timing, sweeps not in this run
/// keep theirs — a lone `experiments fig4a` no longer clobbers the
/// timings of the other 20 sweeps. `jobs`/`scale` describe the latest
/// run (hand-rolled JSON: the workspace carries no serialization
/// dependency).
fn timing_json(
    existing: Option<&str>,
    jobs: &str,
    scale: Scale,
    records: &[TimingRecord],
) -> String {
    // Preserved entries, in original order.
    let mut entries: Vec<(String, String)> = existing
        .into_iter()
        .flat_map(str::lines)
        .filter_map(|l| {
            let key = timing_entry_key(l)?;
            let line = l.trim().trim_end_matches(',').to_string();
            Some((key, line))
        })
        .collect();
    for r in records {
        let (key, line) = timing_entry(r);
        match entries.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = line,
            None => entries.push((key, line)),
        }
    }
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"jobs\": \"{jobs}\",\n"));
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str("  \"experiments\": [\n");
    for (i, (_, line)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!("    {line}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let mut scale = Scale::Full;
    let mut out_dir = PathBuf::from("results");
    let mut plot = false;
    let mut parallelism = Parallelism::Auto;
    let mut bench_profile = false;
    let mut serve_bench = rtx_bench::experiments::serve::WallBench::default();
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--plot" => plot = true,
            "--faults" => ids.push("faults".to_string()),
            "--admission" => ids.push("faults-admission".to_string()),
            "--bench-profile" => bench_profile = true,
            "--serve-txns" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => serve_bench.txns = n,
                _ => return usage(),
            },
            "--serve-scale" => match args.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(s) if s > 0.0 && s.is_finite() => serve_bench.sim_scale = s,
                _ => return usage(),
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return usage(),
            },
            "--jobs" | "-j" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => parallelism = Parallelism::Threads(n),
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            "list" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => return usage(),
            other => ids.push(other.to_string()),
        }
    }
    // `serve` and `chaos-smoke` are benchmark modes, not experiment ids
    // (their output is machine-dependent and never joins `all`).
    let serve_requested = ids.iter().any(|id| id == "serve");
    ids.retain(|id| id != "serve");
    let chaos_requested = ids.iter().any(|id| id == "chaos-smoke");
    ids.retain(|id| id != "chaos-smoke");
    if ids.is_empty() && !bench_profile && !serve_requested && !chaos_requested {
        return usage();
    }
    for id in &ids {
        if id != "all" && !ALL_IDS.contains(&id.as_str()) {
            eprintln!("unknown experiment id: {id}");
            return usage();
        }
    }

    if serve_requested {
        let (full, headline) = rtx_bench::experiments::serve::wall_bench(&serve_bench);
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("failed to create {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
        let full_path = out_dir.join("BENCH_serving.json");
        if let Err(e) = std::fs::write(&full_path, full) {
            eprintln!("failed to write {}: {e}", full_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("serve bench -> {}", full_path.display());
        // Headline at the repo root, next to BENCH_sched.json.
        let headline_path = PathBuf::from("BENCH_serve.json");
        if let Err(e) = std::fs::write(&headline_path, headline) {
            eprintln!("failed to write {}: {e}", headline_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("serve headline -> {}", headline_path.display());
        if ids.is_empty() && !bench_profile && !chaos_requested {
            return ExitCode::SUCCESS;
        }
    }

    if chaos_requested {
        let json = rtx_bench::experiments::chaos::wall_chaos(
            &rtx_bench::experiments::chaos::WallChaos::default(),
        );
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("failed to create {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
        let path = out_dir.join("BENCH_chaos.json");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("chaos smoke -> {}", path.display());
        if ids.is_empty() && !bench_profile {
            return ExitCode::SUCCESS;
        }
    }

    if bench_profile {
        let commit = git_commit();
        let (json, summary, rows) =
            rtx_bench::bench_profile_docs(matches!(scale, Scale::Quick), &commit);
        let path = out_dir.join("BENCH_scheduling.json");
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("failed to create {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("bench profile -> {}", path.display());
        // The per-policy pick-latency summary lives at the repo root so
        // a reviewer sees the headline numbers without digging through
        // the full per-mode counter dump.
        let summary_path = PathBuf::from("BENCH_sched.json");
        if let Err(e) = std::fs::write(&summary_path, summary) {
            eprintln!("failed to write {}: {e}", summary_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("bench summary -> {}", summary_path.display());
        let history_path = out_dir.join("bench-history.csv");
        if let Err(e) = append_bench_history(&history_path, &commit, &rows) {
            eprintln!("failed to append {}: {e}", history_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("bench history -> {}", history_path.display());
        if ids.is_empty() {
            return ExitCode::SUCCESS;
        }
    }

    let jobs_label = match parallelism {
        Parallelism::Threads(n) => n.to_string(),
        _ => "auto".to_string(),
    };
    let opts = ReplicationOptions {
        parallelism,
        timer: None,
    };
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let started = Instant::now();
    let mut count = 0usize;
    let mut failed = false;
    let mut timings: Vec<TimingRecord> = Vec::new();
    run_group_with(&id_refs, scale, &opts, |report: GroupReport| {
        eprintln!(
            "[{:7.1}s] {}: {} run(s) in {:.1}s (~{:.1}x vs serial est.)",
            started.elapsed().as_secs_f64(),
            report.ids.join("+"),
            report.runs,
            report.wall_seconds,
            report.speedup_estimate(),
        );
        for table in &report.tables {
            println!("{}", table.render());
            if plot {
                if let Some(chart) = render_chart(table, 64, 16) {
                    println!("{chart}");
                }
            }
            match table.write_csv(&out_dir) {
                Ok(path) => println!("   -> {}\n", path.display()),
                Err(e) => {
                    eprintln!("failed to write {}: {e}", table.title);
                    failed = true;
                }
            }
            count += 1;
        }
        timings.push(TimingRecord {
            ids: report.ids.clone(),
            runs: report.runs,
            wall_seconds: report.wall_seconds,
            busy_seconds: report.busy_seconds,
            speedup_estimate: report.speedup_estimate(),
        });
    });
    if failed {
        return ExitCode::FAILURE;
    }
    if count == 0 {
        eprintln!("nothing to run");
        return ExitCode::FAILURE;
    }
    let timing_path = out_dir.join("timing.json");
    let existing = std::fs::read_to_string(&timing_path).ok();
    if let Err(e) = std::fs::write(
        &timing_path,
        timing_json(existing.as_deref(), &jobs_label, scale, &timings),
    ) {
        eprintln!("failed to write {}: {e}", timing_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("timing -> {}", timing_path.display());
    eprintln!(
        "completed {count} table(s) in {:.1}s ({scale:?} scale, jobs={jobs_label})",
        started.elapsed().as_secs_f64(),
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ids: &[&'static str], wall: f64) -> TimingRecord {
        TimingRecord {
            ids: ids.to_vec(),
            runs: 10,
            wall_seconds: wall,
            busy_seconds: wall * 2.0,
            speedup_estimate: 2.0,
        }
    }

    #[test]
    fn timing_merge_preserves_other_experiments() {
        // First run: two sweeps.
        let first = timing_json(
            None,
            "auto",
            Scale::Full,
            &[
                rec(&["fig4a", "fig4b", "fig4c"], 10.0),
                rec(&["fig4f"], 5.0),
            ],
        );
        assert!(first.contains("\"fig4f\""));
        // Second run re-times only fig4f: the fig4a group must survive,
        // fig4f's entry must be replaced, and a new sweep appends.
        let second = timing_json(
            Some(&first),
            "1",
            Scale::Quick,
            &[rec(&["fig4f"], 7.0), rec(&["serve-vt"], 3.0)],
        );
        assert!(
            second.contains("\"fig4a\", \"fig4b\", \"fig4c\""),
            "{second}"
        );
        assert!(second.contains("\"wall_seconds\": 7.000"), "{second}");
        assert!(!second.contains("\"wall_seconds\": 5.000"), "{second}");
        assert!(second.contains("\"serve-vt\""), "{second}");
        assert!(second.contains("\"jobs\": \"1\""), "latest run labels win");
        assert_eq!(
            second.matches("{\"ids\":").count(),
            3,
            "one entry per distinct id group:\n{second}"
        );
    }

    #[test]
    fn timing_merge_tolerates_garbage_existing_file() {
        let out = timing_json(
            Some("not json at all"),
            "auto",
            Scale::Full,
            &[rec(&["table1"], 1.0)],
        );
        assert!(out.contains("\"table1\""));
        assert!(out.starts_with("{\n"));
    }
}
