//! `rtx-perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! rtx-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size <f>]
//! ```
//!
//! Workloads: `burst_cca_mpl1024`, `paper_steady`, `serve_trading_day`
//! (see `perfbench/README.md` for why each exists). `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the same workload again with
//! timing probes at the public layer boundaries and reports the per-layer
//! metrics. The last line of stdout is the result as one JSON object;
//! the exit code is non-zero if any correctness check failed.
//!
//! `--size` scales every input (default 1); the smoke test uses a tiny
//! value. The benchmark touches only public APIs and adds no tracing
//! inside the program.
//!
//! One process setting differs from a default run: the batch workloads
//! keep freed heap memory in the process (see [`keep_freed_memory`]). The
//! engine allocates and frees its per-run structures on every run; with
//! glibc's defaults those pages go back to the kernel and fault in again
//! on the next run, which on the reference VM host costs about 45% of a
//! batch run's wall time and swings it by up to 2× from run to run. The
//! serving workload keeps the defaults.

mod batch;
mod calib;
mod probe;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: f64,
}

const USAGE: &str =
    "usage: rtx-perfbench --workload <burst_cca_mpl1024|paper_steady|serve_trading_day> \
--seed <n> --seconds <s> --trace <0|1> [--size <f>]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut size) = (None, None, None, None, 1.0);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--size" => size = value.parse::<f64>().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    if !(size.is_finite() && size > 0.0 && size <= 4.0) {
        return Err(format!("--size must be in (0, 4], got {size}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// Make glibc's allocator serve every block from the heap and never
/// return freed memory to the kernel, so repeated runs reuse pages
/// instead of faulting them in afresh.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // From glibc's <malloc.h>.
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_MAX: c_int = -4;
    // SAFETY: `mallopt` is glibc's allocator-tuning entry point; it takes
    // two integers by value and touches only allocator state, under its
    // own lock. The batch workloads call this before they start any
    // thread.
    unsafe {
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, c_int::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() {}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtx-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match (args.workload.as_str(), args.trace) {
        ("burst_cca_mpl1024", false) => batch::run(batch::Workload::Burst, &args),
        ("burst_cca_mpl1024", true) => batch::run_traced(batch::Workload::Burst, &args),
        ("paper_steady", false) => batch::run(batch::Workload::Steady, &args),
        ("paper_steady", true) => batch::run_traced(batch::Workload::Steady, &args),
        ("serve_trading_day", trace) => serve::run(&args, trace),
        (other, _) => {
            eprintln!("rtx-perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let json = report.render();
    report.print_table(&format!(
        "{} seed={} trace={}",
        args.workload, args.seed, args.trace as u8
    ));
    println!("{json}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
