//! What the benchmark reads about its own process and host: CPU time,
//! resident memory, and the provenance record printed with every report.

use std::fs;
use std::path::Path;

/// Linux `USER_HZ`: the unit of the CPU times in `/proc/self/stat`.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads (including
/// threads that have already exited).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

fn status_kib(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Peak resident set size so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Resets the peak-RSS mark (`VmHWM`) to the current RSS, so the next
/// [`peak_rss_mb`] covers only what follows. Returns `false` when the
/// kernel refuses, in which case the mark keeps the whole run's peak.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Current resident set size, in bytes.
pub fn rss_bytes() -> f64 {
    status_kib("VmRSS:") * 1024.0
}

fn read_trim(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of the unified cache at `level` as the kernel reports it for
/// CPU 0 (per instance, e.g. `2048K`).
fn cache_size(level: &str) -> String {
    (0..8)
        .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
        .find(|d| {
            read_trim(&format!("{d}/level")).as_deref() == Some(level)
                && read_trim(&format!("{d}/type")).as_deref() != Some("Instruction")
        })
        .and_then(|d| read_trim(&format!("{d}/size")))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout, read from `.git` in the working
/// directory; benchmark checkouts without git report `none`.
fn commit() -> String {
    let git = Path::new(".git");
    let Some(head) = read_trim(".git/HEAD") else {
        return "none".to_string();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read_trim(&git.join(r).to_string_lossy())
            .or_else(|| {
                fs::read_to_string(git.join("packed-refs"))
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split_whitespace().next().map(str::to_string))
                    })
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The provenance fields of every report, as `(key, JSON value)` pairs.
pub fn provenance() -> Vec<(&'static str, String)> {
    let s = |v: String| crate::report::json_string(&v);
    vec![
        ("nproc", nproc().to_string()),
        ("cpu_model", s(cpu_model())),
        ("l2_per_instance", s(cache_size("2"))),
        ("l3_per_instance", s(cache_size("3"))),
        ("rustc", s(env!("PERFBENCH_RUSTC").to_string())),
        ("commit", s(commit())),
    ]
}
