//! Per-thread CPU time and peak memory from `/proc`.
//!
//! `schedstat`'s first field is the nanoseconds a task actually ran, so
//! CPU time split by thread name separates the serving batcher
//! (`metis-serve-batcher`), the worker pool (`metis-pool-*`) and the load
//! generator, which a whole-process CPU reading cannot.

use std::collections::BTreeMap;

/// CPU nanoseconds per live thread at one instant, keyed by thread id.
#[derive(Debug, Clone, Default)]
pub struct ThreadCpu {
    threads: BTreeMap<u64, (String, u64)>,
}

impl ThreadCpu {
    /// Read every task of this process. Threads that exit between the
    /// directory listing and the read are skipped.
    pub fn snapshot() -> ThreadCpu {
        let mut threads = BTreeMap::new();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return ThreadCpu { threads };
        };
        for task in tasks.flatten() {
            let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let comm = std::fs::read_to_string(task.path().join("comm"));
            let stat = std::fs::read_to_string(task.path().join("schedstat"));
            if let (Ok(comm), Ok(stat)) = (comm, stat) {
                if let Some(ns) = parse_schedstat(&stat) {
                    threads.insert(tid, (comm.trim().to_string(), ns));
                }
            }
        }
        ThreadCpu { threads }
    }

    /// CPU each thread spent since `earlier`, summed by thread-name
    /// class ([`thread_class`]). Threads born after `earlier` count from 0.
    pub fn since(&self, earlier: &ThreadCpu) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (tid, (comm, ns)) in &self.threads {
            let before = earlier.threads.get(tid).map_or(0, |(_, ns)| *ns);
            *out.entry(thread_class(comm)).or_insert(0) += ns.saturating_sub(before);
        }
        out
    }
}

/// CPU nanoseconds the calling thread has run.
pub fn own_thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .unwrap_or(0)
}

/// Names of this program's thread roles. The load generator names its
/// thread [`LOADGEN_THREAD`]; everything unrecognised is `other`.
pub fn thread_class(comm: &str) -> &'static str {
    if comm == "metis-serve-bat" || comm.starts_with("metis-serve-batcher") {
        // The kernel truncates comm to 15 bytes.
        "batcher"
    } else if comm.starts_with("metis-pool") {
        "pool"
    } else if comm == LOADGEN_THREAD {
        "loadgen"
    } else {
        "other"
    }
}

/// Thread name of the open-loop load generator.
pub const LOADGEN_THREAD: &str = "bench-loadgen";

fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        assert_eq!(parse_schedstat("123456 789 10\n"), Some(123456));
        assert_eq!(parse_schedstat(""), None);
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn classes_follow_thread_names() {
        assert_eq!(thread_class("metis-serve-bat"), "batcher");
        assert_eq!(thread_class("metis-pool-0"), "pool");
        assert_eq!(thread_class(LOADGEN_THREAD), "loadgen");
        assert_eq!(thread_class("metis_perfbench"), "other");
    }

    #[test]
    fn a_busy_thread_shows_up_under_its_class() {
        let before = ThreadCpu::snapshot();
        std::thread::Builder::new()
            .name(LOADGEN_THREAD.into())
            .spawn(move || {
                let t0 = own_thread_cpu_ns();
                let mut x = 0u64;
                while own_thread_cpu_ns() - t0 < 5_000_000 {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                // Read while the thread is alive: a dead task leaves /proc.
                let during = ThreadCpu::snapshot().since(&before);
                assert!(during.get("loadgen").copied().unwrap_or(0) >= 5_000_000);
            })
            .unwrap()
            .join()
            .unwrap();
        assert!(peak_rss_mb() > 0.0);
    }
}
