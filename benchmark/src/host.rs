//! What the benchmark reads about the machine it runs on.

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads of the marked multi-thread probes: two where the machine has
/// them. Everything else in the benchmark runs on one.
pub fn mt_threads() -> usize {
    nproc().min(2)
}

/// The CPUs this process may run on (`Cpus_allowed_list`), ascending.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    parse_cpu_list(&status()?).ok_or_else(|| "/proc/self/status has no Cpus_allowed_list".into())
}

/// The one reader of `/proc/self/status`.
fn status() -> Result<String, String> {
    std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))
}

/// The 1-minute load average, or 0 where `/proc/loadavg` is missing.
pub fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    parse_vm_hwm_kb(&status()?)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_string())
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// `Cpus_allowed_list:\t0-1,4` as `[0, 1, 4]`.
fn parse_cpu_list(status: &str) -> Option<Vec<usize>> {
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (first, last) = part.split_once('-').unwrap_or((part, part));
        cpus.extend(first.parse::<usize>().ok()?..=last.parse().ok()?);
    }
    Some(cpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_line_is_found_and_parsed() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_lists_are_ranges_and_single_cpus() {
        let status = "Name:\tx\nCpus_allowed:\t3\nCpus_allowed_list:\t0-1\n";
        assert_eq!(parse_cpu_list(status), Some(vec![0, 1]));
        assert_eq!(
            parse_cpu_list("Cpus_allowed_list:\t0,2-4,7\n"),
            Some(vec![0, 2, 3, 4, 7])
        );
        assert_eq!(parse_cpu_list("Cpus_allowed_list:\tx\n"), None);
        assert_eq!(parse_cpu_list("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss_and_a_cpu() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(!allowed_cpus().unwrap().is_empty());
    }
}
