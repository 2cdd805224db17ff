//! `/proc` reader: peak resident set.

use std::fs;

/// `VmHWM` (peak resident set) in MB (10^6 bytes), from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_found_by_name() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
    }

    #[test]
    fn live_process_has_a_peak() {
        assert!(peak_rss_mb() > 0.0);
    }
}
