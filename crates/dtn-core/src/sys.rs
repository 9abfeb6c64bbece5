//! Process-level system introspection.
//!
//! One shared home for the VmHWM peak-RSS sampler that the bench
//! runner, the city-scale harness (report and progress line) and the
//! run-diff harness all report — previously each call site carried its
//! own copy of the `/proc` parse.

/// Peak resident set size of this process in bytes.
///
/// Reads `VmHWM` ("high-water mark") from `/proc/self/status` on Linux;
/// returns 0 on other platforms or if the field is missing. The value
/// is a process-lifetime maximum — it never decreases, so comparing
/// readings across phases only bounds the *later* phase from above.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kib: u64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return kib * 1024;
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_monotone_and_plausible() {
        let first = peak_rss_bytes();
        if !cfg!(target_os = "linux") {
            assert_eq!(first, 0);
            return;
        }
        // A test process has at least a few hundred KiB resident and
        // (sanity bound) less than a terabyte.
        assert!(first > 100 * 1024, "implausibly small VmHWM: {first}");
        assert!(first < (1 << 40), "implausibly large VmHWM: {first}");
        // Touch a few MiB and re-read. The kernel reports
        // max(hiwater_rss, current_rss) with lazily-synced per-thread
        // RSS counters, so readings can jitter by a few hundred KiB in
        // a threaded process — allow that slop, but an 8 MiB touch must
        // never make the reading *drop* by more than it.
        let sink = vec![1u8; 8 << 20];
        let slop = 4 << 20;
        let after = peak_rss_bytes();
        assert!(after + slop >= first, "VmHWM dropped: {first} -> {after}");
        drop(sink);
        assert!(peak_rss_bytes() + slop >= after, "VmHWM dropped past slop");
    }
}
