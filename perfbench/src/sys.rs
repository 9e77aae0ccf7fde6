//! What the benchmark reads from the OS: core count, peak RSS and cache
//! sizes. Linux-only sources (`/proc`, `/sys`); elsewhere the memory and
//! cache readings come back as `None`.

use std::fs;

/// Cores available to this process (`nproc`), the "all cores" thread count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resets the kernel's peak-RSS high-water mark (`VmHWM`) to the current
/// RSS by writing `5` to `/proc/self/clear_refs`. Returns whether the
/// reset took effect.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The OS high-water mark of this process's resident set, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(L2 bytes, last-level cache bytes)` of CPU 0, from sysfs.
pub fn cache_sizes() -> (Option<u64>, Option<u64>) {
    let mut l2 = None;
    let mut llc: Option<(u32, u64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else { continue };
        let Some(bytes) = parse_size(size.trim()) else { continue };
        if kind.trim() == "Instruction" {
            continue;
        }
        if level == 2 {
            l2 = Some(bytes);
        }
        if llc.is_none_or(|(l, _)| level > l) {
            llc = Some((level, bytes));
        }
    }
    (l2, llc.map(|(_, b)| b))
}

/// Parses sysfs cache sizes such as `48K`, `2048K` or `30M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|d| d * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("30M"), Some(30 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
