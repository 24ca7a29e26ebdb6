//! What the host and the process report about themselves (Linux `/proc`
//! and `/sys`).

use std::fs;

/// The process's resident-set high-water mark (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// User plus system CPU seconds of the whole process, all threads.
///
/// `/proc/<pid>/stat` counts in `USER_HZ` ticks, which Linux fixes at
/// 100 per second for user space.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// One line naming the CPUs, their model and cache sizes.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let mut caches = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| fs::read_to_string(format!("{dir}/{file}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        let kind = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        caches.push(format!("L{}{kind}={}", level.trim(), size.trim()));
    }
    format!("nproc={nproc} cpu=\"{model}\" {}", caches.join(" "))
}
