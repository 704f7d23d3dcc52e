//! Host provenance and process memory, read from `/proc` and `/sys`.

use std::fs;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2_bytes: Option<u64>,
    pub l3_bytes: Option<u64>,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "nproc {} | cpu {} | L2 {} per core | L3 {}",
            self.nproc,
            self.cpu_model,
            fmt_bytes(self.l2_bytes),
            fmt_bytes(self.l3_bytes)
        )
    }
}

/// Size of the unified cache at `level` seen by cpu0.
fn cache_bytes(level: u32) -> Option<u64> {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(lvl) = fs::read_to_string(format!("{dir}/level")) else {
            break;
        };
        let kind = fs::read_to_string(format!("{dir}/type")).unwrap_or_default();
        if lvl.trim() == level.to_string() && kind.trim() != "Instruction" {
            return fs::read_to_string(format!("{dir}/size"))
                .ok()
                .and_then(|s| parse_size(s.trim()));
        }
    }
    None
}

fn parse_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1024),
        b'M' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

pub fn fmt_bytes(bytes: Option<u64>) -> String {
    match bytes {
        None => "unknown".to_string(),
        Some(b) if b >= 1 << 20 => format!("{:.1} MiB", b as f64 / f64::from(1 << 20)),
        Some(b) => format!("{:.0} KiB", b as f64 / 1024.0),
    }
}

/// Peak resident set (VmHWM) of this process, in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_suffixes() {
        assert_eq!(parse_size("2048K"), Some(2 << 20));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
    }
}
