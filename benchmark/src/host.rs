//! What the benchmark reads about the host it runs on: core count, cache and
//! memory sizes, vector ISA and huge-page mode. Read-only, and every probe
//! falls back to a stated default when the file is missing.

use lbm_sim::json::Json;

const MIB: u64 = 1 << 20;

/// Largest STREAM-triad array. A VM reports its whole socket's LLC (260 MiB
/// on the host this was written on), and four times that per array means
/// 3 GiB of first touch in 4 KiB pages: 13 s here, and the kernel timings
/// taken after it in the same process came out up to 25 % slower. The
/// measured bandwidth is flat from 64 MiB to 1040 MiB arrays (12.0–13.7 GB/s
/// on one thread), so the cap costs no accuracy; both sizes are reported.
pub const TRIAD_ARRAY_CAP_MIB: u64 = 128;

#[derive(Debug, Clone)]
pub struct Host {
    pub logical_cores: usize,
    /// Largest cache level sysfs reports for cpu0. A VM reports the whole
    /// socket's LLC here, not the share this guest gets.
    pub llc_bytes: u64,
    pub mem_available_bytes: u64,
    pub avx2_fma: bool,
    pub thp_mode: String,
}

impl Host {
    pub fn probe() -> Self {
        Self {
            logical_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            llc_bytes: llc_bytes().unwrap_or(32 * MIB),
            mem_available_bytes: mem_available_bytes().unwrap_or(2048 * MIB),
            avx2_fma: avx2_fma(),
            thp_mode: thp_mode().unwrap_or_else(|| "unknown".into()),
        }
    }

    /// Size of *each* of the three STREAM-triad arrays for a triad on
    /// `threads` threads: four times the LLC, but all arrays of all threads
    /// together never above a quarter of the available memory, and no array
    /// above [`TRIAD_ARRAY_CAP_MIB`].
    pub fn triad_array_mib(&self, threads: usize) -> usize {
        let want = 4 * self.llc_bytes / MIB;
        let cap = self.mem_available_bytes / 4 / MIB / (3 * threads as u64);
        want.min(cap).clamp(8, TRIAD_ARRAY_CAP_MIB) as usize
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("logical_cores".into(), Json::Int(self.logical_cores as i64)),
            (
                "llc_mib".into(),
                Json::Num(self.llc_bytes as f64 / MIB as f64),
            ),
            (
                "mem_available_mib".into(),
                Json::Num(self.mem_available_bytes as f64 / MIB as f64),
            ),
            ("avx2_fma".into(), Json::Bool(self.avx2_fma)),
            ("thp_mode".into(), Json::Str(self.thp_mode.clone())),
        ])
    }
}

/// Parse a sysfs cache size such as `48K`, `4096K` or `260M`.
fn parse_cache_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.flatten()
        .filter_map(|e| {
            let size = std::fs::read_to_string(e.path().join("size")).ok()?;
            parse_cache_size(&size)
        })
        .max()
}

fn mem_available_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The bracketed choice in `always [madvise] never`.
fn thp_mode() -> Option<String> {
    let text = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").ok()?;
    let open = text.find('[')?;
    let close = text.find(']')?;
    Some(text[open + 1..close].to_string())
}

fn avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_cache_size("260M"), Some(260 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("x"), None);
    }

    #[test]
    fn triad_arrays_are_four_llc_unless_capped() {
        let mut h = Host {
            logical_cores: 2,
            llc_bytes: 32 * MIB,
            mem_available_bytes: 16_384 * MIB,
            avx2_fma: true,
            thp_mode: "madvise".into(),
        };
        h.llc_bytes = 8 * MIB;
        assert_eq!(h.triad_array_mib(1), 32);
        h.llc_bytes = 260 * MIB;
        assert_eq!(h.triad_array_mib(1), TRIAD_ARRAY_CAP_MIB as usize);
        // Two threads on a small machine: 6 arrays must fit in 256 MiB.
        h.mem_available_bytes = 1024 * MIB;
        assert_eq!(h.triad_array_mib(2), 42);
    }
}
