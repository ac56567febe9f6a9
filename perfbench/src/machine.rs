//! The machine fingerprint recorded with every result, and the process's
//! peak resident set.
//!
//! The repository builds with `target-cpu=native`, so a number is only
//! comparable with numbers from the same CPU, core count, compiler and
//! enabled target features. The fingerprint comes from the CPU, the
//! kernel and the build.

use freerider_telemetry::JsonWriter;

/// What produced a result.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// CPU brand string.
    pub cpu: String,
    /// Cores this process may use.
    pub nproc: usize,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Target architecture and the vector features the build enabled.
    pub target_features: String,
}

impl Fingerprint {
    /// Fingerprints this process's machine and build.
    pub fn current() -> Self {
        Fingerprint {
            cpu: cpu_brand(),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            target_features: target_features(),
        }
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "machine: cpu=\"{}\" nproc={} rustc=\"{}\" target={}",
            self.cpu, self.nproc, self.rustc, self.target_features
        )
    }

    /// Writes the fingerprint as a JSON object value.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("cpu").string(&self.cpu);
        w.key("nproc").u64(self.nproc as u64);
        w.key("rustc").string(&self.rustc);
        w.key("target_features").string(&self.target_features);
        w.end_object();
    }
}

fn target_features() -> String {
    let mut out = vec![std::env::consts::ARCH];
    for (name, on) in [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ] {
        if on {
            out.push(name);
        }
    }
    out.join("+")
}

#[cfg(target_arch = "x86_64")]
fn cpu_brand() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: CPUID exists on every x86_64 CPU; leaves 0x8000_0002..4 are
    // read only after leaf 0x8000_0000 reports them.
    #[allow(unused_unsafe)]
    let max_ext = unsafe { __cpuid(0x8000_0000) }.eax;
    if max_ext < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        // SAFETY: as above; the leaf is within the reported range.
        #[allow(unused_unsafe)]
        let r = unsafe { __cpuid(leaf) };
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    let brand = String::from_utf8_lossy(&bytes);
    brand
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_brand() -> String {
    "unknown".to_string()
}

/// Peak resident set of this process so far, MiB: the kernel's
/// high-water mark of this process image (`VmHWM`). Unlike
/// `getrusage`'s `ru_maxrss`, it is not inherited from the launcher
/// (cargo, a shell, a harness) across `exec`. NaN where unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_and_rss_are_populated() {
        let f = Fingerprint::current();
        assert!(f.nproc >= 1);
        assert!(!f.rustc.is_empty() && !f.cpu.is_empty());
        let rss = peak_rss_mib();
        assert!(rss > 0.5 && rss < 4096.0, "peak rss {rss} MiB");
    }
}
