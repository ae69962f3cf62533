//! The run's scaling laws, the one reader of `GenConfig::scale`. Dataset
//! rates and sizes are the real site's; a run at scale `s` shrinks them
//! here. The laws differ, so shares can move with `s`. Clamp scales hold
//! for the datasets' 1-hour (D1–D4) and 10-minute (D0) traces.

use crate::build::GenConfig;

/// The scaling laws of one run. It keeps the scale factor to itself.
#[derive(Debug, Clone, Copy)]
pub struct Scaling {
    factor: f64,
}

impl Scaling {
    /// The laws at `config.scale`.
    pub fn of(config: &GenConfig) -> Scaling {
        Scaling {
            factor: config.scale,
        }
    }
}

/// One `Scaling` method per row; `s` in a law is the run's scale factor.
macro_rules! laws {
    ($($(#[doc = $doc:literal])+ $name:ident($($arg:ident: $ty:ty),*) -> $out:ty = |$s:pat_param| $law:expr;)+) => {
        impl Scaling {
            $($(#[doc = $doc])+ pub fn $name(self, $($arg: $ty),*) -> $out {
                let $s = self.factor;
                $law
            })+
        }
    };
}

laws! {
    /// Expected sessions of a per-subnet-hour rate: `rate × hours × s`.
    sessions(rate_per_hour: f64, duration_us: u64) -> f64 = |s| rate_per_hour * (duration_us as f64 / 3.6e9) * s;
    /// Expected heavy-transfer (backup, bulk) sessions: `rate × hours ×
    /// min(√s, 1)`. With `heavy_size`, their bytes are linear in `s`.
    heavy_sessions(rate_per_hour: f64, duration_us: u64) -> f64 = |s| rate_per_hour * (duration_us as f64 / 3.6e9) * s.sqrt().min(1.0);
    /// A heavy transfer's bytes: `max(full × min(√s, 1), 20 000)`; the floor
    /// binds for `full` under 20 000 / √s (200 kB at 0.01, 63 kB at 0.1).
    heavy_size(full_bytes: f64) -> usize = |s| (full_bytes * s.sqrt().min(1.0)).max(20_000.0) as usize;
    /// An scp copy inside SSH, by `heavy_size`'s formula; SSH sessions are
    /// linear, so scp bytes grow as `s^1.5`. Copies of ≥ 100 kB: floor below 0.04.
    scp_size(full_bytes: f64) -> usize = |s| (full_bytes * s.sqrt().min(1.0)).max(20_000.0) as usize;
    /// The NFS heavy hitters' byte budget: `full × s`.
    nfs_heavy_hitter_bytes(full_bytes: f64) -> f64 = |s| full_bytes * s;
    /// An NCP busy pair's requests: `clamp(full × s, 200, 30 000)`, `full` in
    /// 150 000–600 000; floor below 0.0013, ceiling from 0.05 (all from 0.2).
    ncp_busy_requests(full: f64) -> u32 = |s| ((full * s) as u32).clamp(200, 30_000);
    /// The chance an internal scanner sweeps a trace: `min(1.1 × √s × min(hours,
    /// 1), 0.75)`, capped on 1-hour traces from 0.47. As `scan_probes` is flat
    /// past 0.17, scan removal falls as `1/√s`: 1.9–3.1% of connections at
    /// 1.0, under the paper's 4–18%.
    sweep_probability(duration_us: u64) -> f64 = |s| (1.1 * s.sqrt() * (duration_us as f64 / 3.6e9).min(1.0)).min(0.75);
    /// The chance of an external ICMP scanner in a trace: `min(1.8 × √s ×
    /// min(hours, 1), 0.6)`, capped on 1-hour traces from 0.11.
    external_scanner_probability(duration_us: u64) -> f64 = |s| (1.8 * s.sqrt() * (duration_us as f64 / 3.6e9).min(1.0)).min(0.6);
    /// Probes per internal sweep: `clamp(sessions, 55, 400)` of a linear 2 400
    /// an hour (the floor clears the removal heuristic's 50 hosts); floor
    /// below 0.023 (1 h) and 0.14 (10 min), ceiling from 0.17 (1 h).
    scan_probes(sessions: usize) -> usize = |_| sessions.clamp(55, 400);
    /// Active web browsers: `clamp(sessions / 10, 3, 40)` of a linear 2 600 an
    /// hour; floor below 0.012 (1 h) and 0.07 (10 min), ceiling from 0.16 and 0.95.
    browser_pool(sessions: usize) -> usize = |_| (sessions / 10).clamp(3, 40);
    /// The chance a SrvLoc directory agent fans out in a trace: `min(sessions
    /// / 60, 0.8)` of a linear 1 300 SrvLoc sessions an hour; saturates near
    /// 0.037 (1 h) and 0.22 (10 min), so the fan-out tail is per trace above.
    srvloc_agent_chance(sessions: usize) -> f64 = |_| (sessions as f64 / 60.0).min(0.8);
    /// Workstations per subnet: `max(full × clamp(√s, 0.08, 1), 8)`; clamp
    /// below 0.0064, floor (D1–D4) below 0.007–0.009. Sessions per host ∝ √s.
    hosts_per_subnet(full: usize) -> usize = |s| ((full as f64) * s.sqrt().clamp(0.08, 1.0)).max(8.0) as usize;
    /// The WAN peer pool: `full × clamp(√s, 0.05, 1)`; clamp below 0.0025.
    wan_pool(full: u32) -> u32 = |s| ((full as f64) * s.sqrt().clamp(0.05, 1.0)) as u32;
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: u64 = 3_600_000_000;
    const TEN_MINUTES: u64 = 600_000_000;

    /// Every law at 0.001, 0.01, 0.1 and 1.0, against values worked out
    /// from the formulas outside this code. The four scales put each clamp
    /// both in force and out of it.
    #[test]
    fn every_law_at_four_scales() {
        type Law = fn(Scaling) -> f64;
        #[rustfmt::skip]
        let rows: [(&str, Law, [f64; 4]); 25] = [
            ("sessions, hour", |s| s.sessions(1_000.0, HOUR), [1.0, 10.0, 100.0, 1_000.0]),
            ("sessions, 10 min", |s| s.sessions(1_000.0, TEN_MINUTES), [1.0 / 6.0, 10.0 / 6.0, 100.0 / 6.0, 1_000.0 / 6.0]),
            ("heavy_sessions", |s| s.heavy_sessions(12.0, HOUR), [0.379_473_319_220_205_5, 1.2, 3.794_733_192_202_055, 12.0]),
            ("heavy_size 1 MB", |s| s.heavy_size(1e6) as f64, [31_622.0, 100_000.0, 316_227.0, 1e6]),
            ("heavy_size 100 kB", |s| s.heavy_size(1e5) as f64, [20_000.0, 20_000.0, 31_622.0, 1e5]),
            ("scp_size 100 kB", |s| s.scp_size(1e5) as f64, [20_000.0, 20_000.0, 31_622.0, 1e5]),
            ("scp_size 8 MB", |s| s.scp_size(8e6) as f64, [252_982.0, 800_000.0, 2_529_822.0, 8e6]),
            ("nfs_heavy_hitter_bytes", |s| s.nfs_heavy_hitter_bytes(5.8e9), [5.8e6, 5.8e7, 5.8e8, 5.8e9]),
            ("ncp_busy_requests 150k", |s| s.ncp_busy_requests(150_000.0).into(), [200.0, 1_500.0, 15_000.0, 30_000.0]),
            ("ncp_busy_requests 600k", |s| s.ncp_busy_requests(600_000.0).into(), [600.0, 6_000.0, 30_000.0, 30_000.0]),
            ("sweep_probability, hour", |s| s.sweep_probability(HOUR), [0.034_785_054_261_852_175, 0.11, 0.347_850_542_618_521_8, 0.75]),
            ("sweep_probability, 10 min", |s| s.sweep_probability(TEN_MINUTES), [0.005_797_509_043_642_028_5, 0.018_333_333_333_333_333, 0.057_975_090_436_420_296, 0.183_333_333_333_333_35]),
            ("external_scanner_probability, hour", |s| s.external_scanner_probability(HOUR), [0.056_920_997_883_030_82, 0.18, 0.569_209_978_830_308_3, 0.6]),
            ("external_scanner_probability, 10 min", |s| s.external_scanner_probability(TEN_MINUTES), [0.009_486_832_980_505_136, 0.03, 0.094_868_329_805_051_39, 0.3]),
            ("scan_probes, hour", |s| s.scan_probes(s.sessions(2_400.0, HOUR) as usize) as f64, [55.0, 55.0, 240.0, 400.0]),
            ("scan_probes, 10 min", |s| s.scan_probes(s.sessions(2_400.0, TEN_MINUTES) as usize) as f64, [55.0, 55.0, 55.0, 400.0]),
            ("browser_pool, hour", |s| s.browser_pool(s.sessions(2_600.0, HOUR) as usize) as f64, [3.0, 3.0, 26.0, 40.0]),
            ("browser_pool, 10 min", |s| s.browser_pool(s.sessions(2_600.0, TEN_MINUTES) as usize) as f64, [3.0, 3.0, 4.0, 40.0]),
            ("srvloc_agent_chance, hour", |s| s.srvloc_agent_chance(s.sessions(1_300.0, HOUR) as usize), [0.016_666_666_666_666_666, 0.216_666_666_666_666_67, 0.8, 0.8]),
            ("srvloc_agent_chance, 10 min", |s| s.srvloc_agent_chance(s.sessions(1_300.0, TEN_MINUTES) as usize), [0.0, 0.033_333_333_333_333_33, 0.35, 0.8]),
            ("hosts_per_subnet D0", |s| s.hosts_per_subnet(115) as f64, [9.0, 11.0, 36.0, 115.0]),
            ("hosts_per_subnet D1", |s| s.hosts_per_subnet(95) as f64, [8.0, 9.0, 30.0, 95.0]),
            ("hosts_per_subnet D3", |s| s.hosts_per_subnet(85) as f64, [8.0, 8.0, 26.0, 85.0]),
            ("wan_pool D0", |s| s.wan_pool(9_000).into(), [450.0, 900.0, 2_846.0, 9_000.0]),
            ("wan_pool D4", |s| s.wan_pool(28_000).into(), [1_400.0, 2_800.0, 8_854.0, 28_000.0]),
        ];
        for (name, law, want) in rows {
            for (factor, want) in [0.001, 0.01, 0.1, 1.0].into_iter().zip(want) {
                let got = law(Scaling { factor });
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs(),
                    "{name} at scale {factor}: {got}, want {want}"
                );
            }
        }
    }
}
