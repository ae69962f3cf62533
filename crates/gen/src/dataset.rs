//! Per-dataset calibration: everything Table 1 records about D0–D4, plus
//! the workload-intensity knobs each paper table/figure depends on.
//!
//! Rates are expressed per monitored subnet-hour *at scale 1.0* (i.e. the
//! real site's intensity); `GenConfig::scale` downsamples session
//! counts so a laptop run stays tractable, preserving the mix. Flow-size
//! distributions are *not* scaled — only counts are — so per-connection
//! characteristics (Figures 3–8) match the paper at any scale.

use crate::network::{SubnetRange, ROUTER_A, ROUTER_B};

/// Which DCE/RPC service mix dominates at this vantage (Table 11): D0
/// monitored a major authentication server, D3–4 a major print server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcProfile {
    /// NetLogon/LsaRPC heavy (D0).
    AuthHeavy,
    /// Spoolss/WritePrinter heavy (D3, D4).
    PrintHeavy,
}

/// Session rates per monitored subnet-hour at scale 1.0, by application.
///
/// Counts chosen so the aggregate mix reproduces Figure 1 and Table 3:
/// name services dominate connection counts (45–65%) while contributing
/// <1% of bytes; net-file/backup/bulk dominate bytes.
#[derive(Debug, Clone, Copy)]
pub struct AppRates {
    /// DNS query/response flows.
    pub dns: f64,
    /// NetBIOS-NS transactions.
    pub nbns: f64,
    /// SrvLoc multicast announcements/queries (drives the internal
    /// fan-out tail of Figure 2(b)).
    pub srvloc: f64,
    /// HTTP connections (internal + WAN; split set by `web_wan_frac`).
    pub web: f64,
    /// SMTP sessions.
    pub smtp: f64,
    /// IMAP(/S) sessions.
    pub imap: f64,
    /// POP/LDAP sessions.
    pub email_other: f64,
    /// Windows service connections (NBSSN/CIFS/DCERPC groups).
    pub windows: f64,
    /// NFS host-pair sessions.
    pub nfs: f64,
    /// NCP connections.
    pub ncp: f64,
    /// Backup connections (scaled within by type).
    pub backup: f64,
    /// FTP/HPSS bulk sessions.
    pub bulk: f64,
    /// SSH/telnet/X11 sessions.
    pub interactive: f64,
    /// Streaming sessions (unicast; multicast volume set separately).
    pub streaming: f64,
    /// Net-management flows (DHCP/NTP/SNMP/SAP/NAV/ident...).
    pub netmgnt: f64,
    /// Misc site services (LPD, IPP, SQL, calendar...).
    pub misc: f64,
    /// Unrecognized TCP services.
    pub other_tcp: f64,
    /// Unrecognized UDP services.
    pub other_udp: f64,
    /// ICMP echo exchanges (non-scanner).
    pub icmp: f64,
}

/// Calibration record for one dataset. Plain `Copy` data — the study's
/// worker loop copies specs instead of cloning heap-backed ranges.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Dataset label, "D0".."D4".
    pub name: &'static str,
    /// Duration of each per-subnet trace, seconds (Table 1 "Duration").
    pub trace_secs: u64,
    /// Monitoring passes per subnet (Table 1 "Per Tap").
    pub passes: u8,
    /// Monitored subnet indices (Table 1 "# Subnets"; which router).
    pub monitored: SubnetRange,
    /// Capture snaplen (Table 1 "Snaplen").
    pub snaplen: u32,
    /// Approximate workstations per subnet (drives Table 1 host counts).
    pub hosts_per_subnet: usize,
    /// External peer pool size (drives Table 1 "Remote Hosts").
    pub wan_pool: u32,
    /// Deterministic seed basis for this dataset.
    pub seed: u64,
    /// Application session rates at scale 1.0.
    pub rates: AppRates,
    /// Fraction of web connections whose server is across the WAN
    /// (HTTP is WAN-dominated; fan-out Figure 3).
    pub web_wan_frac: f64,
    /// DCE/RPC vantage profile (Table 11).
    pub rpc_profile: RpcProfile,
    /// Mean bytes of an NFS heavy-hitter host-pair session; D0's
    /// 10-minute full captures saw 6.3 GB of NFS (Table 12).
    pub nfs_hh_bytes: f64,
    /// Whether this vantage includes the main mail servers (D0–D2) —
    /// drives Table 8's volume split and the WAN SMTP success-rate dip.
    pub mail_vantage: bool,
    /// Email volume multiplier (Table 8: D1 carried ~3.5 GB of email).
    pub email_volume: f64,
    /// Backup volume multiplier (Figure 1: backup varies ~5x across
    /// datasets).
    pub backup_volume: f64,
    /// Fraction of packet drops injected at the tap (0 = none); models the
    /// paper's "receiver acknowledged data not present in the trace".
    pub tap_drop_period: u64,
    /// IMAP runs in cleartext (D0) vs IMAP/S (D1+) — the policy change
    /// visible in Table 8.
    pub imap_cleartext: bool,
    /// Fraction of all packets that are non-IP (Table 2 "!IP" row).
    pub nonip_frac: f64,
    /// Mix of the non-IP packets: (ARP, IPX, other) shares (Table 2).
    pub nonip_mix: (f64, f64, f64),
}

impl DatasetSpec {
    /// Every `(subnet, pass)` trace slot of the dataset in study order
    /// (pass-major). D4 monitored only part of the subnets twice (Table 1
    /// "1-2 per tap"): its second pass covers the odd subnets only.
    pub fn slots(&self) -> impl Iterator<Item = (u16, u8)> {
        let spec = *self;
        (1..=spec.passes).flat_map(move |pass| {
            spec.monitored
                .into_iter()
                .filter(move |subnet| !(spec.name == "D4" && pass == 2 && subnet % 2 == 0))
                .map(move |subnet| (subnet, pass))
        })
    }

    /// Number of traces this dataset comprises.
    pub fn trace_count(&self) -> usize {
        self.slots().count()
    }
}

fn base_rates() -> AppRates {
    AppRates {
        // ~30k connections per subnet-hour total at scale 1.0.
        dns: 8_000.0,
        nbns: 5_000.0,
        srvloc: 1_300.0,
        web: 2_600.0,
        smtp: 700.0,
        imap: 500.0,
        email_other: 150.0,
        windows: 900.0,
        nfs: 18.0,
        ncp: 120.0,
        backup: 12.0,
        bulk: 10.0,
        interactive: 90.0,
        streaming: 30.0,
        netmgnt: 3_800.0,
        misc: 700.0,
        other_tcp: 350.0,
        other_udp: 2_600.0,
        icmp: 1_500.0,
    }
}

/// The five dataset specifications.
pub fn all_datasets() -> Vec<DatasetSpec> {
    let base = base_rates();
    vec![
        DatasetSpec {
            name: "D0",
            trace_secs: 600,
            passes: 1,
            monitored: ROUTER_A,
            snaplen: 1500,
            hosts_per_subnet: 115,
            wan_pool: 9_000,
            seed: 0xD0,
            rates: AppRates {
                // 10-minute traces of very busy subnets: higher intensity.
                nfs: 40.0,
                ncp: 260.0,
                ..base
            },
            web_wan_frac: 0.72,
            rpc_profile: RpcProfile::AuthHeavy,
            nfs_hh_bytes: 5.8e9,
            mail_vantage: true,
            email_volume: 3.0,
            backup_volume: 0.5,
            tap_drop_period: 0,
            imap_cleartext: true,
            nonip_frac: 0.01,
            nonip_mix: (0.10, 0.80, 0.10),
        },
        DatasetSpec {
            name: "D1",
            trace_secs: 3_600,
            passes: 2,
            monitored: ROUTER_A,
            snaplen: 68,
            hosts_per_subnet: 95,
            wan_pool: 14_000,
            seed: 0xD1,
            rates: base,
            web_wan_frac: 0.75,
            rpc_profile: RpcProfile::AuthHeavy,
            nfs_hh_bytes: 1.85e9,
            mail_vantage: true,
            email_volume: 1.2,
            backup_volume: 0.8,
            tap_drop_period: 200_000,
            imap_cleartext: false,
            nonip_frac: 0.03,
            nonip_mix: (0.06, 0.77, 0.17),
        },
        DatasetSpec {
            name: "D2",
            trace_secs: 3_600,
            passes: 1,
            monitored: ROUTER_A,
            snaplen: 68,
            hosts_per_subnet: 95,
            wan_pool: 11_000,
            seed: 0xD2,
            rates: base,
            web_wan_frac: 0.75,
            rpc_profile: RpcProfile::AuthHeavy,
            nfs_hh_bytes: 3.2e9,
            mail_vantage: true,
            email_volume: 0.8,
            backup_volume: 0.6,
            tap_drop_period: 0,
            imap_cleartext: false,
            nonip_frac: 0.04,
            nonip_mix: (0.05, 0.65, 0.29),
        },
        DatasetSpec {
            name: "D3",
            trace_secs: 3_600,
            passes: 1,
            monitored: ROUTER_B,
            snaplen: 1500,
            hosts_per_subnet: 85,
            wan_pool: 21_000,
            seed: 0xD3,
            rates: AppRates {
                nfs: 10.0,
                ncp: 20.0,
                dns: 9_500.0, // main DNS servers at this vantage
                ..base
            },
            web_wan_frac: 0.78,
            rpc_profile: RpcProfile::PrintHeavy,
            nfs_hh_bytes: 0.9e9,
            mail_vantage: false,
            email_volume: 0.25,
            backup_volume: 0.35,
            tap_drop_period: 0,
            imap_cleartext: false,
            nonip_frac: 0.02,
            nonip_mix: (0.27, 0.57, 0.16),
        },
        DatasetSpec {
            name: "D4",
            trace_secs: 3_600,
            passes: 2, // "1-2" in the paper; we monitor half twice
            monitored: ROUTER_B,
            snaplen: 1500,
            hosts_per_subnet: 85,
            wan_pool: 28_000,
            seed: 0xD4,
            rates: AppRates {
                nfs: 10.0,
                ncp: 40.0,
                dns: 9_500.0,
                ..base
            },
            web_wan_frac: 0.78,
            rpc_profile: RpcProfile::PrintHeavy,
            nfs_hh_bytes: 0.85e9,
            mail_vantage: false,
            email_volume: 0.3,
            backup_volume: 1.1,
            tap_drop_period: 150_000,
            imap_cleartext: false,
            nonip_frac: 0.04,
            nonip_mix: (0.16, 0.32, 0.52),
        },
    ]
}

/// Labels of all datasets, in order.
pub const ALL_DATASETS: [&str; 5] = ["D0", "D1", "D2", "D3", "D4"];

/// Look up one dataset spec by name.
pub fn dataset(name: &str) -> Option<DatasetSpec> {
    all_datasets().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_datasets_match_table1_shape() {
        let all = all_datasets();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].trace_secs, 600);
        assert!(all[1..].iter().all(|d| d.trace_secs == 3_600));
        assert_eq!(all[0].monitored.len(), 22);
        assert_eq!(all[3].monitored.len(), 18);
        assert_eq!(all[1].snaplen, 68);
        assert_eq!(all[2].snaplen, 68);
        assert!(all[0].snaplen == 1500 && all[3].snaplen == 1500 && all[4].snaplen == 1500);
        assert_eq!(all[1].trace_count(), 44);
        // D4: 18 subnets once + the 9 odd ones a second time.
        assert_eq!(all[4].trace_count(), 27);
        // Remote-host pools grow D3-D4 as in Table 1.
        assert!(all[4].wan_pool > all[0].wan_pool);
    }

    #[test]
    fn vantage_effects_encoded() {
        let all = all_datasets();
        assert!(all[0].mail_vantage && !all[3].mail_vantage);
        assert_eq!(all[0].rpc_profile, RpcProfile::AuthHeavy);
        assert_eq!(all[4].rpc_profile, RpcProfile::PrintHeavy);
        assert!(all[0].imap_cleartext && !all[1].imap_cleartext);
        assert!(all[0].nfs_hh_bytes > all[3].nfs_hh_bytes);
    }

    #[test]
    fn name_services_dominate_connection_rates() {
        for d in all_datasets() {
            let r = &d.rates;
            let name_conns = r.dns + r.nbns + r.srvloc;
            let total = name_conns
                + r.web + r.smtp + r.imap + r.email_other + r.windows + r.nfs + r.ncp
                + r.backup + r.bulk + r.interactive + r.streaming + r.netmgnt + r.misc
                + r.other_tcp + r.other_udp + r.icmp;
            let frac = name_conns / total;
            assert!(
                (0.40..=0.70).contains(&frac),
                "{}: name fraction {frac} outside the paper's 45-65% band",
                d.name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(dataset("D3").is_some());
        assert!(dataset("D9").is_none());
        for n in ALL_DATASETS {
            assert_eq!(dataset(n).unwrap().name, n);
        }
    }
}
