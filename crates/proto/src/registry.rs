//! Application protocol identification and the paper's category taxonomy
//! (Table 4).
//!
//! Identification is primarily port-based, as in the paper's Bro
//! configuration, with two refinements the paper describes: CIFS is
//! recognized on *both* 139/tcp (via NetBIOS-SSN) and 445/tcp, and DCE/RPC
//! services on ephemeral ports are found by watching Endpoint-Mapper
//! traffic (see [`DynamicPorts`]).

use crate::Transport;

/// Table 4, one row per protocol: `Variant = "name", Category, ports,` in
/// the enum's declaration order (it derives `Ord`), where `ports` is the
/// `(port, transport)` pattern [`well_known`] matches. The enum, `ALL`,
/// `name()`, `category()` and `well_known()` all expand from these rows.
macro_rules! app_protocols {
    ($($variant:ident = $name:literal, $category:ident, $ports:pat,)+) => {
        /// Application protocols distinguished in the study (Table 4 plus the
        /// protocols it groups). Site-specific services use the
        /// representative ports documented in DESIGN.md.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[allow(missing_docs)] // variant names are the documentation
        pub enum AppProtocol {
            $($variant,)+
        }

        impl AppProtocol {
            /// Every protocol, in declaration order.
            pub const ALL: &'static [AppProtocol] = &[$(AppProtocol::$variant,)+];

            /// The category this protocol belongs to (paper Table 4).
            pub fn category(self) -> Category {
                match self {
                    $(AppProtocol::$variant => Category::$category,)+
                }
            }

            /// Short lowercase name.
            pub fn name(self) -> &'static str {
                match self {
                    $(AppProtocol::$variant => $name,)+
                }
            }
        }

        /// Well-known port table (the trace generator spells the same ports
        /// independently, so identification is exercised end-to-end).
        pub fn well_known(port: u16, transport: Transport) -> Option<AppProtocol> {
            use Transport::{Tcp, Udp};
            Some(match (port, transport) {
                $($ports => AppProtocol::$variant,)+
                _ => return None,
            })
        }
    };
}

app_protocols! {
    DantzRetrospect = "dantz", Backup, (497, Tcp),
    VeritasBackupCtrl = "veritas-backup-ctrl", Backup, (13720, Tcp),
    VeritasBackupData = "veritas-backup-data", Backup, (13724, Tcp),
    ConnectedBackup = "connected-backup", Backup, (16384, Tcp),
    Ftp = "ftp", Bulk, (21, Tcp),
    FtpData = "ftp-data", Bulk, (20, Tcp),
    Hpss = "hpss", Bulk, (1217, Tcp),
    Smtp = "smtp", Email, (25, Tcp),
    Imap4 = "imap4", Email, (143, Tcp),
    ImapS = "imap/s", Email, (993, Tcp),
    Pop3 = "pop3", Email, (110, Tcp),
    PopS = "pop/s", Email, (995, Tcp),
    Ldap = "ldap", Email, (389, Tcp | Udp),
    Ssh = "ssh", Interactive, (22, Tcp),
    Telnet = "telnet", Interactive, (23, Tcp),
    Rlogin = "rlogin", Interactive, (513, Tcp),
    X11 = "x11", Interactive, (6000..=6063, Tcp),
    Dns = "dns", Name, (53, Tcp | Udp),
    NetbiosNs = "netbios-ns", Name, (137, Udp),
    SrvLoc = "srvloc", Name, (427, Tcp | Udp),
    Nfs = "nfs", NetFile, (2049, Tcp | Udp),
    Ncp = "ncp", NetFile, (524, Tcp),
    Portmapper = "portmapper", Misc, (111, Tcp | Udp),
    Dhcp = "dhcp", NetMgnt, (67 | 68, Udp),
    Ident = "ident", NetMgnt, (113, Tcp),
    Ntp = "ntp", NetMgnt, (123, Udp),
    Snmp = "snmp", NetMgnt, (161 | 162, Udp),
    NavPing = "nav-ping", NetMgnt, (38293, Udp),
    Sap = "sap", NetMgnt, (9875, Udp),
    NetInfoLocal = "netinfo-local", NetMgnt, (1033, Tcp),
    Syslog = "syslog", NetMgnt, (514, Udp),
    Rtsp = "rtsp", Streaming, (554, Tcp),
    IpVideo = "ipvideo", Streaming, (5004 | 5005, Udp),
    RealStream = "realstream", Streaming, (7070, Tcp) | (6970, Udp),
    Http = "http", Web, (80 | 8080 | 8000, Tcp),
    Https = "https", Web, (443, Tcp),
    NetbiosSsn = "netbios-ssn", Windows, (139, Tcp),
    Cifs = "cifs", Windows, (445, Tcp),
    DceRpc = "dce-rpc", Windows, (135, Tcp | Udp),
    NetbiosDgm = "netbios-dgm", Windows, (138, Udp),
    Steltor = "steltor", Misc, (5730, Tcp),
    MetaSys = "metasys", Misc, (11001, Tcp | Udp),
    Lpd = "lpd", Misc, (515, Tcp),
    Ipp = "ipp", Misc, (631, Tcp),
    OracleSql = "oracle-sql", Misc, (1521, Tcp),
    MsSql = "ms-sql", Misc, (1433, Tcp),
}

ent_wire::code_table! {
    /// The paper's application categories (Table 4, plus the other-tcp /
    /// other-udp catch-alls of Figure 1).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum Category {
        /// Site backup systems (Dantz, Veritas, Connected).
        Backup => "backup",
        /// Bulk transfer (FTP, HPSS).
        Bulk => "bulk",
        /// Mail transfer and access.
        Email => "email",
        /// Interactive remote access (SSH, telnet, rlogin, X11).
        Interactive => "interactive",
        /// Name/directory services.
        Name => "name",
        /// Network file systems.
        NetFile => "net-file",
        /// Network management and housekeeping.
        NetMgnt => "net-mgnt",
        /// Streaming media.
        Streaming => "streaming",
        /// Web.
        Web => "web",
        /// Windows services.
        Windows => "windows",
        /// Miscellaneous site services.
        Misc => "misc",
        /// Unrecognized TCP.
        OtherTcp => "other-tcp",
        /// Unrecognized UDP.
        OtherUdp => "other-udp",
    }
    pub fn label;
}

impl Category {
    /// All categories in the display order of the paper's Figure 1.
    pub const ALL: [Category; 13] = [
        Category::Web,
        Category::Email,
        Category::NetFile,
        Category::Backup,
        Category::Bulk,
        Category::Name,
        Category::Interactive,
        Category::Windows,
        Category::Streaming,
        Category::NetMgnt,
        Category::Misc,
        Category::OtherTcp,
        Category::OtherUdp,
    ];
}

/// Dynamically learned port mappings — DCE/RPC endpoints handed out by the
/// Endpoint Mapper (the paper's method for finding DCE/RPC on ephemeral
/// ports, §5.2.1).
#[derive(Debug, Default, Clone)]
pub struct DynamicPorts {
    map: std::collections::HashMap<(ent_wire::ipv4::Addr, u16), AppProtocol>,
}

impl DynamicPorts {
    /// Create an empty mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `addr:port` serves `proto` (learned from an Endpoint
    /// Mapper response).
    pub fn learn(&mut self, addr: ent_wire::ipv4::Addr, port: u16, proto: AppProtocol) {
        self.map.insert((addr, port), proto);
    }

    /// Look up a dynamic mapping.
    pub fn lookup(&self, addr: ent_wire::ipv4::Addr, port: u16) -> Option<AppProtocol> {
        self.map.get(&(addr, port)).copied()
    }

    /// Number of learned endpoints.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing has been learned yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Every learned mapping in a deterministic (addr, port) order — the
    /// serialization order for checkpoints, independent of hash state.
    pub fn export(&self) -> Vec<(ent_wire::ipv4::Addr, u16, AppProtocol)> {
        let mut v: Vec<_> = self
            .map
            .iter()
            .map(|(&(addr, port), &proto)| (addr, port, proto))
            .collect();
        v.sort_unstable_by_key(|&(addr, port, _)| (addr.0, port));
        v
    }
}

/// Identify the application protocol of a flow from its responder port and
/// transport, consulting dynamic mappings first.
pub fn identify(
    resp_addr: ent_wire::ipv4::Addr,
    resp_port: u16,
    transport: Transport,
    dynamic: &DynamicPorts,
) -> Option<AppProtocol> {
    dynamic
        .lookup(resp_addr, resp_port)
        .or_else(|| well_known(resp_port, transport))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ent_wire::ipv4::Addr;

    #[test]
    fn table4_category_membership() {
        assert_eq!(AppProtocol::DantzRetrospect.category(), Category::Backup);
        assert_eq!(AppProtocol::Ftp.category(), Category::Bulk);
        assert_eq!(AppProtocol::ImapS.category(), Category::Email);
        assert_eq!(AppProtocol::Ssh.category(), Category::Interactive);
        assert_eq!(AppProtocol::SrvLoc.category(), Category::Name);
        assert_eq!(AppProtocol::Ncp.category(), Category::NetFile);
        assert_eq!(AppProtocol::Sap.category(), Category::NetMgnt);
        assert_eq!(AppProtocol::Rtsp.category(), Category::Streaming);
        assert_eq!(AppProtocol::Https.category(), Category::Web);
        assert_eq!(AppProtocol::Cifs.category(), Category::Windows);
        assert_eq!(AppProtocol::OracleSql.category(), Category::Misc);
    }

    #[test]
    fn cifs_on_both_ports() {
        assert_eq!(well_known(445, Transport::Tcp), Some(AppProtocol::Cifs));
        assert_eq!(well_known(139, Transport::Tcp), Some(AppProtocol::NetbiosSsn));
    }

    #[test]
    fn transport_matters() {
        assert_eq!(well_known(137, Transport::Udp), Some(AppProtocol::NetbiosNs));
        assert_eq!(well_known(137, Transport::Tcp), None);
        assert_eq!(well_known(53, Transport::Tcp), Some(AppProtocol::Dns));
    }

    #[test]
    fn x11_port_range() {
        assert_eq!(well_known(6000, Transport::Tcp), Some(AppProtocol::X11));
        assert_eq!(well_known(6063, Transport::Tcp), Some(AppProtocol::X11));
        assert_eq!(well_known(6064, Transport::Tcp), None);
    }

    #[test]
    fn dynamic_ports_override() {
        let mut dp = DynamicPorts::new();
        assert!(dp.is_empty());
        let srv = Addr::new(10, 1, 1, 1);
        dp.learn(srv, 49152, AppProtocol::DceRpc);
        assert_eq!(dp.len(), 1);
        assert_eq!(
            identify(srv, 49152, Transport::Tcp, &dp),
            Some(AppProtocol::DceRpc)
        );
        // Unlearned host/port: falls back to well-known (none here).
        assert_eq!(identify(Addr::new(10, 1, 1, 2), 49152, Transport::Tcp, &dp), None);
        // Well-known fallback still works.
        assert_eq!(
            identify(srv, 80, Transport::Tcp, &dp),
            Some(AppProtocol::Http)
        );
    }

    #[test]
    fn dynamic_ports_export_is_sorted() {
        let mut dp = DynamicPorts::new();
        dp.learn(Addr::new(10, 2, 0, 1), 50_000, AppProtocol::DceRpc);
        dp.learn(Addr::new(10, 1, 0, 1), 60_000, AppProtocol::DceRpc);
        dp.learn(Addr::new(10, 1, 0, 1), 49_152, AppProtocol::DceRpc);
        let ex = dp.export();
        assert_eq!(
            ex.iter().map(|&(a, p, _)| (a, p)).collect::<Vec<_>>(),
            vec![
                (Addr::new(10, 1, 0, 1), 49_152),
                (Addr::new(10, 1, 0, 1), 60_000),
                (Addr::new(10, 2, 0, 1), 50_000),
            ]
        );
    }

    #[test]
    fn every_protocol_has_name_and_category() {
        let mut names = std::collections::HashSet::new();
        for &p in AppProtocol::ALL {
            assert!(names.insert(p.name()), "duplicate name {}", p.name());
            let _ = p.category();
        }
    }

    #[test]
    fn category_labels_match_paper() {
        assert_eq!(Category::NetFile.label(), "net-file");
        assert_eq!(Category::OtherUdp.label(), "other-udp");
        assert_eq!(Category::ALL.len(), 13);
    }
}
