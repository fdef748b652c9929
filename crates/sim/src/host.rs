//! Host types and their measurement-facing behaviour (§4.2).
//!
//! The paper groups devices into routers, servers/proxies, clients and
//! specialised devices, and argues each group is sampled by several
//! sources. Here every used address gets a stable [`HostType`] plus stable
//! behavioural traits (does it answer ICMP? port 80? how active is it in
//! client-facing services?), all derived by hashing — no per-address state.

use crate::util::{label, Mix};

/// Device classes from §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostType {
    /// ISP or home router (home routers front NAT'd client traffic).
    Router,
    /// Server or proxy.
    Server,
    /// End-user client (PC, phone); may sit on a dynamic pool.
    Client,
    /// Printer, camera, industrial device — barely observable (§4.2 calls
    /// these "severely under-represented").
    Specialized,
}

/// How a probed host reacts to an active probe (§4.4 counting rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResponse {
    /// ICMP echo reply — counted as used.
    EchoReply,
    /// ICMP destination protocol/port unreachable — counted as used.
    Unreachable,
    /// ICMP TTL exceeded — ignored (unclear if the address is used).
    TtlExceeded,
    /// TCP SYN/ACK — counted as used (TPING).
    SynAck,
    /// TCP RST — ignored (25% of RSTs came from firewalls covering whole
    /// /25+ networks).
    Rst,
    /// Silence: filtered, firewalled, or truly unused.
    Nothing,
}

/// Stable behavioural traits of one used address.
#[derive(Debug, Clone, Copy)]
pub struct HostTraits {
    /// Device class.
    pub host_type: HostType,
    /// Answers ICMP echo (when not firewalled/lossy).
    pub icmp_responsive: bool,
    /// Answers TCP SYN on port 80.
    pub tcp80_responsive: bool,
    /// A firewall answers RST on its behalf.
    pub rst_firewall: bool,
    /// Client-service activity level in `[0, 1)`: drives how often the
    /// address shows up in passive logs. Heavy-tailed — most addresses are
    /// rarely active, a few are very busy.
    pub activity: f64,
}

/// Derives the stable traits of `addr`, given whether its /24 is a dynamic
/// pool (dynamic pools are client-only) and the simulation seed.
pub fn traits_for(seed: u64, addr: u32, dynamic_pool: bool) -> HostTraits {
    TraitHashes::new(seed).traits(addr, dynamic_pool)
}

/// The per-seed hash states behind [`traits_for`], built once by callers
/// that derive the traits of many addresses.
pub(crate) struct TraitHashes {
    host_type: Mix,
    icmp: Mix,
    tcp: Mix,
    rst: Mix,
    activity: Mix,
}

impl TraitHashes {
    pub(crate) fn new(seed: u64) -> Self {
        let hash = |lbl: &str| Mix::of(&[seed, label(lbl)]);
        TraitHashes {
            host_type: hash("host-type"),
            icmp: hash("icmp"),
            tcp: hash("tcp80"),
            rst: hash("rst"),
            activity: hash("activity"),
        }
    }

    /// The traits of `addr` (see [`traits_for`]).
    pub(crate) fn traits(&self, addr: u32, dynamic_pool: bool) -> HostTraits {
        let draw = |h: Mix| h.then(u64::from(addr)).unit();
        let u = draw(self.host_type);
        let last_byte = addr & 0xff;

        let host_type = if dynamic_pool {
            HostType::Client
        } else if last_byte == 1 && u < 0.75 {
            // .1 is very often the subnet router.
            HostType::Router
        } else if u < 0.22 {
            HostType::Server
        } else if u < 0.30 {
            HostType::Specialized
        } else if u < 0.38 {
            HostType::Router
        } else {
            HostType::Client
        };

        let u_icmp = draw(self.icmp);
        let u_tcp = draw(self.tcp);
        let u_rst = draw(self.rst);
        let u_act = draw(self.activity);

        let icmp_p = match host_type {
            HostType::Router => 0.80,
            HostType::Server => 0.72,
            HostType::Client => {
                if dynamic_pool {
                    0.30 // the pool's NAT/home routers answer for many
                } else {
                    0.26
                }
            }
            HostType::Specialized => 0.06,
        };
        let tcp_p = match host_type {
            HostType::Router => 0.18, // admin web UIs on home routers
            HostType::Server => 0.62,
            HostType::Client => 0.05,
            HostType::Specialized => 0.10, // e.g. printers listening on IPP/80
        };
        let act_scale = match host_type {
            HostType::Client => 1.0,
            HostType::Server => 0.25, // servers appear in logs as proxies do
            HostType::Router => 0.55, // NAT'd traffic surfaces at the router
            HostType::Specialized => 0.0,
        };

        HostTraits {
            host_type,
            icmp_responsive: u_icmp < icmp_p,
            tcp80_responsive: u_tcp < tcp_p,
            rst_firewall: u_rst < 0.05,
            // Square the uniform for a heavy tail of barely-active hosts.
            activity: u_act * u_act * act_scale,
        }
    }
}

impl HostTraits {
    /// Response to one ICMP echo probe.
    pub fn icmp_response(&self) -> ProbeResponse {
        if self.icmp_responsive {
            ProbeResponse::EchoReply
        } else if self.host_type == HostType::Server && self.rst_firewall {
            ProbeResponse::Unreachable
        } else {
            ProbeResponse::Nothing
        }
    }

    /// Response to one TCP SYN on port 80.
    pub fn tcp80_response(&self) -> ProbeResponse {
        if self.tcp80_responsive {
            ProbeResponse::SynAck
        } else if self.rst_firewall {
            ProbeResponse::Rst
        } else {
            ProbeResponse::Nothing
        }
    }
}

/// Whether a probe response counts the address as used, per the §4.4
/// rules (echo replies and unreachables for ICMP; SYN/ACKs only for TCP).
pub fn counts_as_used(resp: ProbeResponse) -> bool {
    matches!(
        resp,
        ProbeResponse::EchoReply | ProbeResponse::Unreachable | ProbeResponse::SynAck
    )
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // determinism asserts compare exact values on purpose
mod tests {
    use super::*;

    #[test]
    fn traits_are_stable() {
        let a = traits_for(1, 0x0a000001, false);
        let b = traits_for(1, 0x0a000001, false);
        assert_eq!(a.host_type, b.host_type);
        assert_eq!(a.icmp_responsive, b.icmp_responsive);
        assert_eq!(a.activity, b.activity);
    }

    #[test]
    fn dynamic_pools_are_client_only() {
        for i in 0..200u32 {
            let t = traits_for(3, 0x0b000000 + i, true);
            assert_eq!(t.host_type, HostType::Client);
        }
    }

    #[test]
    fn type_mix_is_plausible() {
        let mut servers = 0;
        let mut clients = 0;
        let mut routers = 0;
        let mut special = 0;
        for i in 0..20_000u32 {
            match traits_for(7, i * 257 + 5, false).host_type {
                HostType::Server => servers += 1,
                HostType::Client => clients += 1,
                HostType::Router => routers += 1,
                HostType::Specialized => special += 1,
            }
        }
        assert!(clients > servers && servers > special);
        assert!(routers > 1000 && special > 500);
    }

    #[test]
    fn icmp_rates_by_type() {
        let mut respond = [0u32; 2]; // [server, specialized]
        let mut totals = [0u32; 2];
        for i in 0..60_000u32 {
            let t = traits_for(9, i * 101 + 7, false);
            let idx = match t.host_type {
                HostType::Server => 0,
                HostType::Specialized => 1,
                _ => continue,
            };
            totals[idx] += 1;
            if t.icmp_responsive {
                respond[idx] += 1;
            }
        }
        let server_rate = f64::from(respond[0]) / f64::from(totals[0]);
        let special_rate = f64::from(respond[1]) / f64::from(totals[1]);
        assert!((server_rate - 0.72).abs() < 0.05, "{server_rate}");
        assert!(special_rate < 0.12, "{special_rate}");
    }

    #[test]
    fn probe_response_counting_rules() {
        assert!(counts_as_used(ProbeResponse::EchoReply));
        assert!(counts_as_used(ProbeResponse::Unreachable));
        assert!(counts_as_used(ProbeResponse::SynAck));
        assert!(!counts_as_used(ProbeResponse::Rst));
        assert!(!counts_as_used(ProbeResponse::TtlExceeded));
        assert!(!counts_as_used(ProbeResponse::Nothing));
    }

    #[test]
    fn activity_is_heavy_tailed() {
        let acts: Vec<f64> = (0..20_000u32)
            .filter_map(|i| {
                let t = traits_for(11, i * 31 + 3, true);
                (t.host_type == HostType::Client).then_some(t.activity)
            })
            .collect();
        let low = acts.iter().filter(|&&a| a < 0.1).count() as f64 / acts.len() as f64;
        let high = acts.iter().filter(|&&a| a > 0.7).count() as f64 / acts.len() as f64;
        assert!(low > 0.25, "low-activity fraction {low}");
        assert!(high < 0.25, "high-activity fraction {high}");
    }
}
