//! World building: mapping website fates onto the simulated network.
//!
//! A [`World`] is everything one browser instance can reach during a
//! crawl on one OS: the public Internet (DNS zone + endpoints, built
//! from the site population's availability fates) and the visitor
//! machine (localhost listeners, LAN devices).
//!
//! The browser itself never reads a site's `availability` — it just
//! speaks DNS/TCP/TLS against this world and observes whatever Table 1
//! error the fate was compiled into, exactly as real Chrome observed
//! the real Internet.

use std::net::{IpAddr, Ipv4Addr};

use kt_netbase::{Locality, Os, Scheme, Url};
use kt_simnet::dns::DnsRecord;
use kt_simnet::server::{Endpoint, HttpResponse, ServerBehavior};
use kt_simnet::tls::Certificate;
use kt_simnet::{HostEnv, SimNet};
use kt_webgen::{Availability, Behavior, WebSite};

/// Shared CDN hosts that serve every page's ordinary third-party
/// resources (the noise traffic detection must filter out).
pub const CDN_HOSTS: [&str; 4] = [
    "cdn0.ktstatic.net",
    "cdn1.ktstatic.net",
    "assets.ktedge.io",
    "tags.ktmetrics.com",
];

/// One OS-specific crawlable world.
///
/// A crawl worker keeps one world and [`reset_for`](World::reset_for)s
/// it per site instead of building a new one: the CDN hosts and the
/// visitor machine stay, only the site's records are swapped. The
/// world also carries the browser's per-visit scratch buffers, so a
/// reused world lets visits run without allocating them again.
#[derive(Debug)]
pub struct World {
    /// The public Internet.
    pub net: SimNet,
    /// The visitor machine.
    pub host_env: HostEnv,
    os: Os,
    seed: u64,
    /// The CDN hosts' addresses, the endpoints every reset keeps.
    cdn_ips: [IpAddr; CDN_HOSTS.len()],
    /// True when the installed site overwrote a CDN record, so a reset
    /// must rebuild the network rather than prune it.
    base_dirty: bool,
    pub(crate) scratch: crate::visit::Scratch,
}

/// Deterministic public IPv4 for a domain (never loopback/private).
pub fn public_ip_for(domain: &str, seed: u64) -> Ipv4Addr {
    let mut h = seed ^ 0x1b7;
    for b in domain.bytes() {
        h = h.wrapping_mul(0x100000001b3).wrapping_add(b as u64);
    }
    // First octet drawn from unambiguously-public space.
    const FIRST: [u8; 8] = [13, 23, 34, 52, 93, 104, 151, 185];
    let ip = Ipv4Addr::new(
        FIRST[(h % 8) as usize],
        (h >> 8) as u8,
        (h >> 16) as u8,
        (h >> 24) as u8,
    );
    debug_assert_eq!(Locality::of_ipv4(ip), Locality::Public);
    ip
}

impl World {
    /// Build the world for a slice of sites on one OS.
    pub fn build(sites: &[WebSite], os: Os, seed: u64) -> World {
        let cdn_ips = CDN_HOSTS.map(|host| IpAddr::V4(public_ip_for(host, seed)));
        let mut world = World {
            net: Self::base_net(seed, &cdn_ips),
            host_env: HostEnv::sampled(os, seed ^ os.letter() as u64),
            os,
            seed,
            cdn_ips,
            base_dirty: false,
            scratch: Default::default(),
        };
        for site in sites {
            world.install(site);
        }
        world
    }

    /// Make this world exactly what `World::build(&[site], os, seed)`
    /// would build for its OS and seed — the same records, an empty
    /// DNS cache, zeroed counters — keeping the CDN hosts, the visitor
    /// machine and the scratch buffers.
    pub fn reset_for(&mut self, site: &WebSite) {
        if self.base_dirty {
            self.net = Self::base_net(self.seed, &self.cdn_ips);
            self.base_dirty = false;
        } else {
            let cdn_ips = self.cdn_ips;
            self.net.retain(
                |name| CDN_HOSTS.contains(&name),
                |ip, _| cdn_ips.contains(&ip),
            );
        }
        self.install(site);
    }

    /// The network holding only the shared CDN hosts, which always
    /// resolve and answer.
    fn base_net(seed: u64, cdn_ips: &[IpAddr; CDN_HOSTS.len()]) -> SimNet {
        let mut net = SimNet::new(seed);
        for (host, &ip) in CDN_HOSTS.iter().zip(cdn_ips) {
            net.dns.insert(host, DnsRecord::A(ip));
            net.bind(ip, 443, Endpoint::https(host, HttpResponse::ok(4096)));
            net.bind(ip, 80, Endpoint::http(HttpResponse::ok(4096)));
        }
        net
    }

    /// Install one site, noting whether it overwrote a CDN record.
    fn install(&mut self, site: &WebSite) {
        let touches_base = |name: &str| {
            CDN_HOSTS.contains(&name)
                || self
                    .cdn_ips
                    .contains(&IpAddr::V4(public_ip_for(name, self.seed)))
        };
        let mut vendors = site.behaviors.iter().filter_map(|p| match &p.behavior {
            Behavior::ThreatMetrix { vendor } => Some(vendor.as_str()),
            _ => None,
        });
        if touches_base(site.domain.as_str()) || vendors.any(touches_base) {
            self.base_dirty = true;
        }
        Self::install_site(&mut self.net, site, self.os, self.seed);
    }

    /// Install one site's fate and supporting infrastructure.
    fn install_site(net: &mut SimNet, site: &WebSite, os: Os, seed: u64) {
        let domain = site.domain.as_str();
        let ip = IpAddr::V4(public_ip_for(domain, seed));
        let fate = site.availability_on(os);
        let port = if site.https { 443 } else { 80 };
        match fate {
            Availability::NxDomain => {
                net.dns.insert(domain, DnsRecord::NxDomain);
            }
            Availability::Refused => {
                net.dns.insert(domain, DnsRecord::A(ip));
                net.bind(
                    ip,
                    port,
                    Endpoint {
                        behavior: ServerBehavior::Refused,
                        certificate: None,
                    },
                );
            }
            Availability::Reset => {
                net.dns.insert(domain, DnsRecord::A(ip));
                net.bind(
                    ip,
                    port,
                    Endpoint {
                        behavior: ServerBehavior::ResetOnRequest,
                        certificate: if site.https {
                            Some(Certificate::valid_for(domain))
                        } else {
                            None
                        },
                    },
                );
            }
            Availability::CertInvalid => {
                net.dns.insert(domain, DnsRecord::A(ip));
                // The classic misconfiguration: the wrong vhost's cert.
                net.bind(
                    ip,
                    443,
                    Endpoint {
                        behavior: ServerBehavior::Http(HttpResponse::ok(1024)),
                        certificate: Some(Certificate::mismatched("default.hosting.example")),
                    },
                );
            }
            Availability::OtherError => {
                net.dns.insert(domain, DnsRecord::A(ip));
                // Alternate between empty responses and black holes.
                let behavior = if domain.len().is_multiple_of(2) {
                    ServerBehavior::EmptyResponse
                } else {
                    ServerBehavior::Blackhole
                };
                net.bind(
                    ip,
                    port,
                    Endpoint {
                        behavior,
                        certificate: if site.https {
                            Some(Certificate::valid_for(domain))
                        } else {
                            None
                        },
                    },
                );
            }
            Availability::Up => {
                net.dns.insert(domain, DnsRecord::A(ip));
                let endpoint = if site.https {
                    Endpoint::https(domain, HttpResponse::ok(64 * 1024))
                } else {
                    Endpoint::http(HttpResponse::ok(64 * 1024))
                };
                net.bind(ip, port, endpoint);
                // Behaviour-supporting public hosts (ThreatMetrix-style
                // vendor domains) must resolve and serve the script.
                for planted in &site.behaviors {
                    if let Behavior::ThreatMetrix { vendor } = &planted.behavior {
                        let vip = IpAddr::V4(public_ip_for(vendor.as_str(), seed));
                        net.dns.insert(vendor.as_str(), DnsRecord::A(vip));
                        net.bind(
                            vip,
                            443,
                            Endpoint::https(vendor.as_str(), HttpResponse::ok(32 * 1024)),
                        );
                    }
                }
            }
        }
    }

    /// The landing-page URL for a site.
    pub fn landing_url(site: &WebSite) -> Url {
        Url::from_parts(
            Self::landing_scheme(site),
            kt_netbase::Host::Domain(site.domain.clone()),
            None,
            "/",
        )
    }

    /// The scheme a site's landing page is served over.
    pub(crate) fn landing_scheme(site: &WebSite) -> Scheme {
        if site.https {
            Scheme::Https
        } else {
            Scheme::Http
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netbase::DomainName;

    fn site(domain: &str, fate: Availability) -> WebSite {
        let mut s = WebSite::plain(DomainName::parse(domain).unwrap(), Some(1), 4);
        s.https = false; // these tests connect on port 80
        s.set_availability_all(fate);
        s
    }

    #[test]
    fn public_ips_are_public_and_deterministic() {
        for d in [
            "ebay.example",
            "a.b.c.example",
            "x.ir",
            "localhost-like.com",
        ] {
            let ip = public_ip_for(d, 7);
            assert_eq!(Locality::of_ipv4(ip), Locality::Public, "{d} -> {ip}");
            assert_eq!(ip, public_ip_for(d, 7));
        }
        assert_ne!(public_ip_for("a.com", 7), public_ip_for("b.com", 7));
    }

    #[test]
    fn up_site_resolves_and_answers() {
        let sites = vec![site("healthy.example", Availability::Up)];
        let mut world = World::build(&sites, Os::Linux, 1);
        let ip = world.net.resolve("healthy.example", 0).unwrap();
        let out = world.net.connect(&world.host_env, ip, 80, None);
        assert!(out.is_established());
    }

    #[test]
    fn nxdomain_site_does_not_resolve() {
        let sites = vec![site("gone.example", Availability::NxDomain)];
        let mut world = World::build(&sites, Os::Linux, 1);
        assert!(world.net.resolve("gone.example", 0).is_err());
    }

    #[test]
    fn refused_site_resolves_but_refuses() {
        let sites = vec![site("refusing.example", Availability::Refused)];
        let mut world = World::build(&sites, Os::Linux, 1);
        let ip = world.net.resolve("refusing.example", 0).unwrap();
        assert!(matches!(
            world.net.connect(&world.host_env, ip, 80, None),
            kt_simnet::ConnectOutcome::Refused { .. }
        ));
    }

    #[test]
    fn cert_invalid_site_fails_tls() {
        let mut s = site("badcert.example", Availability::CertInvalid);
        s.https = true;
        let mut world = World::build(&[s], Os::Windows, 1);
        let ip = world.net.resolve("badcert.example", 0).unwrap();
        match world
            .net
            .connect(&world.host_env, ip, 443, Some("badcert.example"))
        {
            kt_simnet::ConnectOutcome::CertError { verdict, .. } => {
                assert_eq!(verdict, kt_simnet::CertVerdict::CommonNameInvalid);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cdn_hosts_always_work() {
        let world = World::build(&[], Os::MacOs, 1);
        let mut net = world.net;
        for host in CDN_HOSTS {
            let ip = net.resolve(host, 0).unwrap();
            assert!(net
                .connect(&world.host_env, ip, 443, Some(host))
                .is_established());
        }
    }

    #[test]
    fn fate_differs_by_os_when_site_flaps() {
        let mut s = site("flappy.example", Availability::Up);
        s.set_availability(Os::MacOs, Availability::NxDomain);
        let mut w_mac = World::build(std::slice::from_ref(&s), Os::MacOs, 1);
        let mut w_win = World::build(std::slice::from_ref(&s), Os::Windows, 1);
        assert!(w_mac.net.resolve("flappy.example", 0).is_err());
        assert!(w_win.net.resolve("flappy.example", 0).is_ok());
    }

    #[test]
    fn a_reset_world_answers_like_a_fresh_one_after_a_site_shadowed_a_cdn_host() {
        // A site named like a CDN host overwrites that host's record;
        // the next reset must bring the CDN record back.
        let shadow = site(CDN_HOSTS[0], Availability::NxDomain);
        let plain = site("plain.example", Availability::Up);
        let mut world = World::build(&[], Os::Linux, 3);
        world.reset_for(&shadow);
        assert!(world.net.resolve(CDN_HOSTS[0], 0).is_err());
        world.reset_for(&plain);
        let mut fresh = World::build(std::slice::from_ref(&plain), Os::Linux, 3);
        for name in [CDN_HOSTS[0], "plain.example"] {
            assert_eq!(
                world.net.resolve(name, 0),
                fresh.net.resolve(name, 0),
                "{name}"
            );
        }
        assert_eq!(world.net.endpoint_count(), fresh.net.endpoint_count());
        assert_eq!(
            world.net.dns.authoritative_queries,
            fresh.net.dns.authoritative_queries
        );
    }

    #[test]
    fn landing_url_respects_https_flag() {
        let mut s = site("either.example", Availability::Up);
        s.https = true;
        assert_eq!(
            World::landing_url(&s).to_string(),
            "https://either.example/"
        );
        s.https = false;
        assert_eq!(World::landing_url(&s).to_string(), "http://either.example/");
    }
}
