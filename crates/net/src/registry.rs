//! The allocation registry: who was delegated which prefix, when.
//!
//! The paper stratifies by RIR, country, prefix size, industry and
//! allocation age (§3.4), using RIR delegation files and whois data. This
//! module models those records: an [`Allocation`] carries the stratification
//! attributes, and a [`Registry`] indexes allocations in a
//! [`PrefixPlane`] trie for O(32) address→allocation lookup.

use crate::addr::Prefix;
use ghosts_addrplane::PrefixPlane;
use std::fmt;

/// The five Regional Internet Registries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rir {
    /// AfriNIC (Africa).
    AfriNic,
    /// APNIC (Asia–Pacific).
    Apnic,
    /// ARIN (North America).
    Arin,
    /// LACNIC (Latin America and the Caribbean).
    LacNic,
    /// RIPE NCC (Europe, Middle East, Central Asia).
    Ripe,
}

impl Rir {
    /// All five RIRs in the paper's display order.
    pub const ALL: [Rir; 5] = [Rir::AfriNic, Rir::Apnic, Rir::Arin, Rir::LacNic, Rir::Ripe];

    /// The display name used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Rir::AfriNic => "AfriNIC",
            Rir::Apnic => "APNIC",
            Rir::Arin => "ARIN",
            Rir::LacNic => "LACNIC",
            Rir::Ripe => "RIPE",
        }
    }
}

impl fmt::Display for Rir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Industry classification from whois data (§3.4, footnote 1): "whether
/// address space is education, military, government, corporate, or ISP".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Industry {
    /// Education and research networks.
    Education,
    /// Military networks.
    Military,
    /// Government (civil) networks.
    Government,
    /// Corporate / enterprise networks.
    Corporate,
    /// Internet service providers (incl. access and hosting).
    Isp,
    /// Unclassifiable from whois (the paper classified 88% of space).
    Unknown,
}

impl Industry {
    /// All classes in display order.
    pub const ALL: [Industry; 6] = [
        Industry::Education,
        Industry::Military,
        Industry::Government,
        Industry::Corporate,
        Industry::Isp,
        Industry::Unknown,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Industry::Education => "education",
            Industry::Military => "military",
            Industry::Government => "government",
            Industry::Corporate => "corporate",
            Industry::Isp => "ISP",
            Industry::Unknown => "unknown",
        }
    }
}

impl fmt::Display for Industry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A two-letter ISO country code, stored inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryCode([u8; 2]);

impl CountryCode {
    /// Creates a country code from a two-ASCII-letter string.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not exactly two ASCII alphabetic characters.
    pub fn new(s: &str) -> Self {
        let bytes = s.as_bytes();
        assert!(
            bytes.len() == 2 && bytes.iter().all(u8::is_ascii_alphabetic),
            "CountryCode: expected two ASCII letters, got {s:?}"
        );
        let mut code = [0u8; 2];
        for (c, b) in code.iter_mut().zip(bytes) {
            *c = b.to_ascii_uppercase();
        }
        CountryCode(code)
    }

    /// The code as a `&str`.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("invariant: ASCII letters") // lint: allow(no-unwrap) bytes checked in new()
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One delegated block of address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// The delegated prefix.
    pub prefix: Prefix,
    /// Responsible RIR.
    pub rir: Rir,
    /// Country of the registrant.
    pub country: CountryCode,
    /// Industry classification.
    pub industry: Industry,
    /// Year the delegation was made (for allocation-age stratification).
    pub alloc_year: u16,
}

/// Identifier of an allocation within its registry (index into
/// [`Registry::allocations`]).
pub type AllocationId = u32;

/// An indexed collection of allocations.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    allocations: Vec<Allocation>,
    index: PrefixPlane<AllocationId>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an allocation, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the exact prefix is already registered (delegations are
    /// unique per prefix; nested delegations of different lengths are fine).
    pub fn add(&mut self, alloc: Allocation) -> AllocationId {
        let (id, p) = (self.allocations.len() as AllocationId, alloc.prefix);
        let prev = self.index.insert(p.base(), p.len(), id);
        assert!(
            prev.is_none(),
            "Registry: duplicate allocation for {}",
            alloc.prefix
        );
        self.allocations.push(alloc);
        id
    }

    /// Number of allocations.
    pub fn len(&self) -> usize {
        self.allocations.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.allocations.is_empty()
    }

    /// All allocations in insertion order.
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// The allocation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this registry's [`add`](Self::add).
    pub fn get(&self, id: AllocationId) -> &Allocation {
        &self.allocations[id as usize] // lint: allow(panic-path) allocation ids come from this registry's add()
    }

    /// The most specific allocation containing `addr`, if any.
    pub fn lookup(&self, addr: u32) -> Option<(AllocationId, &Allocation)> {
        let (_, _, &id) = self.index.longest_match(addr)?;
        Some((id, self.allocations.get(id as usize)?))
    }

    /// Total allocated address count (union, nested delegations deduped).
    pub fn allocated_address_count(&self) -> u64 {
        self.index.union_address_count()
    }

    /// Iterates allocations whose `alloc_year` is at most `year` — the
    /// registry as it stood at the end of that year.
    pub fn allocated_by(&self, year: u16) -> impl Iterator<Item = &Allocation> {
        self.allocations
            .iter()
            .filter(move |a| a.alloc_year <= year)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::addr_from_str;

    fn alloc(prefix: &str, rir: Rir, cc: &str, year: u16) -> Allocation {
        Allocation {
            prefix: prefix.parse().unwrap(),
            rir,
            country: CountryCode::new(cc),
            industry: Industry::Isp,
            alloc_year: year,
        }
    }

    #[test]
    fn country_code_normalises_case() {
        assert_eq!(CountryCode::new("us").as_str(), "US");
        assert_eq!(CountryCode::new("Cn"), CountryCode::new("CN"));
    }

    #[test]
    #[should_panic]
    fn bad_country_code_panics() {
        CountryCode::new("U1");
    }

    #[test]
    fn lookup_most_specific() {
        let mut r = Registry::new();
        let outer = r.add(alloc("10.0.0.0/8", Rir::Arin, "US", 1990));
        let inner = r.add(alloc("10.1.0.0/16", Rir::Apnic, "CN", 2010));
        let (id, a) = r.lookup(addr_from_str("10.1.2.3").unwrap()).unwrap();
        assert_eq!(id, inner);
        assert_eq!(a.country.as_str(), "CN");
        let (id, _) = r.lookup(addr_from_str("10.200.0.0").unwrap()).unwrap();
        assert_eq!(id, outer);
        assert!(r.lookup(addr_from_str("11.0.0.0").unwrap()).is_none());
    }

    #[test]
    fn allocated_count_dedupes_nesting() {
        let mut r = Registry::new();
        r.add(alloc("10.0.0.0/8", Rir::Arin, "US", 1990));
        r.add(alloc("10.1.0.0/16", Rir::Apnic, "CN", 2010));
        r.add(alloc("20.0.0.0/16", Rir::Ripe, "DE", 2005));
        assert_eq!(r.allocated_address_count(), (1 << 24) + (1 << 16));
    }

    #[test]
    fn allocated_by_year_filters() {
        let mut r = Registry::new();
        r.add(alloc("10.0.0.0/8", Rir::Arin, "US", 1990));
        r.add(alloc("20.0.0.0/16", Rir::Ripe, "DE", 2005));
        r.add(alloc("30.0.0.0/16", Rir::Apnic, "CN", 2012));
        assert_eq!(r.allocated_by(2005).count(), 2);
        assert_eq!(r.allocated_by(1989).count(), 0);
        assert_eq!(r.allocated_by(2014).count(), 3);
    }

    #[test]
    #[should_panic]
    fn duplicate_prefix_panics() {
        let mut r = Registry::new();
        r.add(alloc("10.0.0.0/8", Rir::Arin, "US", 1990));
        r.add(alloc("10.0.0.0/8", Rir::Ripe, "DE", 2000));
    }

    #[test]
    fn rir_and_industry_display() {
        assert_eq!(Rir::Apnic.to_string(), "APNIC");
        assert_eq!(Industry::Isp.to_string(), "ISP");
        assert_eq!(Rir::ALL.len(), 5);
        assert_eq!(Industry::ALL.len(), 6);
    }
}
