//! Router FIB feasibility (§7.2.1) and the IPv4 market sketch (§8).
//!
//! If every unused prefix were allocated and routed, would forwarding
//! tables cope? The paper counts the prefixes that would exist, compares
//! against the FIB capacities Juniper reported in 2007 (≈ 2 M IPv4 routes
//! then, ≈ 10 M feasible "within a few years"), and concludes routing all
//! of it is feasible. §8 adds a back-of-envelope market value for the
//! routed-but-unused space at the observed US$8–17 per address.

use ghosts_net::freeblocks::BlockCounts;

/// FIB capacity of a 2007-era high-end router (Juniper M120/MX960,
/// \[30\] in the paper).
pub const FIB_CAPACITY_2007: u64 = 2_000_000;

/// FIB capacity the paper's reference deems feasible "within a few
/// years if demand exists".
pub const FIB_CAPACITY_FEASIBLE: u64 = 10_000_000;

/// The FIB pressure if all unused prefixes were routed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FibProjection {
    /// Prefixes already routed.
    pub current_routes: u64,
    /// Additional routes if every vacant /8–/24 block were announced
    /// as-is (blocks longer than /24 are not routable, §7.1).
    pub new_routes: u64,
    /// Total after full allocation.
    pub total_routes: u64,
    /// Whether the total fits a 2007-era FIB.
    pub fits_2007_fib: bool,
    /// Whether the total fits the near-term-feasible FIB.
    pub fits_feasible_fib: bool,
}

/// Projects FIB growth from the free-block census (`x[len]` = vacant
/// maximal blocks of each prefix length) plus the current route count.
pub fn project_fib(current_routes: u64, free: &BlockCounts) -> FibProjection {
    let new_routes: u64 = (8..=24).map(|len| free[len]).sum();
    let total = current_routes + new_routes;
    FibProjection {
        current_routes,
        new_routes,
        total_routes: total,
        fits_2007_fib: total <= FIB_CAPACITY_2007,
        fits_feasible_fib: total <= FIB_CAPACITY_FEASIBLE,
    }
}

/// The §8 market sketch: the value of unused routed /24s at a per-address
/// price ("previous sales … US$8–17 per IP; at an average price of US$10
/// per IP address, the 4.4 million routed unused /24 subnets have a value
/// of over US$11 billion").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketSketch {
    /// Unused routed /24 subnets.
    pub unused_subnets: f64,
    /// Price per address used.
    pub price_per_address: f64,
    /// Implied total value in the same currency unit.
    pub total_value: f64,
}

/// Values the unused routed /24s at a given per-address price.
pub fn market_value(unused_subnets: f64, price_per_address: f64) -> MarketSketch {
    MarketSketch {
        unused_subnets,
        price_per_address,
        total_value: unused_subnets * 256.0 * price_per_address,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fib_numbers() {
        // §7.2.1: "including the unrouted space there are 0.78 million
        // prefixes that are /24 or larger … more than 0.5 million routed
        // prefixes already … feasible to use and route all less than
        // 1.3 million available prefixes."
        let mut free: BlockCounts = [0; 33];
        // 0.78 M free /8–/24 blocks, spread arbitrarily over the lengths.
        free[20] = 200_000;
        free[22] = 280_000;
        free[24] = 300_000;
        let proj = project_fib(500_000, &free);
        assert_eq!(proj.new_routes, 780_000);
        assert_eq!(proj.total_routes, 1_280_000);
        assert!(proj.fits_2007_fib);
        assert!(proj.fits_feasible_fib);
    }

    #[test]
    fn blocks_below_routable_granularity_ignored() {
        let mut free: BlockCounts = [0; 33];
        free[25] = 1_000_000;
        free[32] = 5_000_000;
        let proj = project_fib(100, &free);
        assert_eq!(proj.new_routes, 0);
        assert_eq!(proj.total_routes, 100);
    }

    #[test]
    fn overflow_detected() {
        let mut free: BlockCounts = [0; 33];
        free[24] = 12_000_000;
        let proj = project_fib(500_000, &free);
        assert!(!proj.fits_2007_fib);
        assert!(!proj.fits_feasible_fib);
    }

    #[test]
    fn paper_market_value() {
        // 4.4 M routed unused /24s at US$10/address ≈ US$11.3 G.
        let m = market_value(4_400_000.0, 10.0);
        assert!(m.total_value > 11.0e9 && m.total_value < 12.0e9);
    }
}
