//! Property-based tests for the capture–recapture core: contingency-table
//! marginal identities, Lincoln–Petersen algebra, estimator sanity under
//! random tables.

use ghosts_core::{
    chao_lower_bound, estimate_table, estimate_table_with_fit, estimate_table_with_range, fit_llm,
    lincoln_petersen, CellModel, ContingencyTable, CrConfig, CrEstimate, GlmOptions,
    LogLinearModel,
};
use ghosts_net::{AddrSet, SubnetSet};
use ghosts_obs::Scope;
use proptest::prelude::*;

fn masks(t: usize) -> impl Strategy<Value = Vec<u16>> {
    proptest::collection::vec(1u16..(1 << t) as u16, 1..600)
}

/// Addresses biased to the plane's segment seams: 0, 2^24 − 1, 2^24 and
/// `u32::MAX`, and the words around them.
fn seam_addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just((1u32 << 24) - 1),
        Just(1u32 << 24),
        Just(u32::MAX),
        0u32..256,
        ((1u32 << 24) - 256)..((1u32 << 24) + 256),
        (u32::MAX - 255)..=u32::MAX,
        any::<u32>(),
    ]
}

/// /24 ids biased to both ends of the id space, 0 and 2^24 − 1.
fn seam_id() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just((1u32 << 24) - 1),
        0u32..256,
        ((1u32 << 24) - 256)..(1u32 << 24),
        0u32..(1 << 24),
    ]
}

/// A stratum key over `n` strata that drops about one position in
/// `drop_one_in`, mixed by `salt`.
fn key(n: usize, salt: u32, drop_one_in: u32) -> impl Fn(u32) -> Option<usize> {
    move |x: u32| {
        let h = (x ^ salt).wrapping_mul(0x9e37_79b9) >> 8;
        if h.is_multiple_of(drop_one_in) {
            None
        } else {
            Some(h as usize % n)
        }
    }
}

/// The per-address oracle for stratum `s`: every source restricted to the
/// positions `key` maps to `s`, tabulated by `from_addr_sets_per_addr`.
fn oracle(sources: &[Vec<u32>], key: &impl Fn(u32) -> Option<usize>, s: usize) -> ContingencyTable {
    let restricted: Vec<AddrSet> = sources
        .iter()
        .map(|src| src.iter().copied().filter(|&x| key(x) == Some(s)).collect())
        .collect();
    let refs: Vec<&AddrSet> = restricted.iter().collect();
    ContingencyTable::from_addr_sets_per_addr(&refs)
}

proptest! {
    /// Source marginals and pair overlaps are consistent with the raw
    /// history multiset.
    #[test]
    fn marginals_match_histories(hist in masks(4)) {
        let t = 4;
        let table = ContingencyTable::from_histories(t, hist.iter().copied());
        prop_assert_eq!(table.observed_total(), hist.len() as u64);
        for i in 0..t {
            let want = hist.iter().filter(|&&m| m & (1 << i) != 0).count() as u64;
            prop_assert_eq!(table.source_total(i), want);
        }
        for i in 0..t {
            for j in (i + 1)..t {
                let need = (1u16 << i) | (1 << j);
                let want = hist.iter().filter(|&&m| m & need == need).count() as u64;
                prop_assert_eq!(table.pair_overlap(i, j), want);
            }
        }
        // Capture frequencies partition the observed total.
        let f = table.capture_frequencies();
        prop_assert_eq!(f.iter().sum::<u64>(), hist.len() as u64);
        prop_assert_eq!(f[0], 0);
    }

    /// Marginalising to a subset of sources preserves each kept source's
    /// marginal and never increases the observed total.
    #[test]
    fn marginalize_consistency(hist in masks(5), keep_mask in 1u8..31) {
        let table = ContingencyTable::from_histories(5, hist.iter().copied());
        let keep: Vec<usize> = (0..5).filter(|i| keep_mask & (1 << i) != 0).collect();
        let m = table.marginalize(&keep);
        prop_assert_eq!(m.num_sources(), keep.len());
        prop_assert!(m.observed_total() <= table.observed_total());
        for (new_i, &old_i) in keep.iter().enumerate() {
            prop_assert_eq!(m.source_total(new_i), table.source_total(old_i));
        }
    }

    /// The two-source independence LLM reproduces Lincoln–Petersen.
    #[test]
    fn llm_equals_lp_on_two_sources(m1 in 1u64..400, m2 in 1u64..400, r in 1u64..100) {
        let only1 = m1; // exclusive counts
        let only2 = m2;
        let table = ContingencyTable::from_histories(
            2,
            std::iter::repeat_n(0b01u16, only1 as usize)
                .chain(std::iter::repeat_n(0b10, only2 as usize))
                .chain(std::iter::repeat_n(0b11, r as usize)),
        );
        let lp = lincoln_petersen(only1 + r, only2 + r, r).unwrap();
        let llm = fit_llm(
            &table,
            &LogLinearModel::independence(2),
            CellModel::Poisson,
            GlmOptions::default(),
            &Scope::disabled(),
        ).unwrap();
        prop_assert!((llm.n_hat - lp.n_hat).abs() < 1e-3 * (1.0 + lp.n_hat),
            "LLM {} vs L-P {}", llm.n_hat, lp.n_hat);
    }

    /// The whole estimation entry API on random tables over two to four
    /// sources, with and without truncation. Every call returns a typed
    /// error or a finite N̂ with M ≤ N̂ ≤ limit; with the ladder on, the
    /// point and range entry points always return an estimate. A range
    /// brackets N̂ and its point is N̂ bit for bit, and a fit has one
    /// finite, non-negative expected count per observable cell.
    #[test]
    fn estimates_are_sane(
        t in 2usize..5,
        hist in masks(4),
        truncated in any::<bool>(),
        slack in 0u64..10_000,
    ) {
        // Histories over four sources, cut down to the first `t` (an
        // all-zero history is unobservable and dropped).
        let low = (1u16 << t) - 1;
        let table = ContingencyTable::from_histories(
            t,
            hist.iter().map(|&m| m & low).filter(|&m| m != 0),
        );
        let observed = table.observed_total();
        let limit = truncated.then_some(observed + slack);
        let cfg = CrConfig { truncated, min_stratum_observed: 0, ..CrConfig::paper() };
        // The tolerance `truncated_fit_respects_bound` uses: the Newton
        // solver may sit a hair above the bound when it converges onto it.
        let sane = |est: &CrEstimate| -> proptest::TestCaseResult {
            prop_assert_eq!(est.observed, observed);
            prop_assert!(est.total.is_finite(), "N̂ = {}", est.total);
            prop_assert!(est.total >= observed as f64 - 1e-6,
                "N̂ = {} below M = {observed}", est.total);
            if let Some(l) = limit {
                prop_assert!(est.total <= l as f64 * (1.0 + 1e-5) + 1e-6,
                    "N̂ = {} above limit {l}", est.total);
            }
            Ok(())
        };

        match estimate_table(&table, limit, &cfg) {
            Ok(est) => sane(&est)?,
            Err(e) => prop_assert!(false, "estimate_table: {e}"),
        }

        match estimate_table_with_range(&table, limit, &cfg) {
            Ok((est, range)) => {
                sane(&est)?;
                prop_assert_eq!(range.point.to_bits(), est.total.to_bits(),
                    "range point {} is not N̂ = {}", range.point, est.total);
                prop_assert!(range.lower <= est.total && est.total <= range.upper,
                    "range [{}, {}] misses N̂ = {} ({:?})",
                    range.lower, range.upper, est.total, est.degraded);
            }
            Err(e) => prop_assert!(false, "estimate_table_with_range: {e}"),
        }

        if let Ok(fit) = estimate_table_with_fit(&table, limit, &cfg) {
            sane(&fit.estimate)?;
            prop_assert_eq!(fit.expected_cells.len(), (1usize << t) - 1);
            for (i, &mu) in fit.expected_cells.iter().enumerate() {
                prop_assert!(mu.is_finite() && mu >= 0.0, "cell {}: mean {mu}", i + 1);
            }
        }
    }

    /// Right-truncated Poisson fit invariants: ghosts are non-negative,
    /// the total respects the truncation bound, and every fitted cell
    /// mean is finite and non-negative.
    #[test]
    fn truncated_fit_respects_bound(hist in masks(3), slack in 0u64..8_000) {
        let table = ContingencyTable::from_histories(3, hist.iter().copied());
        prop_assume!(table.observed_total() > 0);
        let limit = table.observed_total() + slack;
        let model = LogLinearModel::independence(3);
        let (cell_model, opts) = (CellModel::Truncated { limit }, GlmOptions::default());
        if let Ok(f) = fit_llm(&table, &model, cell_model, opts, &Scope::disabled()) {
            prop_assert!(f.z0.is_finite() && f.z0 >= -1e-9, "ghosts {}", f.z0);
            prop_assert!(f.n_hat >= f.observed as f64 - 1e-6);
            // Relative tolerance: the Newton solver may sit a hair above
            // the bound when the estimate converges onto it.
            prop_assert!(f.n_hat <= limit as f64 * (1.0 + 1e-5) + 1e-6,
                "total {} above routed bound {}", f.n_hat, limit);
            for (i, &m) in f.glm.fitted.iter().enumerate() {
                prop_assert!(m.is_finite() && m >= 0.0, "cell {i}: mean {m}");
            }
        }
    }

    /// On two sources the independence model has a closed form
    /// (Lincoln–Petersen); the truncated fit with an unbinding limit must
    /// recover it just like the plain Poisson fit does.
    #[test]
    fn truncated_independence_recovers_lp(m1 in 1u64..300, m2 in 1u64..300, r in 1u64..80) {
        let table = ContingencyTable::from_histories(
            2,
            std::iter::repeat_n(0b01u16, m1 as usize)
                .chain(std::iter::repeat_n(0b10, m2 as usize))
                .chain(std::iter::repeat_n(0b11, r as usize)),
        );
        let lp = lincoln_petersen(m1 + r, m2 + r, r).unwrap();
        // A limit far above the closed-form total leaves it unconstrained.
        let limit = (lp.n_hat as u64 + 10) * 100;
        let f = fit_llm(
            &table,
            &LogLinearModel::independence(2),
            CellModel::Truncated { limit },
            GlmOptions::default(),
            &Scope::disabled(),
        ).unwrap();
        prop_assert!((f.n_hat - lp.n_hat).abs() < 1e-2 * (1.0 + lp.n_hat),
            "truncated LLM {} vs L-P {}", f.n_hat, lp.n_hat);
    }

    /// Chao's bound is finite, at least the observed count, and invariant
    /// to permuting source roles (it only reads capture frequencies).
    #[test]
    fn chao_bound_sane(hist in masks(4)) {
        let table = ContingencyTable::from_histories(4, hist.iter().copied());
        let e = chao_lower_bound(&table);
        prop_assert!(e.n_hat.is_finite());
        prop_assert!(e.n_hat >= e.observed as f64);
        // Permute sources: swap bits 0 and 3 in every history.
        let permuted: Vec<u16> = hist.iter().map(|&m| {
            let b0 = m & 1;
            let b3 = (m >> 3) & 1;
            (m & !0b1001) | (b0 << 3) | b3
        }).collect();
        let table_p = ContingencyTable::from_histories(4, permuted);
        let e_p = chao_lower_bound(&table_p);
        prop_assert_eq!(e.f1, e_p.f1);
        prop_assert_eq!(e.f2, e_p.f2);
        prop_assert!((e.n_hat - e_p.n_hat).abs() < 1e-9);
    }

    /// Each stratified address table equals the per-address oracle over
    /// the sources restricted to that stratum.
    #[test]
    fn stratified_addr_tables_match_per_addr_oracle(
        sources in proptest::collection::vec(proptest::collection::vec(seam_addr(), 0..80), 1..6),
        n in 1usize..5,
        salt in any::<u32>(),
        drop_one_in in 2u32..6,
    ) {
        let sets: Vec<AddrSet> = sources.iter().map(|s| s.iter().copied().collect()).collect();
        let refs: Vec<&AddrSet> = sets.iter().collect();
        let key = key(n, salt, drop_one_in);
        let tables = ContingencyTable::stratified_from_addr_sets(&refs, n, &key);
        prop_assert_eq!(tables.len(), n);
        for (s, table) in tables.iter().enumerate() {
            prop_assert_eq!(table, &oracle(&sources, &key, s));
        }
    }

    /// The /24 builders match the same oracle applied to the id sets: the
    /// unstratified table, and each stratum of the stratified one (whose
    /// key sees the subnet's base address).
    #[test]
    fn stratified_subnet_tables_match_per_addr_oracle(
        sources in proptest::collection::vec(proptest::collection::vec(seam_id(), 0..80), 1..6),
        n in 1usize..5,
        salt in any::<u32>(),
        drop_one_in in 2u32..6,
    ) {
        let sets: Vec<SubnetSet> = sources.iter().map(|s| s.iter().copied().collect()).collect();
        let refs: Vec<&SubnetSet> = sets.iter().collect();
        let all = |_: u32| Some(0usize);
        prop_assert_eq!(ContingencyTable::from_subnet_sets(&refs), oracle(&sources, &all, 0));
        let key = key(n, salt, drop_one_in);
        let tables = ContingencyTable::stratified_from_subnet_sets(&refs, n, &key);
        let id_key = |id: u32| key(SubnetSet::subnet_base(id));
        prop_assert_eq!(tables.len(), n);
        for (s, table) in tables.iter().enumerate() {
            prop_assert_eq!(table, &oracle(&sources, &id_key, s));
        }
    }
}
