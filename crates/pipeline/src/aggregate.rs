//! Dataset summaries: the per-source, per-year unique-IP and /24 counts of
//! Table 2, and general window-level aggregation helpers.

use crate::dataset::WindowData;
use ghosts_net::{AddrSet, SubnetSet};
use ghosts_obs::{FieldValue, Scope};

/// One row of a Table-2-style summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceYearSummary {
    /// Source name.
    pub source: String,
    /// Calendar year.
    pub year: u16,
    /// Unique IPv4 addresses observed in that year (millions not applied).
    pub unique_ips: u64,
    /// Unique /24 subnets observed in that year.
    pub unique_subnets: u64,
}

/// Summarises per-source unique IPs//24s per calendar year from per-quarter
/// observation sets. `per_quarter` maps `(source_name, quarter)` to that
/// quarter's address set; quarters with no data are simply absent.
pub fn yearly_summaries<'a, I>(per_quarter: I) -> Vec<SourceYearSummary>
where
    I: IntoIterator<Item = (&'a str, crate::time::Quarter, &'a AddrSet)>,
{
    use std::collections::BTreeMap;
    let mut acc: BTreeMap<(String, u16), AddrSet> = BTreeMap::new();
    for (name, quarter, set) in per_quarter {
        let key = (name.to_string(), quarter.year());
        acc.entry(key).or_default().union_with(set);
    }
    acc.into_iter()
        .map(|((source, year), set)| SourceYearSummary {
            source,
            year,
            unique_ips: set.len(),
            unique_subnets: set.to_subnet24().len(),
        })
        .collect()
}

/// Counts observed addresses and /24s for a window (union over sources).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowObserved {
    /// Unique addresses across all sources.
    pub ips: u64,
    /// Unique /24 subnets across all sources.
    pub subnets: u64,
}

/// Computes the union counts for a window, and records a `window_observed`
/// event (per-window union sizes plus per-source sizes) and the
/// `aggregate.*` counters into `obs`.
pub fn window_observed(data: &WindowData, obs: &Scope) -> WindowObserved {
    let u = data.observed_union();
    let observed = WindowObserved {
        ips: u.len(),
        subnets: u.to_subnet24().len(),
    };
    let rec = obs.recorder();
    rec.add("aggregate.windows", 1);
    rec.add("aggregate.union_ips", observed.ips);
    obs.event(
        "window_observed",
        &[
            ("sources", FieldValue::U64(data.sources.len() as u64)),
            ("ips", FieldValue::U64(observed.ips)),
            ("subnets", FieldValue::U64(observed.subnets)),
        ],
    );
    if obs.is_enabled() {
        for (i, s) in data.sources.iter().enumerate() {
            let subs: SubnetSet = s.subnets();
            obs.child_idx("source", i as u64).event(
                "source_observed",
                &[
                    ("name", FieldValue::Str(s.name.clone())),
                    ("ips", FieldValue::U64(s.addrs.len())),
                    ("subnets", FieldValue::U64(subs.len())),
                ],
            );
        }
    }
    observed
}

/// Per-source observation sizes for a window (the per-dataset columns the
/// cross-validation normalises against).
pub fn per_source_sizes(data: &WindowData) -> Vec<(String, u64, u64)> {
    data.sources
        .iter()
        .map(|s| {
            let subs: SubnetSet = s.subnets();
            (s.name.clone(), s.addrs.len(), subs.len())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SourceDataset;
    use crate::time::{Quarter, TimeWindow};

    #[test]
    fn yearly_unions_dedupe_across_quarters() {
        let q1 = Quarter::from_year_quarter(2011, 1);
        let q2 = Quarter::from_year_quarter(2011, 2);
        let q2012 = Quarter::from_year_quarter(2012, 1);
        let a: AddrSet = [1u32, 2].into_iter().collect();
        let b: AddrSet = [2u32, 3].into_iter().collect();
        let c: AddrSet = [9u32].into_iter().collect();
        let rows = yearly_summaries([("WIKI", q1, &a), ("WIKI", q2, &b), ("WIKI", q2012, &c)]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].year, 2011);
        assert_eq!(rows[0].unique_ips, 3); // {1,2,3}
        assert_eq!(rows[1].year, 2012);
        assert_eq!(rows[1].unique_ips, 1);
    }

    #[test]
    fn window_union_counts() {
        let wd = WindowData {
            window: TimeWindow {
                start: Quarter(0),
                len: 4,
            },
            sources: vec![
                SourceDataset::new("A", [0x01000001u32, 0x01000002].into_iter().collect(), true),
                SourceDataset::new("B", [0x01000002u32, 0x02000001].into_iter().collect(), true),
            ],
        };
        let obs = window_observed(&wd, &Scope::disabled());
        assert_eq!(obs.ips, 3);
        assert_eq!(obs.subnets, 2);
        let sizes = per_source_sizes(&wd);
        assert_eq!(sizes[0], ("A".to_string(), 2, 1));
        assert_eq!(sizes[1], ("B".to_string(), 2, 2));
    }
}
