//! Per-source, per-window observation datasets.

use crate::time::TimeWindow;
use ghosts_net::{AddrSet, SubnetSet};

/// The observations of one measurement source over one time window.
#[derive(Debug, Clone)]
pub struct SourceDataset {
    /// Source name as in Table 2 ("IPING", "WIKI", …).
    pub name: String,
    /// Unique observed IPv4 addresses.
    pub addrs: AddrSet,
    /// Whether the source is structurally spoof-free. Server logs record
    /// only completed TCP sessions (WIKI/SPAM/MLAB/WEB/GAME) and active
    /// probes only responses (IPING/TPING), so those are spoof-free; the
    /// NetFlow sources (SWIN/CALT) are not (§4.4–4.5).
    pub spoof_free: bool,
}

impl SourceDataset {
    /// Creates a dataset.
    pub fn new(name: impl Into<String>, addrs: AddrSet, spoof_free: bool) -> Self {
        Self {
            name: name.into(),
            addrs,
            spoof_free,
        }
    }

    /// The dataset's unique /24 subnets.
    pub fn subnets(&self) -> SubnetSet {
        SubnetSet::covering(&self.addrs)
    }
}

/// All source datasets for one window.
#[derive(Debug, Clone)]
pub struct WindowData {
    /// The window the data cover.
    pub window: TimeWindow,
    /// One dataset per active source (sources not yet collecting in this
    /// window are absent).
    pub sources: Vec<SourceDataset>,
}

impl WindowData {
    /// The union of every source's addresses ("observed" in the paper's
    /// terminology).
    pub fn observed_union(&self) -> AddrSet {
        let mut u = AddrSet::new();
        for s in &self.sources {
            u.union_with(&s.addrs);
        }
        u
    }

    /// The union of the spoof-free sources only (the reference set for the
    /// spoof filter's overlap test).
    pub fn spoof_free_union(&self) -> AddrSet {
        let mut u = AddrSet::new();
        for s in &self.sources {
            if s.spoof_free {
                u.union_with(&s.addrs);
            }
        }
        u
    }

    /// Borrowed address sets in source order (the layout the contingency
    /// table builders consume).
    pub fn addr_sets(&self) -> Vec<&AddrSet> {
        self.sources.iter().map(|s| &s.addrs).collect()
    }

    /// The dataset with the given name, if present.
    pub fn source(&self, name: &str) -> Option<&SourceDataset> {
        self.sources.iter().find(|s| s.name == name)
    }

    /// Removes the dataset with the given name, returning it.
    pub fn take_source(&mut self, name: &str) -> Option<SourceDataset> {
        let idx = self.sources.iter().position(|s| s.name == name)?;
        Some(self.sources.remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Quarter, TimeWindow};

    fn window() -> TimeWindow {
        TimeWindow {
            start: Quarter(0),
            len: 4,
        }
    }

    fn make(name: &str, addrs: &[u32], clean: bool) -> SourceDataset {
        SourceDataset::new(name, addrs.iter().copied().collect(), clean)
    }

    #[test]
    fn unions_and_lookup() {
        let wd = WindowData {
            window: window(),
            sources: vec![
                make("WIKI", &[1, 2, 3], true),
                make("SWIN", &[3, 4, 5], false),
            ],
        };
        assert_eq!(wd.observed_union().len(), 5);
        assert_eq!(wd.spoof_free_union().len(), 3);
        assert!(wd.source("WIKI").is_some());
        assert!(wd.source("CALT").is_none());
        assert_eq!(wd.addr_sets().len(), 2);
    }

    #[test]
    fn subnets_project() {
        let d = make("WEB", &[0x0a000001, 0x0a000002, 0x0a000101], true);
        assert_eq!(d.subnets().len(), 2);
    }

    #[test]
    fn take_source_removes() {
        let mut wd = WindowData {
            window: window(),
            sources: vec![make("A", &[1], true), make("B", &[2], false)],
        };
        let taken = wd.take_source("A").unwrap();
        assert_eq!(taken.name, "A");
        assert_eq!(wd.sources.len(), 1);
        assert!(wd.take_source("A").is_none());
    }
}
