//! Maximal-aggressor fault coverage analysis.
//!
//! The MA model defines six faults per victim line (Cuviello et al.): the
//! victim is quiescent at `0`/`1` while all aggressors rise or fall
//! (glitch faults), or the victim transitions against unanimous opposite
//! aggressors (delay/speedup faults). This module grades an arbitrary SI
//! pattern set against that fault list over an interconnect topology —
//! useful for checking what a randomized or compacted set actually
//! detects.
//!
//! The strict MA criterion needs *every* bundle line to act as an
//! aggressor; passing a `locality` restricts the aggressor set to the
//! `k`-neighbourhood (the same locality argument the reduced-MT model
//! makes), which is the realistic criterion for long bundles.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use soctam_model::topology::{Bundle, InterconnectTopology};
//! use soctam_model::{Benchmark, TerminalId};
//! use soctam_patterns::coverage::ma_coverage;
//! use soctam_patterns::generator::maximal_aggressor;
//!
//! let soc = Benchmark::D695.soc();
//! let bundle = Bundle::new("ch0", (0..8).map(TerminalId::new).collect())?;
//! let topo = InterconnectTopology::new(&soc, vec![bundle])?;
//! let patterns = maximal_aggressor(topo.bundles()[0].terminals())?;
//! let report = ma_coverage(&topo, &patterns, None);
//! assert_eq!(report.fraction(), 1.0); // the MA set covers itself
//! # Ok(())
//! # }
//! ```

use std::collections::{BTreeMap, BTreeSet};

use soctam_model::topology::InterconnectTopology;
use soctam_model::TerminalId;

use crate::{SiPattern, Symbol};

/// One of the six MA fault cases per victim line.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MaCase {
    /// Victim quiescent `0`, all aggressors rise (positive glitch).
    GlitchLowRise,
    /// Victim quiescent `0`, all aggressors fall.
    GlitchLowFall,
    /// Victim quiescent `1`, all aggressors rise.
    GlitchHighRise,
    /// Victim quiescent `1`, all aggressors fall (negative glitch).
    GlitchHighFall,
    /// Victim rises against falling aggressors (delay).
    DelayRise,
    /// Victim falls against rising aggressors (delay).
    DelayFall,
}

impl MaCase {
    /// All six cases.
    pub const ALL: [MaCase; 6] = [
        MaCase::GlitchLowRise,
        MaCase::GlitchLowFall,
        MaCase::GlitchHighRise,
        MaCase::GlitchHighFall,
        MaCase::DelayRise,
        MaCase::DelayFall,
    ];

    /// The victim's symbol in this case.
    pub fn victim_symbol(self) -> Symbol {
        match self {
            MaCase::GlitchLowRise | MaCase::GlitchLowFall => Symbol::Zero,
            MaCase::GlitchHighRise | MaCase::GlitchHighFall => Symbol::One,
            MaCase::DelayRise => Symbol::Rise,
            MaCase::DelayFall => Symbol::Fall,
        }
    }

    /// The unanimous aggressor symbol in this case.
    pub fn aggressor_symbol(self) -> Symbol {
        match self {
            MaCase::GlitchLowRise | MaCase::GlitchHighRise | MaCase::DelayFall => Symbol::Rise,
            MaCase::GlitchLowFall | MaCase::GlitchHighFall | MaCase::DelayRise => Symbol::Fall,
        }
    }
}

/// An MA coverage report over one topology.
#[derive(Clone, Debug, PartialEq)]
pub struct MaCoverage {
    /// Total faults: `6 ×` the number of victim lines across all bundles.
    pub total_faults: usize,
    /// Faults detected by at least one pattern.
    pub covered_faults: usize,
    /// Per-bundle `(name, covered, total)` breakdown.
    pub per_bundle: Vec<(String, usize, usize)>,
}

impl MaCoverage {
    /// Covered fraction in `[0, 1]` (`1.0` for an empty fault list).
    pub fn fraction(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            self.covered_faults as f64 / self.total_faults as f64
        }
    }
}

/// Grades `patterns` against the MA fault list of `topology`.
///
/// With `locality = None` the strict MA criterion applies (every other
/// bundle line must carry the unanimous aggressor transition); with
/// `locality = Some(k)` only the `k`-neighbourhood must.
pub fn ma_coverage(
    topology: &InterconnectTopology,
    patterns: &[SiPattern],
    locality: Option<usize>,
) -> MaCoverage {
    // terminal -> (bundle, line index) occurrences.
    let mut occurrences: BTreeMap<TerminalId, Vec<(usize, usize)>> = BTreeMap::new();
    for (b, bundle) in topology.bundles().iter().enumerate() {
        for (i, &terminal) in bundle.terminals().iter().enumerate() {
            occurrences.entry(terminal).or_default().push((b, i));
        }
    }

    let mut covered: BTreeSet<(usize, usize, MaCase)> = BTreeSet::new();
    for pattern in patterns {
        for &(terminal, symbol) in pattern.care_bits() {
            let Some(sites) = occurrences.get(&terminal) else {
                continue;
            };
            for &(b, i) in sites {
                let bundle = &topology.bundles()[b];
                let k = locality.unwrap_or(bundle.len());
                for case in MaCase::ALL {
                    if case.victim_symbol() != symbol || covered.contains(&(b, i, case)) {
                        continue;
                    }
                    let unanimous = bundle
                        .neighbours(i, k)
                        .iter()
                        .all(|&a| pattern.symbol_at(a) == Some(case.aggressor_symbol()));
                    if unanimous {
                        covered.insert((b, i, case));
                    }
                }
            }
        }
    }

    let mut per_bundle = Vec::with_capacity(topology.bundles().len());
    for (b, bundle) in topology.bundles().iter().enumerate() {
        let total = 6 * bundle.len();
        let hit = covered.iter().filter(|&&(cb, _, _)| cb == b).count();
        per_bundle.push((bundle.name().to_owned(), hit, total));
    }
    MaCoverage {
        total_faults: 6 * topology.total_victims(),
        covered_faults: covered.len(),
        per_bundle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{maximal_aggressor, reduced_mt};
    use crate::{RandomPatternConfig, SiPatternSet};
    use soctam_model::topology::Bundle;
    use soctam_model::Benchmark;

    fn topo(lines: u32) -> InterconnectTopology {
        let soc = Benchmark::D695.soc();
        let bundle = Bundle::new("b", (0..lines).map(TerminalId::new).collect()).expect("valid");
        InterconnectTopology::new(&soc, vec![bundle]).expect("valid")
    }

    #[test]
    fn ma_set_covers_itself_completely() {
        let topo = topo(10);
        let patterns = maximal_aggressor(topo.bundles()[0].terminals()).expect("valid");
        let report = ma_coverage(&topo, &patterns, None);
        assert_eq!(report.covered_faults, report.total_faults);
        assert_eq!(report.total_faults, 6 * 10);
    }

    #[test]
    fn reduced_mt_covers_ma_at_matching_locality() {
        let topo = topo(8);
        let patterns = reduced_mt(topo.bundles()[0].terminals(), 2).expect("valid");
        let report = ma_coverage(&topo, &patterns, Some(2));
        assert_eq!(
            report.fraction(),
            1.0,
            "MT includes the unanimous assignments within its window"
        );
    }

    #[test]
    fn random_patterns_cover_little_strict_ma() {
        let soc = Benchmark::D695.soc();
        let topo = topo(16);
        let set =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(500).with_seed(3)).expect("valid");
        let strict = ma_coverage(&topo, set.as_slice(), None);
        let relaxed = ma_coverage(&topo, set.as_slice(), Some(1));
        assert!(strict.fraction() < 0.3, "strict {}", strict.fraction());
        assert!(
            relaxed.covered_faults >= strict.covered_faults,
            "relaxing locality never loses coverage"
        );
    }

    #[test]
    fn empty_pattern_set_covers_nothing() {
        let topo = topo(6);
        let report = ma_coverage(&topo, &[], None);
        assert_eq!(report.covered_faults, 0);
        assert!(report.fraction() < f64::EPSILON);
    }

    #[test]
    fn per_bundle_breakdown_sums_to_total() {
        let soc = Benchmark::D695.soc();
        let b1 = Bundle::new("a", (0..6).map(TerminalId::new).collect()).expect("valid");
        let b2 = Bundle::new("b", (6..12).map(TerminalId::new).collect()).expect("valid");
        let topo = InterconnectTopology::new(&soc, vec![b1, b2]).expect("valid");
        let mut patterns = maximal_aggressor(topo.bundles()[0].terminals()).expect("valid");
        patterns.extend(maximal_aggressor(topo.bundles()[1].terminals()).expect("valid"));
        let report = ma_coverage(&topo, &patterns, None);
        let sum: usize = report.per_bundle.iter().map(|&(_, c, _)| c).sum();
        assert_eq!(sum, report.covered_faults);
        assert_eq!(report.fraction(), 1.0);
    }

    #[test]
    fn case_symbols_match_the_model() {
        assert_eq!(MaCase::GlitchLowRise.victim_symbol(), Symbol::Zero);
        assert_eq!(MaCase::GlitchLowRise.aggressor_symbol(), Symbol::Rise);
        assert_eq!(MaCase::DelayRise.victim_symbol(), Symbol::Rise);
        assert_eq!(MaCase::DelayRise.aggressor_symbol(), Symbol::Fall);
        // Victim symbols cover all four symbols; each appears in the list.
        let victims: std::collections::BTreeSet<_> =
            MaCase::ALL.iter().map(|c| c.victim_symbol()).collect();
        assert_eq!(victims.len(), 4);
    }
}
