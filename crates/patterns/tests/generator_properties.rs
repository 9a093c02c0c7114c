//! Property tests for the fault-model generators over random bundles.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam_exec::check::{cases, forall, Gen};
use soctam_model::topology::{Bundle, InterconnectTopology};
use soctam_model::{Benchmark, TerminalId};
use soctam_patterns::coverage::ma_coverage;
use soctam_patterns::generator::{maximal_aggressor, reduced_mt, shorts_opens};

/// Distinct terminals inside d695's 1000+-terminal space, 2..40 of them.
fn random_bundle(g: &mut Gen) -> Vec<TerminalId> {
    let len = g.usize_in(2, 40);
    let mut set = std::collections::BTreeSet::new();
    while set.len() < len {
        set.insert(g.u32_in(0, 300));
    }
    set.into_iter().map(TerminalId::new).collect()
}

/// The MA set always has exactly 6N patterns, each fully specified
/// over the bundle.
#[test]
fn ma_count_and_shape() {
    forall("ma_count_and_shape", cases(64), |g| {
        let bundle = random_bundle(g);
        let patterns = maximal_aggressor(&bundle).expect("valid bundle");
        assert_eq!(patterns.len(), 6 * bundle.len());
        for p in &patterns {
            assert_eq!(p.care_bits().len(), bundle.len());
        }
    });
}

/// Reduced-MT pattern counts match the edge-adjusted closed form and
/// the MA set is a subset in coverage terms (every MA fault at the
/// same locality is covered).
#[test]
fn mt_count_matches_closed_form() {
    forall("mt_count_matches_closed_form", cases(64), |g| {
        let bundle = random_bundle(g);
        let k = g.u32_in(1, 3);
        let patterns = reduced_mt(&bundle, k).expect("valid");
        let n = bundle.len();
        let expected: usize = (0..n)
            .map(|i| {
                let neighbours = i.min(k as usize) + (n - 1 - i).min(k as usize);
                4usize << neighbours
            })
            .sum();
        assert_eq!(patterns.len(), expected);
    });
}

/// Reduced-MT at locality k covers the full localized MA fault list.
#[test]
fn mt_covers_localized_ma() {
    forall("mt_covers_localized_ma", cases(64), |g| {
        let bundle = random_bundle(g);
        let k = g.u32_in(1, 3);
        let soc = Benchmark::D695.soc();
        let b = Bundle::new("b", bundle.clone()).expect("valid");
        let topo = InterconnectTopology::new(&soc, vec![b]).expect("valid");
        let patterns = reduced_mt(&bundle, k).expect("valid");
        let report = ma_coverage(&topo, &patterns, Some(k as usize));
        assert_eq!(report.covered_faults, report.total_faults);
    });
}

/// Shorts/opens vectors: logarithmic count, unique per-wire signatures,
/// both logic levels seen by every wire.
#[test]
fn shorts_opens_properties() {
    forall("shorts_opens_properties", cases(64), |g| {
        let bundle = random_bundle(g);
        let vectors = shorts_opens(&bundle).expect("valid");
        let n = bundle.len() as u64;
        assert_eq!(vectors.len() as u32, 64 - (n + 1).leading_zeros());
        let mut signatures = std::collections::BTreeSet::new();
        for &t in &bundle {
            let sig: Vec<_> = vectors
                .iter()
                .map(|v| v.symbol_at(t).expect("fully specified"))
                .collect();
            assert!(signatures.insert(sig.clone()), "duplicate signature");
            assert!(sig.contains(&soctam_patterns::Symbol::Zero));
            assert!(sig.contains(&soctam_patterns::Symbol::One));
        }
    });
}
