//! Property: the delta primitive equals full evaluation.
//!
//! For random synthetic SOCs and random TestRail architectures, a
//! [`SwapState`] seeded once and driven through a random sequence of
//! one to six moves — width swaps, merges that leave holes, and core
//! moves between rails — must agree with a fresh [`Evaluator`] after
//! every step: [`Evaluator::swap_cost`] before a single-rail swap,
//! [`SwapState::cost`] after each move, and [`Evaluator::readout`]
//! field for field against [`Evaluator::evaluate`] of the state's rails
//! in label order.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use soctam_exec::check::{cases, forall, Gen};
use soctam_model::synth::{synth_soc, SynthConfig};
use soctam_model::{CoreId, Soc};
use soctam_tam::{
    DeltaCost, Evaluation, Evaluator, RailEval, SiGroupSpec, SwapState, TestRail,
    TestRailArchitecture,
};

/// A random SOC of `3..=8` cores with modest wrapper geometry.
fn random_soc(g: &mut Gen) -> Soc {
    let cores = g.usize_in(3, 9);
    synth_soc(
        &SynthConfig {
            inputs: (1, 16),
            outputs: (1, 16),
            scan_chain_count: (1, 4),
            scan_chain_len: (2, 40),
            patterns: (3, 50),
            ..SynthConfig::new(cores)
        }
        .with_seed(g.u64_in(0, u64::MAX)),
    )
    .expect("valid soc")
}

/// A random partition of the SOC's cores into rails with random widths.
fn random_rails(g: &mut Gen, soc: &Soc, max_width: u32) -> Vec<TestRail> {
    let n_rails = g.usize_in(1, soc.num_cores().min(4) + 1);
    let mut buckets: Vec<Vec<CoreId>> = vec![Vec::new(); n_rails];
    for core in soc.core_ids() {
        let r = g.usize_in(0, n_rails);
        buckets[r].push(core);
    }
    buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|cores| TestRail::new(cores, g.u32_in(1, max_width + 1)).expect("valid rail"))
        .collect()
}

/// `1..=3` random SI test groups over random core subsets.
fn random_groups(g: &mut Gen, soc: &Soc) -> Vec<SiGroupSpec> {
    let n = g.usize_in(1, 4);
    (0..n)
        .map(|_| {
            let cores: Vec<CoreId> = soc.core_ids().filter(|_| g.bool_with(0.6)).collect();
            let cores = if cores.is_empty() {
                soc.core_ids().collect()
            } else {
                cores
            };
            SiGroupSpec::new(cores, g.u64_in(1, 80))
        })
        .collect()
}

/// The cost summary an assembled evaluation implies.
fn cost_of(eval: &Evaluation) -> DeltaCost {
    DeltaCost {
        t_in: eval.t_in,
        t_si: eval.t_si,
        rail_used_sum: eval
            .rail_time_used()
            .iter()
            .fold(0u64, |acc, &u| acc.saturating_add(u)),
    }
}

/// A random live label of `labels`.
fn live_label(g: &mut Gen, labels: &[Option<TestRail>]) -> usize {
    let live: Vec<usize> = (0..labels.len()).filter(|&j| labels[j].is_some()).collect();
    live[g.usize_in(0, live.len())]
}

/// The state's rails in label order, holes skipped.
fn rail_list(labels: &[Option<TestRail>]) -> Vec<TestRail> {
    labels.iter().flatten().cloned().collect()
}

/// The component of `label`'s rail, sourced from an evaluation of the
/// architecture it belongs to.
fn component(eval: &Evaluation, labels: &[Option<TestRail>], label: usize) -> Arc<RailEval> {
    let pos = labels[..label].iter().flatten().count();
    Arc::clone(&eval.rail_evals[pos])
}

#[test]
fn move_sequences_match_fresh_evaluation() {
    forall("swap_state_vs_full", cases(60), |g| {
        let soc = random_soc(g);
        let max_width = 8;
        let groups = random_groups(g, &soc);
        let evaluator = Evaluator::new(&soc, max_width, groups.clone()).expect("valid");
        let referee = Evaluator::new(&soc, max_width, groups).expect("valid");
        let evaluate = |ev: &Evaluator<'_>, rails: Vec<TestRail>| {
            ev.evaluate(&TestRailArchitecture::new(&soc, rails).expect("valid"))
        };
        let mut labels: Vec<Option<TestRail>> = random_rails(g, &soc, max_width)
            .into_iter()
            .map(Some)
            .collect();
        let mut st: SwapState = evaluator.swap_state(&evaluate(&evaluator, rail_list(&labels)));

        for _ in 0..g.usize_in(1, 7) {
            let live = labels.iter().flatten().count();
            let kind = g.usize_in(0, 3);
            let mut swaps: Vec<(usize, Option<Arc<RailEval>>)> = Vec::new();
            let mut next = labels.clone();
            if kind == 1 && live >= 2 {
                // Merge two rails: both partners leave holes and the
                // merged rail is appended, or it keeps one partner's
                // label.
                let a = live_label(g, &labels);
                let b = loop {
                    let b = live_label(g, &labels);
                    if b != a {
                        break b;
                    }
                };
                let merged = labels[a]
                    .as_ref()
                    .unwrap()
                    .merged(labels[b].as_ref().unwrap(), g.u32_in(1, max_width + 1))
                    .expect("valid");
                let label = if g.bool_with(0.5) { next.len() } else { a };
                next[a] = None;
                next[b] = None;
                if label == next.len() {
                    next.push(None);
                }
                next[label] = Some(merged);
                let target = evaluate(&evaluator, rail_list(&next));
                for j in [a, b, label] {
                    if swaps.iter().all(|&(s, _)| s != j) {
                        swaps.push((j, next[j].as_ref().map(|_| component(&target, &next, j))));
                    }
                }
            } else if kind == 2 && live >= 2 {
                // Move one core between two rails.
                let src = live_label(g, &labels);
                let dst = loop {
                    let d = live_label(g, &labels);
                    if d != src {
                        break d;
                    }
                };
                let from = labels[src].clone().unwrap();
                if from.cores().len() < 2 {
                    continue;
                }
                let core = from.cores()[g.usize_in(0, from.cores().len())];
                let kept: Vec<CoreId> = from
                    .cores()
                    .iter()
                    .copied()
                    .filter(|&c| c != core)
                    .collect();
                let to = labels[dst].clone().unwrap();
                let mut grown = to.cores().to_vec();
                grown.push(core);
                next[src] = Some(TestRail::new(kept, from.width()).expect("valid"));
                next[dst] = Some(TestRail::new(grown, to.width()).expect("valid"));
                let target = evaluate(&evaluator, rail_list(&next));
                for j in [src, dst] {
                    swaps.push((j, Some(component(&target, &next, j))));
                }
            } else {
                // Swap one rail's width.
                let r = live_label(g, &labels);
                let w = g.u32_in(1, max_width + 1);
                next[r] = Some(labels[r].as_ref().unwrap().with_width(w).expect("valid"));
                let target = evaluate(&evaluator, rail_list(&next));
                let comp = component(&target, &next, r);
                // The read-only probe prices the swap before it lands.
                assert_eq!(
                    evaluator.swap_cost(&st, r, &comp),
                    cost_of(&target),
                    "probe diverged from full evaluation"
                );
                swaps.push((r, Some(comp)));
            }
            evaluator.swap_apply(&mut st, &swaps);
            labels = next;

            let fresh = evaluate(&referee, rail_list(&labels));
            assert_eq!(st.cost(), cost_of(&fresh), "state cost diverged");
            assert_eq!((st.t_in(), st.t_si()), (fresh.t_in, fresh.t_si));
            assert_eq!(evaluator.readout(&st), fresh, "readout diverged");
            for (j, rail) in labels.iter().enumerate() {
                assert_eq!(
                    st.component(j).map(|c| c.width),
                    rail.as_ref().map(TestRail::width),
                    "label {j} out of step"
                );
            }
        }
    });
}

#[test]
fn seeded_state_reads_out_its_evaluation() {
    forall("swap_state_seed", cases(60), |g| {
        let soc = random_soc(g);
        let groups = random_groups(g, &soc);
        let evaluator = Evaluator::new(&soc, 8, groups).expect("valid");
        let rails = random_rails(g, &soc, 8);
        let eval = evaluator.evaluate(&TestRailArchitecture::new(&soc, rails).expect("valid"));
        let st = evaluator.swap_state(&eval);
        assert_eq!(st.cost(), cost_of(&eval));
        assert_eq!(evaluator.readout(&st), eval);
    });
}
