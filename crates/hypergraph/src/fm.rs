//! Fiduccia–Mattheyses bisection refinement with best-prefix rollback.

use crate::Hypergraph;

/// Refines a bisection in place. `caps = [cap0, cap1]` bound the part
/// weights; moves that worsen an already-satisfied cap are inadmissible,
/// while moves that shrink an overweight side are always admissible.
/// Runs up to `max_passes` FM passes, stopping early when a pass yields no
/// improvement. Returns the final cut weight.
pub(crate) fn refine(hg: &Hypergraph, side: &mut [bool], caps: [u64; 2], max_passes: u32) -> u64 {
    debug_assert_eq!(side.len(), hg.num_vertices());
    let mut cut = cut_weight(hg, side);
    for _ in 0..max_passes {
        let improvement = fm_pass(hg, side, caps, cut);
        if improvement == 0 {
            break;
        }
        cut -= improvement;
        debug_assert_eq!(cut, cut_weight(hg, side));
    }
    cut
}

/// The weighted cut of a bisection.
pub(crate) fn cut_weight(hg: &Hypergraph, side: &[bool]) -> u64 {
    let mut cut = 0;
    for e in 0..hg.num_edges() as u32 {
        let pins = hg.pins(e);
        if let Some((&first, rest)) = pins.split_first() {
            let s = side[first as usize];
            if rest.iter().any(|&v| side[v as usize] != s) {
                cut += hg.edge_weight(e);
            }
        }
    }
    cut
}

/// The gain, in units of an edge's weight, of moving one pin on side `s`
/// of an edge whose per-side pin counts are `c`: +1 when the move uncuts
/// the edge, -1 when it cuts it, 0 otherwise. Single-pin edges never
/// contribute.
fn pin_gain(c: [u32; 2], s: usize) -> i64 {
    if c[0] + c[1] < 2 {
        0
    } else if c[s] == 1 {
        1
    } else if c[1 - s] == 0 {
        -1
    } else {
        0
    }
}

/// The FM gain of moving `v` across: the summed pin gains over its
/// incident edges.
fn gain_of(hg: &Hypergraph, v: u32, side: &[bool], counts: &[[u32; 2]]) -> i64 {
    let s = usize::from(side[v as usize]);
    hg.incident_edges(v)
        .iter()
        .map(|&e| hg.edge_weight(e) as i64 * pin_gain(counts[e as usize], s))
        .sum()
}

/// One FM pass: tentatively moves every vertex once (highest gain first,
/// lowest id on ties, balance permitting), then rolls back to the best
/// prefix. Returns the cut improvement achieved (0 when the pass failed to
/// improve).
///
/// Gains are maintained by exact delta updates: a move only changes the
/// pin counts of the mover's incident edges, and each such edge shifts the
/// gain of every pin on side `x` by the change in `pin_gain(counts, x)`.
/// A move therefore costs O(Σ|e|) over the mover's edges, not the
/// O(deg · Σ|e|) of recomputing every touched pin's gain from scratch.
fn fm_pass(hg: &Hypergraph, side: &mut [bool], caps: [u64; 2], initial_cut: u64) -> u64 {
    let n = hg.num_vertices();
    let num_edges = hg.num_edges();

    // Pin counts per edge per side.
    let mut counts = vec![[0u32; 2]; num_edges];
    for e in 0..num_edges as u32 {
        for &v in hg.pins(e) {
            counts[e as usize][usize::from(side[v as usize])] += 1;
        }
    }
    let mut weights = [0u64; 2];
    for v in 0..n {
        weights[usize::from(side[v])] += hg.vertex_weight(v as u32);
    }

    let mut gains: Vec<i64> = (0..n as u32)
        .map(|v| gain_of(hg, v, side, &counts))
        .collect();
    let mut moved = vec![false; n];
    let mut sequence: Vec<u32> = Vec::with_capacity(n);
    let mut cumulative: i64 = 0;
    let mut best_cumulative: i64 = 0;
    let mut best_prefix: usize = 0;

    for _ in 0..n {
        // Select the admissible unmoved vertex with the highest gain.
        let mut chosen: Option<u32> = None;
        let mut chosen_gain = i64::MIN;
        for v in 0..n as u32 {
            if moved[v as usize] {
                continue;
            }
            let s = usize::from(side[v as usize]);
            let w = hg.vertex_weight(v);
            let admissible = weights[1 - s] + w <= caps[1 - s] || weights[s] > caps[s];
            if admissible && gains[v as usize] > chosen_gain {
                chosen = Some(v);
                chosen_gain = gains[v as usize];
            }
        }
        let Some(v) = chosen else { break };
        debug_assert_eq!(chosen_gain, gain_of(hg, v, side, &counts));

        // Apply the move, then shift the gains of the unmoved pins of every
        // incident edge whose contribution changed.
        let s = usize::from(side[v as usize]);
        moved[v as usize] = true;
        side[v as usize] = !side[v as usize];
        weights[s] -= hg.vertex_weight(v);
        weights[1 - s] += hg.vertex_weight(v);
        for &e in hg.incident_edges(v) {
            let before = counts[e as usize];
            let mut after = before;
            after[s] -= 1;
            after[1 - s] += 1;
            counts[e as usize] = after;
            let delta = [0, 1].map(|x| pin_gain(after, x) - pin_gain(before, x));
            if delta == [0, 0] {
                continue;
            }
            let w = hg.edge_weight(e) as i64;
            for &u in hg.pins(e) {
                if !moved[u as usize] {
                    gains[u as usize] += w * delta[usize::from(side[u as usize])];
                }
            }
        }

        cumulative += chosen_gain;
        sequence.push(v);
        if cumulative > best_cumulative {
            best_cumulative = cumulative;
            best_prefix = sequence.len();
        }
    }

    // Roll back every move after the best prefix.
    for &v in &sequence[best_prefix..] {
        side[v as usize] = !side[v as usize];
    }
    debug_assert!(best_cumulative >= 0);
    debug_assert_eq!(
        initial_cut as i64 - best_cumulative,
        cut_weight(hg, side) as i64
    );
    best_cumulative as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;
    use soctam_exec::Rng;

    /// The full-recompute FM pass the delta update replaced: after every
    /// move, each unmoved pin of each incident edge has its gain recomputed
    /// from scratch. Kept as the referee of `fm_pass`.
    fn fm_pass_reference(
        hg: &Hypergraph,
        side: &mut [bool],
        caps: [u64; 2],
        initial_cut: u64,
    ) -> u64 {
        let n = hg.num_vertices();
        let num_edges = hg.num_edges();

        let mut counts = vec![[0u32; 2]; num_edges];
        for e in 0..num_edges as u32 {
            for &v in hg.pins(e) {
                counts[e as usize][usize::from(side[v as usize])] += 1;
            }
        }
        let mut weights = [0u64; 2];
        for v in 0..n {
            weights[usize::from(side[v])] += hg.vertex_weight(v as u32);
        }

        let gain_of = |v: u32, side: &[bool], counts: &[[u32; 2]]| -> i64 {
            let s = usize::from(side[v as usize]);
            let mut gain = 0i64;
            for &e in hg.incident_edges(v) {
                let c = counts[e as usize];
                if c[s] + c[1 - s] < 2 {
                    continue; // single-pin edge
                }
                if c[s] == 1 {
                    gain += hg.edge_weight(e) as i64; // move uncuts the edge
                } else if c[1 - s] == 0 {
                    gain -= hg.edge_weight(e) as i64; // move cuts the edge
                }
            }
            gain
        };

        let mut gains: Vec<i64> = (0..n as u32).map(|v| gain_of(v, side, &counts)).collect();
        let mut moved = vec![false; n];
        let mut sequence: Vec<u32> = Vec::with_capacity(n);
        let mut cumulative: i64 = 0;
        let mut best_cumulative: i64 = 0;
        let mut best_prefix: usize = 0;

        for _ in 0..n {
            let mut chosen: Option<u32> = None;
            let mut chosen_gain = i64::MIN;
            for v in 0..n as u32 {
                if moved[v as usize] {
                    continue;
                }
                let s = usize::from(side[v as usize]);
                let w = hg.vertex_weight(v);
                let admissible = weights[1 - s] + w <= caps[1 - s] || weights[s] > caps[s];
                if admissible && gains[v as usize] > chosen_gain {
                    chosen = Some(v);
                    chosen_gain = gains[v as usize];
                }
            }
            let Some(v) = chosen else { break };

            let s = usize::from(side[v as usize]);
            moved[v as usize] = true;
            side[v as usize] = !side[v as usize];
            weights[s] -= hg.vertex_weight(v);
            weights[1 - s] += hg.vertex_weight(v);
            for &e in hg.incident_edges(v) {
                counts[e as usize][s] -= 1;
                counts[e as usize][1 - s] += 1;
            }
            for &e in hg.incident_edges(v) {
                for &u in hg.pins(e) {
                    if !moved[u as usize] {
                        gains[u as usize] = gain_of(u, side, &counts);
                    }
                }
            }

            cumulative += chosen_gain;
            sequence.push(v);
            if cumulative > best_cumulative {
                best_cumulative = cumulative;
                best_prefix = sequence.len();
            }
        }

        for &v in &sequence[best_prefix..] {
            side[v as usize] = !side[v as usize];
        }
        assert_eq!(
            initial_cut as i64 - best_cumulative,
            cut_weight(hg, side) as i64
        );
        best_cumulative as u64
    }

    /// A random weighted hypergraph with 2..=40 vertices and edges of 1..=8
    /// pins, including single-pin edges and runs of parallel edges.
    fn random_hypergraph(rng: &mut Rng) -> Hypergraph {
        let n = rng.range_u32_inclusive(2, 40);
        let mut b = HypergraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(rng.range_u64_inclusive(1, 9));
        }
        let mut last: Vec<u32> = vec![0];
        for _ in 0..rng.range_usize_inclusive(0, 4 * n as usize) {
            if !rng.chance(0.25) {
                let size = rng.range_u32_inclusive(1, 8.min(n));
                last = (0..size).map(|_| rng.range_u32(0, n)).collect();
            }
            b.add_edge(rng.range_u64_inclusive(1, 20), &last)
                .expect("pins are in range");
        }
        b.build()
    }

    fn clusters() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for _ in 0..8 {
            b.add_vertex(1);
        }
        b.add_edge(5, &[0, 1, 2, 3]).expect("valid");
        b.add_edge(5, &[4, 5, 6, 7]).expect("valid");
        b.add_edge(1, &[3, 4]).expect("valid");
        b.build()
    }

    #[test]
    fn refine_recovers_natural_cut_from_bad_start() {
        let hg = clusters();
        // Interleaved start: both big edges cut. Caps mirror what `bisect`
        // would compute: ceil(4 * 1.1) + max vertex weight = 6 — the one
        // unit of slack is what lets FM climb through intermediate states.
        let mut side = vec![false, true, false, true, false, true, false, true];
        let cut = refine(&hg, &mut side, [6, 6], 16);
        assert_eq!(cut, 1);
        // The two clusters are separated.
        assert_eq!(side[0], side[1]);
        assert_eq!(side[1], side[2]);
        assert_eq!(side[2], side[3]);
        assert_eq!(side[4], side[5]);
    }

    #[test]
    fn refine_respects_caps() {
        let hg = clusters();
        let mut side = vec![false, true, false, true, false, true, false, true];
        let _ = refine(&hg, &mut side, [6, 6], 16);
        let w0 = side.iter().filter(|&&s| !s).count();
        assert!(w0 <= 6 && 8 - w0 <= 6, "weights {w0}/{}", 8 - w0);
    }

    #[test]
    fn refine_never_worsens_cut() {
        let hg = clusters();
        let mut side = vec![false, false, false, false, true, true, true, true];
        let before = cut_weight(&hg, &side);
        let after = refine(&hg, &mut side, [5, 5], 16);
        assert!(after <= before);
    }

    #[test]
    fn delta_gains_match_full_recompute() {
        let mut rng = Rng::seed_from_u64(0xf1d0);
        for case in 0..3_000 {
            let hg = random_hypergraph(&mut rng);
            let n = hg.num_vertices();
            let mut side: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
            // Caps from well below the balanced share up to the total: tight
            // caps and random starts often leave a side overweight.
            let total = hg.total_vertex_weight();
            let caps = [(); 2].map(|()| rng.range_u64_inclusive(total / 3, total));
            let mut reference = side.clone();
            let mut cut = cut_weight(&hg, &side);
            for pass in 0..8 {
                let got = fm_pass(&hg, &mut side, caps, cut);
                let want = fm_pass_reference(&hg, &mut reference, caps, cut);
                assert_eq!(got, want, "case {case} pass {pass}: improvement");
                assert_eq!(side, reference, "case {case} pass {pass}: sides");
                if got == 0 {
                    break;
                }
                cut -= got;
            }
        }
    }

    #[test]
    fn cut_weight_on_uniform_side_is_zero() {
        let hg = clusters();
        assert_eq!(cut_weight(&hg, &[false; 8]), 0);
    }
}
