//! The randomized SI pattern recipe of the paper's experiments (Section 5).

use soctam_exec::{Pool, Rng};

use soctam_model::{BusLineId, Soc, TerminalId};

use crate::{PatternError, SiPattern, Symbol};

/// Configuration for [`generate_random`] /
/// [`SiPatternSet::random`](crate::SiPatternSet::random).
///
/// Defaults reproduce the paper's setup: `N_a ∈ [2, 6]` aggressors per
/// pattern, at most two aggressors outside the victim core boundary, a
/// 32-bit shared bus used by 50 % of the patterns with `1..=N_a` occupied
/// postfix bits. Internal aggressors are drawn from a ±4-terminal locality
/// window around the victim (crosstalk couples neighbouring interconnects;
/// the paper's reduced-MT discussion uses `k = 3`).
///
/// # Example
///
/// ```
/// use soctam_patterns::RandomPatternConfig;
///
/// let config = RandomPatternConfig::new(10_000).with_seed(42);
/// assert_eq!(config.count, 10_000);
/// assert_eq!(config.bus_lines, 32);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RandomPatternConfig {
    /// Number of patterns to generate (the paper's `N_r`).
    pub count: usize,
    /// RNG seed; equal seeds over equal SOCs produce equal sets.
    pub seed: u64,
    /// Minimum aggressors per pattern (inclusive).
    pub min_aggressors: u32,
    /// Maximum aggressors per pattern (inclusive).
    pub max_aggressors: u32,
    /// At most this many aggressors outside the victim core boundary.
    pub max_external_aggressors: u32,
    /// Locality window for aggressors inside the victim core: internal
    /// aggressors are drawn from the terminals within this distance of the
    /// victim (crosstalk couples neighbouring lines; compare the reduced-MT
    /// locality factor `k`). `None` draws them uniformly from the whole
    /// core boundary.
    pub locality: Option<u32>,
    /// Width of the shared functional bus (0 disables the bus postfix).
    pub bus_lines: u8,
    /// Probability that a pattern occupies bus lines.
    pub bus_probability: f64,
}

impl RandomPatternConfig {
    /// Creates the paper's default configuration for `count` patterns.
    pub fn new(count: usize) -> Self {
        RandomPatternConfig {
            count,
            seed: 0,
            min_aggressors: 2,
            max_aggressors: 6,
            max_external_aggressors: 2,
            locality: Some(4),
            bus_lines: 32,
            bus_probability: 0.5,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self, soc: &Soc) -> Result<(), PatternError> {
        if self.min_aggressors == 0 || self.min_aggressors > self.max_aggressors {
            return Err(PatternError::InvalidConfig {
                message: format!(
                    "aggressor range {}..={} is empty or starts at zero",
                    self.min_aggressors, self.max_aggressors
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.bus_probability) {
            return Err(PatternError::InvalidConfig {
                message: format!("bus probability {} outside [0, 1]", self.bus_probability),
            });
        }
        // Need a victim plus at least min_aggressors distinct terminals.
        let required = 1 + self.min_aggressors;
        if soc.total_wocs() < required {
            return Err(PatternError::NotEnoughTerminals {
                required,
                available: soc.total_wocs(),
            });
        }
        Ok(())
    }
}

/// Generates `config.count` random SI patterns over `soc`'s terminal space.
///
/// Each pattern has one victim terminal (any of the four symbols) and
/// `N_a` aggressor terminals (transitions), with at most
/// `config.max_external_aggressors` aggressors outside the victim core
/// boundary — if the victim core has too few terminals, the pattern may
/// end up with fewer aggressors than drawn, but the external bound is
/// never exceeded. With probability `config.bus_probability` the pattern
/// additionally occupies `1..=N_a` random bus lines, driven from the
/// victim core's boundary.
///
/// # Errors
///
/// Returns [`PatternError::InvalidConfig`] for inconsistent configurations
/// and [`PatternError::NotEnoughTerminals`] when the SOC's terminal space
/// cannot host a victim plus the minimum aggressors.
pub fn generate_random(
    soc: &Soc,
    config: &RandomPatternConfig,
) -> Result<Vec<SiPattern>, PatternError> {
    soctam_exec::fault::check("patterns.generate.random")?;
    config.validate(soc)?;
    Ok((0..config.count)
        .map(|i| generate_one(soc, config, i as u64))
        .collect())
}

/// As [`generate_random`], generating patterns in parallel on `pool`.
///
/// Pattern `i` is produced from its own PRNG stream derived from
/// `(config.seed, i)`, so the output is **bit-identical** to the serial
/// [`generate_random`] for any pool size.
///
/// # Errors
///
/// Same as [`generate_random`].
pub fn generate_random_with(
    soc: &Soc,
    config: &RandomPatternConfig,
    pool: &Pool,
) -> Result<Vec<SiPattern>, PatternError> {
    soctam_exec::fault::check("patterns.generate.random")?;
    config.validate(soc)?;
    Ok(pool.par_map_index(config.count, |i| generate_one(soc, config, i as u64)))
}

/// Generates pattern `index` of the set: one victim plus aggressors and
/// an optional bus postfix, all drawn from the stream derived from
/// `(config.seed, index)`.
// Invariant: draws are range-clipped and deduplicated before construction, so lookups and `SiPattern::new` cannot fail.
#[allow(clippy::expect_used)]
fn generate_one(soc: &Soc, config: &RandomPatternConfig, index: u64) -> SiPattern {
    let mut rng = Rng::derive(config.seed, index);
    let total = soc.total_wocs();

    let victim = TerminalId::new(rng.range_u32(0, total));
    let victim_core = soc.owner(victim).expect("victim in range");
    let victim_range = soc.terminal_range(victim_core);
    // Internal aggressors come from the locality window around the
    // victim, clipped to the victim core's boundary.
    let window = match config.locality {
        Some(k) => {
            victim.raw().saturating_sub(k).max(victim_range.start)
                ..(victim.raw() + k + 1).min(victim_range.end)
        }
        None => victim_range.clone(),
    };
    let internal_pool = (window.end - window.start - 1) as usize;
    let external_pool = (total - (victim_range.end - victim_range.start)) as usize;

    let na = rng.range_u32_inclusive(config.min_aggressors, config.max_aggressors) as usize;
    let max_ext = (config.max_external_aggressors as usize).min(external_pool);
    // Draw the external share, then force enough externals to cover
    // whatever the victim core cannot host internally.
    let drawn_ext = rng.range_usize_inclusive(0, max_ext.min(na));
    let needed_ext = na.saturating_sub(internal_pool).min(max_ext);
    let n_ext = drawn_ext.max(needed_ext);
    let n_int = (na - n_ext).min(internal_pool);

    let mut care = Vec::with_capacity(1 + n_int + n_ext);
    care.push((victim, Symbol::ALL[rng.index(4)]));

    sample_distinct(&mut rng, n_int, |r| {
        let t = r.range_u32(window.start, window.end);
        (t != victim.raw()).then_some(t)
    })
    .into_iter()
    .for_each(|t| care.push((TerminalId::new(t), Symbol::TRANSITIONS[rng.index(2)])));

    sample_distinct(&mut rng, n_ext, |r| {
        let t = r.range_u32(0, total);
        (!(victim_range.start..victim_range.end).contains(&t)).then_some(t)
    })
    .into_iter()
    .for_each(|t| care.push((TerminalId::new(t), Symbol::TRANSITIONS[rng.index(2)])));

    let bus = if config.bus_lines > 0 && rng.chance(config.bus_probability) {
        let occupied = rng
            .range_usize_inclusive(1, na.max(1))
            .min(config.bus_lines as usize);
        sample_distinct(&mut rng, occupied, |r| {
            Some(r.range_u32(0, u32::from(config.bus_lines)))
        })
        .into_iter()
        .map(|line| (BusLineId::new(line as u8), victim_core))
        .collect()
    } else {
        Vec::new()
    };

    // Duplicate draws were filtered, so construction cannot conflict.
    SiPattern::new(care, bus).expect("draws are distinct")
}

/// Draws `count` distinct values via rejection sampling. `draw` may return
/// `None` to veto a candidate (used to exclude the victim / core range).
fn sample_distinct(
    rng: &mut Rng,
    count: usize,
    mut draw: impl FnMut(&mut Rng) -> Option<u32>,
) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::with_capacity(count);
    let mut attempts = 0usize;
    while out.len() < count {
        attempts += 1;
        // The pools are always large relative to the <=6 samples needed, so
        // rejection converges fast; the cap guards against misuse.
        assert!(
            attempts < 10_000,
            "rejection sampling failed to find {count} distinct values"
        );
        if let Some(v) = draw(rng) {
            if !out.contains(&v) {
                out.push(v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_model::{Benchmark, CoreSpec};

    fn soc() -> Soc {
        Benchmark::D695.soc()
    }

    #[test]
    fn generates_requested_count() {
        let set = generate_random(&soc(), &RandomPatternConfig::new(500)).expect("valid");
        assert_eq!(set.len(), 500);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = RandomPatternConfig::new(200).with_seed(11);
        let a = generate_random(&soc(), &cfg).expect("valid");
        let b = generate_random(&soc(), &cfg).expect("valid");
        assert_eq!(a, b);
        let c =
            generate_random(&soc(), &RandomPatternConfig::new(200).with_seed(12)).expect("valid");
        assert_ne!(a, c);
    }

    #[test]
    fn external_aggressor_bound_holds() {
        let soc = soc();
        let cfg = RandomPatternConfig::new(2_000).with_seed(3);
        for p in generate_random(&soc, &cfg).expect("valid") {
            // The victim is the first care bit pushed, but care bits are
            // sorted afterwards; recover the victim as... any core: count
            // care cores other than the most frequent one.
            let mut per_core = std::collections::BTreeMap::new();
            for &(t, _) in p.care_bits() {
                *per_core
                    .entry(soc.owner(t).expect("in range"))
                    .or_insert(0u32) += 1;
            }
            let max_in_one_core = per_core.values().copied().max().unwrap_or(0);
            let total: u32 = per_core.values().sum();
            assert!(
                total - max_in_one_core <= cfg.max_external_aggressors,
                "more than {} aggressors outside the dominant core",
                cfg.max_external_aggressors
            );
        }
    }

    #[test]
    fn aggressor_count_in_range() {
        let cfg = RandomPatternConfig::new(1_000).with_seed(5);
        for p in generate_random(&soc(), &cfg).expect("valid") {
            let n = p.care_bits().len() - 1;
            assert!(n <= cfg.max_aggressors as usize);
            assert!(n >= 1, "at least one aggressor survives clamping");
        }
    }

    #[test]
    fn bus_usage_frequency_near_half() {
        let cfg = RandomPatternConfig::new(4_000).with_seed(9);
        let patterns = generate_random(&soc(), &cfg).expect("valid");
        let with_bus = patterns
            .iter()
            .filter(|p| !p.bus_lines().is_empty())
            .count();
        let frac = with_bus as f64 / patterns.len() as f64;
        assert!((0.45..0.55).contains(&frac), "bus fraction {frac}");
    }

    #[test]
    fn bus_lines_respect_width_and_driver() {
        let soc = soc();
        let cfg = RandomPatternConfig {
            bus_lines: 4,
            ..RandomPatternConfig::new(1_000).with_seed(1)
        };
        for p in generate_random(&soc, &cfg).expect("valid") {
            for &(line, driver) in p.bus_lines() {
                assert!(line.raw() < 4);
                assert!(driver.index() < soc.num_cores());
            }
        }
    }

    #[test]
    fn internal_aggressors_respect_locality_window() {
        let soc = soc();
        let cfg = RandomPatternConfig {
            locality: Some(3),
            max_external_aggressors: 0,
            ..RandomPatternConfig::new(1_000).with_seed(13)
        };
        for p in generate_random(&soc, &cfg).expect("valid") {
            let terms: Vec<u32> = p.care_bits().iter().map(|&(t, _)| t.raw()).collect();
            let spread = terms.iter().max().unwrap() - terms.iter().min().unwrap();
            assert!(spread <= 6, "care bits span {spread} > 2 * locality");
        }
    }

    #[test]
    fn no_locality_spreads_over_whole_core() {
        let soc = soc();
        let cfg = RandomPatternConfig {
            locality: None,
            max_external_aggressors: 0,
            ..RandomPatternConfig::new(2_000).with_seed(13)
        };
        let wide = generate_random(&soc, &cfg)
            .expect("valid")
            .iter()
            .filter(|p| {
                let terms: Vec<u32> = p.care_bits().iter().map(|&(t, _)| t.raw()).collect();
                terms.iter().max().unwrap() - terms.iter().min().unwrap() > 8
            })
            .count();
        assert!(wide > 0, "uniform draws should sometimes span widely");
    }

    #[test]
    fn zero_bus_probability_disables_postfix() {
        let cfg = RandomPatternConfig {
            bus_probability: 0.0,
            ..RandomPatternConfig::new(300)
        };
        for p in generate_random(&soc(), &cfg).expect("valid") {
            assert!(p.bus_lines().is_empty());
        }
    }

    #[test]
    fn tiny_soc_rejected() {
        let tiny = Soc::new(
            "tiny",
            vec![CoreSpec::new("a", 1, 1, 0, vec![], 1).expect("valid")],
        )
        .expect("valid soc");
        assert!(matches!(
            generate_random(&tiny, &RandomPatternConfig::new(1)),
            Err(PatternError::NotEnoughTerminals { .. })
        ));
    }

    #[test]
    fn invalid_aggressor_range_rejected() {
        let cfg = RandomPatternConfig {
            min_aggressors: 5,
            max_aggressors: 2,
            ..RandomPatternConfig::new(1)
        };
        assert!(matches!(
            generate_random(&soc(), &cfg),
            Err(PatternError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let soc = soc();
        let cfg = RandomPatternConfig::new(777).with_seed(21);
        let serial = generate_random(&soc, &cfg).expect("valid");
        for jobs in [1, 2, 4, 8] {
            let pool = Pool::new(jobs);
            let parallel = generate_random_with(&soc, &cfg, &pool).expect("valid");
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn works_on_all_benchmarks() {
        for bench in Benchmark::ALL {
            let soc = bench.soc();
            let set =
                generate_random(&soc, &RandomPatternConfig::new(100).with_seed(2)).expect("valid");
            for p in &set {
                p.validate_for(&soc).expect("terminals in range");
            }
        }
    }
}
