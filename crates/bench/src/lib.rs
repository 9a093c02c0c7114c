//! Shared helpers for the timing benches. The paper's tables are not
//! built here: they are `soctam` tool runs, regenerated in
//! `EXPERIMENTS.md` by `soctam report`.

// Bench-harness crate: aborting on an impossible setup failure is the
// desired behaviour for micro-benchmarks, so the panic lints are off
// wholesale rather than per call site.
#![allow(clippy::unwrap_used, clippy::expect_used)]
// Wall-clock timing is this crate's job; it never feeds a table value.
#![allow(clippy::disallowed_methods)]

use soctam::{RandomPatternConfig, SiGroupSpec, SiPatternSet, Soc};

pub mod harness {
    //! Minimal wall-clock timing harness for the `[[bench]]` binaries
    //! (all declared `harness = false`). Dependency-free stand-in for
    //! Criterion: each benchmark runs one discarded warm-up iteration
    //! plus a fixed number of timed samples and prints min / median /
    //! mean on one line.

    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    use soctam_registry::Json;

    /// Sample count for a bench binary: `default` unless the
    /// `SOCTAM_BENCH_SAMPLES` environment variable overrides it.
    #[must_use]
    pub fn samples(default: usize) -> usize {
        std::env::var("SOCTAM_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(default)
    }

    /// Where the sample counts came from: the `SOCTAM_BENCH_SAMPLES`
    /// override when it is set to a positive integer, the binary's
    /// built-in defaults otherwise. Recorded in the JSON report so a
    /// shipped number can be traced back to how many samples backed it.
    #[must_use]
    pub fn samples_source() -> String {
        match std::env::var("SOCTAM_BENCH_SAMPLES") {
            Ok(v) if v.parse::<usize>().is_ok_and(|n| n > 0) => {
                format!("SOCTAM_BENCH_SAMPLES={v}")
            }
            _ => String::from("default"),
        }
    }

    fn measure<R>(samples: usize, mut f: impl FnMut() -> R) -> (Duration, Duration, Duration) {
        std::hint::black_box(f());
        let mut times: Vec<Duration> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed()
            })
            .collect();
        times.sort_unstable();
        let min = times[0];
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        (min, median, mean)
    }

    fn print_line(label: &str, samples: usize, min: Duration, median: Duration, mean: Duration) {
        println!(
            "{label:<48} min {min:>11.3?}  median {median:>11.3?}  mean {mean:>11.3?}  ({samples} samples)"
        );
    }

    /// Times `samples` runs of `f` (after one warm-up run) and prints a
    /// summary line. The result goes through `black_box` so the work
    /// cannot be optimised away.
    pub fn bench<R>(label: &str, samples: usize, mut f: impl FnMut() -> R) {
        let (min, median, mean) = measure(samples, &mut f);
        print_line(label, samples, min, median, mean);
    }

    #[derive(Clone, Debug)]
    struct Entry {
        label: String,
        samples: usize,
        min_ns: u128,
        median_ns: u128,
        mean_ns: u128,
    }

    /// A bench session: times and prints like [`bench()`](fn@bench), and — when the
    /// binary was invoked with `--json <path>` — additionally records
    /// every entry and writes them as a JSON report in [`finish`].
    ///
    /// [`finish`]: Session::finish
    #[derive(Debug, Default)]
    pub struct Session {
        json_path: Option<PathBuf>,
        entries: Vec<Entry>,
    }

    impl Session {
        /// Builds a session from the process arguments, honouring an
        /// optional `--json <path>` pair anywhere on the command line.
        #[must_use]
        pub fn from_args() -> Self {
            let mut args = std::env::args().skip(1);
            let mut json_path = None;
            while let Some(arg) = args.next() {
                if arg == "--json" {
                    json_path = args.next().map(PathBuf::from);
                }
            }
            Session {
                json_path,
                entries: Vec::new(),
            }
        }

        /// Times `samples` runs of `f` (one discarded warm-up first),
        /// prints the summary line and records it for the JSON report.
        pub fn bench<R>(&mut self, label: &str, samples: usize, mut f: impl FnMut() -> R) {
            let (min, median, mean) = measure(samples, &mut f);
            print_line(label, samples, min, median, mean);
            self.entries.push(Entry {
                label: label.to_string(),
                samples,
                min_ns: min.as_nanos(),
                median_ns: median.as_nanos(),
                mean_ns: mean.as_nanos(),
            });
        }

        /// Serialises the recorded entries (stable `soctam-bench/1`
        /// schema, nanosecond integers).
        #[must_use]
        pub fn to_json(&self) -> String {
            let ns = |n: u128| Json::Int(i128::try_from(n).unwrap_or(i128::MAX));
            let entries = self
                .entries
                .iter()
                .map(|e| {
                    Json::obj(vec![
                        ("label", Json::str(e.label.as_str())),
                        ("samples", Json::Int(e.samples as i128)),
                        ("min_ns", ns(e.min_ns)),
                        ("median_ns", ns(e.median_ns)),
                        ("mean_ns", ns(e.mean_ns)),
                    ])
                })
                .collect();
            let report = Json::obj(vec![
                ("schema", Json::str("soctam-bench/1")),
                ("samples_source", Json::str(samples_source())),
                ("entries", Json::Arr(entries)),
            ]);
            report.render() + "\n"
        }

        /// Writes the JSON report when `--json <path>` was given.
        ///
        /// # Panics
        ///
        /// Panics when the report file cannot be written.
        pub fn finish(self) {
            if let Some(path) = &self.json_path {
                std::fs::write(path, self.to_json()).expect("bench report is writable");
                println!("wrote {}", path.display());
            }
        }
    }
}

/// The seed of every bench input; the same as the `soctam` tools' default
/// `--seed`, so bench cells match the shipped tables (chosen once, never
/// tuned).
pub const TABLE_SEED: u64 = 2007;

/// Deterministic pattern set for micro-benchmarks.
pub fn bench_patterns(soc: &Soc, count: usize) -> SiPatternSet {
    SiPatternSet::random(soc, &RandomPatternConfig::new(count).with_seed(TABLE_SEED))
        .expect("benchmark pattern generation succeeds")
}

/// A fixed mid-size SI group set for optimizer micro-benchmarks.
pub fn bench_groups(soc: &Soc) -> Vec<SiGroupSpec> {
    let cores: Vec<_> = soc.core_ids().collect();
    let quarter = (cores.len() / 4).max(1);
    let mut groups = vec![SiGroupSpec::new(cores.clone(), 2_000)];
    for (i, chunk) in cores.chunks(quarter).enumerate() {
        groups.push(SiGroupSpec::new(chunk.to_vec(), 500 + 100 * i as u64));
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam::Benchmark;
    use soctam_registry::Json;

    #[test]
    fn session_json_is_well_formed() {
        let mut session = harness::Session::default();
        session.bench("kernel/smoke", 2, || 1 + 1);
        let json = Json::parse(&session.to_json()).expect("the report parses");
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("soctam-bench/1")
        );
        assert!(json.get("samples_source").and_then(Json::as_str).is_some());
        let entries = json
            .get("entries")
            .and_then(Json::as_arr)
            .expect("entries array");
        assert_eq!(entries.len(), 1);
        let entry = &entries[0];
        assert_eq!(
            entry.get("label").and_then(Json::as_str),
            Some("kernel/smoke")
        );
        assert_eq!(entry.get("samples").and_then(Json::as_u64), Some(2));
        for key in ["min_ns", "median_ns", "mean_ns"] {
            assert!(entry.get(key).and_then(Json::as_u64).is_some(), "{key}");
        }
    }

    #[test]
    fn bench_helpers_are_deterministic() {
        let soc = Benchmark::D695.soc();
        assert_eq!(bench_patterns(&soc, 50), bench_patterns(&soc, 50));
        assert_eq!(bench_groups(&soc), bench_groups(&soc));
    }
}
