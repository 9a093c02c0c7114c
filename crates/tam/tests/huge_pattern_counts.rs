//! Regression: a SOC whose InTest times approach `u64::MAX` passes
//! `Soc::validate`, so the optimizer must handle it without arithmetic
//! overflow. Four cores with 585 000 000 000 000 000 patterns each make
//! every rail's `time_used` close to `u64::MAX / 4`; the sum over rails
//! that wire rebalancing uses as its secondary key used to overflow
//! (a panic in debug builds, a silently wrapped key in release builds).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam_model::parser::parse_soc;
use soctam_tam::{Evaluator, SiGroupSpec, TamOptimizer};

const H4: &str = "
SocName h4
TotalModules 5
Module 0 Level 0 Inputs 8 Outputs 8 Bidirs 0 ScanChains 0 TotalTests 0
Module 1 Level 1 Inputs 4 Outputs 3 Bidirs 0 ScanChains 2 : 8 8 TotalTests 1
Test 1 ScanUse 1 TamUse 1 Patterns 585000000000000000
Module 2 Level 1 Inputs 4 Outputs 3 Bidirs 0 ScanChains 2 : 8 8 TotalTests 1
Test 1 ScanUse 1 TamUse 1 Patterns 585000000000000000
Module 3 Level 1 Inputs 4 Outputs 3 Bidirs 0 ScanChains 2 : 8 8 TotalTests 1
Test 1 ScanUse 1 TamUse 1 Patterns 585000000000000000
Module 4 Level 1 Inputs 4 Outputs 3 Bidirs 0 ScanChains 2 : 8 8 TotalTests 1
Test 1 ScanUse 1 TamUse 1 Patterns 585000000000000000
";

#[test]
fn optimizer_survives_near_saturated_test_times() {
    let soc = parse_soc(H4).expect("parses").into_soc().expect("converts");
    assert!(soc.validate().is_empty(), "the SOC is valid input");
    let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 100)];
    let result = TamOptimizer::new(&soc, 8, groups.clone())
        .expect("valid")
        .optimize()
        .expect("optimizes");
    let arch = result.architecture();
    assert!(arch.total_width() <= 8);
    assert_eq!(
        arch.rails().iter().map(|r| r.cores().len()).sum::<usize>(),
        soc.num_cores()
    );
    assert!(result.evaluation().schedule.validate().is_empty());
    // The Evaluator referee agrees with the reported evaluation.
    let referee = Evaluator::new(&soc, 8, groups).expect("valid");
    assert_eq!(&referee.evaluate(arch), result.evaluation());
}
