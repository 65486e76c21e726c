//! One seed always gives the same inputs and output digests; two
//! seeds give different inputs.

use std::path::PathBuf;

use ichannels_labbench::inputs::PassId;
use ichannels_labbench::trace::Tracer;
use ichannels_labbench::workloads::analyze_merge::AnalyzeMerge;
use ichannels_labbench::workloads::catalog_cold::CatalogCold;
use ichannels_labbench::workloads::fuzz_recurring::FuzzRecurring;
use ichannels_labbench::workloads::Workload;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Input digest of the checked pass, and the output digest of a run
/// of that pass plus the output checks.
fn digests<W: Workload>(seed: u64, tag: &str) -> (String, String) {
    let dir = scratch(&format!("{}-{seed}-{tag}", W::NAME));
    let mut w = W::setup(seed, 0, &dir, false).expect("set-up");
    let inputs = w.input_digest(PassId::CHECKED);
    let out = w
        .pass(PassId::CHECKED, &mut Tracer::new(false))
        .expect("pass");
    assert!(out.ops > 0 && out.failed == 0, "{out:?}");
    let check = w.check().expect("check");
    assert!(check.problems.is_empty(), "{:?}", check.problems);
    assert_eq!(check.failed, 0);
    std::fs::remove_dir_all(&dir).expect("remove scratch");
    (inputs, check.digest)
}

fn seed_determines_inputs_and_outputs<W: Workload>() {
    let (inputs, outputs) = digests::<W>(1, "a");
    assert_eq!((inputs.clone(), outputs), digests::<W>(1, "b"));
    let (other_inputs, _) = digests::<W>(2, "a");
    assert_ne!(inputs, other_inputs);
}

#[test]
fn catalog_cold_is_a_function_of_its_seed() {
    seed_determines_inputs_and_outputs::<CatalogCold>();
}

#[test]
fn fuzz_recurring_is_a_function_of_its_seed() {
    seed_determines_inputs_and_outputs::<FuzzRecurring>();
}

#[test]
fn analyze_merge_is_a_function_of_its_seed() {
    seed_determines_inputs_and_outputs::<AnalyzeMerge>();
}

#[test]
fn passes_of_one_run_get_different_inputs() {
    let dir = scratch("catalog-passes");
    let w = CatalogCold::setup(3, 0, &dir, false).expect("set-up");
    let second = PassId {
        index: 1,
        ..PassId::CHECKED
    };
    assert_ne!(w.input_digest(PassId::CHECKED), w.input_digest(second));
    std::fs::remove_dir_all(&dir).expect("remove scratch");
}
