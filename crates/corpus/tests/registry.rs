//! Registry sanity: every sample has a unique name, builds, and carries a
//! coherent ground-truth label — the contract the CLI and bench harness
//! rely on — and [`find_sample`] resolves names against one registry built
//! once per process.

use faros_corpus::{find_sample, sample_registry, Category, Sample};
use faros_kernel::event::NullObserver;
use faros_kernel::net::NetworkFabric;
use faros_replay::Scenario as _;
use std::collections::HashSet;

#[test]
fn names_are_unique_and_lookup_works() {
    let samples = sample_registry();
    assert!(samples.len() >= 140, "{}", samples.len());
    let mut seen = HashSet::new();
    for s in &samples {
        assert!(seen.insert(s.name().to_string()), "duplicate name {}", s.name());
    }
    assert!(find_sample("reflective_dll_inject").is_some());
    assert!(find_sample("jit_pulleysystem").is_some());
    assert!(find_sample("taint_bomb").is_some());
    assert!(find_sample("no_such_sample").is_none());
}

#[test]
fn category_counts_are_coherent() {
    let samples = sample_registry();
    let injecting = samples.iter().filter(|s| s.category.should_flag()).count();
    let jit = samples.iter().filter(|s| s.category == Category::Jit).count();
    // 9 mainline attacks + laundered + tainted-function-pointer
    // + capability-laundering = 12.
    assert_eq!(injecting, 12, "injecting samples");
    assert_eq!(jit, 20, "Table III workloads");
    let negatives = samples.len() - injecting;
    assert!(negatives >= 124, "FP dataset + benign + demos: {negatives}");
}

#[test]
fn every_registered_sample_builds() {
    // Building is cheap (no execution); a sample that cannot build would
    // poison the CLI and harness.
    for sample in sample_registry() {
        let fabric = NetworkFabric::new_live(sample.scenario.guest_ip());
        let mut obs = NullObserver;
        let mut obs_dyn: &mut dyn faros_kernel::event::Observer = &mut obs;
        sample
            .scenario
            .build(fabric, &mut obs_dyn)
            .unwrap_or_else(|e| panic!("{}: {e}", sample.name()));
    }
}

#[test]
fn lookups_match_a_fresh_registry() {
    let images = |s: &Sample| -> Vec<(String, Vec<u8>)> {
        s.scenario.programs().iter().map(|(p, img)| (p.clone(), img.to_bytes())).collect()
    };
    for fresh in sample_registry() {
        let found = find_sample(fresh.name()).unwrap_or_else(|| panic!("{}", fresh.name()));
        assert_eq!(found.name(), fresh.name());
        assert_eq!(found.category, fresh.category, "{}", fresh.name());
        assert_eq!(found.behaviors, fresh.behaviors, "{}", fresh.name());
        assert_eq!(images(found), images(&fresh), "{}: program images", fresh.name());
    }
}

#[test]
fn repeated_lookups_borrow_the_same_sample() {
    // Pointer identity proves the second lookup rebuilt nothing.
    let first = find_sample("process_hollowing").expect("corpus sample");
    let second = find_sample("process_hollowing").expect("corpus sample");
    assert!(std::ptr::eq(first, second));
}

#[test]
fn lookups_from_many_threads_share_one_registry() {
    // The barrier releases all four lookups together, so they race for the
    // registry whenever no other test has built it yet.
    let start = std::sync::Barrier::new(4);
    let found: Vec<&'static Sample> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    find_sample("reflective_dll_inject").expect("corpus sample")
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("lookup thread")).collect()
    });
    let here = find_sample("reflective_dll_inject").expect("corpus sample");
    for sample in found {
        assert!(std::ptr::eq(here, sample));
    }
}

const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<Sample>();
};
