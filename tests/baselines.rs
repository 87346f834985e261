//! The simulator baselines regenerate byte for byte.
//!
//! `results/baselines/` holds the telemetry documents the bench gate
//! diffs against. The simulator is deterministic, so on an unchanged
//! model every one of them must come back identical, not merely within
//! the gate's thresholds: this test copies them into a fresh directory,
//! runs `sprayer-bench run --baselines` there (which reruns exactly the
//! experiments those files name), and compares bytes. `hotpath_smoke`
//! measures wall clock and is exempt.
//!
//! The run is a release build: tier-1 has just built one, and a debug
//! simulator is about eleven times slower.

use std::path::Path;
use std::process::Command;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Baselines whose numbers come from a wall clock, not the simulator.
const WALL_CLOCK: [&str; 1] = ["hotpath_smoke_telemetry.json"];

#[test]
fn every_deterministic_baseline_regenerates_byte_identical() {
    let committed = Path::new(ROOT).join("results/baselines");
    let dir = std::env::temp_dir().join(format!("sprayer_baselines_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let copies = dir.join("results/baselines");
    std::fs::create_dir_all(&copies).unwrap();
    let mut names: Vec<String> = std::fs::read_dir(&committed)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    assert!(
        names.len() > WALL_CLOCK.len(),
        "no baselines in {committed:?}"
    );
    for n in &names {
        std::fs::copy(committed.join(n), copies.join(n)).unwrap();
    }

    let out = Command::new(env!("CARGO"))
        .args(["run", "--release", "--offline", "-p", "sprayer-bench"])
        .arg("--manifest-path")
        .arg(Path::new(ROOT).join("Cargo.toml"))
        .args(["--", "run", "--baselines"])
        .current_dir(&dir)
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "`sprayer-bench run --baselines` failed: {}\n--- stdout\n{}\n--- stderr\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let differing: Vec<&String> = names
        .iter()
        .filter(|n| !WALL_CLOCK.contains(&n.as_str()))
        .filter(|n| {
            let fresh = std::fs::read(dir.join("results").join(n.as_str()));
            fresh.ok() != std::fs::read(committed.join(n.as_str())).ok()
        })
        .collect();
    assert!(
        differing.is_empty(),
        "regenerated documents differ from results/baselines/: {differing:?} \
         (fresh copies are in {})",
        dir.join("results").display()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
