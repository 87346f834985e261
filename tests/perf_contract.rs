//! Tier-1 builds the frozen benchmark.
//!
//! `perf/` is a workspace of its own, so nothing else in `cargo test`
//! compiles it, and it is frozen: a PR that claims a gain may not edit
//! it. It compiles against public items of `net`/`core`/`nf` by name, so
//! an API change that strands one of them, or a datapath change that
//! trips one of its invariant checks, has to fail here, not in the
//! pipeline's benchmark step after the PR is finished.

use std::process::Command;

#[test]
fn the_frozen_benchmark_builds_and_passes_its_smoke_run() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/perf/Cargo.toml");
    let out = Command::new(env!("CARGO"))
        .args([
            "test",
            "--release",
            "--offline",
            "--manifest-path",
            manifest,
        ])
        // Its own workspace builds into its own `perf/target`, wherever
        // this run was told to build.
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "`cargo test --release --offline --manifest-path perf/Cargo.toml` failed\n\
         --- stdout\n{}\n--- stderr\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
