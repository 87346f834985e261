//! Table 1: state scope and access pattern of the implemented NFs,
//! regenerated from the NFs' own descriptors (not transcribed).

use crate::{Report, RunArgs};

pub fn run(_: &RunArgs) -> Report {
    let mut report = Report::new(
        "== Table 1: state scope and access pattern (derived from implementations) ==\n",
    );
    report.say(sprayer_nf::render_table1());
    report.say(
        "Key observation (§3.2): every NF above except DPI only *writes* per-flow\n\
         state when connections start or finish — the property Sprayer's write\n\
         partition exploits. The audit test suite asserts this against the code.",
    );
    report
}
