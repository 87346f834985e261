//! `sprayer-bench` — every experiment and tool of the evaluation behind
//! one command line; `sprayer-bench help` prints the usage.
//!
//! An experiment is a function from [`RunArgs`] to a [`Report`]; the
//! runner owns everything around it. It parses `--quick` and `--mode`
//! once, prints the report, writes its tables as `results/<csv>.csv`,
//! and writes its telemetry document as `results/<name>_telemetry.json`
//! (`<name>_quick_telemetry.json` under `--quick`). `run --baselines`
//! reads its work list from `results/baselines/`: `X_quick_telemetry.json`
//! means `run X --quick` and `X_telemetry.json` means `run X`.
//!
//! Usage errors exit 1. A failed hard-assert inside an experiment panics
//! (exit 101): those asserts are the experiments' own correctness claims.

#![forbid(unsafe_code)]

use sprayer::config::DispatchMode;
use sprayer_bench::report::{json_array, mode_slug, Table};
use sprayer_obs::MetricsRegistry;
use std::path::Path;
use std::process::ExitCode;

mod cmd {
    pub mod blackbox;
    pub mod gate;
    pub mod top;
    pub mod trace;
}

/// An experiment: its configs and hard-asserts, run at the size `args`
/// picks.
type Experiment = fn(&RunArgs) -> Report;

/// One list makes both the private module `exp::<name>` of every
/// experiment and `EXPERIMENTS`, the `name → run` table: an experiment
/// is named by the stem its telemetry file uses.
macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        mod exp {
            $(pub mod $name;)*
        }
        const EXPERIMENTS: &[(&str, Experiment)] = &[$((stringify!($name), exp::$name::run)),*];
    };
}

experiments! {
    fig1, fig2, table1, fig6, fig7, fig8_latency, fig9,
    fig_elastic, fig_chaos, fig_health, fig_tail, fig_soak,
    ablation_checksum, ablation_dpi, ablation_redirect, ablation_subset,
    hotpath_smoke,
}

fn experiment(name: &str) -> Result<(&'static str, Experiment), String> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .copied()
        .ok_or_else(|| format!("no experiment named {name:?}"))
}

/// What `run` hands every experiment.
pub struct RunArgs {
    /// `--quick`: the small grid, seconds instead of minutes.
    pub quick: bool,
    /// Every `--mode=<m>`, in order.
    modes: Vec<DispatchMode>,
}

impl RunArgs {
    /// `quick` under `--quick`, else `full`.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The `--mode` picks, or `default` when there were none.
    pub fn modes(&self, default: &[DispatchMode]) -> Vec<DispatchMode> {
        if self.modes.is_empty() {
            default.to_vec()
        } else {
            self.modes.clone()
        }
    }
}

/// The headline of fig_elastic and fig_chaos, enforced: whenever both
/// ran, Sprayer's migrated-flow total is strictly below RSS's. Every
/// mode's total is recorded in `doc`.
pub fn migrated_totals(doc: &mut MetricsRegistry, totals: &[(DispatchMode, u64)], what: &str) {
    let total_of = |m| totals.iter().find(|(tm, _)| *tm == m).map(|(_, t)| *t);
    if let (Some(sprayer), Some(rss)) =
        (total_of(DispatchMode::Sprayer), total_of(DispatchMode::Rss))
    {
        assert!(
            sprayer < rss,
            "Sprayer {what} must migrate strictly fewer flows than RSS ({sprayer} vs {rss})"
        );
    }
    for &(mode, total) in totals {
        doc.set_u64(&format!("{}_migrated_flows_total", mode_slug(mode)), total);
    }
}

/// What an experiment hands back: its output in print order, and its
/// telemetry document.
pub struct Report {
    out: Vec<Out>,
    telemetry: Option<MetricsRegistry>,
}

enum Out {
    /// Printed, with a newline.
    Say(String),
    /// Printed as aligned text and saved as `results/<csv>.csv`.
    Table(&'static str, Table),
}

impl Report {
    /// A report that starts by printing `heading`.
    pub fn new(heading: impl Into<String>) -> Self {
        Report {
            out: vec![Out::Say(heading.into())],
            telemetry: None,
        }
    }

    /// Print `text` and a newline.
    pub fn say(&mut self, text: impl Into<String>) {
        self.out.push(Out::Say(text.into()));
    }

    /// Print `table` and save it as `results/<csv>.csv`.
    pub fn table(&mut self, csv: &'static str, table: Table) {
        self.out.push(Out::Table(csv, table));
    }

    /// The telemetry document: `doc`, then `datapoints` as its last field.
    pub fn telemetry(&mut self, mut doc: MetricsRegistry, datapoints: &[String]) {
        doc.set_raw_json("datapoints", json_array(datapoints));
        self.telemetry = Some(doc);
    }
}

/// Table headers: `first`, then `"<mode> <col>"` for every mode and,
/// within a mode, every col.
pub fn mode_headers(first: &[&str], modes: &[DispatchMode], cols: &[&str]) -> Vec<String> {
    let per_mode = modes
        .iter()
        .flat_map(|m| cols.iter().map(move |c| format!("{m} {c}")));
    first
        .iter()
        .map(|f| f.to_string())
        .chain(per_mode)
        .collect()
}

/// The words after a subcommand, consumed front to back by its parser.
pub struct Words<'a>(std::slice::Iter<'a, String>);

impl<'a> Iterator for Words<'a> {
    type Item = &'a str;
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }
}

impl<'a> Words<'a> {
    /// The word after `flag`.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The word after `flag`, parsed.
    pub fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let v = self.value(flag)?;
        v.parse().map_err(|e| format!("{flag} {v}: {e}"))
    }
}

/// A subcommand: `Ok` carries the exit code, `Err` is a usage error.
type Command = fn(Words) -> Result<u8, String>;

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: sprayer-bench <command> ...\n\n\
         \x20 run <experiment>... [--quick] [--mode=<rss|sprayer|scr>]...\n\
         \x20 run --baselines       rerun every document in results/baselines/\n\
         \x20 gate [--baselines DIR] [--results DIR] [--only NAME]\n\
         \x20 top [--secs N] [--refresh-ms N] [--workers N] [--cycles N] [--mode M]\n\
         \x20     [--elastic] [--health] [--tail] [--mem] [--plain]\n\
         \x20 blackbox <dump> [--telemetry J] [--window-ms N]\n\
         \x20 trace <file>... | --demo | --capture\n\n\
         experiments: {}\n",
        names.join(" ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = args
        .split_first()
        .map_or(("", &[][..]), |(c, r)| (c.as_str(), r));
    let command: Command = match name {
        "run" => run,
        "gate" => cmd::gate::main,
        "top" => cmd::top::main,
        "blackbox" => cmd::blackbox::main,
        "trace" => cmd::trace::main,
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => {
            eprint!("sprayer-bench: unknown command {other:?}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match command(Words(rest.iter())) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprint!("sprayer-bench {name}: {e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// An experiment to run, and its `--quick` when the job fixes it.
type Job = ((&'static str, Experiment), Option<bool>);

fn run(words: Words) -> Result<u8, String> {
    let (mut quick, mut modes, mut jobs) = (false, Vec::new(), Vec::<Job>::new());
    for w in words {
        match w {
            "--quick" => quick = true,
            "--baselines" => jobs.extend(baseline_jobs()?),
            _ if w.starts_with("--mode=") => {
                modes.push(w["--mode=".len()..].parse().map_err(|e| format!("{e}"))?)
            }
            _ if w.starts_with('-') => return Err(format!("unknown option {w}")),
            _ => jobs.push((experiment(w)?, None)),
        }
    }
    if jobs.is_empty() {
        return Err("name an experiment, or --baselines".to_string());
    }
    for ((name, exp), fixed) in jobs {
        let args = RunArgs {
            quick: fixed.unwrap_or(quick),
            modes: modes.clone(),
        };
        publish(name, &args, exp(&args))?;
    }
    Ok(0)
}

/// One job per document in `results/baselines/`, checked before any runs.
fn baseline_jobs() -> Result<Vec<Job>, String> {
    let stems = json_stems(Path::new("results/baselines"))?;
    if stems.is_empty() {
        return Err("results/baselines/ holds no *.json".to_string());
    }
    stems
        .iter()
        .map(|stem| {
            let name = stem.strip_suffix("_telemetry").unwrap_or(stem);
            let quick = name.strip_suffix("_quick");
            experiment(quick.unwrap_or(name))
                .map(|exp| (exp, Some(quick.is_some())))
                .map_err(|e| format!("results/baselines/{stem}.json: {e}"))
        })
        .collect()
}

/// Print `report` and write its files.
fn publish(name: &str, args: &RunArgs, report: Report) -> Result<(), String> {
    let results = Path::new("results");
    for out in report.out {
        match out {
            Out::Say(text) => println!("{text}"),
            Out::Table(csv, table) => {
                println!("{}", table.render());
                save(&results.join(format!("{csv}.csv")), &table.to_csv())?;
            }
        }
    }
    if let Some(doc) = report.telemetry {
        let quick = args.pick("_quick", "");
        save(
            &results.join(format!("{name}{quick}_telemetry.json")),
            &doc.to_json(),
        )?;
    }
    Ok(())
}

/// Write `text` to `path`, creating its directory, and say so.
pub fn save(path: &Path, text: &str) -> Result<(), String> {
    path.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("[saved {}]", path.display());
    Ok(())
}

/// The stems of the `*.json` files in `dir`, sorted.
pub fn json_stems(dir: &Path) -> Result<Vec<String>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut stems: Vec<String> = entries
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "json").then_some(p.file_stem()?.to_str()?.to_string())
        })
        .collect();
    stems.sort();
    Ok(stems)
}
