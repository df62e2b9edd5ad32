//! The `ditto-figs` table: every table, figure, ablation and
//! extension this repository regenerates, one row each.
//!
//! ```text
//! ditto-figs [--scale tiny|small] <name>…|all|list
//! ```
//!
//! | argument | meaning |
//! |----------|---------|
//! | `<name>` | run that row of [`TABLE`]; several names run in the order given |
//! | `all` | run the paper's evaluation (every row marked `in_all`) in table order |
//! | `list` | print the table |
//! | `--scale tiny\|small` | the model scale every row traces and simulates at (default `small`, the paper's experiment scale; `tiny` is the smoke scale) |
//! | `table2 <n>` | Table II's samples per model (default [`DEFAULT_SAMPLES`]) |
//!
//! Every row prints the rows and series the paper reports, most with the
//! paper's own numbers in a closing `(paper: …)` line. The traces and
//! similarity reports behind them come from the content-addressed cache
//! ([`crate::store`]); a name runs in one process with every other name
//! on the same command line, so the warm [`crate::Suite`] is loaded once.

use diffusion::ModelScale;

use crate::report::Table;
use crate::sweep::parse_scale;
use crate::{ablations, experiments};

/// Table II's samples per model unless the command line gives a count.
pub const DEFAULT_SAMPLES: usize = 3;

/// What every row runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// The model scale traced and simulated.
    pub scale: ModelScale,
    /// Table II's samples per model.
    pub samples: usize,
}

/// One experiment function a row calls.
pub type Run = fn(Config);

/// One row of [`TABLE`].
pub struct Entry {
    /// The name on the command line.
    pub name: &'static str,
    /// What it regenerates.
    pub artifact: &'static str,
    /// The experiment functions it calls, in order, each by its name in
    /// [`experiments`] or [`ablations`].
    pub runs: &'static [(&'static str, Run)],
    /// Whether `all` runs it.
    pub in_all: bool,
}

/// Every row, in paper order: the evaluation's tables and figures, then
/// the ablations and extensions.
pub const TABLE: &[Entry] = &[
    Entry {
        name: "table1",
        artifact: "Table I: evaluated models, datasets and samplers",
        runs: &[("table1", |c| experiments::table1(c.scale))],
        in_all: true,
    },
    Entry {
        name: "fig03",
        artifact: "Fig. 3: temporal and spatial cosine similarity",
        runs: &[
            ("fig03a", |c| experiments::fig03a(c.scale)),
            ("fig03b", |c| experiments::fig03b(c.scale)),
        ],
        in_all: true,
    },
    Entry {
        name: "fig04",
        artifact: "Fig. 4: value ranges of activations and temporal differences",
        runs: &[
            ("fig04a", |c| experiments::fig04a(c.scale)),
            ("fig04b", |c| experiments::fig04b(c.scale)),
        ],
        in_all: true,
    },
    Entry {
        name: "fig05",
        artifact: "Fig. 5: bit-width requirement",
        runs: &[("fig05", |c| experiments::fig05(c.scale))],
        in_all: true,
    },
    Entry {
        name: "fig06",
        artifact: "Fig. 6: relative BOPs, per model and per step",
        runs: &[
            ("fig06a", |c| experiments::fig06a(c.scale)),
            ("fig06b", |c| experiments::fig06b(c.scale)),
        ],
        in_all: true,
    },
    Entry {
        name: "fig07",
        artifact: "Fig. 7: worked example on the behavioral datapath",
        runs: &[("fig07", |_| experiments::fig07())],
        in_all: false,
    },
    Entry {
        name: "fig08",
        artifact: "Fig. 8: memory accesses of naive temporal differences",
        runs: &[("fig08", |c| experiments::fig08(c.scale))],
        in_all: true,
    },
    Entry {
        name: "table2",
        artifact: "Table II: generation quality, FP32 vs Ditto (proxy metrics)",
        runs: &[("table2", |c| experiments::table2(c.scale, c.samples))],
        in_all: true,
    },
    Entry {
        name: "table3",
        artifact: "Table III: hardware configurations",
        runs: &[("table3", |_| experiments::table3())],
        in_all: true,
    },
    Entry {
        name: "fig13",
        artifact: "Fig. 13: speedup and energy vs ITC",
        runs: &[("fig13", |c| experiments::fig13(c.scale))],
        in_all: true,
    },
    Entry {
        name: "fig14",
        artifact: "Fig. 14: relative memory accesses",
        runs: &[("fig14", |c| experiments::fig14(c.scale))],
        in_all: true,
    },
    Entry {
        name: "fig15",
        artifact: "Fig. 15: software techniques cross-applied",
        runs: &[("fig15", |c| experiments::fig15(c.scale))],
        in_all: true,
    },
    Entry {
        name: "fig16",
        artifact: "Fig. 16: cycle breakdown of the hardware ablations",
        runs: &[("fig16", |c| experiments::fig16(c.scale))],
        in_all: true,
    },
    Entry {
        name: "fig17",
        artifact: "Fig. 17: Defo execution-type changes and accuracy",
        runs: &[("fig17", |c| experiments::fig17(c.scale))],
        in_all: true,
    },
    Entry {
        name: "fig18",
        artifact: "Fig. 18: Ditto vs Ideal-Ditto",
        runs: &[("fig18", |c| experiments::fig18(c.scale))],
        in_all: true,
    },
    Entry {
        name: "fig19",
        artifact: "Fig. 19: Dynamic-Ditto under value drift",
        runs: &[("fig19", |c| experiments::fig19(c.scale))],
        in_all: true,
    },
    Entry {
        name: "ablation-bandwidth",
        artifact: "Ablation A1: DRAM bandwidth sensitivity (SDM)",
        runs: &[("bandwidth", |c| ablations::bandwidth(c.scale))],
        in_all: false,
    },
    Entry {
        name: "ablation-quant",
        artifact: "Ablation A2: calibration granularity (DDPM)",
        runs: &[("quantization", |c| ablations::quantization(c.scale))],
        in_all: false,
    },
    Entry {
        name: "ablation-pipeline",
        artifact: "Ablation A3: analytic bound vs tile pipeline (SDM)",
        runs: &[("pipeline_fidelity", |c| ablations::pipeline_fidelity(c.scale))],
        in_all: false,
    },
    Entry {
        name: "ext-cfg",
        artifact: "Extension E1: classifier-free guidance (IMG)",
        runs: &[("classifier_free_guidance", |c| ablations::classifier_free_guidance(c.scale))],
        in_all: false,
    },
    Entry {
        name: "ext-hierarchy",
        artifact: "Extension E2: resolution-hierarchy UNet",
        runs: &[("hierarchy", |c| ablations::hierarchy(c.scale))],
        in_all: false,
    },
];

/// What a command line asks for.
pub enum Command {
    /// Print the table.
    List,
    /// Run these rows, in order, with one configuration.
    Run(Config, Vec<&'static Entry>),
}

/// The table as `list` prints it.
pub fn list() -> String {
    let mut t = Table::new(["name", "regenerates", "in `all`"]);
    for e in TABLE {
        t.row([e.name, e.artifact, if e.in_all { "yes" } else { "" }]);
    }
    t.to_markdown()
}

fn usage() -> String {
    format!("usage: ditto-figs [--scale tiny|small] <name>...|all|list\n\n{}", list())
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message for an unknown name (followed by the usage line and the
/// table), a bad or missing `--scale` value, a count that does not follow
/// `table2`, or no name at all.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut config = Config { scale: ModelScale::Small, samples: DEFAULT_SAMPLES };
    let mut names: Vec<String> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--scale" {
            let value = args.next().ok_or("`--scale` needs a value: `tiny` or `small`")?;
            config.scale = parse_scale(&value)?;
        } else if let Ok(samples) = arg.parse::<usize>() {
            if names.last().map(String::as_str) != Some("table2") {
                return Err(format!("`{arg}` must follow `table2` (its samples per model)"));
            }
            config.samples = samples;
        } else {
            names.push(arg);
        }
    }
    if names == ["list"] {
        return Ok(Command::List);
    }
    if names.is_empty() {
        return Err(usage());
    }
    let mut entries = Vec::new();
    for name in &names {
        match name.as_str() {
            "all" => entries.extend(TABLE.iter().filter(|e| e.in_all)),
            _ => match TABLE.iter().find(|e| e.name == name) {
                Some(e) => entries.push(e),
                None => return Err(format!("unknown name `{name}`\n{}", usage())),
            },
        }
    }
    Ok(Command::Run(config, entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    fn run(args: &[&str]) -> (Config, Vec<&'static str>) {
        match parse_strs(args) {
            Ok(Command::Run(config, entries)) => (config, entries.iter().map(|e| e.name).collect()),
            _ => panic!("{args:?} does not parse as a run"),
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::BTreeSet<&str> =
            TABLE.iter().map(|e| e.name).chain(["all", "list"]).collect();
        assert_eq!(names.len(), TABLE.len() + 2, "{names:?}");
    }

    #[test]
    fn all_runs_the_eighteen_paper_experiments_in_order() {
        let Ok(Command::Run(config, entries)) = parse_strs(&["all"]) else { panic!("all") };
        let calls: Vec<&str> =
            entries.iter().flat_map(|e| e.runs.iter().map(|&(name, _)| name)).collect();
        assert_eq!(
            calls,
            [
                "table1", "fig03a", "fig03b", "fig04a", "fig04b", "fig05", "fig06a", "fig06b",
                "fig08", "table2", "table3", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
                "fig19",
            ]
        );
        assert_eq!(config, Config { scale: ModelScale::Small, samples: DEFAULT_SAMPLES });
    }

    #[test]
    fn unknown_name_is_an_error_that_lists_the_table() {
        let Err(e) = parse_strs(&["fig13", "fig99"]) else { panic!("fig99 parsed") };
        assert!(e.starts_with("unknown name `fig99`"), "{e}");
        for entry in TABLE {
            assert!(e.contains(entry.name) && e.contains(entry.artifact), "{e}");
        }
        assert!(parse_strs(&[]).is_err_and(|e| e.contains(list().as_str())));
    }

    #[test]
    fn scale_accepts_tiny_and_small_only() {
        assert_eq!(run(&["fig14"]).0.scale, ModelScale::Small);
        assert_eq!(run(&["--scale", "tiny", "fig14"]).0.scale, ModelScale::Tiny);
        assert_eq!(run(&["fig14", "--scale", "small"]).0.scale, ModelScale::Small);
        for bad in
            [&["--scale", "huge", "fig14"][..], &["--scale", "", "fig14"], &["fig14", "--scale"]]
        {
            assert!(parse_strs(bad).is_err_and(|e| e.contains("tiny")), "{bad:?}");
        }
    }

    #[test]
    fn names_run_in_the_order_given_and_table2_takes_a_count() {
        assert_eq!(run(&["fig14", "fig07", "fig13"]).1, ["fig14", "fig07", "fig13"]);
        let (config, names) = run(&["--scale", "tiny", "table2", "1"]);
        assert_eq!((config.samples, names), (1, vec!["table2"]));
        assert!(parse_strs(&["fig13", "1"]).is_err());
        assert!(parse_strs(&["1"]).is_err());
        assert!(matches!(parse_strs(&["list"]), Ok(Command::List)));
    }
}
