//! `ditto-figs`: regenerates the paper's tables and figures by name. See
//! `bench::figs` for the table and the command line.

use std::process::ExitCode;

use bench::figs::{self, Command};
use ditto_core::telemetry;

fn main() -> ExitCode {
    match figs::parse(std::env::args().skip(1)) {
        Ok(Command::List) => print!("{}", figs::list()),
        Ok(Command::Run(config, entries)) => {
            // Resolve telemetry before any compute so the probe gates are
            // on, and drain its sinks (DITTO_OBS_STREAM / DITTO_TRACE_FILE)
            // after the last entry so the stream is complete on disk.
            telemetry::init();
            for (_, run) in entries.iter().flat_map(|e| e.runs) {
                run(config);
            }
            telemetry::flush();
        }
        Err(e) => {
            eprintln!("ditto-figs: {e}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
