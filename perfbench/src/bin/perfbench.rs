//! The end-to-end benchmark: `perfbench --workload NAME --seed N
//! --seconds N --trace 0`. Prints one JSON result line on stdout.

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    detdiv_perfbench::main_with(Instant::now())
}
