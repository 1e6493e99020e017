//! The traced benchmark: as `perfbench`, with a counting global
//! allocator installed so `--trace 1` can report allocation counts.

use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: detdiv_perfbench::alloc::CountingAlloc = detdiv_perfbench::alloc::CountingAlloc;

fn main() -> ExitCode {
    detdiv_perfbench::main_with(Instant::now())
}
