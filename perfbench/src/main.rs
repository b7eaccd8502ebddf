//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the run's provenance, per-cell verdicts and every metric by
//! name and unit, then the result object as the last line of stdout.
//! Exits 1 when a verdict is wrong, evidence fails its audit, or a count
//! that must repeat exactly did not.

use perfbench::measure::{file_fingerprint, Ledger};
use perfbench::{run, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // The repeat ledger lives beside the binary and is keyed by the
    // binary's own fingerprint: counts are compared across runs of one
    // build only.
    let exe = std::env::current_exe().expect("the running binary has a path");
    let ledger_path = exe.parent().map(|dir| {
        dir.join("perfbench-ledger")
            .join(format!("{:016x}.tsv", file_fingerprint(&exe)))
    });
    let mut ledger = Ledger::open(ledger_path);
    let result = run(&args, &mut ledger);
    if let Err(e) = ledger.save() {
        eprintln!("warning: could not save the repeat ledger: {e}");
    }
    for line in &result.lines {
        println!("{line}");
    }
    for failure in &result.failures {
        println!("FAILURE {failure}");
    }
    println!("{}", result.json_line());
    if !result.failures.is_empty() {
        std::process::exit(1);
    }
}
