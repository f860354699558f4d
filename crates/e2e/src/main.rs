//! `e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and ends with one JSON line; `e2e --selfcheck` runs every
//! workload twice and compares the halves against the bounds.

use crowdfill_e2e::metrics::end_to_end;
use crowdfill_e2e::run::{print_header, print_report, run, Budget, RunOptions, RunReport};
use crowdfill_e2e::script::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: e2e --workload <paper_mem|paper_wal|big_table|late_join> \
[--seed N] [--seconds S | --blocks N | --quick] [--trace 0|1] [--out DIR]
       e2e --selfcheck [--seed N] [--seconds S | --blocks N | --quick] [--out DIR]";

/// Blocks of a `--quick` run: enough for a warm-up block, a traced block
/// and a measured one; for tests, not for numbers.
const QUICK_BLOCKS: u64 = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    budget: Budget,
    trace: bool,
    selfcheck: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    // Build products and run files go under the cargo target directory,
    // which the repository already ignores.
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let mut args = Args {
        workload: None,
        seed: 1,
        budget: Budget::Seconds(20.0),
        trace: false,
        selfcheck: false,
        out_dir: target.join("e2e"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.budget = Budget::Seconds(s);
            }
            "--blocks" => {
                let n: u64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--blocks: {e}"))?;
                if n == 0 {
                    return Err("--blocks must be at least 1".to_string());
                }
                args.budget = Budget::Blocks(n);
            }
            "--quick" => args.budget = Budget::Blocks(QUICK_BLOCKS),
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--selfcheck" => args.selfcheck = true,
            "--out" => args.out_dir = PathBuf::from(value("a directory")?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.selfcheck == args.workload.is_some() {
        return Err("give exactly one of --workload and --selfcheck".to_string());
    }
    Ok(args)
}

/// Runs every workload twice, interleaved (A B C D A B C D), and compares
/// the two halves: an end-to-end metric that moves by more than half its
/// bound between two runs of one binary could not gate anything.
fn selfcheck(args: &Args) -> ExitCode {
    let mut rounds: Vec<Vec<RunReport>> = Vec::new();
    for round in 0..2 {
        let mut reports = Vec::new();
        for workload in Workload::ALL {
            let opts = RunOptions {
                workload,
                seed: args.seed,
                budget: args.budget,
                trace: false,
                out_dir: args.out_dir.clone(),
            };
            if round == 0 {
                print_header(&opts);
            }
            let report = run(&opts);
            print_report(&report);
            reports.push(report);
        }
        rounds.push(reports);
    }
    let mut ok = true;
    println!(
        "{:<10} {:<20} {:>12} {:>12} {:>9} {:>6}",
        "workload", "metric", "first", "second", "rel_diff", "bound"
    );
    for (first, second) in rounds[0].iter().zip(&rounds[1]) {
        ok &= first.correct && second.correct;
        for (def, (a, b)) in end_to_end()
            .iter()
            .zip(first.metrics.iter().zip(&second.metrics))
        {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let rel = (b.value - a.value).abs() / a.value.abs().max(f64::MIN_POSITIVE);
            let pass = rel <= bound / 2.0;
            ok &= pass;
            println!(
                "{:<10} {:<20} {:>12.4} {:>12.4} {:>8.2}% {:>5.0}%{}",
                first.workload.spec().name,
                def.name,
                a.value,
                b.value,
                rel * 100.0,
                bound * 100.0,
                if pass {
                    ""
                } else {
                    "  <-- over half the bound"
                }
            );
        }
    }
    println!("selfcheck: {}", if ok { "pass" } else { "FAIL" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("e2e: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck(&args);
    }
    let opts = RunOptions {
        workload: args.workload.expect("checked by parse_args"),
        seed: args.seed,
        budget: args.budget,
        trace: args.trace,
        out_dir: args.out_dir,
    };
    print_header(&opts);
    let report = run(&opts);
    print_report(&report);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
