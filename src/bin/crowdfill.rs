//! The `crowdfill` command-line tool.
//!
//! ```text
//! crowdfill spec                      # print an example task spec (JSON)
//! crowdfill simulate [opts]           # run a simulated collection
//! crowdfill serve --spec FILE [opts]  # serve a task over TCP until fulfilled
//!                                     #   (--data-dir DIR makes it crash-safe)
//! crowdfill top --addr HOST:PORT      # live health view of a running server
//! ```
//!
//! `serve` hosts the real back-end (`TcpService`); workers connect with the
//! frame protocol documented in `crowdfill-server/src/tcp_service.rs` (see
//! `RemoteWorker` for a client implementation). The task specification file
//! uses the same JSON vocabulary the front-end store persists. `top` polls
//! the server's `health` request and redraws the report in place, like
//! `top(1)` for a collection (DESIGN.md §11).

use crowdfill::docstore::Json;
use crowdfill::prelude::*;
use crowdfill::server::wire;
use std::sync::Arc;

fn main() {
    crowdfill::obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("spec") => cmd_spec(),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        _ => {
            eprintln!(
                "usage: crowdfill <spec | simulate | serve | top> [options]\n\n\
                 spec                          print an example task spec (JSON) to stdout\n\
                 simulate [--rows N] [--seed N] [--scheme uniform|column-weighted|dual-weighted]\n\
                 serve --spec FILE [--addr HOST:PORT] [--data-dir DIR]\n\
                 top --addr HOST:PORT [--interval-ms N] [--count N] [--json]"
            );
            2
        }
    };
    std::process::exit(code);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn cmd_spec() -> i32 {
    let schema = crowdfill::sim::soccer_schema();
    let template = Template::cardinality(5);
    let spec = Json::obj([
        ("schema", wire::schema_to_json(&schema)),
        ("scoring", Json::str("quorum-majority")),
        ("template", wire::template_to_json(&template)),
        ("budget", Json::num(10.0)),
        ("scheme", Json::str("dual-weighted")),
    ]);
    println!("{}", spec.encode());
    0
}

fn parse_scheme(s: &str) -> Option<Scheme> {
    Scheme::ALL.into_iter().find(|sc| sc.name() == s)
}

fn cmd_simulate(args: &[String]) -> i32 {
    let rows: usize = flag(args, "--rows")
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    let seed: u64 = flag(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2014);
    let scheme = flag(args, "--scheme")
        .and_then(|v| parse_scheme(&v))
        .unwrap_or(Scheme::DualWeighted);
    crowdfill::obs::obs_info!(
        "cli",
        "simulating: {rows} rows, seed {seed}, {scheme} allocation"
    );
    let report = run_simulation(paper_setup(seed, rows).with_scheme(scheme));
    let schema = report.schema.clone();
    println!(
        "fulfilled: {} in {:.0}s (simulated); candidate rows {}, accuracy {:.0}%",
        report.fulfilled,
        report.elapsed.seconds(),
        report.candidate_rows,
        report.accuracy * 100.0
    );
    for r in report.final_table.rows() {
        println!("  {}", r.value.display(&schema));
    }
    println!("payout ({}):", scheme);
    for (w, amount) in &report.payout.per_worker {
        println!("  {w}: ${amount:.2}");
    }
    println!("{}", report.health_summary);
    // Populated only when OBS_TRACE enables the flight recorder.
    if !report.trace_summary.is_empty() {
        println!("{}", report.trace_summary);
    }
    if report.fulfilled {
        0
    } else {
        1
    }
}

fn load_spec(path: &str) -> Result<TaskConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let schema = wire::schema_from_json(json.get("schema").ok_or("spec missing \"schema\"")?)
        .map_err(|e| e.to_string())?;
    let template =
        wire::template_from_json(json.get("template").ok_or("spec missing \"template\"")?)
            .map_err(|e| e.to_string())?;
    let scoring: ScoringRef = match json.get("scoring").and_then(Json::as_str) {
        Some("difference") => Arc::new(crowdfill::model::Difference),
        Some("quorum-majority") | None => Arc::new(QuorumMajority::of_three()),
        Some(other) => return Err(format!("unknown scoring {other:?}")),
    };
    let budget = json.get("budget").and_then(Json::as_f64).unwrap_or(10.0);
    let scheme = json
        .get("scheme")
        .and_then(Json::as_str)
        .and_then(parse_scheme)
        .unwrap_or(Scheme::DualWeighted);
    Ok(TaskConfig::new(Arc::new(schema), scoring, template, budget).with_scheme(scheme))
}

fn cmd_serve(args: &[String]) -> i32 {
    let Some(spec_path) = flag(args, "--spec") else {
        eprintln!("serve requires --spec FILE (generate one with `crowdfill spec`)");
        return 2;
    };
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7770".to_string());
    let config = match load_spec(&spec_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let schema = Arc::clone(&config.schema);
    let backend = match flag(args, "--data-dir") {
        Some(dir) => {
            // Durable collection: recover whatever an earlier process left
            // behind; the service's durability tick checkpoints/compacts it.
            let dopts = crowdfill::server::DurabilityOptions::default();
            match crowdfill::server::open_or_recover(config, &dir, &dopts) {
                Ok(b) => {
                    crowdfill::obs::obs_info!(
                        "cli",
                        "recovered {} ops from {dir} (snapshot base {})",
                        b.history_len(),
                        b.history_base()
                    );
                    b
                }
                Err(e) => {
                    eprintln!("error: cannot open data dir {dir}: {e}");
                    return 1;
                }
            }
        }
        None => Backend::new(config),
    };
    let service = match TcpService::start(backend, &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return 1;
        }
    };
    crowdfill::obs::obs_info!(
        "cli",
        "crowdfill back-end listening on {} — collecting until constraints are fulfilled",
        service.addr()
    );
    service.wait_fulfilled();
    let backend = service.backend();
    let (final_table, _contributions, payout) = backend.lock().settle();
    crowdfill::obs::obs_info!("cli", "constraints fulfilled; final table:");
    for r in final_table.rows() {
        println!("{}", r.value.display(&schema));
    }
    eprintln!("payout:");
    for (w, amount) in &payout.per_worker {
        eprintln!("  {w}: ${amount:.2}");
    }
    service.stop();
    0
}

/// `crowdfill top`: poll a live server's `health` request and redraw the
/// rendered report in place. `--count N` stops after N refreshes (0 =
/// forever); `--json` prints one JSON report per line instead of drawing.
fn cmd_top(args: &[String]) -> i32 {
    let Some(addr) = flag(args, "--addr") else {
        eprintln!("top requires --addr HOST:PORT");
        return 2;
    };
    let addr: std::net::SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: bad --addr {addr:?}: {e}");
            return 2;
        }
    };
    let interval = std::time::Duration::from_millis(
        flag(args, "--interval-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1000),
    );
    let count: usize = flag(args, "--count")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let json = args.iter().any(|a| a == "--json");
    let mut worker = match RemoteWorker::connect(addr) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    let mut shown = 0usize;
    loop {
        let report = match worker.health() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: health request failed: {e}");
                return 1;
            }
        };
        if json {
            println!("{}", report.to_json().encode());
        } else {
            // Clear the screen and home the cursor, like top(1).
            print!("\x1b[2J\x1b[H{}", report.render());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        shown += 1;
        if count != 0 && shown >= count {
            break;
        }
        std::thread::sleep(interval);
    }
    worker.bye();
    0
}
