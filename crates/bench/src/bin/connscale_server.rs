//! Child-process multi-collection server for the connection-scale bench.
//!
//! The 10k-connection scenario spends one file descriptor per session on
//! each side of the wire; a single process would need 20k+ against typical
//! `ulimit -n` settings. This bin hosts the server half: it builds the same
//! collection set as [`crowdfill_bench::connscale::collection_backends`],
//! binds an ephemeral port, prints `LISTENING <addr>` on stdout for the
//! parent to scrape, and serves until stdin reaches EOF (i.e. the parent
//! exits or drops the pipe), so a crashed parent can never leak the server.
//!
//! ```text
//! connscale-server --collections 128 --workers 10000 --fills 2
//! ```

use crowdfill_bench::connscale::collection_backends;
use crowdfill_server::{ServiceOptions, TcpService};
use std::io::{Read, Write};

fn usage() -> ! {
    eprintln!(
        "usage: connscale-server --collections N --workers N --fills N \
         [--shards N] [--addr HOST:PORT]"
    );
    std::process::exit(2);
}

fn main() {
    let mut collections = 16usize;
    let mut workers = 1000usize;
    let mut fills = 2usize;
    let mut shards = 0usize;
    let mut addr = "127.0.0.1:0".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |target: &mut String| match args.next() {
            Some(v) => *target = v,
            None => usage(),
        };
        let mut buf = String::new();
        match arg.as_str() {
            "--collections" => {
                take(&mut buf);
                collections = buf.parse().unwrap_or_else(|_| usage());
            }
            "--workers" => {
                take(&mut buf);
                workers = buf.parse().unwrap_or_else(|_| usage());
            }
            "--fills" => {
                take(&mut buf);
                fills = buf.parse().unwrap_or_else(|_| usage());
            }
            "--shards" => {
                take(&mut buf);
                shards = buf.parse().unwrap_or_else(|_| usage());
            }
            "--addr" => take(&mut addr),
            _ => usage(),
        }
    }
    let options = ServiceOptions {
        shards,
        ..ServiceOptions::default()
    };
    let backends = collection_backends(collections, workers, fills);
    let service =
        TcpService::start_multi(backends, &addr, options).expect("connscale-server failed to bind");
    println!("LISTENING {}", service.addr());
    std::io::stdout().flush().expect("stdout flush");

    // Serve until the parent hangs up.
    let mut sink = [0u8; 64];
    let mut stdin = std::io::stdin();
    loop {
        match stdin.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    service.stop();
}
