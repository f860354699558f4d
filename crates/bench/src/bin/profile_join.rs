//! `profile-join`: the client's share of a join, stage by stage, at a
//! chosen table size (EXPERIMENTS.md §A17, §A20, §A21).
//!
//! `profile-join [--rows N]` (default: 32, 128, 400 and 3,200) builds the
//! welcome a late joiner receives from a table of `N` rows shaped like
//! `late_join`'s — five text columns of 6–18 bytes, 7/8 of the rows
//! complete (`workload::welcome_frame`) — and times what the client does
//! with the frame: parse it into a tape, decode the reply, adopt the image
//! into a replica, each as a median over repetitions, plus
//! `ClientCore::welcomed`, which is all of them and the drop of the tape.

use crowdfill_bench::workload::welcome_frame;
use crowdfill_server::wire::{self, Image, Reply};
use crowdfill_server::{ClientCore, WorkerClient};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median of `reps` timings of `f`, in µs.
fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64 / 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sizes: Vec<usize> = match args.iter().position(|a| a == "--rows") {
        Some(at) => vec![args
            .get(at + 1)
            .and_then(|n| n.parse().ok())
            .expect("--rows needs a count")],
        None => vec![32, 128, 400, 3_200],
    };
    println!(
        "{:>6} {:>9} {:>7} {:>9} {:>9} {:>9} {:>11}",
        "rows", "bytes", "entries", "parse_us", "decode_us", "adopt_us", "welcomed_us"
    );
    for rows in sizes {
        let reps = if rows > 1_000 { 15 } else { 101 };
        let welcome = welcome_frame(rows);
        let frame = welcome.as_bytes();
        let parse = median_us(reps, || wire::parse_frame(frame).unwrap());
        let tape = wire::parse_frame(frame).unwrap();
        let decode = median_us(reps, || Reply::decode(&tape).unwrap());
        let Ok(Reply::Welcome(_, worker, client, _, schema, Image::Table(image, log))) =
            Reply::decode(&tape)
        else {
            unreachable!("a welcome decodes as one")
        };
        let adopt = median_us(reps, || {
            WorkerClient::from_image(worker, client, Arc::clone(&schema), &image, &log)
        });
        let welcomed = median_us(reps, || ClientCore::welcomed(frame, None, None).unwrap());
        println!(
            "{rows:>6} {:>9} {:>7} {parse:>9.1} {decode:>9.1} {adopt:>9.1} {welcomed:>11.1}",
            frame.len(),
            image.entries()
        );
    }
}
