//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures (see `src/bin/`) and for the criterion benches.

#![forbid(unsafe_code)]

pub mod connscale;
pub mod overload;
pub mod progress;
pub mod recovery;
pub mod tracereport;
pub mod workload;

use crowdfill_pay::WorkerId;
use std::collections::BTreeMap;

/// Renders a simple fixed-width table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats money.
pub fn money(v: f64) -> String {
    format!("${v:.2}")
}

/// Worker label.
pub fn wname(w: WorkerId) -> String {
    format!("W{}", w.0)
}

/// Renders an ASCII line chart of one or more labelled series over a shared
/// x-range (used for the Figure 5/6 terminal renderings).
pub fn ascii_chart(series: &[(&str, &[(f64, f64)])], width: usize, height: usize) {
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for (_, pts) in series {
        for &(x, y) in *pts {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
    }
    if x0 >= x1 || y0 >= y1 {
        println!("(not enough data to chart)");
        return;
    }
    let marks = ['*', 'o', '+', 'x', '#', '@'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        // Step-interpolate between points for continuous-looking curves.
        for win in pts.windows(2).chain(std::iter::once(&pts[pts.len() - 1..])) {
            let (xa, ya) = win[0];
            let (xb, yb) = if win.len() > 1 { win[1] } else { win[0] };
            let ca = ((xa - x0) / (x1 - x0) * (width as f64 - 1.0)) as usize;
            let cb = ((xb - x0) / (x1 - x0) * (width as f64 - 1.0)) as usize;
            #[allow(clippy::needless_range_loop)] // c indexes two axes at once
            for c in ca..=cb.min(width - 1) {
                let frac = if cb > ca {
                    (c - ca) as f64 / (cb - ca) as f64
                } else {
                    0.0
                };
                let y = ya + (yb - ya) * frac;
                let r = ((y - y0) / (y1 - y0) * (height as f64 - 1.0)) as usize;
                let row = height - 1 - r.min(height - 1);
                grid[row][c] = mark;
            }
        }
    }
    println!("y: {y1:.2} (top) .. {y0:.2} (bottom)   x: {x0:.0} .. {x1:.0}");
    for row in grid {
        println!("|{}", row.into_iter().collect::<String>());
    }
    print!("legend:");
    for (si, (label, _)) in series.iter().enumerate() {
        print!("  {} {}", marks[si % marks.len()], label);
    }
    println!();
}

/// Aggregates per-worker values over runs: mean of each worker's value.
pub fn mean_by_worker(samples: &[BTreeMap<WorkerId, f64>]) -> BTreeMap<WorkerId, f64> {
    let mut sums: BTreeMap<WorkerId, (f64, usize)> = BTreeMap::new();
    for run in samples {
        for (w, v) in run {
            let e = sums.entry(*w).or_insert((0.0, 0));
            e.0 += v;
            e.1 += 1;
        }
    }
    sums.into_iter()
        .map(|(w, (s, n))| (w, s / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_by_worker_averages() {
        let a: BTreeMap<WorkerId, f64> = [(WorkerId(1), 2.0), (WorkerId(2), 4.0)].into();
        let b: BTreeMap<WorkerId, f64> = [(WorkerId(1), 4.0)].into();
        let m = mean_by_worker(&[a, b]);
        assert_eq!(m[&WorkerId(1)], 3.0);
        assert_eq!(m[&WorkerId(2)], 4.0);
    }

    #[test]
    fn money_formats() {
        assert_eq!(money(1.5), "$1.50");
    }
}
