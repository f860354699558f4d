//! The batch §5.2.1 analysis over a whole trace — how settlement worked
//! before it became a fold — kept as the oracle of the settlement
//! `Ledger`. Shared by the `pay` and `server` test suites, which include
//! this file as a module.
//!
//! It re-derives everything from the messages alone: row values, which
//! message created each row, which column each replace filled and the
//! per-worker latencies, never reading an entry's `filled` column. A
//! trace's entry `i` is history seq `i`: it must start at seq 0.

#![allow(dead_code)]

use crowdfill_model::{ColumnId, FinalTable, Message, RowId, RowValue, Value};
use crowdfill_pay::{CellContribution, CellRef, Contributions, Millis, Trace, Unit, WorkerId};
use std::collections::{HashMap, HashSet};

/// Reconstructs the value of every row id that ever existed, from insert
/// and replace messages (Lemma 1 makes this well-defined).
pub fn row_values(trace: &Trace) -> HashMap<RowId, RowValue> {
    let mut values = HashMap::new();
    for e in trace.entries() {
        match &e.msg {
            Message::Insert { row } => {
                values.insert(*row, RowValue::empty());
            }
            Message::Replace { new, value, .. } => {
                values.insert(*new, value.clone());
            }
            _ => {}
        }
    }
    values
}

/// For every row id, the trace index of the message that created it.
pub fn creators(trace: &Trace) -> HashMap<RowId, usize> {
    let mut created = HashMap::new();
    for (idx, e) in trace.entries().iter().enumerate() {
        if let Some(row) = e.msg.creates_row() {
            created.insert(row, idx);
        }
    }
    created
}

/// The column and value a replace entry filled, if it is one.
pub fn filled_cell(
    trace: &Trace,
    idx: usize,
    values: &HashMap<RowId, RowValue>,
) -> Option<(ColumnId, Value)> {
    let Message::Replace { old, value, .. } = &trace.entries()[idx].msg else {
        return None;
    };
    let col = values.get(old)?.added_column(value)?;
    Some((col, value.get(col)?.clone()))
}

/// Per-worker message latencies (paper §5.2.2): the gap to the *previous*
/// message from the same worker; a worker's first message has none.
/// Aligned with trace indexes (`None` for CC messages and first messages).
pub fn latencies(trace: &Trace) -> Vec<Option<Millis>> {
    let mut last_seen: HashMap<WorkerId, Millis> = HashMap::new();
    let mut out = Vec::with_capacity(trace.len());
    for e in trace.entries() {
        match e.worker {
            None => out.push(None),
            Some(w) => {
                let lat = last_seen.get(&w).map(|prev| prev.until(e.at));
                last_seen.insert(w, e.at);
                out.push(lat);
            }
        }
    }
    out
}

/// Runs the full §5.2.1 analysis over the trace.
pub fn analyze(trace: &Trace, final_table: &FinalTable) -> Contributions {
    let entries = trace.entries();
    let values = row_values(trace);
    let creators = creators(trace);
    let latencies = latencies(trace);
    let unit = |idx: usize| Unit {
        seq: idx as u64,
        worker: entries[idx].worker.expect("a worker's message"),
        at: entries[idx].at,
        latency: latencies[idx],
    };

    // First fill per (column, value), CC included (a CC first fill
    // suppresses indirect credit for template-seeded values).
    let mut first_fill: HashMap<(ColumnId, Value), usize> = HashMap::new();
    for idx in 0..trace.len() {
        if let Some((col, v)) = filled_cell(trace, idx, &values) {
            first_fill.entry((col, v)).or_insert(idx);
        }
    }

    // --- Direct contributions: walk each final row's lineage backwards;
    // indirect: the earliest fill of (A, v), subset of s̄. ---
    let mut cells = Vec::new();
    for frow in final_table.rows() {
        let mut cur = frow.id;
        while let Some(&idx) = creators.get(&cur) {
            match &entries[idx].msg {
                Message::Replace { old, value, .. } => {
                    let col = values
                        .get(old)
                        .and_then(|ov| ov.added_column(value))
                        .expect("replace fills exactly one column");
                    if entries[idx].worker.is_some() {
                        let value = value.get(col).expect("filled value present").clone();
                        let first = first_fill[&(col, value.clone())];
                        let indirect = match &entries[first] {
                            e if e.worker.is_none() => None, // template value: CC was first
                            e => match &e.msg {
                                Message::Replace { value: q, .. } if frow.value.subsumes(q) => {
                                    Some(unit(first))
                                }
                                _ => None,
                            },
                        };
                        cells.push(CellContribution {
                            cell: CellRef {
                                row: frow.id,
                                column: col,
                            },
                            value,
                            direct: unit(idx),
                            indirect,
                            first_at: entries[first].at,
                        });
                    }
                    cur = *old;
                }
                Message::Insert { .. } => break,
                _ => unreachable!("creators map only holds insert/replace"),
            }
        }
    }

    // --- Net out undone votes (paper §8 undo): an undo cancels the
    // worker's latest preceding un-cancelled vote of the same kind on the
    // same value; neither side of the pair is compensated. ---
    let mut cancelled: HashSet<usize> = HashSet::new();
    let mut live: HashMap<(WorkerId, bool, RowValue), Vec<usize>> = HashMap::new();
    for (idx, e) in entries.iter().enumerate() {
        let Some(w) = e.worker else { continue };
        let (up, value, undo) = match &e.msg {
            Message::Upvote { value } => (true, value, false),
            Message::Downvote { value } => (false, value, false),
            Message::UndoUpvote { value } => (true, value, true),
            Message::UndoDownvote { value } => (false, value, true),
            _ => continue,
        };
        let stack = live.entry((w, up, value.clone())).or_default();
        if undo {
            cancelled.extend(stack.pop());
            cancelled.insert(idx);
        } else {
            stack.push(idx);
        }
    }

    // --- Upvote and downvote contributions. ---
    let mut upvotes = Vec::new();
    let mut downvotes = Vec::new();
    for (idx, e) in entries.iter().enumerate() {
        if e.worker.is_none() || cancelled.contains(&idx) {
            continue;
        }
        match &e.msg {
            Message::Upvote { value }
                if !e.auto_upvote && final_table.row_with_value(value).is_some() =>
            {
                upvotes.push(unit(idx));
            }
            Message::Downvote { value } if !final_table.any_subsumes(value) => {
                downvotes.push(unit(idx));
            }
            _ => {}
        }
    }

    Contributions {
        cells,
        upvotes,
        downvotes,
    }
}
