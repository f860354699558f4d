//! A counting gate on a join's client side: a row value is one
//! allocation, and `ClientCore::welcomed` on a `late_join`-shaped welcome
//! (128 rows, 112 complete with one upvote each, five text columns of
//! 6–18 bytes) stays within a budget of allocations: one per row value,
//! not a map and a scratch `Vec` besides. Its own test binary, because the
//! counting `#[global_allocator]` is process-wide; it counts only the
//! thread that asks.

use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Message, RowId, RowValue, Schema, Value,
};
use crowdfill_pay::WorkerId;
use crowdfill_server::wire::{Image, Reply, TableImage};
use crowdfill_server::ClientCore;
use crowdfill_sync::Replica;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Allocations made on this thread while it counts, if it does.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    drop(std::hint::black_box(f()));
    COUNT.with(|c| c.replace(None)).expect("counting")
}

/// What `welcomed` may cost on the welcome below: 417 today, 113 of them
/// its row values. A map behind each value and a `Vec` of pairs per value
/// decoded made it 648; the replica's five metric-name lookups, 422.
const WELCOMED_MAX: usize = 445;

/// Cell `col` of row `r`: 6–18 escape-free bytes, led by `r` so that keys
/// are unique.
fn cell(r: usize, col: usize) -> Value {
    let len = 6 + (r * 7 + col * 5) % 13;
    let mut cell = format!("{r:03x}{col}");
    let letters = (b'a'..=b'z').cycle().skip(r + col);
    cell.extend(letters.take(len - cell.len()).map(char::from));
    Value::text(cell)
}

/// The welcome a late joiner receives from a table of `rows` rows of five
/// text columns whose first 7/8 are complete with one upvote each.
fn welcome(rows: usize) -> String {
    let columns = ["name", "nationality", "position", "club", "caps"];
    let columns = columns.map(|c| Column::new(c, DataType::Text)).to_vec();
    let schema = Arc::new(Schema::new("SoccerPlayer", columns, &["name", "nationality"]).unwrap());
    let filled = rows * 7 / 8;
    let value = |r: usize| RowValue::from_pairs((0..5).map(|c| (ColumnId(c as u16), cell(r, c))));
    let id = |r: usize| RowId::new(ClientId(1 + (r % 4) as u32), r as u64);
    let mut table = Replica::new(ClientId(0), Arc::clone(&schema));
    for r in 0..rows {
        table.process(&match r < filled {
            true => Message::Replace {
                old: id(r),
                new: id(r),
                value: value(r),
            },
            false => Message::Insert { row: id(r) },
        });
    }
    for r in 0..filled {
        table.process(&Message::Upvote { value: value(r) });
    }
    let image = Image::Table(Box::new(TableImage::of(&table)), Vec::new());
    let history_len = (rows + filled) as u64;
    let welcome = Reply::Welcome(
        "default".into(),
        WorkerId(5),
        ClientId(9),
        history_len,
        schema,
        image,
    );
    welcome.encode()
}

#[test]
fn a_row_value_is_one_allocation() {
    let cells: Vec<(ColumnId, Value)> = (0..5).map(|c| (ColumnId(c as u16), cell(7, c))).collect();
    let ascending: [(ColumnId, Value); 5] = cells.clone().try_into().unwrap();
    assert_eq!(allocations(|| RowValue::from_pairs(ascending)), 1);
    let row = RowValue::from_pairs(cells[..4].to_vec());
    let last = cells[4].clone();
    assert_eq!(allocations(|| row.with(last.0, last.1)), 1);
    let first = cells[0].clone();
    let row = RowValue::from_pairs(cells[1..].to_vec());
    assert_eq!(allocations(|| row.with(first.0, first.1)), 1);
}

#[test]
fn a_join_costs_what_its_bytes_cost() {
    let frame = welcome(128);
    let welcomed = || ClientCore::welcomed(frame.as_bytes(), None, None).unwrap();
    let core = welcomed();
    assert_eq!(core.view().replica().table().len(), 128);
    let counted = allocations(welcomed);
    eprintln!("welcomed on 128 rows: {counted} allocations");
    assert!(
        counted <= WELCOMED_MAX,
        "welcomed on 128 rows: {counted} allocations (at most {WELCOMED_MAX})"
    );
}
