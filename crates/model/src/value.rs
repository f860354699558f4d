//! Cell values and their data types.
//!
//! CrowdFill tables are typed: every column declares a [`DataType`], and every
//! cell holds a [`Value`] of that type. Values must be orderable and hashable
//! because the synchronization model (paper §2.4) keys its vote histories by
//! *value-vectors*, and the final-table derivation groups rows by their
//! primary-key values.

use crate::intern::IStr;
use std::cmp::Ordering;
use std::fmt;

/// The data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Free-form UTF-8 text.
    Text,
    /// Signed 64-bit integer.
    Int,
    /// 64-bit float with total ordering (NaN is rejected at construction).
    Float,
    /// Boolean.
    Bool,
    /// Calendar date (year, month, day). No time-zone semantics.
    Date,
}

impl DataType {
    /// Every data type.
    pub const ALL: [DataType; 5] = [
        DataType::Text,
        DataType::Int,
        DataType::Float,
        DataType::Bool,
        DataType::Date,
    ];

    /// The type's name, as schemas and table images spell it.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Text => "text",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Bool => "bool",
            DataType::Date => "date",
        }
    }

    /// The type called `name`, if one is.
    pub fn from_name(name: &str) -> Option<DataType> {
        DataType::ALL.into_iter().find(|t| t.name() == name)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A finite, non-NaN `f64` with total ordering and hashing.
///
/// CrowdFill needs cell values as hash-map keys (vote histories are keyed by
/// value-vectors), so raw `f64` is unusable. `Finite` guarantees the payload
/// is never NaN, making bitwise comparison a valid total order for the values
/// we admit (we also normalize `-0.0` to `0.0`).
#[derive(Debug, Clone, Copy)]
pub struct Finite(f64);

impl Finite {
    /// Wraps a float, rejecting NaN and infinities.
    pub fn new(v: f64) -> Option<Finite> {
        if v.is_finite() {
            // Normalize -0.0 so that equal-comparing floats hash identically.
            Some(Finite(if v == 0.0 { 0.0 } else { v }))
        } else {
            None
        }
    }

    /// The underlying float.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for Finite {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for Finite {}

impl PartialOrd for Finite {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Finite {
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe: NaN excluded by construction.
        self.0.partial_cmp(&other.0).expect("Finite is never NaN")
    }
}
impl std::hash::Hash for Finite {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

/// A calendar date. Validity (month in 1..=12, day in 1..=31 adjusted per
/// month, Gregorian leap years) is enforced at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

impl Date {
    /// Constructs a date, returning `None` if the (year, month, day) triple is
    /// not a valid Gregorian date.
    pub fn new(year: i32, month: u8, day: u8) -> Option<Date> {
        if !(1..=12).contains(&month) {
            return None;
        }
        let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
        let days_in_month = match month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 if leap => 29,
            2 => 28,
            _ => unreachable!(),
        };
        if day == 0 || day > days_in_month {
            return None;
        }
        Some(Date { year, month, day })
    }

    pub fn year(&self) -> i32 {
        self.year
    }
    pub fn month(&self) -> u8 {
        self.month
    }
    pub fn day(&self) -> u8 {
        self.day
    }

    /// Parses `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<Date> {
        let mut parts = s.splitn(3, '-');
        let year: i32 = parts.next()?.parse().ok()?;
        let month: u8 = parts.next()?.parse().ok()?;
        let day: u8 = parts.next()?.parse().ok()?;
        Date::new(year, month, day)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A single cell value.
///
/// Text payloads are [interned](crate::intern::IStr): cloning a text value is
/// a refcount bump and equal strings share one allocation, while `Eq`/`Ord`/
/// `Hash` stay content-based (vote histories and final-table grouping rely on
/// that).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    Text(IStr),
    Int(i64),
    Float(Finite),
    Bool(bool),
    Date(Date),
}

impl Value {
    /// Convenience constructor for text values (interns the string).
    pub fn text(s: impl AsRef<str>) -> Value {
        Value::Text(IStr::new(s.as_ref()))
    }

    /// Convenience constructor for integer values.
    pub fn int(v: i64) -> Value {
        Value::Int(v)
    }

    /// Convenience constructor for float values. Panics on NaN/infinite input;
    /// use [`Value::try_float`] for fallible construction.
    pub fn float(v: f64) -> Value {
        Value::Float(Finite::new(v).expect("float cell value must be finite"))
    }

    /// Fallible float constructor.
    pub fn try_float(v: f64) -> Option<Value> {
        Finite::new(v).map(Value::Float)
    }

    /// Convenience constructor for boolean values.
    pub fn bool(v: bool) -> Value {
        Value::Bool(v)
    }

    /// Convenience constructor for dates; panics on invalid dates.
    pub fn date(year: i32, month: u8, day: u8) -> Value {
        Value::Date(Date::new(year, month, day).expect("valid date"))
    }

    /// The data type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Text(_) => DataType::Text,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Bool(_) => DataType::Bool,
            Value::Date(_) => DataType::Date,
        }
    }

    /// Parses a string into a value of the given type, as a data-entry UI
    /// would. Text is taken verbatim (trimmed); other types parse strictly.
    pub fn parse(ty: DataType, s: &str) -> Option<Value> {
        let s = s.trim();
        match ty {
            DataType::Text => {
                if s.is_empty() {
                    None
                } else {
                    Some(Value::text(s))
                }
            }
            DataType::Int => s.parse::<i64>().ok().map(Value::Int),
            DataType::Float => s.parse::<f64>().ok().and_then(Value::try_float),
            DataType::Bool => match s {
                "true" | "yes" | "1" => Some(Value::Bool(true)),
                "false" | "no" | "0" => Some(Value::Bool(false)),
                _ => None,
            },
            DataType::Date => Date::parse(s).map(Value::Date),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => f.write_str(s),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{}", v.get()),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::text(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::text(s)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v as i64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_rejects_nan_and_inf() {
        assert!(Finite::new(f64::NAN).is_none());
        assert!(Finite::new(f64::INFINITY).is_none());
        assert!(Finite::new(f64::NEG_INFINITY).is_none());
        assert!(Finite::new(1.5).is_some());
    }

    #[test]
    fn finite_normalizes_negative_zero() {
        assert_eq!(Finite::new(-0.0), Finite::new(0.0));
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: Finite| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(Finite::new(-0.0).unwrap()), h(Finite::new(0.0).unwrap()));
    }

    #[test]
    fn finite_total_order() {
        let a = Finite::new(-1.0).unwrap();
        let b = Finite::new(0.0).unwrap();
        let c = Finite::new(3.25).unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn a_type_is_found_by_its_name() {
        for t in DataType::ALL {
            assert_eq!(DataType::from_name(t.name()), Some(t));
            assert_eq!(t.to_string(), t.name());
        }
        assert_eq!(DataType::from_name("Text"), None);
    }

    #[test]
    fn date_validation() {
        assert!(Date::new(2014, 6, 22).is_some());
        assert!(Date::new(2014, 2, 29).is_none());
        assert!(Date::new(2012, 2, 29).is_some()); // leap year
        assert!(Date::new(1900, 2, 29).is_none()); // century non-leap
        assert!(Date::new(2000, 2, 29).is_some()); // 400-year leap
        assert!(Date::new(2014, 13, 1).is_none());
        assert!(Date::new(2014, 4, 31).is_none());
        assert!(Date::new(2014, 4, 0).is_none());
    }

    #[test]
    fn date_roundtrip() {
        let d = Date::new(1987, 6, 24).unwrap();
        assert_eq!(Date::parse(&d.to_string()), Some(d));
        assert_eq!(Date::parse("1987-6-24"), Some(d));
        assert_eq!(Date::parse("not a date"), None);
    }

    #[test]
    fn date_ordering_is_chronological() {
        let a = Date::new(1987, 6, 24).unwrap();
        let b = Date::new(1987, 7, 1).unwrap();
        let c = Date::new(1992, 2, 5).unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn value_parse_by_type() {
        assert_eq!(
            Value::parse(DataType::Text, " Messi "),
            Some(Value::text("Messi"))
        );
        assert_eq!(Value::parse(DataType::Text, "   "), None);
        assert_eq!(Value::parse(DataType::Int, "83"), Some(Value::int(83)));
        assert_eq!(Value::parse(DataType::Int, "83.5"), None);
        assert_eq!(
            Value::parse(DataType::Float, "83.5"),
            Some(Value::float(83.5))
        );
        assert_eq!(Value::parse(DataType::Float, "NaN"), None);
        assert_eq!(Value::parse(DataType::Bool, "yes"), Some(Value::bool(true)));
        assert_eq!(
            Value::parse(DataType::Date, "1987-06-24"),
            Some(Value::date(1987, 6, 24))
        );
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::text("FW").to_string(), "FW");
        assert_eq!(Value::int(83).to_string(), "83");
        assert_eq!(Value::float(1.5).to_string(), "1.5");
        assert_eq!(Value::date(1987, 6, 24).to_string(), "1987-06-24");
    }

    #[test]
    fn value_data_type() {
        assert_eq!(Value::text("x").data_type(), DataType::Text);
        assert_eq!(Value::int(1).data_type(), DataType::Int);
        assert_eq!(Value::float(1.0).data_type(), DataType::Float);
        assert_eq!(Value::bool(true).data_type(), DataType::Bool);
        assert_eq!(Value::date(2000, 1, 1).data_type(), DataType::Date);
    }
}
