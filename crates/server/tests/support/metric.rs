//! Reading a service's `stats` text.

/// The value on the line `name value` of a metrics text — a counter's or a
/// gauge's, or a summary's `name_count`/`_sum`/`_max`; `None` if there is
/// no such line.
pub fn read(stats: &str, name: &str) -> Option<i64> {
    stats.lines().find_map(|line| {
        let value = line.strip_prefix(name)?.strip_prefix(' ')?;
        value.parse().ok()
    })
}
