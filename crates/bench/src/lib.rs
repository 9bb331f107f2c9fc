//! Shared helpers for the table/figure regenerator binaries.
//!
//! Every table and figure in the paper's evaluation has a dedicated binary
//! in `src/bin/` (see DESIGN.md §4 for the index). Binaries print
//! markdown tables with the paper's reference values alongside the
//! reproduced ones so EXPERIMENTS.md can be assembled directly from their
//! output.

pub mod harness;

/// Prints a markdown table.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
        println!("| {} |", row.join(" | "));
    }
    println!();
}

/// Reads a `--name=value` integer argument from the command line, falling
/// back to `default`.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let prefix = format!("--{name}=");
    std::env::args()
        .find_map(|a| a.strip_prefix(&prefix).map(str::to_string))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("invalid integer for --{name}: {v}"))
        })
        .unwrap_or(default)
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats seconds with sensible precision.
pub fn secs(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}s")
    } else {
        format!("{x:.1}s")
    }
}

/// Formats bytes as GB with one decimal.
pub fn gb(bytes: u64) -> String {
    format!("{:.1}GB", bytes as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(secs(42.0), "42.0s");
        assert_eq!(secs(420.0), "420s");
        assert_eq!(gb(8_800_000_000), "8.8GB");
    }

    #[test]
    fn arg_defaults_apply() {
        assert_eq!(arg_usize("definitely-not-passed", 7), 7);
    }
}
