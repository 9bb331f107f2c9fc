//! Shared by the byte-identity tests of this directory and, by `#[path]`,
//! of `crates/cli/tests/commands.rs`.

/// Asserts that two texts are byte-identical. A failure names the first
/// differing line (1-based) and prints only that line from each side —
/// a trace is tens of kilobytes, the divergence is one line of it.
#[track_caller]
pub fn assert_same_text(left: &str, right: &str, what: &str) {
    if left == right {
        return;
    }
    let (l, r): (Vec<&str>, Vec<&str>) = (left.lines().collect(), right.lines().collect());
    let at = l
        .iter()
        .zip(&r)
        .position(|(a, b)| a != b)
        .unwrap_or(l.len().min(r.len()));
    const END: &str = "<end of text>";
    panic!(
        "{what}: first difference at line {} ({} vs {} lines, {} vs {} bytes)\n  left:  {}\n  right: {}",
        at + 1,
        l.len(),
        r.len(),
        left.len(),
        right.len(),
        l.get(at).unwrap_or(&END),
        r.get(at).unwrap_or(&END),
    );
}
