#!/usr/bin/env python3
"""Counts library lines and lists public items that nothing calls.

Library code is every `.rs` file under `crates/*/src`, without `src/bin/`.
For each crate the script prints its lines outside `#[cfg(test)]` code.

A caller is code that runs outside a test: every `.rs` file under
`crates/`, `src/` and `examples/` (library code, every `src/bin` program,
`crates/bench/benches`) but not `tests/` or `crates/*/tests/`, and none of
its `#[cfg(test)]` code. A `pub` item (`fn`, `const`, `static`, `struct`,
`enum`, `trait`, `type`) of library code is *unused* when its name appears
in no caller other than its own file. A `pub fn` inside an `impl` block (a
method or an associated fn) appears only as a call or a path: `.name(`,
`.name::<` or `::name`, so a field or a local of the same name hides
nothing. Comments, string literals, `pub use` re-exports and other
definitions of the same name do not count as an appearance. A used item
also uses what its interface names in its own file: the types in a `pub
fn`'s signature, in a struct's `pub` fields, in an enum's variants. A
`#[cfg(test)]` on an item blanks the item; on a field, an initialiser, a
statement or a block it blanks only that. Names on ALLOW are left out, each
with its reason; an entry that no longer matches an unused item is stale
and fails the check too.

Usage: scripts/size.py                   # print lines and the unused list
       scripts/size.py --max-unused N    # also exit 1 if more than N are unused
       scripts/size.py --self-test
  The self-test builds a fixture tree (one used `pub fn` and the type it
  returns, one unused `pub fn`, one allowlisted item, one item used only
  under `#[cfg(test)]`, a method called and one reached by its path, a
  method whose name is only a field elsewhere, items called only from a
  crate's `tests/`, from its `benches/` and from a `src/bin` program, and a
  struct with a `#[cfg(test)]` field before an unused item) and checks the
  unused list and the line count the script reports for it.
"""
import os
import re
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

# `crate-relative file::name` -> the test that calls the item, and why that
# test cannot go through an entry point that runs outside a test.
ALLOW = {
    "crypto/src/sha256.rs::host_tiers": "crypto's `cavp` tests run the vectors on every tier the host has; production runs only the best one",
    "lsh/src/pstable.rs::resident_bytes": "rpol's client tests hold every party's family to k·l offsets; no running program asks a family its size",
    "nn/src/data.rs::image": "rpol's pool tests compare a clone's rows with the original's by pointer; training reads rows through batches",
    "nn/src/data.rs::pixel_count": "the nn crate's doctest sizes its first Dense layer with it; tasks size layers from their spec",
    "nn/src/model.rs::backward_to_input": "nn's `backward_properties` and rpol's `training_step_work` check the input gradient, which training never computes",
    "nn/src/model.rs::forward_keep_all": "the oracle forward that `backward_to_input` needs, for the same two tests",
    "rpol/src/pool.rs::with_threads": "`epoch_matrix`, `obs_determinism` and the root `determinism` tests run one pool at several executor widths in one process; a program reads RPOL_EXEC_THREADS once",
    "rpol/src/server.rs::loopback": "`net_parity`, `net_status` and the CLI tests bind an ephemeral loopback port; `rpol serve` parses its address",
    "rpol/src/server.rs::wait_for_workers": "`net_parity` and the CLI's status test probe a server between joins and the epoch; `PoolServer::run` waits inside its run",
    "sim/src/gpu.rs::noiseless": "the trainer's and sim's tests replay without GPU noise to show replay is exact; every running worker models a GPU",
    "tensor/src/gemm.rs::set_default_threads": "`kernel_digest_pinning` pins digests at several GEMM widths in one process; a program reads RPOL_GEMM_THREADS once",
    "tensor/src/rng.rs::draw_each_on": "its doctest drives the block driver at a chosen executor width; data generation uses the shared executor",
    "tensor/src/scratch.rs::pooled": "rpol-nn's model tests check that an ended pass holds no small buffer; nothing running asks",
    "tensor/src/shape.rs::offset": "the row-major layout oracle: tensor's `shape_offset_bijective` and shape tests, and nn's stride test, index with it; every kernel computes its offsets inline",
}

PUB_ITEM = re.compile(
    r"\bpub\s+(?:unsafe\s+|const\s+(?=(?:unsafe\s+)?fn\b)|extern\s+\S+\s+)*"
    r"(fn|const|static|struct|enum|trait|type)\s+(?:mut\s+)?(" + IDENT + ")"
)
DEFINITION = re.compile(r"\b(?:fn|const|static|struct|enum|trait|type|mod)\s+(?:mut\s+)?" + IDENT)
REEXPORT = re.compile(r"\bpub(?:\([^)]*\))?\s+use\b[^;]*;")
IMPL = re.compile(r"^[ \t]*(?:unsafe\s+)?impl\b", re.MULTILINE)
# How a method is named where it is used: called, or reached by its path.
METHOD_USE = re.compile(r"\.\s*(" + IDENT + r")\s*(?:\(|::\s*<)|::\s*(" + IDENT + ")")
CFG_TEST = "#[cfg(test)]"
RAW_STRING = re.compile(r'b?r(#*)"')
CHAR = re.compile(r"'(?:\\(?:x..|u\{[^}]*\}|.)|[^\\'])'")
ATTRIBUTE = re.compile(r"\s*#\[")
VISIBILITY = r"\s*(?:pub(?:\([^)]*\))?\s+)?"
SEMICOLON_ITEM = re.compile(VISIBILITY + r"(?:use|const|static|type)\b")
# An item that ends at its block (or at a `;` before one), and a bare block.
BRACED_ITEM = re.compile(
    VISIBILITY + r"(?:(?:unsafe|async|const|extern\s+\S+)\s+)*(?:fn|mod|impl|struct|enum|union|trait|extern|macro_rules!)\b|\s*\{"
)


def strip(text):
    """Blanks comments and string and char literals, keeping every newline."""
    out, i, n = [], 0, len(text)

    def blank(j):
        out.append(re.sub(r"[^\n]", " ", text[i:j]))
        return j

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = blank(n if j < 0 else j)
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            i = blank(j)
        elif (m := RAW_STRING.match(text, i)) and (i == 0 or not re.match(r"\w", text[i - 1])):
            end = text.find('"' + m.group(1), m.end())
            i = blank(n if end < 0 else end + 1 + len(m.group(1)))
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            i = blank(j + 1)
        elif c == "'" and (m := CHAR.match(text, i)):
            i = blank(m.end())
        else:
            out.append(c)
            i += 1
    return "".join(out)


def item_end(text, i):
    """Index just past the item that starts at `i` (attributes skipped). What
    is neither an item nor a block (a field, an initialiser, a statement)
    ends at its `,` or `;`, or before the bracket that closes around it."""
    while m := ATTRIBUTE.match(text, i):
        i = close(text, m.end() - 1)
    semicolon_item = SEMICOLON_ITEM.match(text, i)
    braced_item = BRACED_ITEM.match(text, i)
    depth = 0
    for j in range(i, len(text)):
        c = text[j]
        if c in "([" or (c == "{" and not braced_item):
            depth += 1
        elif c in ")]" or (c == "}" and not braced_item):
            depth -= 1
            if depth < 0:
                return j
        elif c == "{" and depth == 0:
            return close(text, j)
        elif c == ";" and depth == 0:
            return j + 1
        elif c == "," and depth == 0 and not (semicolon_item or braced_item):
            return j + 1
    return len(text)


def close(text, i):
    """Index just past the bracket that closes the one at `i`."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] in "([{":
            depth += 1
        elif text[j] in ")]}":
            depth -= 1
            if depth == 0:
                return j + 1
    return len(text)


def without_tests(code):
    """`code` with every `#[cfg(test)]` item blanked; also its count of test lines."""
    test_lines = 0
    while (start := code.find(CFG_TEST)) >= 0:
        end = item_end(code, start + len(CFG_TEST))
        test_lines += code.count("\n", start, end) + 1
        code = code[:start] + re.sub(r"[^\n]", " ", code[start:end]) + code[end:]
    return code, test_lines


def interface(code, m):
    """Names a caller of the pub item `m` matches reaches through it: a fn's
    signature, a struct's pub fields, the whole of any other item."""
    kind, end = m.group(1), item_end(code, m.start())
    text = code[m.end() : end]
    if kind == "fn":
        body = text.find("{")
        text = text if body < 0 else text[:body]
    elif kind == "struct":
        text = "\n".join(line for line in text.split("\n") if re.search(r"\bpub\b", line))
    return set(re.findall(IDENT, text))


def rust_files(root):
    out = {}
    for top in ("crates", "src", "tests", "examples"):
        for dirpath, dirnames, names in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            rel_dir = os.path.relpath(dirpath, root)
            for name in sorted(names):
                if name.endswith(".rs"):
                    with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                        out[os.path.join(rel_dir, name)] = f.read()
    return out


def is_library(path):
    parts = path.split(os.sep)
    return len(parts) > 3 and parts[0] == "crates" and parts[2] == "src" and parts[3] != "bin"


def is_test(path):
    """A file of `tests/` or `crates/*/tests/`: it runs only under a test."""
    parts = path.split(os.sep)
    return parts[0] == "tests" or (parts[0] == "crates" and len(parts) > 3 and parts[2] == "tests")


def scan(root, allow):
    """Returns (lines per crate, unused items as (path, line, kind, name), stale allowlist keys).

    An item is used when another file's code outside a test names it, or when
    a used item of its own file names it in its interface (a type a used fn
    returns)."""
    lines, defined, words, methods = {}, [], {}, {}
    for path, text in rust_files(root).items():
        stripped = strip(text)
        code, test_lines = without_tests(stripped)
        if is_library(path):
            crate = path.split(os.sep)[1]
            lines[crate] = lines.get(crate, 0) + text.count("\n") - test_lines
            # Spans from the code with its tests, whose brackets all pair up.
            impls = [(m.start(), item_end(stripped, m.start())) for m in IMPL.finditer(stripped)]
            for m in PUB_ITEM.finditer(code):
                line = code.count("\n", 0, m.start()) + 1
                method = m.group(1) == "fn" and any(a < m.start() < b for a, b in impls)
                defined.append((path, line, m.group(1), m.group(2), interface(code, m), method))
        if is_test(path):
            continue
        callers = DEFINITION.sub(" ", REEXPORT.sub(" ", code))
        words[path] = set(re.findall(IDENT, callers))
        methods[path] = {a or b for a, b in METHOD_USE.findall(callers)}
    used = {
        i
        for i, (path, _, _, name, _, method) in enumerate(defined)
        if any(name in (methods if method else words)[p] for p in words if p != path)
    }
    while grown := {
        i
        for i, (path, _, _, name, _, _) in enumerate(defined)
        if i not in used and any(defined[j][0] == path and name in defined[j][4] for j in used)
    }:
        used |= grown
    unused, allowed = [], set()
    for i, (path, line, kind, name, _, _) in enumerate(defined):
        if i in used:
            continue
        key = path.split(os.sep, 1)[1] + "::" + name
        if key in allow:
            allowed.add(key)
        else:
            unused.append((path, line, kind, name))
    return lines, unused, sorted(set(allow) - allowed)


def report(root, allow):
    lines, unused, stale = scan(root, allow)
    print("library lines outside #[cfg(test)] (crates/*/src, without src/bin/):")
    for crate in sorted(lines):
        print(f"  {crate:<8} {lines[crate]:>6}")
    print(f"  {'total':<8} {sum(lines.values()):>6}")
    print(f"unused pub items (no caller in another file; {len(allow) - len(stale)} allowlisted):")
    for path, line, kind, name in unused:
        print(f"  {path}:{line}: {kind} {name}")
    for key in stale:
        print(f"  stale allowlist entry (remove it): {key}")
    print(f"{len(unused)} unused")
    return unused, stale


FIXTURE = {
    "crates/demo/src/lib.rs": """\
//! Fixture crate.
pub mod other;

/// Named by no other file, but returned by a used fn.
pub struct Out(pub u32);

pub fn used_fn() -> Out {
    Out(1)
}

pub fn unused_fn() -> u32 {
    2
}

pub struct Allowed;

pub const ONLY_TESTED: u32 = 3;

impl Out {
    pub fn called(&self) -> u32 {
        self.0
    }

    pub fn by_path() -> u32 {
        4
    }

    /// Only a field and a local elsewhere: never called.
    pub fn hits(&self) -> u32 {
        self.0
    }
}

pub fn only_in_tests() -> u32 {
    5
}

pub fn in_bench() -> u32 {
    6
}

pub fn in_bin() -> u32 {
    7
}

pub struct Counters {
    pub seen: u32,
    #[cfg(test)]
    flushes: u32,
}

pub const AFTER_FIELD: u32 = 8;
""",
    "crates/demo/src/other.rs": """\
// unused_fn is named in a comment, which is no call.
pub(crate) fn call() -> u32 {
    let _ = "unused_fn";
    crate::used_fn().0
}

struct Stats {
    hits: u32,
}

pub(crate) fn tally(s: Stats) -> u32 {
    let hits = s.hits;
    hits + crate::used_fn().called() + crate::Out::by_path()
}

#[cfg(test)]
mod tests {
    #[test]
    fn only_tested() {
        assert_eq!(crate::ONLY_TESTED, 3);
    }
}
""",
    "crates/demo/src/bin/tool.rs": "fn main() {\n    let _ = demo::in_bin();\n}\n",
    "crates/demo/benches/b.rs": "fn main() {\n    let _ = demo::in_bench();\n}\n",
    "crates/demo/tests/t.rs": """\
#[test]
fn only_in_tests() {
    assert_eq!(demo::only_in_tests() + demo::AFTER_FIELD + demo::Counters { seen: 0 }.seen, 13);
}
""",
}


def self_test():
    with tempfile.TemporaryDirectory() as tmp:
        for path, text in FIXTURE.items():
            os.makedirs(os.path.dirname(os.path.join(tmp, path)), exist_ok=True)
            with open(os.path.join(tmp, path), "w", encoding="utf-8") as f:
                f.write(text)
        lines, unused, stale = scan(tmp, {"demo/src/lib.rs::Allowed": "fixture"})
    got = (lines, [(kind, name) for _, _, kind, name in unused], stale)
    want = (
        {"demo": 50 + 15},
        [
            ("fn", "unused_fn"),
            ("const", "ONLY_TESTED"),
            ("fn", "hits"),
            ("fn", "only_in_tests"),
            ("struct", "Counters"),
            ("const", "AFTER_FIELD"),
        ],
        [],
    )
    if got == want:
        print("self-test: the fixture's unused list and line count are as built")
        return 0
    print("self-test FAILED: expected", want, "got", got)
    return 1


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    unused, stale = report(ROOT, ALLOW)
    if argv[1:2] == ["--max-unused"]:
        cap = int(argv[2])
        if len(unused) > cap:
            print(f"{len(unused)} unused pub items, over the cap of {cap}")
            return 1
        if stale:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
