#!/usr/bin/env python3
"""Resolves every backticked code reference in DESIGN.md against the tree.

A reference is a backticked span of one of these forms:

* a module path led by a crate (`rpol::verify`, `rpol_tensor::rng`,
  `lsh::tuning`) or by a module (`wire::block_len`, `scratch::tests::name`),
  optionally ending in items (`rpol_crypto::sha256::Tier::detect()`);
* an integration test, `tests/file.rs::name`, `crates/c/tests/file.rs::name`
  or `file::name` where `file` is an integration-test stem;
* a source file member, `verify.rs::binds`;
* a type member, `PoolManager::verify_group`, `EpochCommitment::{V1, V2}`;
* a path to a file or directory under `crates/`, `tests/`, `src/`,
  `examples/` or `scripts/` (`crates/{nn,sim}/src` expands).

Argument lists, `[_suffix]` alternatives and `{field}` patterns are dropped
before resolving; a name ending in `…` matches any name with that prefix.
Every reference must name a module, file or definition (`fn`, type, trait,
`const`, `static`, enum variant, re-export) that exists; the script prints
the rest with their line numbers and exits 1.

Usage: scripts/design_refs.py [DOC]      # DOC defaults to DESIGN.md
       scripts/design_refs.py --self-test
  The self-test plants one unknown test name in a copy of DESIGN.md and
  exits 0 only if the check fails on exactly that reference.
"""
import os
import re
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
PLANTED = "pool::tests::a_planted_test_name_no_file_defines"


def rust_files():
    files = {}
    for top in ("crates", "src", "tests", "examples"):
        for dirpath, dirnames, names in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if d != "target"]
            for name in names:
                if name.endswith(".rs"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as f:
                        files[os.path.relpath(path, ROOT)] = f.read()
    return files


FILES = rust_files()

ITEM = re.compile(
    r"\b(?:fn|struct|enum|trait|type|const|static|mod|union)\s+(" + IDENT + ")"
    r"|macro_rules!\s*(" + IDENT + ")"
    r"|^\s*(" + IDENT + r")\s*(?:[,({]|$)"  # enum variant
    r"|^\s*(?:pub(?:\([^)]*\))?\s+)?(" + IDENT + r")\s*:(?!:)",  # field
    re.M,
)
FN = re.compile(r"\bfn\s+(" + IDENT + ")")
INLINE_MOD = re.compile(r"\bmod\s+(" + IDENT + r")\s*\{")
REEXPORT = re.compile(r"^\s*pub(?:\([^)]*\))?\s+use\s([^;]*);", re.M)


def index(text):
    names = {n for groups in ITEM.findall(text) for n in groups if n}
    for body in REEXPORT.findall(text):
        names.update(re.findall(IDENT, body))
    return names, set(FN.findall(text)), set(INLINE_MOD.findall(text))


INDEX = {path: index(text) for path, text in FILES.items()}
ALL_NAMES = set().union(*(names for names, _, _ in INDEX.values()))
TYPES = set(
    re.findall(r"\b(?:struct|enum|trait|type|union)\s+(" + IDENT + ")", "\n".join(FILES.values()))
)


def has(names, name, prefix):
    return any(n.startswith(name) for n in names) if prefix else name in names


def crates():
    """Crate name (short and `rpol_` form) -> crate directory."""
    out = {"rpol_repro": "."}
    for d in sorted(os.listdir(os.path.join(ROOT, "crates"))):
        out[d] = os.path.join("crates", d)
        out["rpol_" + d] = os.path.join("crates", d)
    return out


CRATES = crates()


def defines(file, name, prefix=False):
    """Whether `file` defines or re-exports `name` (any name with that prefix)."""
    return has(INDEX[file][0], name, prefix)


def defines_fn(file, name, prefix=False):
    return has(INDEX[file][1], name, prefix)


def members(segs):
    """Whether every trailing segment names a definition somewhere in the tree."""
    return all(has(ALL_NAMES, s, p) for s, p in segs)


def module_root(crate_dir):
    for root in ("src/lib.rs", "src/main.rs"):
        path = os.path.normpath(os.path.join(crate_dir, root))
        if path in FILES:
            return path
    return None


def resolve_in(file, segs, after_tests=False):
    """Resolves `segs` inside the module whose source is `file`."""
    if not segs:
        return True
    (seg, prefix), rest = segs[0], segs[1:]
    if seg == "*":
        return True
    base = os.path.dirname(file) if file.endswith(("lib.rs", "main.rs", "mod.rs")) else file[:-3]
    for cand in (os.path.join(base, seg + ".rs"), os.path.join(base, seg, "mod.rs")):
        cand = os.path.normpath(cand)
        if cand in FILES:
            return resolve_in(cand, rest)
    if seg in INDEX[file][2]:
        # An inline module: its items live in the same file.
        return resolve_in(file, rest, after_tests=seg == "tests")
    if after_tests:
        # `module::tests::name` names a test function.
        return not rest and defines_fn(file, seg, prefix)
    return defines(file, seg, prefix) and members(rest)


def module_files(name):
    """Every source file that is, or holds an inline, module called `name`."""
    out = []
    for path in FILES:
        if "/src/" not in "/" + path:
            continue
        stem = os.path.basename(path)[:-3]
        if stem == name or (stem == "mod" and os.path.basename(os.path.dirname(path)) == name):
            out.append((path, []))
        elif name in INDEX[path][2]:
            out.append((path, [(name, False)]))
    return out


def resolve_path(segs):
    head = segs[0][0]
    if head in CRATES:
        root = module_root(CRATES[head])
        if root and resolve_in(root, segs[1:]):
            return True
    if head[0].isupper():
        return head in TYPES and members(segs[1:])
    for path, inline in module_files(head):
        if resolve_in(path, inline + segs[1:]):
            return True
    # `stem::name`: a function in an integration test file.
    return len(segs) == 2 and any(
        defines_fn(path, *segs[1])
        for path in FILES
        if "/tests/" in "/" + path and os.path.basename(path) == head + ".rs"
    )


def tree_paths(path):
    """Tree files at `path` or at `crates/<crate>/path`."""
    return [p for p in FILES if p == path or re.fullmatch(r"crates/[^/]+/" + re.escape(path), p)]


def exists(path):
    return os.path.exists(os.path.join(ROOT, path)) or any(
        os.path.exists(os.path.join(ROOT, "crates", c, path)) for c in os.listdir(os.path.join(ROOT, "crates"))
    )


def resolve_file_member(fname, name, prefix):
    """`file.rs::name`: `fname` is a tree path, a crate-relative path or a bare file name."""
    hits = tree_paths(fname) if "/" in fname else [p for p in FILES if os.path.basename(p) == fname]
    return any(
        defines_fn(p, name, prefix) if "/tests/" in "/" + p else defines(p, name, prefix) for p in hits
    )


def expand_braces(s):
    m = re.search(r"\{([^{}]*)\}", s)
    if not m:
        return [s]
    out = []
    for alt in m.group(1).split(","):
        out.extend(expand_braces(s[: m.start()] + alt.strip() + s[m.end():]))
    return out


def normalise(tok):
    tok = tok.strip()
    tok = re.sub(r"\(.*$", "", tok)  # argument lists and what follows
    tok = re.sub(r"\[[^\]]*\]", "", tok)  # `run_epoch[_quantized]`
    tok = re.sub(r"(?<!::)\{[^}]*\}$", "", tok)  # `StatusReport{json}`
    return tok.rstrip(":")


def check_ref(tok):
    """Returns None when `tok` is not a code reference, else whether it resolves."""
    tok = normalise(tok)
    if re.match(r"^(crates|tests|src|examples|scripts)/", tok) and "::" not in tok:
        if " " in tok:
            return None
        return all(exists(p) for p in expand_braces(tok))
    m = re.match(r"^((?:[\w.-]+/)*[\w-]+\.rs)::(.+)$", tok)
    if m:
        results = []
        for name in expand_braces(m.group(2)):
            prefix = name.endswith("…")
            results.append(resolve_file_member(m.group(1), name.rstrip("…"), prefix))
        return all(results)
    if "::" not in tok or not re.match(r"^" + IDENT + r"(::|$)", tok):
        return None
    results = []
    for path in expand_braces(tok):
        parts = path.split("::")
        if not all(re.fullmatch(IDENT + "…?|\\*", p) for p in parts):
            return None
        segs = [(p.rstrip("…"), p.endswith("…")) for p in parts]
        results.append(resolve_path(segs))
    return all(results)


def check(doc):
    with open(doc, encoding="utf-8") as f:
        lines = f.read().split("\n")
    checked, unresolved = 0, []
    for no, line in enumerate(lines, 1):
        for tok in re.findall(r"`([^`]+)`", line):
            ok = check_ref(tok)
            if ok is None:
                continue
            checked += 1
            if not ok:
                unresolved.append((no, tok))
    return checked, unresolved


def main(argv):
    if argv[1:] == ["--self-test"]:
        with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as f:
            text = f.read()
        with tempfile.TemporaryDirectory() as tmp:
            doc = os.path.join(tmp, "DESIGN.md")
            with open(doc, "w", encoding="utf-8") as f:
                f.write(text + "\n- planted — `" + PLANTED + "`\n")
            _, unresolved = check(doc)
        if [tok for _, tok in unresolved] == [PLANTED]:
            print("self-test: the planted reference fails the check, and nothing else does")
            return 0
        print("self-test FAILED: expected exactly the planted reference, got", unresolved)
        return 1
    doc = argv[1] if len(argv) > 1 else os.path.join(ROOT, "DESIGN.md")
    checked, unresolved = check(doc)
    for no, tok in unresolved:
        print(f"{os.path.basename(doc)}:{no}: unresolved reference `{tok}`")
    print(f"{checked} code references, {len(unresolved)} unresolved")
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
