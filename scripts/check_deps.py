#!/usr/bin/env python3
"""Fail when a workspace crate declares a dependency it never names.

Stdlib only. Reads every workspace manifest -- the root package,
`crates/*` and `crates/shims/*` -- and, for each entry of its
`[dependencies]` and `[dev-dependencies]` tables, looks for the crate's
Rust name (dashes become underscores) in the `.rs` files under that
crate's `src/`, `tests/`, `benches/` and `examples/`. A name counts as
used when it appears as a path (`name::`), in a `use name` or in an
`extern crate name`. Doc tests are covered because they live in the same
files.

Usage (from the repository root):

    python3 scripts/check_deps.py

Prints one line per unused entry and exits 1 if there are any, else
prints `ok` with the number of entries checked.
"""

import re
import sys
import tomllib
from pathlib import Path

SECTIONS = ("dependencies", "dev-dependencies")
SOURCE_DIRS = ("src", "tests", "benches", "examples")


def manifests(root):
    yield root / "Cargo.toml"
    for pattern in ("crates/*/Cargo.toml", "crates/shims/*/Cargo.toml"):
        yield from sorted(root.glob(pattern))


def sources(crate_dir):
    text = []
    for sub in SOURCE_DIRS:
        for path in sorted((crate_dir / sub).rglob("*.rs")):
            text.append(path.read_text(encoding="utf-8"))
    return "\n".join(text)


def named(source, dep):
    ident = re.escape(dep.replace("-", "_"))
    pattern = rf"\b{ident}::|\buse\s+{ident}\b|\bextern\s+crate\s+{ident}\b"
    return re.search(pattern, source) is not None


def main():
    root = Path(__file__).resolve().parent.parent
    unused = []
    checked = 0
    for manifest in manifests(root):
        with manifest.open("rb") as f:
            doc = tomllib.load(f)
        if "package" not in doc:
            continue
        source = sources(manifest.parent)
        for section in SECTIONS:
            for dep in doc.get(section, {}):
                checked += 1
                if not named(source, dep):
                    rel = manifest.relative_to(root)
                    unused.append(f"{rel}: [{section}] {dep} is never named")
    for line in unused:
        print(line)
    if unused:
        return 1
    print(f"ok ({checked} dependency entries named)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
