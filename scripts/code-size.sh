#!/usr/bin/env bash
# Prints the code-size table that ROADMAP aim 2 and direction 11 are judged
# on, as Markdown: per crate, the non-test lines under its src/ (each file up
# to its `#[cfg(test)] mod tests`; a file module declared under
# `#[cfg(test)]`, such as `#[cfg(test)] mod spec;`, is test code
# throughout), its test lines (those `mod tests` tails, the test-only file
# modules and its `tests/*.rs`) and its count of
# `pub fn|async fn|struct|enum|trait|const|type|use|mod` lines. Counts the files git
# tracks; run it from the root of the repository:
#
#     scripts/code-size.sh
set -euo pipefail

total=0
total_tests=0
# The files of modules declared `#[cfg(test)] [pub(..)] mod name;`:
# `name.rs` beside a `mod.rs` / `lib.rs` / `main.rs`, else in the
# declaring file's own directory.
test_mods=$(for f in $(git ls-files 'crates/*/src/*.rs'); do
  awk -v dir="$(dirname "$f")" -v stem="$(basename "$f" .rs)" '
    prev ~ /^#\[cfg\(test\)\]$/ && /^(pub(\([a-z]+\))? )?mod [a-z0-9_]+;$/ {
      name = $NF; sub(/;$/, "", name)
      base = (stem ~ /^(mod|lib|main)$/) ? dir : dir "/" stem
      print base "/" name ".rs"
    }
    { prev = $0 }' "$f"
done)
echo "### Code size"
echo ""
echo "| crate | non-test lines | test lines | pub items |"
echo "|---|---|---|---|"
for dir in crates/*/; do
  crate=$(basename "$dir")
  lines=0
  tests=0
  for f in $(git ls-files "${dir}src/*.rs"); do
    all=$(wc -l < "$f")
    if printf '%s\n' "$test_mods" | grep -qxF "$f"; then
      n=0
    else
      n=$(awk 'prev ~ /^#\[cfg\(test\)\]$/ && /^mod tests/ { print NR - 2; found = 1; exit }
               { prev = $0 }
               END { if (!found) print NR }' "$f")
    fi
    lines=$((lines + n))
    tests=$((tests + all - n))
  done
  for f in $(git ls-files "${dir}tests/*.rs"); do
    tests=$((tests + $(wc -l < "$f")))
  done
  total=$((total + lines))
  total_tests=$((total_tests + tests))
  pubs=$(git ls-files "${dir}src/*.rs" | xargs cat \
    | grep -cE '^\s*pub (fn|async fn|struct|enum|trait|const|type|use|mod) ' || true)
  echo "| dm-$crate | $lines | $tests | $pubs |"
done
echo ""
echo "Under \`crates/\`: ${total} non-test lines, ${total_tests} test lines"
