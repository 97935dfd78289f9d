#!/usr/bin/env bash
# Documentation lint, wired into ctest under the `docs` label:
#   1. every intra-repo markdown link (relative path, not http/mailto/#)
#      in the top-level *.md files must point at an existing file;
#   2. SCENARIOS.md and scenarios/*.json name the same scenarios;
#   3. DESIGN.md's fault-kind table and fault_kind_name() agree;
#   4. every backticked `Suite.Name` test citation in the design and user
#      docs names a TEST, TEST_F or TEST_P in tests/;
#   5. every public header in src/obs must carry a file-top comment and a
#      doc comment on each top-level class/struct, so the observability
#      API cannot drift undocumented;
#   6. SCENARIOS.md's schema reference names every key scenarios/*.json
#      use and every fault_kind_name() wire name;
#   7. every backticked `k[A-Z]...` identifier in the design and user
#      docs occurs in src/, bench/, tests/, examples/ or perfbench/;
#   8. every src/<module>/<name>.hpp is #included by some file in src/,
#      bench/, examples/ or perfbench/ other than its own .cpp, so no src
#      code is reached by tests alone;
#   9. every src/<module>/ holding a CMakeLists.txt has a | `src/<module>` |
#      row in DESIGN.md's module table, and every such row names one.
# Exits non-zero listing every violation; prints nothing on success
# beyond a one-line summary.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root" || exit 1

fail=0

# --- 1. intra-repo markdown links ------------------------------------------
for md in ./*.md; do
  # Extract (target) parts of [text](target) links, one per line. Inline
  # code spans are not parsed; our docs only use plain links.
  targets=$(grep -o ']([^)]*)' "$md" | sed 's/^](//; s/)$//')
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"           # strip any #anchor
    [ -z "$path" ] && continue
    if [ ! -e "$repo_root/$path" ]; then
      echo "BROKEN LINK: $md -> $target"
      fail=1
    fi
  done <<EOF
$targets
EOF
done

# --- 2. SCENARIOS.md <-> scenarios/*.json consistency ----------------------
# The catalogue and the library must agree in both directions: every
# shipped scenario file has a `### <name>` entry in SCENARIOS.md, and
# every catalogue entry points at a file that exists. A scenario added
# without docs (or docs for a deleted scenario) fails the docs label.
if [ -d scenarios ] && [ -f SCENARIOS.md ]; then
  for f in scenarios/*.json; do
    name="$(basename "$f" .json)"
    if ! grep -q "^### ${name}\$" SCENARIOS.md; then
      echo "UNDOCUMENTED SCENARIO: $f has no '### ${name}' entry in SCENARIOS.md"
      fail=1
    fi
  done
  while IFS= read -r name; do
    if [ ! -f "scenarios/${name}.json" ]; then
      echo "STALE CATALOGUE ENTRY: SCENARIOS.md '### ${name}' has no scenarios/${name}.json"
      fail=1
    fi
  done <<EOF
$(grep '^### [a-z0-9_]*$' SCENARIOS.md | sed 's/^### //')
EOF
fi

# --- 3. DESIGN.md fault-kind table <-> fault_kind_name() -------------------
# The §6 fault table and the registered FaultKinds must agree in both
# directions: every wire name returned by fault_kind_name() appears as a
# `` `name` `` table row in DESIGN.md, and every fault-kind-looking row in
# the table names a registered kind. A kind added without docs (or docs
# for a deleted kind) fails the docs label.
code_kinds=$(sed -n 's/.*case FaultKind::[A-Za-z]*: return "\([a-z0-9_]*\)";.*/\1/p' \
  src/sim/fault_injector.cpp 2>/dev/null | sort -u)
if [ -z "$code_kinds" ]; then
  echo "FAULT KIND LINT BROKEN: no names parsed from fault_kind_name()"
  fail=1
fi
if [ -f DESIGN.md ]; then
  # Table rows look like `| `name` | ... |`; restrict to the documented
  # wire-name alphabet so prose rows never false-positive.
  doc_kinds=$(grep -o '^| `[a-z0-9_]*`' DESIGN.md | sed 's/^| `//; s/`$//' | sort -u)
  for kind in $code_kinds; do
    if ! printf '%s\n' "$doc_kinds" | grep -qx "$kind"; then
      echo "UNDOCUMENTED FAULT KIND: fault_kind_name() returns '$kind' but DESIGN.md has no \`$kind\` table row"
      fail=1
    fi
  done
  for kind in $doc_kinds; do
    case "$kind" in
      # Non-fault tables in DESIGN.md also use `| `slug` |` rows; only
      # lint rows whose slug collides with the fault-kind namespace.
      signaling_*|pilot_*|processing_*|coverage_*|command_*|backhaul_*|bs_*|region_*|cascade_*)
        if ! printf '%s\n' "$code_kinds" | grep -qx "$kind"; then
          echo "STALE FAULT KIND ROW: DESIGN.md documents \`$kind\` but fault_kind_name() never returns it"
          fail=1
        fi
        ;;
    esac
  done
fi

# --- 4. cited test names <-> TEST/TEST_F/TEST_P in tests/ ----------------
# A backtick span that is exactly `Suite.Name` (both parts starting with a
# capital letter) is a test citation and must name a test defined in
# tests/; a trailing `*` (`Suite.Prefix*`, `Suite.*`) matches by prefix.
# grep -z lets a TEST( wrapped after the '(' or the ',' match.
code_tests=$(grep -hozE 'TEST(_F|_P)?\([[:space:]]*[A-Za-z0-9_]+,[[:space:]]*[A-Za-z0-9_]+' \
  tests/*.cpp | tr '\0' '\n' |
  sed -nE 's/^TEST(_F|_P)?\([[:space:]]*([A-Za-z0-9_]+),[[:space:]]*([A-Za-z0-9_]+)$/\2.\3/p' |
  sort -u)
if [ -z "$code_tests" ]; then
  echo "TEST NAME LINT BROKEN: no TEST(...) definitions parsed from tests/"
  fail=1
fi
for md in DESIGN.md README.md OBSERVABILITY.md SCENARIOS.md EXPERIMENTS.md; do
  [ -f "$md" ] || continue
  while IFS= read -r name; do
    [ -z "$name" ] && continue
    if ! printf '%s\n' "$code_tests" | awk -v cite="$name" '
        { want = cite; prefix = sub(/\*$/, "", want)
          if (prefix ? index($0, want) == 1 : $0 == want) found = 1 }
        END { exit !found }'; then
      echo "UNKNOWN TEST: $md cites \`$name\`, which no TEST, TEST_F or TEST_P in tests/ defines"
      fail=1
    fi
  done <<EOF
$(grep -o '`[^`]*`' "$md" | tr -d '`' |
  grep -E '^[A-Z][A-Za-z0-9_]*\.([A-Z][A-Za-z0-9_]*\*?|\*)$' | sort -u)
EOF
done

# --- 5. doc comments on src/obs public headers -----------------------------
for hdr in src/obs/*.hpp; do
  if ! head -n 1 "$hdr" | grep -q '^//'; then
    echo "MISSING FILE COMMENT: $hdr must open with a // comment block"
    fail=1
  fi
  # Every top-level class/struct must be preceded by a comment line.
  violations=$(awk '
    /^(class|struct) [A-Za-z_]+/ {
      if (prev !~ /^\/\// && prev !~ /\*\//)
        print FILENAME ":" FNR ": undocumented: " $0
    }
    { prev = $0 }
  ' "$hdr")
  if [ -n "$violations" ]; then
    echo "$violations"
    fail=1
  fi
done

# --- 6. SCENARIOS.md schema reference <-> scenario keys + fault kinds -----
# Every key the library files use, with each numeric index written as
# <i> (`fault.0.kind` -> `fault.<i>.kind`), and every fault-kind wire name
# must appear in backticks in SCENARIOS.md, so the schema reference cannot
# fall behind the files or the FaultKind enum.
if [ -d scenarios ] && [ -f SCENARIOS.md ]; then
  scenario_keys=$(sed -n 's/^[[:space:]]*"\([^"]*\)": .*/\1/p' scenarios/*.json |
    sed 's/\.[0-9][0-9]*\./.<i>./g' | sort -u)
  for key in $scenario_keys; do
    if ! grep -qF "\`$key\`" SCENARIOS.md; then
      echo "UNDOCUMENTED SCENARIO KEY: scenarios/*.json use '$key' but SCENARIOS.md never names \`$key\`"
      fail=1
    fi
  done
  for kind in $code_kinds; do
    if ! grep -qF "\`$kind\`" SCENARIOS.md; then
      echo "UNDOCUMENTED FAULT KIND: fault_kind_name() returns '$kind' but SCENARIOS.md never names \`$kind\`"
      fail=1
    fi
  done
fi

# --- 7. backticked k-identifiers in the docs exist in code ----------------
# Every `kName` (alone or qualified, as in `FaultKind::kBsCrash`) inside a
# backtick code span of these docs must occur as a word in the code trees
# (markdown excluded, so a doc never vouches for itself): an enumerator or
# constant renamed or deleted in code cannot linger in the docs. CHANGES.md
# and ROADMAP.md are history and are not checked.
for md in DESIGN.md README.md OBSERVABILITY.md SCENARIOS.md EXPERIMENTS.md \
          perfbench/README.md; do
  [ -f "$md" ] || continue
  names=$(grep -o '`[^`]*`' "$md" |
    grep -oE '(^|[^A-Za-z0-9_])k[A-Z][A-Za-z0-9_]*' | sed -E 's/^[^k]//' |
    sort -u)
  for name in $names; do
    if ! grep -rqw --exclude='*.md' -- "$name" src bench tests examples \
           perfbench; then
      echo "UNKNOWN IDENTIFIER: $md names \`$name\`, which occurs nowhere in src/, bench/, tests/, examples/ or perfbench/"
      fail=1
    fi
  done
done

# --- 8. every src header has a reader besides its own .cpp ---------------
# Tests do not count as readers: a module that only tests include either
# gains a bench, example or src caller or goes with its tests.
includes=$(grep -rHoE --include='*.cpp' --include='*.hpp' \
    '^#include "[a-z0-9_]+/[a-z0-9_]+\.hpp"' src bench examples perfbench |
  sed -E 's/:#include "(.*)"$/ \1/')
for hdr in src/*/*.hpp; do
  own="${hdr%.hpp}.cpp"
  if ! printf '%s\n' "$includes" | awk -v hdr="${hdr#src/}" -v own="$own" '
      $2 == hdr && $1 != own { found = 1 } END { exit !found }'; then
    echo "UNREAD HEADER: $hdr is #included by no file in src/, bench/, examples/ or perfbench/ besides $own"
    fail=1
  fi
done

# --- 9. DESIGN.md's module table <-> the src libraries ---------------------
# §3 inventories every library: one added without a row, or a row left for
# a deleted module, fails the docs label.
for cml in src/*/CMakeLists.txt; do
  mod="${cml%/CMakeLists.txt}"
  if ! grep -qF "| \`$mod\` |" DESIGN.md; then
    echo "MISSING MODULE ROW: $mod has a CMakeLists.txt but no | \`$mod\` | row in DESIGN.md's module table"
    fail=1
  fi
done
while IFS= read -r mod; do
  [ -z "$mod" ] && continue
  if [ ! -f "$mod/CMakeLists.txt" ]; then
    echo "STALE MODULE ROW: DESIGN.md's module table names \`$mod\`, which has no $mod/CMakeLists.txt"
    fail=1
  fi
done <<EOF
$(grep -oE '^\| `src/[a-z0-9_]+` \|' DESIGN.md | grep -oE 'src/[a-z0-9_]+')
EOF

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: ok (markdown links + scenario catalogue + fault-kind table + cited test names + src/obs header docs + scenario schema keys + doc k-identifiers + src header readers + module table)"
