#!/usr/bin/env bash
# Prints the number of non-test Rust lines under crates/: every .rs file
# outside a tests/ directory, counted up to (not including) its first line
# containing `#[cfg(test)]`. Each change reports its net line count as the
# before → after of this number.
# Usage: scripts/loc.sh  (run from anywhere; operates on the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

# xargs may split a long file list over several awk runs; the last awk
# adds up their partial counts.
find crates -name '*.rs' -not -path '*/tests/*' -print0 | sort -z |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' | awk '{ total += $1 } END { print total + 0 }'
