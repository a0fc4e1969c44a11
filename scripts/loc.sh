#!/usr/bin/env bash
# Non-test lines per crate: for each .rs file under crates/*/src, the lines
# before its first `#[cfg(test)]` (the whole file if it has none).
# Usage: scripts/loc.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { skip = 0 }
        /#\[cfg\(test\)\]/ { skip = 1 }
        !skip { n++ }
        END { print n + 0 }'
}

for src in crates/*/src; do
    crate=${src#crates/}
    printf '%-12s %6d\n' "${crate%/src}" "$(count "$src")"
done
printf '%-12s %6d\n' total "$(count crates/*/src)"
