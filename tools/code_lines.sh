#!/bin/sh
# Code lines per crate: for every crates/*/src/**/*.rs outside
# crates/compat, the lines before the file's first `#[cfg(test)]` that
# are neither blank nor start with `//`. Prints one line per crate and
# the total; `-v` adds one line per file. The vendored shims under
# crates/compat are counted by the same rule into a subtotal of their
# own, printed last, so deleting a shim shows.
set -eu
cd "$(dirname "$0")/.."
find crates -path '*/src/*' -name '*.rs' -print | sort |
    xargs awk -v verbose="${1:-}" '
        FNR == 1 {
            counting = 1
            split(FILENAME, part, "/")
            crate = part[2]
            if (crate != "compat") {
                if (!(crate in lines)) crates[++ncrates] = crate
                files[++nfiles] = FILENAME
            }
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// {
            if (crate == "compat") {
                compat++
                next
            }
            lines[crate]++
            lines[FILENAME]++
            total++
        }
        END {
            if (verbose == "-v")
                for (i = 1; i <= nfiles; i++)
                    printf "%6d  %s\n", lines[files[i]], files[i]
            for (i = 1; i <= ncrates; i++)
                printf "%6d  crates/%s\n", lines[crates[i]], crates[i]
            printf "%6d  total\n", total
            printf "%6d  crates/compat (not in the total)\n", compat
        }'
