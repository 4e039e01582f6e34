# Non-test lines of Rust sources. A file counts up to a column-0
# `#[cfg(test)]` whose next line opens `mod … {`; a file that a parent
# declares `#[cfg(test)] mod name;` is a test module and counts nothing.
# The first pass finds those declarations, the second counts:
#
#   awk -f tools/loc.awk pass=1 FILES… pass=2 FILES…
#
# Give pass 2 one file for that file's count.

function mod_name(line) {
    sub(/^(pub(\([a-z]+\))? )?mod /, "", line)
    sub(/[ ;{].*$/, "", line)
    return line
}

FNR == 1 { prev = ""; held = 0; stop = pass == 2 && (FILENAME in test_only) }

pass == 1 {
    if (prev ~ /^#\[cfg\(test\)\]/ && $0 ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) {
        # `lib.rs`, `main.rs` and `mod.rs` own their directory; `foo.rs`
        # owns `foo/`.
        dir = FILENAME
        sub(/[^\/]*$/, "", dir)
        file = FILENAME
        sub(/^.*\//, "", file)
        if (file != "lib.rs" && file != "main.rs" && file != "mod.rs") {
            sub(/\.rs$/, "", file)
            dir = dir file "/"
        }
        name = mod_name($0)
        test_only[dir name ".rs"] = 1
        test_only[dir name "/mod.rs"] = 1
    }
    prev = $0
    next
}

stop { next }

held {
    held = 0
    if ($0 ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/) {
        stop = 1
        next
    }
    n++
}

/^#\[cfg\(test\)\]/ { held = 1; next }

{ n++ }

END { print n + 0 }
