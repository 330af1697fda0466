#!/bin/sh
# Dead exports are errors: every `val` of a lib/*/*.mli must be named in
# some .ml or .mli file under lib/, bin/, test/, perfbench/ or examples/
# other than its own module's two.  It is a word search, so a mention in
# a comment counts as a use.  Run from the repository root:
#   sh bin/check_exports.sh
awk '
  FNR == 1 { m = FILENAME; sub(/\.mli?$/, "", m) }
  FILENAME ~ /^lib\/[^\/]+\/[^\/]+\.mli$/ && $1 == "val" && $2 ~ /^[a-z_]/ {
    v = $2
    sub(/:.*/, "", v)
    vals[m, v] = 1
  }
  {
    line = $0
    while (match(line, /[A-Za-z_][A-Za-z0-9_'"'"']*/)) {
      w = substr(line, RSTART, RLENGTH)
      line = substr(line, RSTART + RLENGTH)
      if (!((m, w) in seen)) { seen[m, w] = 1; users[w]++ }
    }
  }
  END {
    for (k in vals) {
      split(k, p, SUBSEP)
      if (users[p[2]] > 1) continue
      n = split(p[1], path, "/")
      mod = toupper(substr(path[n], 1, 1)) substr(path[n], 2)
      print mod "." p[2] ": exported by " p[1] ".mli and named in no other module" | "sort"
      dead = 1
    }
    close("sort")
    exit dead
  }' $(find lib bin test perfbench examples -name '*.ml' -o -name '*.mli' | sort)
