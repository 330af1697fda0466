#!/bin/sh
# Dead exports are errors: every `val` of a lib/*/*.mli must be used in
# some .ml or .mli file under lib/, bin/, test/, perfbench/ or examples/
# other than its own module's two.  A file uses Mod.v where it names it
# qualified (Mod.v, Lib.Mod.v, or A.v after `module A = ...Mod`), or
# names v bare while it opens or includes Mod (`open`, `include`, or a
# local `Mod.(...)`).  Comments and strings count.  Run from the
# repository root:
#   sh bin/check_exports.sh
awk '
  function last(path,   c) { return c[split(path, c, ".")] }
  function resolve(f, q) { return ((f, q) in alias) ? alias[f, q] : q }
  FNR == 1 { f = FILENAME; sub(/\.mli?$/, "", f); prev = ""; prev2 = ""; tail = "" }
  FILENAME ~ /^lib\/[^\/]+\/[^\/]+\.mli$/ && $1 == "val" && $2 ~ /^[a-z_]/ {
    v = $2
    sub(/:.*/, "", v)
    vals[f, v] = 1
  }
  {
    line = $0
    while (match(line, /[A-Za-z_][A-Za-z0-9_'"'"']*(\.[A-Za-z_][A-Za-z0-9_'"'"']*)*/)) {
      gap = tail substr(line, 1, RSTART - 1)
      w = substr(line, RSTART, RLENGTH)
      line = substr(line, RSTART + RLENGTH)
      tail = ""
      n = split(w, c, ".")
      if (c[1] ~ /^[A-Z]/) {
        if ((prev == "open" || prev == "include") && gap ~ /^!?[ \t]+$/) opened[f, last(w)] = 1
        else if (prev2 == "module" && prev ~ /^[A-Z]/ && gap ~ /^[ \t]*=[ \t]*$/)
          alias[f, prev] = last(w)
        if (c[n] ~ /^[A-Z]/ && substr(line, 1, 2) == ".(") opened[f, c[n]] = 1
      }
      else bare[f, c[1]] = 1
      for (i = 2; i <= n; i++) if (c[i] ~ /^[a-z_]/ && c[i - 1] ~ /^[A-Z]/) qual[f, c[i - 1], c[i]] = 1
      prev2 = prev
      prev = w
    }
    tail = line " "
  }
  END {
    for (k in qual) {
      split(k, p, SUBSEP)
      used[resolve(p[1], p[2]), p[3], p[1]] = 1
    }
    for (k in opened) {
      split(k, p, SUBSEP)
      opens[p[1]] = opens[p[1]] " " resolve(p[1], p[2])
    }
    for (k in bare) {
      split(k, p, SUBSEP)
      if (!(p[1] in opens)) continue
      n = split(opens[p[1]], mods, " ")
      for (i = 1; i <= n; i++) used[mods[i], p[2], p[1]] = 1
    }
    for (k in used) {
      split(k, p, SUBSEP)
      users[p[1], p[2]]++
    }
    for (k in vals) {
      split(k, p, SUBSEP)
      n = split(p[1], path, "/")
      mod = toupper(substr(path[n], 1, 1)) substr(path[n], 2)
      if (users[mod, p[2]] - ((mod, p[2], p[1]) in used) > 0) continue
      print mod "." p[2] ": exported by " p[1] ".mli and used in no other module" | "sort"
      dead = 1
    }
    close("sort")
    exit dead
  }' $(find lib bin test perfbench examples -name '*.ml' -o -name '*.mli' | sort)
