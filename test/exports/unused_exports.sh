#!/bin/sh
# Lists every `val` in lib/**/*.mli that no .ml file under lib, bin, bench,
# examples, fuzz or perfbench calls outside the module's own .ml.  A call
# is the name qualified by its module (`Dist.gaussian`, also inside
# `Stats.Dist.gaussian`), qualified by a local alias of the module
# (`module P = Codetomo.Pipeline`, then `P.simulate`), or the bare name in
# a file that opens the module (`open`, `let open`, `M.( ... )`).  A val
# declared inside `module X : sig ... end` is qualified by X.
# Run it from the repository root.  test/exports/dune diffs its output
# against unused_exports.expected, which holds the exports kept on purpose:
# helpers that tests use to check kept behaviour, and exports used only
# inside their own module.  A new export that no program calls then fails
# `dune runtest`.
export LC_ALL=C
mls=$(find lib bin bench examples fuzz perfbench -name '*.ml' | sort)
# The .ml files are read twice: the first pass finds each file's aliases
# and opens, the second its uses.
awk '
function last(path,   n, parts) { n = split(path, parts, "."); return parts[n] }
function use(key) {
  if (!((key, FILENAME) in seen)) { seen[key, FILENAME] = 1; files[key] = files[key] " " FILENAME }
}
FNR == 1 { pass = (FILENAME in visited) ? 2 : 1; visited[FILENAME] = 1 }
FILENAME ~ /\.mli$/ {
  if (FNR == 1) { n = split(FILENAME, p, "/"); top = toupper(substr(p[n], 1, 1)) substr(p[n], 2, length(p[n]) - 5); inner = "" }
  if (match($0, /^module [A-Z][A-Za-z0-9_]* : sig/)) { split($0, w, " "); inner = w[2] }
  else if ($0 ~ /^end/) inner = ""
  else if (match($0, /^ *val [a-z_][A-Za-z0-9_'\'']*/)) {
    split(substr($0, RSTART, RLENGTH), w, " ")
    nv++; vmli[nv] = FILENAME; vname[nv] = w[2]; vmod[nv] = (inner == "" ? top : inner)
  }
  next
}
pass == 1 {
  line = $0
  while (match(line, /module [A-Z][A-Za-z0-9_]* = [A-Z][A-Za-z0-9_.]*/)) {
    split(substr(line, RSTART, RLENGTH), w, " "); alias[FILENAME, w[2]] = last(w[4])
    line = substr(line, RSTART + RLENGTH)
  }
  line = $0
  while (match(line, /open!? [A-Z][A-Za-z0-9_.]*/)) {
    split(substr(line, RSTART, RLENGTH), w, " "); opens[FILENAME] = opens[FILENAME] " " last(w[2])
    line = substr(line, RSTART + RLENGTH)
  }
  line = $0
  while (match(line, /[A-Z][A-Za-z0-9_]*\.\(/)) {
    opens[FILENAME] = opens[FILENAME] " " substr(line, RSTART, RLENGTH - 2)
    line = substr(line, RSTART + RLENGTH)
  }
  next
}
{
  line = $0
  while (match(line, /[A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_'\'']*/)) {
    split(substr(line, RSTART, RLENGTH), w, ".")
    q = ((FILENAME, w[1]) in alias) ? alias[FILENAME, w[1]] : w[1]
    use(q "." w[2])
    line = substr(line, RSTART + RLENGTH)
  }
  if (FILENAME in opens) {
    no = split(opens[FILENAME], o, " ")
    line = $0
    while (match(line, /[a-z_][A-Za-z0-9_'\'']*/)) {
      for (i = 1; i <= no; i++) use(o[i] "." substr(line, RSTART, RLENGTH))
      line = substr(line, RSTART + RLENGTH)
    }
  }
}
END {
  for (i = 1; i <= nv; i++) {
    own = substr(vmli[i], 1, length(vmli[i]) - 1)
    nf = split(files[vmod[i] "." vname[i]], f, " ")
    called = 0
    for (j = 1; j <= nf; j++) if (f[j] != own) called = 1
    if (!called) print substr(vmli[i], 5) " " vname[i]
  }
}
' $(find lib -name '*.mli' | sort) $mls $mls
