#!/bin/sh
# Lists every `val` in lib/**/*.mli whose name no .ml file under lib, bin,
# bench, examples, fuzz or perfbench mentions outside the module's own .ml.
# The match is by whole word, so it only catches names nothing else uses.
# Run it from the repository root.  test/exports/dune diffs its output
# against unused_exports.expected, which holds the exports kept on purpose:
# helpers that tests use to check kept behaviour, and exports used only
# inside their own module.  A new export that no program calls then fails
# `dune runtest`.
export LC_ALL=C
for mli in $(find lib -name '*.mli' | sort); do
  own=${mli%i}
  for v in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli"); do
    grep -rlw --include='*.ml' -- "$v" lib bin bench examples fuzz perfbench |
      grep -qvx "$own" || echo "${mli#lib/} $v"
  done
done
