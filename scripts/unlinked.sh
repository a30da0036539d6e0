#!/usr/bin/env bash
# unlinked.sh — fail when a non-test function outside bench/ is linked by
# no binary. Production code is what a binary links: every cmd/*,
# examples/* and ./bench main is built with inlining off (an inlined
# function leaves no symbol of its own), the text symbols of all of them
# are read with `go tool nm`, and each function and method declared in a
# non-test file of this platform's build is looked up among them. What no
# binary links must be deleted, or listed in scripts/unlinked.keep with
# the reason it stays (one symbol and one reason per line).
#
#   bash scripts/unlinked.sh
#
# Symbols are written relative to github.com/fedzkt/ — fedzkt.New,
# fedzkt/internal/tensor.MaxAbsDiff, fedzkt/internal/tensor.Arena.StepBytes
# (a method is Type.Method whatever its receiver) — in what this script
# prints and in the keep file.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."

prefix=github.com/fedzkt/
keep=scripts/unlinked.keep
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Every text symbol any main links, normalised: a main package's symbols
# take its import path, "(*T).M" and "T.M" are one method, generic
# instantiations ("[...]", possibly nested) and the ".abi0" suffix of the
# assembly functions' Go prototypes are dropped.
mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/... ./bench)
: >"$work/linked"
for pkg in $mains; do
  bin="$work/bin"
  go build -gcflags=all=-l -o "$bin" "$pkg"
  go tool nm "$bin" | awk '$2 == "T" || $2 == "t" {print $3}' |
    sed -e "s#^main\\.#$pkg.#" -e ':a' -e 's/\[[^][]*\]//' -e 'ta' \
      -e 's/\.abi0$//' -e 's/(\*\([^)]*\))/\1/' >>"$work/linked"
done
sed -i "s#^$prefix##" "$work/linked"
sort -u -o "$work/linked" "$work/linked"

# Every function and method declared in a non-test Go file outside bench/
# that this platform builds (go list's GoFiles honour build constraints).
go list -f '{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}' ./... |
  grep -v "^${prefix}fedzkt/bench " |
  while read -r pkg file; do
    awk -v pkg="${pkg#"$prefix"}" -v file="${file#"$PWD"/}" '
      /^func / {
        line = $0
        sub(/^func /, "", line)
        if (line ~ /^\(/) { # method: func (r *T[P]) M(
          recv = line
          sub(/\).*/, "", recv)
          sub(/^\(/, "", recv)
          n = split(recv, f, " ")
          typ = f[n]
          sub(/^\*/, "", typ)
          sub(/\[.*/, "", typ)
          sub(/^[^)]*\) */, "", line)
          name = line
          sub(/[^A-Za-z0-9_].*/, "", name)
          sym = typ "." name
        } else {
          name = line
          sub(/[^A-Za-z0-9_].*/, "", name)
          sym = name
        }
        if (name == "init" || name == "_" || name == "") next
        print pkg "." sym, file ":" FNR
      }' "$file"
  done | sort -u >"$work/declared"

# The keep list: the first field of each line that is not blank or a comment.
awk '!/^[[:space:]]*(#|$)/ {print $1}' "$keep" | sort -u >"$work/kept"

status=0
unlinked=$(join -v1 "$work/declared" "$work/linked" | join -v1 - "$work/kept")
if [ -n "$unlinked" ]; then
  echo "unlinked.sh: non-test functions no binary links (delete them, or list each in $keep with its reason):" >&2
  printf '%s\n' "$unlinked" | awk '{print "  " $2 "  " $1}' >&2
  status=1
fi
# A keep line whose symbol is gone, or is linked after all, is stale.
stale=$(cut -d' ' -f1 "$work/declared" | join -v2 - "$work/kept")
stale+=$(printf '\n%s' "$(join "$work/kept" "$work/linked")")
if [ -n "${stale//$'\n'/}" ]; then
  echo "unlinked.sh: $keep lists symbols that are not declared, or that a binary links:" >&2
  printf '%s\n' "$stale" | sed '/^$/d; s/^/  /' >&2
  status=1
fi
[ "$status" -eq 0 ] && echo "unlinked.sh: every non-test function outside bench/ is linked by a binary or kept in $keep"
exit "$status"
