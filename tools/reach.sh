#!/usr/bin/env bash
# Prints every func declared in a non-test file of a non-main package
# (outside bench/) that none of the repository's binaries links, minus
# tools/reach.allow. Prints nothing, and exits 0, when there is none.
#
# Every main — cmd/*, examples/*, bench/ — is built with inlining off
# (-gcflags=all=-l), so a function that is called anywhere is a symbol in
# `go tool nm` (an assembly body carries an .abi0 suffix, a generic
# instance its [shape]); what the linker's dead-code pass dropped from all
# of them is reached only by tests, or by nothing. Build output goes under
# .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
out="$build/reach"
allow="$root/tools/reach.allow"
# A binary left from a main that no longer exists would count as linked.
rm -rf "$out/bin"
mkdir -p "$build/tmp" "$out/bin"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

cd "$root"
go build -gcflags=all=-l -o "$out/bin/" ./cmd/... ./examples/...
(cd bench && go build -gcflags=all=-l -o "$out/bin/nfvbench" .)

for b in "$out"/bin/*; do go tool nm "$b"; done |
	awk '$2 ~ /^[Tt]$/ { sub(/\.abi0$|\[.*/, "", $3); print $3 }' | sort -u >"$out/linked"

# "file:line symbol" for every declared func, named the way the linker names it.
go list -f '{{if ne .Name "main"}}{{$p := .}}{{range .GoFiles}}{{$p.ImportPath}} {{$p.Dir}}/{{.}}
{{end}}{{end}}' ./... | while read -r pkg file; do
	[ -n "$pkg" ] || continue
	awk -v pkg="$pkg" -v file="${file#"$root"/}" '
		/^func / {
			s = $0; sub(/^func /, "", s); recv = ""
			if (s ~ /^\(/) {
				recv = s; sub(/^\(/, "", recv); sub(/\).*/, "", recv)
				sub(/^[A-Za-z_0-9]+ /, "", recv)
				recv = (recv ~ /^\*/ ? "(" recv ")" : recv) "."
				sub(/^\([^)]*\) /, "", s)
			}
			sub(/[^A-Za-z_0-9].*/, "", s)
			if (s != "init") print file ":" FNR, pkg "." recv s
		}' "$file"
done | sort -k2 >"$out/declared"

# Every allow-list line is "symbol reason..."; a bare symbol is an error.
awk 'NF && $1 !~ /^#/ { if (NF < 2) { print "tools/reach.allow:" FNR ": no reason: " $1 > "/dev/stderr"; bad = 1 } else print $1 }
	END { exit bad }' "$allow" | sort -u >"$out/allowed"

awk 'FILENAME == ARGV[1] { linked[$1]; next } !($2 in linked)' "$out/linked" "$out/declared" >"$out/unlinked"
{
	awk 'FILENAME == ARGV[1] { ok[$1]; next } !($2 in ok)' "$out/allowed" "$out/unlinked"
	awk 'FILENAME == ARGV[1] { dead[$2]; next } !($1 in dead) { print "tools/reach.allow: stale entry: " $1 }' "$out/unlinked" "$out/allowed"
} | tee "$out/report"
[ ! -s "$out/report" ]
