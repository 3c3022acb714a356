#!/usr/bin/env bash
# Function-level product closure: lists every src/ function and every src/
# file that no product binary links, and fails on any entry that is not on
# the reviewed keep-list (scripts/unreferenced_functions.keep).
#
#   scripts/unreferenced_functions.sh     # report + gate; exit 1 on a finding
#
# Method. perfbench/ is configured into build-closure/ at -O0 with
# -ffunction-sections, passed on the command line (perfbench/ itself is not
# edited), so every function has its own section and no call disappears
# into an inlined body. Two product binaries are then linked with
# --gc-sections --print-gc-sections against the same libpiye_*.a archives:
#   - piye_perfbench, from its own link line;
#   - tools/source_server.cc, compiled with the same flags.
# Both also get -u <sym> for every strong symbol defined in
# core/private_iye.cc.o and mediator/engine.cc.o, so the requester API of
# PrivateIye and MediationEngine counts as called even where neither binary
# calls it.
#
# Only functions with an out-of-line body in a src/ .cc file (nm type T or t)
# are judged: inline and template functions are emitted only where something
# calls them, so their callers stand for them. Reported, one per line:
#   file <path>        a src/ .cc file none of whose functions either binary
#                      keeps (an archive member neither link pulls included);
#   function <name>    any other piye:: function whose section both links
#                      drop and neither binary defines. The name keeps its
#                      parameter list, so overloads stay apart; a lambda
#                      folds into the function that holds it.
#
# Keep-list: one line per entry, `<name> -- <why it stays>`, where <name> is
# the report line without its `file`/`function` word; `#` starts a comment.
# The script fails on a reported name missing from the list and on a listed
# name that is no longer reported, so the list stays exact.
set -euo pipefail
export LC_ALL=C

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-closure"
KEEP="$ROOT/scripts/unreferenced_functions.keep"
OUT="$BUILD/closure"
mkdir -p "$OUT"

if ! { cmake -S "$ROOT/perfbench" -B "$BUILD" -DCMAKE_BUILD_TYPE=Debug \
         -DCMAKE_CXX_FLAGS_DEBUG="-O0 -ffunction-sections" &&
       cmake --build "$BUILD" -j "$(nproc)" --target piye_perfbench; } \
     > "$OUT/build.log" 2>&1; then
  cat "$OUT/build.log"
  exit 1
fi

# The perfbench link line, run from the build directory:
# `<cxx> <flags> <objects> -o piye_perfbench <archives...>`.
read -ra link < "$BUILD/CMakeFiles/piye_perfbench.dir/link.txt"
cxx="${link[0]}"
archives=()
for ((i = 0; i < ${#link[@]}; i++)); do
  if [[ "${link[i]}" == "-o" ]]; then
    archives=("${link[@]:i+2}")
    break
  fi
done

roots=()
for obj in core/CMakeFiles/piye_core.dir/private_iye.cc.o \
           mediator/CMakeFiles/piye_mediator.dir/engine.cc.o; do
  while read -r sym; do
    roots+=("-Wl,-u,$sym")
  done < <(nm --defined-only "$BUILD/piye/$obj" | awk '$2 ~ /^[TDBR]$/ { print $3 }')
done
gc=(-Wl,--gc-sections -Wl,--print-gc-sections "${roots[@]}")

(cd "$BUILD" && "${link[@]/#piye_perfbench/$OUT/perfbench}" "${gc[@]}" \
  2> "$OUT/perfbench.gc")
"$cxx" -std=c++20 -O0 -ffunction-sections -I "$ROOT/src" \
  -c "$ROOT/tools/source_server.cc" -o "$OUT/source_server.o"
(cd "$BUILD" && "$cxx" -O0 "$OUT/source_server.o" -o "$OUT/source_server" \
  "${archives[@]}" -pthread "${gc[@]}" 2> "$OUT/source_server.gc")

# Mangled names of the functions a link drops from the archives.
dropped() {
  sed -n "s/.*removing unused section '\.text\.\([^'[]*\)[^']*' in file '.*libpiye_[a-z]*\.a(.*/\1/p" "$1" |
    sort -u
}
dropped "$OUT/perfbench.gc" > "$OUT/perfbench.dropped"
dropped "$OUT/source_server.gc" > "$OUT/source_server.dropped"
# Mangled names either binary defines.
nm --defined-only "$OUT/perfbench" "$OUT/source_server" | awk '{ print $3 }' |
  sort -u > "$OUT/linked"
# `src/<dir>/<file> <mangled>` for every out-of-line function in the archives.
(cd "$BUILD/piye" && nm -A --defined-only */libpiye_*.a 2> /dev/null) |
  awk '$2 ~ /^[Tt]$/ {
         split($1, at, ":")                     # <dir>/libpiye_<dir>.a, <file>.o
         split(at[1], dir, "/")
         sub(/\.o$/, "", at[2])
         print "src/" dir[1] "/" at[2], $3
       }' | sort -u > "$OUT/out_of_line"

# Files with no linked function.
awk 'FILENAME == ARGV[1] { linked[$1] = 1; next }
     { seen[$1] = 1; if ($2 in linked) live[$1] = 1 }
     END { for (f in seen) if (!(f in live)) print f }' \
  "$OUT/linked" "$OUT/out_of_line" | sort > "$OUT/dead_files"

# Functions both links drop, outside the dead files, in the piye namespace.
comm -12 "$OUT/perfbench.dropped" "$OUT/source_server.dropped" |
  comm -23 - "$OUT/linked" |
  awk 'FILENAME == ARGV[1] { dead[$1] = 1; next }
       FILENAME == ARGV[2] { if (!($1 in dead)) ool[$2] = 1; next }
       $1 in ool' "$OUT/dead_files" "$OUT/out_of_line" - |
  grep -E '^_ZZ?N[KVRO]*4piye' |
  c++filt |
  sed -e 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' \
      -e 's/std::basic_string_view<char, std::char_traits<char> >/std::string_view/g' \
      -e 's/\[abi:cxx11\]//g' \
      -e ':a' -e 's/, std::allocator<[^<>]*\(<[^<>]*>\)*[^<>]*> >/>/' -e 'ta' |
  awk '/^piye::/ {
         # Cut after the parameter list (and a const qualifier). A template
         # instantiation (a "<" before the parameters) is left to its caller.
         depth = 0
         templated = 0
         for (i = 1; i <= length($0); i++) {
           if (substr($0, i, 21) == "(anonymous namespace)") { i += 20; continue }
           if (substr($0, i, 10) == "operator()") { i += 9; continue }
           if (substr($0, i, 8) == "operator") {
             for (i += 7; substr($0, i + 1, 1) ~ /[<>=!+*\/&|~^%-]/; i++) {}
             continue
           }
           c = substr($0, i, 1)
           if (c == "<" && depth == 0) templated = 1
           if (c == "<" || c == "(") depth++
           else if (c == ">") depth--
           else if (c == ")" && --depth == 0) break
         }
         if (templated) next
         name = substr($0, 1, i)
         if (substr($0, i + 1, 6) == " const") name = name " const"
         print name
       }' | sort -u > "$OUT/functions"

{
  sed 's/^/file /' "$OUT/dead_files"
  sed 's/^/function /' "$OUT/functions"
} > "$OUT/report.txt"
sed -e 's/#.*//' -e '/^[[:space:]]*$/d' -e 's/[[:space:]]*--[[:space:]].*//' "$KEEP" |
  sort -u > "$OUT/keep"
cut -d' ' -f2- "$OUT/report.txt" | sort -u > "$OUT/reported"

echo "unreferenced_functions: $(wc -l < "$OUT/dead_files") files and" \
     "$(wc -l < "$OUT/functions") functions no product binary links" \
     "(report: ${OUT#"$ROOT"/}/report.txt)"
status=0
while IFS= read -r name; do
  echo "not on the keep-list: $name"
  status=1
done < <(comm -23 "$OUT/reported" "$OUT/keep")
while IFS= read -r name; do
  echo "stale keep-list entry (now linked, or gone): $name"
  status=1
done < <(comm -13 "$OUT/reported" "$OUT/keep")
exit "$status"
