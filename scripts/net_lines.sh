#!/usr/bin/env bash
# Prints the lines added, removed and net per tree for the change since a
# base revision, from `git diff --numstat`:
#
#   scripts/net_lines.sh            # working tree against HEAD~1
#   scripts/net_lines.sh HEAD       # uncommitted changes only
#   scripts/net_lines.sh main       # against any other revision
#
# Trees: src, tests, bench, tools, examples, docs (Markdown files outside
# those trees) and other (everything else: scripts, CMake, perfbench, ...).
# New files count once they are tracked (`git add`); renames count as a
# deletion plus an addition; binary files are skipped.
set -euo pipefail

base="${1:-HEAD~1}"
cd "$(dirname "$0")/.."

git diff --numstat --no-renames "$base" -- | awk -F'\t' '
  $1 == "-" { next }  # binary file
  {
    split($3, parts, "/")
    tree = "other"
    if (parts[1] ~ /^(src|tests|bench|tools|examples)$/) tree = parts[1]
    else if ($3 ~ /\.md$/) tree = "docs"
    added[tree] += $1
    removed[tree] += $2
  }
  END {
    printf "%-9s %8s %8s %8s\n", "tree", "added", "removed", "net"
    n = split("src tests bench tools examples docs other", order, " ")
    for (i = 1; i <= n; i++) {
      t = order[i]
      printf "%-9s %8d %8d %+8d\n", t, added[t], removed[t], added[t] - removed[t]
      total_added += added[t]
      total_removed += removed[t]
    }
    printf "%-9s %8d %8d %+8d\n", "total", total_added, total_removed,
           total_added - total_removed
  }'
