#!/usr/bin/env bash
# Checks that every test named in a `-run` or `-fuzz` list of the CI
# workflow still exists: go test treats a pattern that matches nothing as
# success, so a renamed or deleted test would silently drop out of its
# smoke step. Each `|`-separated alternative of a list (the part before a
# subtest `/`) must match the name of at least one Test or Fuzz function
# in the module. Run from the repository root:
#
#	bash .github/check-run-lists.sh [workflow.yml]
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}
names=$(grep -rhoE '^func (Test|Fuzz)[A-Za-z0-9_]*\(' --include='*_test.go' . | sed -E 's/^func //; s/\($//' | sort -u)

status=0
while IFS= read -r list; do
	IFS='|' read -ra alts <<<"$list"
	for alt in "${alts[@]}"; do
		alt=${alt%%/*}
		bare=${alt#^}
		bare=${bare%$}
		[ -n "$bare" ] || continue # '^$': run no tests
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "$workflow: '$alt' names no Test or Fuzz function" >&2
			status=1
		fi
	done
done < <(grep -oE -- "-(run|fuzz) '[^']*'" "$workflow" | sed -E "s/^-(run|fuzz) '//; s/'$//")

exit $status
