#!/bin/sh
# Runs a command and passes only when it exits with the expected status and its output
# (stdout and stderr together) matches a grep -E pattern. ctest's WILL_FAIL accepts any
# nonzero status, and PASS_REGULAR_EXPRESSION ignores the status altogether.
#
#   sh tests/expect_exit.sh STATUS PATTERN COMMAND [ARG...]
if [ $# -lt 3 ]; then
  echo "usage: $0 STATUS PATTERN COMMAND [ARG...]" >&2
  exit 2
fi
want=$1
pattern=$2
shift 2
out=$("$@" 2>&1)
status=$?
printf '%s\n' "$out"
if [ "$status" -ne "$want" ]; then
  echo "expect_exit: exit status $status, expected $want: $*" >&2
  exit 1
fi
if ! printf '%s\n' "$out" | grep -Eq "$pattern"; then
  echo "expect_exit: output does not match '$pattern': $*" >&2
  exit 1
fi
