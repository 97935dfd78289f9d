#!/usr/bin/env bash
# Usage-error check for a command-line tool: runs `<binary> <args...>` and
# passes only if the tool exits non-zero and its output names the last
# argument, the one it must reject. ctest runs it once per bench tool with
# a bogus flag, and on rem_sim_cli with a bad value, under a short timeout,
# so a tool that takes the argument for an output path or a number and
# starts its run fails the test. It also runs rem_sim_cli with an events
# path it cannot write (/dev/full), which must fail naming that path.
#
#   scripts/check_usage_error.sh <binary> <args...>
set -u

bin="$1"
shift
rejected="${!#}"

out="$("${bin}" "$@" 2>&1)"
status=$?
if [ "${status}" -eq 0 ]; then
  echo "FAIL: '${bin##*/} $*' exited 0; expected a usage error"
  exit 1
fi
if ! grep -qF -- "${rejected}" <<<"${out}"; then
  echo "FAIL: '${bin##*/} $*' exited ${status} without naming '${rejected}':"
  printf '%s\n' "${out}"
  exit 1
fi
echo "ok: '${bin##*/} $*' exited ${status} naming '${rejected}'"
