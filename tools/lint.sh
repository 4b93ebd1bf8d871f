#!/usr/bin/env sh
# Grep-based lint with zero toolchain dependencies; the checks that a
# compiler never enforces but review always asks for. Run from the repo
# root (the `lint` ctest sets WORKING_DIRECTORY accordingly).
#
# Checks:
#   1. no raw `new T[]` / `delete[]` — owning arrays are std::vector or
#      std::unique_ptr<T[]>;
#   2. no std::endl under src/ — it flushes, and the metrics/trace sinks
#      sit on step hot paths;
#   3. every header under src/ carries `#pragma once`;
#   4. no raw condition-variable `.wait(` under src/dist/ — an unbounded
#      wait turns one dead rank into a whole-job hang; use
#      dist::deadline_wait (which slices even a disabled policy);
#   5. no raw std::thread under src/dist/ outside replica.cc (the SPMD
#      launcher) and comm_thread.cc (the bucket-reduction comm thread) —
#      ad-hoc threads dodge both the deadline discipline and the
#      exception-propagation contract those two files implement;
#   6. every graph-IR pass (src/ir/pass_*.cc) re-verifies the program it
#      rewrote via PODNET_IR_VERIFY — a pass that skips the verifier can
#      ship a malformed program straight into the executor (the src/ir
#      headers' `#pragma once` requirement rides on check 3);
#   7. OpKind enumerator parity: every enumerator declared in src/ir/ir.h
#      must be named in ir.cc (op_kind_name), printer.cc, and analysis.cc
#      (the shape/range/scratch tables), and every pass TU must consult
#      the DefUse legality analysis — a new op kind or a legality-blind
#      pass fails here before it can fail at runtime;
#   8. std::getenv under src/ only in the files that own the runtime
#      variables: tensor/simd.cc (PODNET_SIMD), tensor/thread_pool.cc
#      (PODNET_THREADS) and core/trainer.cc (PODNET_IR) — a new variable
#      has to be added here and to the README knob table on purpose.
set -u
fail=0

matches=$(grep -rnE 'new [A-Za-z_:<> ]+\[|delete\s*\[\]' \
  --include='*.cc' --include='*.h' src/ 2>/dev/null)
if [ -n "$matches" ]; then
  printf '%s\n' "$matches"
  echo "lint: raw new[]/delete[] is banned; use std::vector or" \
       "std::unique_ptr<T[]>"
  fail=1
fi

matches=$(grep -rn 'std::endl' --include='*.cc' --include='*.h' src/ \
  2>/dev/null)
if [ -n "$matches" ]; then
  printf '%s\n' "$matches"
  echo 'lint: std::endl is banned under src/ (it flushes); use "\n"'
  fail=1
fi

# `.wait(` / `->wait(` (but not wait_for/wait_until) on a CV blocks until
# notified — forever, if the notifier is a rank that just died. Every wait
# in the distributed runtime must go through dist::deadline_wait.
matches=$(grep -rnE '(\.|->)wait\(' --include='*.cc' --include='*.h' \
  src/dist/ 2>/dev/null)
if [ -n "$matches" ]; then
  printf '%s\n' "$matches"
  echo "lint: raw condition_variable wait() is banned under src/dist/;" \
       "use dist::deadline_wait so no collective wait is unbounded"
  fail=1
fi

# `std::thread` followed by anything but an identifier character (so
# std::this_thread::sleep_for and friends stay legal). Thread ownership in
# the distributed runtime lives in exactly two places.
matches=$(grep -rnE 'std::thread[^_a-zA-Z0-9]' --include='*.cc' \
  --include='*.h' src/dist/ 2>/dev/null |
  grep -v -e '^src/dist/replica\.cc:' -e '^src/dist/comm_thread\.' )
if [ -n "$matches" ]; then
  printf '%s\n' "$matches"
  echo "lint: raw std::thread is banned under src/dist/ outside" \
       "replica.cc and comm_thread.{h,cc}; route new threads through" \
       "run_replicas or BucketReducer"
  fail=1
fi

# A pass owns the only mutation point of a Program after construction, so
# it also owns re-establishing the invariants verify() checks.
for p in $(find src/ir -name 'pass_*.cc' 2>/dev/null | sort); do
  if ! grep -q 'PODNET_IR_VERIFY' "$p"; then
    echo "lint: $p rewrites IR but never calls PODNET_IR_VERIFY"
    fail=1
  fi
done

# Every OpKind enumerator must be handled by name in the TUs that switch
# over the enum semantically: the name table, the printer, and the static
# analyses. (-Wswitch-enum enforces this at compile time for podnet_ir;
# this check also catches a stale enumerator list without a rebuild.)
kinds=$(sed -n '/^enum class OpKind/,/^};/p' src/ir/ir.h |
  grep -oE 'k[A-Za-z0-9]+' | sort -u)
for kind in $kinds; do
  for tu in src/ir/ir.cc src/ir/printer.cc src/ir/analysis.cc; do
    if ! grep -q "OpKind::$kind" "$tu"; then
      echo "lint: OpKind::$kind from src/ir/ir.h is not handled in $tu"
      fail=1
    fi
  done
done

# Every pass must route its rewrite legality through the shared DefUse
# analysis instead of a private use-count scan.
for p in $(find src/ir -name 'pass_*.cc' 2>/dev/null | sort); do
  if ! grep -q 'DefUse' "$p"; then
    echo "lint: $p rewrites IR without consulting the DefUse analysis"
    fail=1
  fi
done

matches=$(grep -rn 'getenv' --include='*.cc' --include='*.h' src/ \
  2>/dev/null |
  grep -v -e '^src/tensor/simd\.cc:' -e '^src/tensor/thread_pool\.cc:' \
          -e '^src/core/trainer\.cc:')
if [ -n "$matches" ]; then
  printf '%s\n' "$matches"
  echo "lint: std::getenv under src/ is allowed only in tensor/simd.cc," \
       "tensor/thread_pool.cc and core/trainer.cc; a new runtime variable" \
       "goes on that list and into the README knob table"
  fail=1
fi

for h in $(find src -name '*.h' | sort); do
  if ! grep -q '#pragma once' "$h"; then
    echo "lint: $h is missing #pragma once"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "lint: clean"
fi
exit $fail
