#!/usr/bin/env bash
# Runs the full test suite under a sanitizer in a dedicated build tree.
# ThreadSanitizer is the default -- it exercises util::ThreadPool (the
# experiment runner and the parallel exact search), the lock-free obs
# registry and the service's worker pool -- but any -fsanitize= value works
# (CI runs both lines below):
#
#   scripts/sanitize_check.sh                  # thread
#   scripts/sanitize_check.sh address,undefined
set -euo pipefail

sanitize="${1:-thread}"
repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-${sanitize//,/_}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DWRSN_SANITIZE="${sanitize}" >/dev/null
cmake --build "${build_dir}" -j "$(nproc)"
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
