#!/usr/bin/env bash
# Runs the serving benchmark from the repository root:
#
#   bash perfbench/run.sh --workload decode_batch --seed 1 --seconds 25 --trace 0
#
# Builds the benchmark only when no binary exists or a source file is
# newer than it, then runs the binary directly. `cargo run` would do the
# same check itself, but outside a git checkout kt-serve's build script
# watches a missing `.git/HEAD` and so rebuilds kt-serve on every call.
set -euo pipefail

target="${CARGO_TARGET_DIR:-perfbench/target}"
bin="$target/release/kt-perfbench"
if [[ ! -x "$bin" ]] ||
    [[ -n "$(find Cargo.toml crates vendor perfbench/Cargo.toml perfbench/Cargo.lock perfbench/src \
        -newer "$bin" -print -quit)" ]]; then
    cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml
fi
exec "$bin" "$@"
