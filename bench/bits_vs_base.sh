#!/bin/sh
# Bit comparison against a base commit. Builds bench/state_hashes.cpp
# against this checkout's src/ and against the base commit's src/ (the
# file is copied into the base tree, so the base need not have it), runs
# both, and fails on any differing line.
#
#   bench/bits_vs_base.sh <base-commit> [work-dir]
#
# Run from the repository root. The work directory (default: a new
# temporary one) receives the base tree, both builds and both outputs
# (base.txt, head.txt).
set -eu
base=${1:?usage: bench/bits_vs_base.sh <base-commit> [work-dir]}
work=${2:-$(mktemp -d)}
head=$(pwd)
jobs=$(nproc 2>/dev/null || echo 2)

mkdir -p "$work/base"
git archive "$base" | tar -x -C "$work/base"
cp "$head/bench/state_hashes.cpp" "$work/base/bench/state_hashes.cpp"

# build_and_run <source-tree> <label>: a minimal CMake project that compiles
# the tree's src/ (as perfbench/ does) plus the tool, then runs it.
build_and_run() {
  proj="$work/proj-$2"
  mkdir -p "$proj"
  cat > "$proj/CMakeLists.txt" <<EOF
cmake_minimum_required(VERSION 3.16)
project(state_hashes_$2 CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
set(CMAKE_CXX_EXTENSIONS OFF)
set(CMAKE_CXX_FLAGS_RELEASE "-O2 -g")
find_package(Threads REQUIRED)
include_directories("$1/src")
add_subdirectory("$1/src" cmtbone EXCLUDE_FROM_ALL)
add_executable(state_hashes "$1/bench/state_hashes.cpp")
target_link_libraries(state_hashes PRIVATE cmtbone_core cmtbone_nekbone)
EOF
  cmake -S "$proj" -B "$proj/build" -DCMAKE_BUILD_TYPE=Release > "$work/$2-build.log"
  cmake --build "$proj/build" --target state_hashes -j "$jobs" >> "$work/$2-build.log"
  "$proj/build/state_hashes" > "$work/$2.txt"
}

build_and_run "$head" head
build_and_run "$work/base" base
if diff "$work/base.txt" "$work/head.txt"; then
  echo "bits-vs-base: $(wc -l < "$work/head.txt") configurations match $base"
else
  echo "bits-vs-base: final states differ from $base (< base, > head)" >&2
  exit 1
fi
