# Included from the top-level CMakeLists so that build/bench/ contains
# ONLY the figure/benchmark executables (no CMake-generated files) and
# `for b in build/bench/*; do $b; done` runs cleanly.
# One binary per paper figure/table, plus ablations and two real
# google-benchmark host lanes. All land in build/bench/.
set(BWLAB_FIG_BENCHES
  fig1_babelstream
  fig2_latency
  fig3_structured_configs
  fig4_unstructured_configs
  fig5_parallelizations
  fig6_platforms
  fig7_mpi_overhead
  fig8_effective_bandwidth
  fig9_tiling
  fig_modes
  tbl_systems
  tbl_minibude_configs
  abl_tile_size
  abl_vectorization
  abl_workgroup)

foreach(b ${BWLAB_FIG_BENCHES})
  add_executable(${b} ${CMAKE_SOURCE_DIR}/bench/${b}.cpp)
  target_include_directories(${b} PRIVATE ${CMAKE_SOURCE_DIR})
  target_link_libraries(${b}
    PRIVATE bwlab_core bwlab_apps bwlab_micro bwlab_op2 bwlab_ops bwlab_sim
            bwlab_par bwlab_common bwlab_warnings)
  set_target_properties(${b} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

# Host-measurement lanes on the shared bench::Runner harness: the real
# BabelStream kernels and the pattern micro-kernels. Both emit the
# machine-readable BENCH_*.json trajectory with --bench-json.
foreach(b gb_host_stream gb_host_kernels)
  add_executable(${b} ${CMAKE_SOURCE_DIR}/bench/${b}.cpp)
  target_include_directories(${b} PRIVATE ${CMAKE_SOURCE_DIR})
  target_link_libraries(${b}
    PRIVATE bwlab_core bwlab_apps bwlab_micro bwlab_op2 bwlab_ops bwlab_sim
            bwlab_par bwlab_common bwlab_warnings)
  set_target_properties(${b} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

# Self-checking microbenchmark (custom main, exits non-zero on failure):
# asserts the disabled bwtrace fast path stays under its 5 ns budget.
add_executable(gb_trace_overhead ${CMAKE_SOURCE_DIR}/bench/gb_trace_overhead.cpp)
target_include_directories(gb_trace_overhead PRIVATE ${CMAKE_SOURCE_DIR})
target_link_libraries(gb_trace_overhead
  PRIVATE bwlab_core bwlab_apps bwlab_sim bwlab_par bwlab_common
          bwlab_warnings)
set_target_properties(gb_trace_overhead PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Same idea for bwfault: the inactive injection hooks must stay at one
# relaxed atomic load, and an installed-but-inert plan must not slow the
# send/recv path measurably.
add_executable(gb_fault_overhead ${CMAKE_SOURCE_DIR}/bench/gb_fault_overhead.cpp)
target_include_directories(gb_fault_overhead PRIVATE ${CMAKE_SOURCE_DIR})
target_link_libraries(gb_fault_overhead
  PRIVATE bwlab_core bwlab_apps bwlab_sim bwlab_par bwlab_common
          bwlab_warnings)
set_target_properties(gb_fault_overhead PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# bwcausal hot-path guard: CommArgs spans and flow events with tracing
# disabled must keep the same single-load-plus-branch cost.
add_executable(gb_causal_overhead ${CMAKE_SOURCE_DIR}/bench/gb_causal_overhead.cpp)
target_include_directories(gb_causal_overhead PRIVATE ${CMAKE_SOURCE_DIR})
target_link_libraries(gb_causal_overhead
  PRIVATE bwlab_core bwlab_apps bwlab_sim bwlab_par bwlab_common
          bwlab_warnings)
set_target_properties(gb_causal_overhead PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# bwmem hot-path guard: the datmove::enabled() byte-accounting guards in
# the par_loop and chain executors must stay one relaxed load + branch
# while the profiler is off.
add_executable(gb_datmove_overhead ${CMAKE_SOURCE_DIR}/bench/gb_datmove_overhead.cpp)
target_include_directories(gb_datmove_overhead PRIVATE ${CMAKE_SOURCE_DIR})
target_link_libraries(gb_datmove_overhead
  PRIVATE bwlab_core bwlab_apps bwlab_sim bwlab_par bwlab_common
          bwlab_warnings)
set_target_properties(gb_datmove_overhead PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# bwresil hot-path guard: the resil::active() guards compiled into
# Comm::send (sequence stamp + replay log) and Comm::recv (timed retrying
# collect) must stay one relaxed load + branch while no policy is
# installed.
add_executable(gb_resil_overhead ${CMAKE_SOURCE_DIR}/bench/gb_resil_overhead.cpp)
target_include_directories(gb_resil_overhead PRIVATE ${CMAKE_SOURCE_DIR})
target_link_libraries(gb_resil_overhead
  PRIVATE bwlab_core bwlab_apps bwlab_sim bwlab_par bwlab_common
          bwlab_warnings)
set_target_properties(gb_resil_overhead PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# bwlive hot-path guard: the live::enabled() guards compiled into the
# app step loops and par_loop byte accounting must stay one relaxed load
# + branch while the sampler is off, and one snapshot per interval must
# model to well under 1% of wall time when it is on.
add_executable(gb_live_overhead ${CMAKE_SOURCE_DIR}/bench/gb_live_overhead.cpp)
target_include_directories(gb_live_overhead PRIVATE ${CMAKE_SOURCE_DIR})
target_link_libraries(gb_live_overhead
  PRIVATE bwlab_core bwlab_apps bwlab_sim bwlab_par bwlab_common
          bwlab_warnings)
set_target_properties(gb_live_overhead PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# memtier hot-path guard: the allocator hook compiled into every
# ops::Dat / op2::Dat constructor must stay one relaxed load + branch
# while no placement config is installed.
add_executable(gb_memtier_overhead ${CMAKE_SOURCE_DIR}/bench/gb_memtier_overhead.cpp)
target_include_directories(gb_memtier_overhead PRIVATE ${CMAKE_SOURCE_DIR})
target_link_libraries(gb_memtier_overhead
  PRIVATE bwlab_core bwlab_apps bwlab_sim bwlab_par bwlab_common
          bwlab_warnings)
set_target_properties(gb_memtier_overhead PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# The self-checking budget benches double as ctest entries under the
# "bench" label (`ctest -L bench`), so the perf trip wires run with the
# suite instead of needing a separate CI step. fig_modes is in the list
# because it also self-checks (the Ibeid degradation shape). They time
# nanosecond budgets, so RUN_SERIAL keeps `ctest -j` from running them
# beside the rest of the suite on a shared machine.
if(BWLAB_BUILD_TESTS)
  foreach(b gb_trace_overhead gb_fault_overhead gb_causal_overhead
            gb_datmove_overhead gb_resil_overhead gb_live_overhead
            gb_memtier_overhead fig_modes)
    add_test(NAME ${b} COMMAND ${b})
    set_tests_properties(${b} PROPERTIES TIMEOUT 120 LABELS bench
                                         RUN_SERIAL TRUE)
  endforeach()
endif()
