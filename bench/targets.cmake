# Included from the top-level CMakeLists so that build/bench/ contains
# ONLY the figure/benchmark executables (no CMake-generated files) and
# `for b in build/bench/*; do $b; done` runs cleanly.
# One binary per paper figure/table, plus ablations and three host lanes:
# the real BabelStream kernels, the pattern micro-kernels and the
# layer-overhead budgets. All land in build/bench/, measure through the
# shared bench::Runner harness and write BENCH_*.json with --bench-json.
set(BWLAB_BENCHES
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
  abl_workgroup
  gb_host_stream
  gb_host_kernels
  gb_layer_overhead)

foreach(b ${BWLAB_BENCHES})
  add_executable(${b} ${CMAKE_SOURCE_DIR}/bench/${b}.cpp)
  target_include_directories(${b} PRIVATE ${CMAKE_SOURCE_DIR})
  target_link_libraries(${b}
    PRIVATE bwlab_core bwlab_apps bwlab_micro bwlab_op2 bwlab_ops bwlab_sim
            bwlab_par bwlab_common bwlab_warnings)
  set_target_properties(${b} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

# The self-checking benches double as ctest entries under the "bench"
# label (`ctest -L bench`), so the perf trip wires run with the suite
# instead of needing a separate CI step: gb_layer_overhead (every layer's
# disabled-path budget) and fig_modes (the Ibeid degradation shape). They
# time nanosecond budgets, so RUN_SERIAL keeps `ctest -j` from running
# them beside the rest of the suite on a shared machine.
# gb_layer_overhead keeps its output in the build tree, and one entry per
# layer (gb_trace_overhead ... gb_memtier_overhead) reads that one run and
# passes iff the layer's sites were timed and none failed, so a failure
# names its layer. gb_layer_overhead_trips proves the budgets can fail:
# with every duration scaled 1000x ($BWBENCH_PERTURB) the bench must exit 1
# naming each 5 ns site.
if(BWLAB_BUILD_TESTS)
  set(overhead_script ${CMAKE_SOURCE_DIR}/tests/layer_overhead.cmake)
  set(overhead_log ${CMAKE_BINARY_DIR}/gb_layer_overhead.log)
  add_test(NAME fig_modes COMMAND fig_modes)
  add_test(NAME gb_layer_overhead
           COMMAND ${CMAKE_COMMAND} -DBENCH=$<TARGET_FILE:gb_layer_overhead>
                   -DLOG=${overhead_log} -P ${overhead_script})
  set_tests_properties(fig_modes gb_layer_overhead PROPERTIES
    TIMEOUT 120 LABELS bench RUN_SERIAL TRUE)
  set_tests_properties(gb_layer_overhead PROPERTIES
    FIXTURES_SETUP layer_overhead)
  foreach(layer trace causal datmove fault resil live memtier)
    add_test(NAME gb_${layer}_overhead
             COMMAND ${CMAKE_COMMAND} -DLOG=${overhead_log}
                     -DSUITE=gb_${layer}_overhead -P ${overhead_script})
    set_tests_properties(gb_${layer}_overhead PROPERTIES
      LABELS bench FIXTURES_REQUIRED layer_overhead)
  endforeach()
  add_test(NAME gb_layer_overhead_trips
           COMMAND ${CMAKE_COMMAND} -DBENCH=$<TARGET_FILE:gb_layer_overhead>
                   -P ${overhead_script})
  set_tests_properties(gb_layer_overhead_trips PROPERTIES
    TIMEOUT 120 LABELS bench RUN_SERIAL TRUE
    ENVIRONMENT "BWBENCH_PERTURB=1000;BWBENCH_REPS=1")
  # bench_provenance: a bench file stamps the commit the tree was last
  # built at (src/common/git_sha.cmake); skipped without git.
  add_test(NAME bench_provenance
           COMMAND ${CMAKE_COMMAND} -DBENCH=$<TARGET_FILE:tbl_systems>
                   -DSRC=${CMAKE_SOURCE_DIR}
                   -DWORK=${CMAKE_BINARY_DIR}/bench_provenance
                   -P ${CMAKE_SOURCE_DIR}/tests/provenance.cmake)
  set_tests_properties(bench_provenance PROPERTIES
    LABELS unit SKIP_REGULAR_EXPRESSION "SKIP: ")
endif()
