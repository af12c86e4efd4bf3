# The layer-overhead ctest entries, all around bench/gb_layer_overhead:
#   -DBENCH=<bench> -DLOG=<file>   run the bench once, keep its stdout and
#       stderr in LOG and pass iff it passed (entry gb_layer_overhead).
#   -DLOG=<file> -DSUITE=<suite>   pass iff that run timed every 5 ns site
#       of SUITE and named no failed check of it (one entry per layer,
#       gb_trace_overhead ... gb_memtier_overhead).
#   -DBENCH=<bench>                with every duration scaled 1000x
#       (BWBENCH_PERTURB=1000, set by the ctest entry) require exit 1 with
#       every 5 ns site named on stderr, which shows each budget can trip
#       (entry gb_layer_overhead_trips).
#   cmake -DBENCH=build/bench/gb_layer_overhead -P tests/layer_overhead.cmake
set(sites
  "gb_trace_overhead span.disabled"
  "gb_causal_overhead span_args.disabled"
  "gb_causal_overhead flow.disabled"
  "gb_datmove_overhead loop_hook.disabled"
  "gb_datmove_overhead touch_hook.disabled"
  "gb_datmove_overhead loop_site.disabled"
  "gb_fault_overhead hook.on_send"
  "gb_fault_overhead hook.on_step"
  "gb_resil_overhead hook.active"
  "gb_live_overhead hook.on_step"
  "gb_memtier_overhead alloc_hook.disabled")

if(DEFINED SUITE)
  if(NOT EXISTS "${LOG}")
    message(FATAL_ERROR "no bench output at ${LOG}; run gb_layer_overhead")
  endif()
  file(READ "${LOG}" out)
  string(FIND "${out}" "FAIL: ${SUITE} " at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${SUITE} failed a check:\n${out}")
  endif()
  set(timed 0)
  foreach(site IN LISTS sites)
    if(site MATCHES "^${SUITE} (.*)$")
      string(REPLACE "." "\\." metric "${CMAKE_MATCH_1}")
      if(NOT out MATCHES "\n${SUITE} +${metric} ")
        message(FATAL_ERROR "${site} was not timed:\n${out}")
      endif()
      math(EXPR timed "${timed} + 1")
    endif()
  endforeach()
  if(timed EQUAL 0)
    message(FATAL_ERROR "no 5 ns site is listed for suite '${SUITE}'")
  endif()
  return()
endif()

if(DEFINED LOG)
  execute_process(COMMAND ${BENCH} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE out)
  file(WRITE "${LOG}" "\n${out}")
  message("${out}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited '${rc}'")
  endif()
  return()
endif()

execute_process(COMMAND ${BENCH} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit 1 from ${BENCH}, got '${rc}'\n${err}")
endif()
foreach(site IN LISTS sites)
  string(FIND "${err}" "FAIL: ${site} " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "over-budget site '${site}' not named:\n${err}")
  endif()
endforeach()
