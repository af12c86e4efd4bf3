# The provenance check (ctest entry bench_provenance): runs BENCH with
# --bench-json in WORK and passes iff the file's git_sha equals
# `git rev-parse --short HEAD` of SRC, i.e. the build stamped the commit
# it was built at. Prints "SKIP:" (a skipped test) without git or outside
# a work tree.
#   cmake -DBENCH=build/bench/tbl_systems -DSRC=. -DWORK=build/prov
#         -P tests/provenance.cmake
find_program(GIT git)
if(NOT GIT)
  message("SKIP: git not found")
  return()
endif()
execute_process(
  COMMAND ${GIT} rev-parse --short HEAD
  WORKING_DIRECTORY ${SRC}
  OUTPUT_VARIABLE head
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE rc
  ERROR_QUIET)
if(NOT rc EQUAL 0)
  message("SKIP: ${SRC} is not a git work tree")
  return()
endif()
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env --unset=BWBENCH_GIT_SHA BWBENCH_REPS=1
          ${BENCH} --bench-json
  WORKING_DIRECTORY ${WORK}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --bench-json exited ${rc}")
endif()
file(GLOB files ${WORK}/BENCH_*.json)
list(LENGTH files n)
if(NOT n EQUAL 1)
  message(FATAL_ERROR "expected one BENCH_*.json in ${WORK}, found ${n}")
endif()
file(READ ${files} json)
string(JSON sha GET "${json}" git_sha)
if(NOT sha STREQUAL head)
  message(FATAL_ERROR "bench file stamps git_sha '${sha}', HEAD is '${head}'")
endif()
message("git_sha ${sha} == HEAD")
