# Writes OUT as `#define BWLAB_GIT_SHA "<sha>"`, the short commit id of the
# work tree at SRC ("unknown" without git or outside a work tree). Runs on
# every build, and rewrites OUT only when the sha changed, so a rebuild
# after new commits restamps provenance while an unchanged tree
# recompiles and relinks nothing.
#   cmake -DSRC=<source dir> -DOUT=<header> -P src/common/git_sha.cmake
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${SRC}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
endif()
set(text "#define BWLAB_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUT} "${text}")
endif()
