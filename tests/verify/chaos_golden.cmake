# Golden-stdout guard for one short chaos campaign set. The campaign
# driver prints only simulated counters, so its stdout must match the
# committed file byte for byte: any change to the draw order, the op
# mix, an audit or a counter shows up here.
#
#   cmake -DBIN=<campaign driver> -DARGS="<arg;arg...>" \
#         -DGOLDEN=<file> -DOUT=<scratch file> -P chaos_golden.cmake
#
# A mismatching stdout is written to OUT for diffing. A change meant to
# move the counters regenerates the golden file and says why in
# CHANGES.md.

cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${BIN} ${ARGS}
    OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_QUIET)
file(READ ${GOLDEN} golden)
if(NOT rc EQUAL 0)
    file(WRITE ${OUT} "${out}")
    message(FATAL_ERROR "${ARGS}: exit ${rc} (stdout in ${OUT})")
elseif(NOT out STREQUAL golden)
    file(WRITE ${OUT} "${out}")
    message(FATAL_ERROR "${ARGS}: stdout differs "
        "(diff ${OUT} against ${GOLDEN})")
endif()
message(STATUS "golden ok: ${GOLDEN}")
