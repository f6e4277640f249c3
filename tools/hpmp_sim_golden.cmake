# Golden --stats-json guard for one hpmp_sim run of the built-in demo
# (20k requests over 8 MiB). The registry dump holds only simulated
# counters and distributions, so it must match the committed file byte
# for byte, on both schedules: the whole demo as one accessBatch (at
# least Machine::kSplitBatchMin requests, so a split-schedule timing
# stream) and, under --stats-series, 512-request chunks timed inline.
#
#   cmake -DBIN=<hpmp_sim> -DARGS="<arg;arg...>" -DGOLDEN=<file> \
#         -DOUT=<scratch prefix> -P hpmp_sim_golden.cmake
#
# A mismatching dump stays at OUT.<schedule>.json for diffing. A change
# meant to move the numbers regenerates the golden file and says why
# in CHANGES.md.

cmake_minimum_required(VERSION 3.16)

file(READ ${GOLDEN} golden)
foreach(schedule batch series)
    set(extra "")
    if(schedule STREQUAL "series")
        set(extra --stats-series ${OUT}.windows.json)
    endif()
    execute_process(
        COMMAND ${BIN} ${ARGS} --stats-json ${OUT}.${schedule}.json ${extra}
        OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${ARGS} (${schedule}): exit ${rc}\n${err}")
    endif()
    file(READ ${OUT}.${schedule}.json dump)
    if(NOT dump STREQUAL golden)
        message(FATAL_ERROR "${ARGS} (${schedule}): stats differ "
            "(diff ${OUT}.${schedule}.json against ${GOLDEN})")
    endif()
endforeach()
message(STATUS "golden ok: ${GOLDEN}")
