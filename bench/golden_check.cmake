# Golden-stdout guard for one fast paper figure. The figure prints
# only simulated numbers, so its stdout must match the committed file
# bench/golden/<figure>.txt byte for byte. Together the goldens pin
# reference counts and cycles on both access pipelines (host and
# two-stage), the workload suites' normalized results, the TEE
# operation costs (n/a cells included) and fleet's simulated
# switch rate.
#
#   cmake -DBIN=<build>/bench/bench_paper -DFIGURE=<figure> \
#         -DGOLDEN_DIR=<repo>/bench/golden -DOUT_DIR=<scratch dir> \
#         -P golden_check.cmake
#
# A mismatching stdout is written to OUT_DIR/<figure>.txt for diffing.
# A change meant to move a figure regenerates its golden file and says
# why in CHANGES.md.

cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${BIN} ${FIGURE}
    WORKING_DIRECTORY ${OUT_DIR}
    OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_QUIET)
file(READ ${GOLDEN_DIR}/${FIGURE}.txt golden)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${FIGURE} exited with ${rc}")
elseif(NOT out STREQUAL golden)
    file(WRITE ${OUT_DIR}/${FIGURE}.txt "${out}")
    message(FATAL_ERROR "${FIGURE}: stdout differs "
        "(diff ${OUT_DIR}/${FIGURE}.txt against ${GOLDEN_DIR}/${FIGURE}.txt)")
endif()
message(STATUS "golden ok: ${FIGURE}")
