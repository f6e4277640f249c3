# Golden-stdout guard for the fast paper figures. Each figure prints
# only simulated numbers, so its stdout must match the committed file
# bench/golden/<figure>.txt byte for byte. Together they pin reference
# counts and cycles on both access pipelines: host (fig02, fig10,
# fig15, fig16) and two-stage (fig08, fig13).
#
#   cmake -DBIN_DIR=<build>/bench -DGOLDEN_DIR=<repo>/bench/golden \
#         -DOUT_DIR=<scratch dir> -P golden_check.cmake
#
# A mismatching figure's stdout is written to OUT_DIR/<figure>.txt for
# diffing. A change meant to move a figure regenerates its golden file
# from the new binary and says why in CHANGES.md.

cmake_minimum_required(VERSION 3.16)

set(figures
    fig02_refcounts
    fig08_virt_refcounts
    fig10_latency
    fig13_virt
    fig15_fragmentation
    fig16_pmptw_cache)

set(errors "")
foreach(fig ${figures})
    execute_process(COMMAND ${BIN_DIR}/bench_${fig}
        OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_QUIET)
    file(READ ${GOLDEN_DIR}/${fig}.txt golden)
    if(NOT rc EQUAL 0)
        list(APPEND errors "bench_${fig} exited with ${rc}")
    elseif(NOT out STREQUAL golden)
        file(WRITE ${OUT_DIR}/${fig}.txt "${out}")
        list(APPEND errors
            "bench_${fig}: stdout differs (diff ${OUT_DIR}/${fig}.txt against ${GOLDEN_DIR}/${fig}.txt)")
    endif()
endforeach()

if(errors)
    list(JOIN errors "\n  " report)
    message(FATAL_ERROR "golden stdout mismatches:\n  ${report}")
endif()
list(LENGTH figures n)
message(STATUS "golden ok: ${n} figures match ${GOLDEN_DIR}")
