# Exit-code check for one bench_paper command line that must fail.
#
#   cmake -DBIN=<bench_paper> -DARGS="<arg;arg...>" -DEXPECT=<code> \
#         -P cli_check.cmake
#
# Passes when the command exits with EXPECT and prints nothing to
# stdout (no figure ran); an exit of 2 must also print the usage line.

cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${BIN} ${ARGS}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL EXPECT)
    message(FATAL_ERROR "bench_paper ${ARGS}: exit ${rc}, want ${EXPECT}\n${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "bench_paper ${ARGS}: printed to stdout:\n${out}")
endif()
if(EXPECT EQUAL 2 AND NOT err MATCHES "usage: bench_paper")
    message(FATAL_ERROR "bench_paper ${ARGS}: no usage line:\n${err}")
endif()
message(STATUS "bench_paper ${ARGS}: exit ${rc} as expected")
