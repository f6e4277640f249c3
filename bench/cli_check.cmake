# Exit-code check for one command line of a driver (bench_paper,
# model_check, hpmp_sim) that must fail.
#
#   cmake -DBIN=<driver> -DARGS="<arg;arg...>" -DEXPECT=<code> \
#         -P cli_check.cmake
#
# Passes when the command exits with EXPECT and prints nothing to
# stdout (no figure or campaign ran); an exit of 2 must also print the
# usage line.

cmake_minimum_required(VERSION 3.16)

get_filename_component(name ${BIN} NAME)
execute_process(COMMAND ${BIN} ${ARGS}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL EXPECT)
    message(FATAL_ERROR "${name} ${ARGS}: exit ${rc}, want ${EXPECT}\n${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "${name} ${ARGS}: printed to stdout:\n${out}")
endif()
if(EXPECT EQUAL 2 AND NOT err MATCHES "usage: [^ ]*${name}")
    message(FATAL_ERROR "${name} ${ARGS}: no usage line:\n${err}")
endif()
message(STATUS "${name} ${ARGS}: exit ${rc} as expected")
