# Layering guard: the system under test stays below the campaign
# engines. Fails when a file under src/monitor/ or src/migrate/
# includes an os/ or verify/ header, or when hpmp_monitor or
# hpmp_migrate links hpmp_os or hpmp_verify.
#
#   cmake -DSRC=<repo>/src -DMONITOR_LINKS=a:b -DMIGRATE_LINKS=c:d \
#         -P layering_check.cmake
#
# The link lists are the targets' LINK_LIBRARIES joined with ':'.

cmake_minimum_required(VERSION 3.16)

set(errors "")
file(GLOB sources
    ${SRC}/monitor/*.h ${SRC}/monitor/*.cc
    ${SRC}/migrate/*.h ${SRC}/migrate/*.cc)
foreach(file ${sources})
    file(STRINGS ${file} hits REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<](os|verify)/")
    foreach(hit ${hits})
        list(APPEND errors "${file}: ${hit}")
    endforeach()
endforeach()

foreach(lib monitor migrate)
    string(TOUPPER ${lib} var)
    string(REPLACE ":" ";" links "${${var}_LINKS}")
    foreach(forbidden hpmp_os hpmp_verify)
        if(forbidden IN_LIST links)
            list(APPEND errors "hpmp_${lib} links ${forbidden}")
        endif()
    endforeach()
endforeach()

if(errors)
    list(JOIN errors "\n  " report)
    message(FATAL_ERROR "layering violations:\n  ${report}")
endif()
message(STATUS "layering ok: ${SRC}/{monitor,migrate} stay below os/ and verify/")
