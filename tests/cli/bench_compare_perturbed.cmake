# bench-compare must refuse a record whose exact field drifted or
# went missing. Usage:
#   cmake -DCOMPARE=<bench-compare> -DRECORD=<BENCH_x.json>
#         -DFIELD="<path;into;the;record>" -DWORK=<work-file prefix>
#         -P bench_compare_perturbed.cmake
file(READ ${RECORD} doc)
string(JSON value GET "${doc}" ${FIELD})
if(value STREQUAL "0")
    set(other 1)
else()
    set(other 0)
endif()
string(JSON drifted SET "${doc}" ${FIELD} ${other})
string(JSON missing REMOVE "${doc}" ${FIELD})

foreach(kind drifted missing)
    file(WRITE ${WORK}.${kind}.json "${${kind}}")
    execute_process(COMMAND ${COMPARE} ${RECORD} ${WORK}.${kind}.json
                    RESULT_VARIABLE rc ERROR_VARIABLE log)
    if(NOT rc EQUAL 1 OR NOT log MATCHES "FATAL")
        message(FATAL_ERROR "${kind} ${FIELD}: exit ${rc}\n${log}")
    endif()
endforeach()
