# Fresh bench run vs its committed record: every exact field of the
# record (the paper pass's cell results, headline values and claims;
# the scale benches' op counts, totals, shadow bytes and checksums)
# is a deterministic function of (seed, scale), so any drift is
# fatal. Wall-clock fields past their bound only warn. Usage:
#   cmake -DBENCH=<bench executable> -DCOMPARE=<bench-compare>
#         -DRECORD=<BENCH_*.json> -DWORK=<work directory>
#         -P record_compare.cmake
file(MAKE_DIRECTORY ${WORK})
unset(ENV{CHEX_BENCH_SCALE}) # the records are at scale 1
execute_process(COMMAND ${BENCH} OUTPUT_FILE ${WORK}/fresh.json
                RESULT_VARIABLE rc ERROR_VARIABLE log)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH}: exit ${rc}\n${log}")
endif()
execute_process(COMMAND ${COMPARE} ${RECORD} ${WORK}/fresh.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench-compare: exit ${rc}\n${out}")
endif()
