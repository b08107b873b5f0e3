# Fresh paper pass vs the committed record: every cell's table
# fields, the headline values and the paper-shape claims are
# deterministic functions of (seed, scale), so any drift is fatal.
# Usage:
#   cmake -DPAPER=<paper> -DCOMPARE=<bench-compare>
#         -DRECORD=<BENCH_paper.json> -DWORK=<work directory>
#         -P paper_compare.cmake
file(MAKE_DIRECTORY ${WORK})
unset(ENV{CHEX_BENCH_SCALE}) # the record is at scale 1
execute_process(COMMAND ${PAPER} OUTPUT_FILE ${WORK}/paper_fresh.json
                RESULT_VARIABLE rc ERROR_VARIABLE log)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "paper: exit ${rc}\n${log}")
endif()
execute_process(COMMAND ${COMPARE} ${RECORD} ${WORK}/paper_fresh.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench-compare: exit ${rc}\n${out}")
endif()
