# Fresh security campaign vs the committed record: per-variant
# attack/detected/anchor counts, class breakdown, baseline validity,
# and escape count are deterministic functions of (attacks, seeds,
# campaign seed); any drift, a detection-rate drop above all, is
# fatal. Usage:
#   cmake -DCAMPAIGN=<chex-campaign> -DCOMPARE=<bench-compare>
#         -DRECORD=<BENCH_security.json> -DWORK=<work directory>
#         -P security_compare.cmake
include(${CMAKE_CURRENT_LIST_DIR}/campaign_common.cmake)

campaign(attack --jobs 2
         --attacks gen/mix,gen/ovf,gen/uaf,gen/df,gen/uninit,gen/forge,suites
         --seeds 16 --variants baseline,ucode-pred,ucode-always
         --seed 1 --quiet --security-out security_fresh.json)
execute_process(COMMAND ${COMPARE} ${RECORD} ${WORK}/security_fresh.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench-compare: exit ${rc}\n${out}")
endif()
