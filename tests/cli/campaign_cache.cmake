# The campaign CLI's --cache input: `--cache F --out F` reads F before
# rewriting it, and a cache with emptied results is refused by name
# instead of yielding zero-cycle hits. Usage:
#   cmake -DCAMPAIGN=<chex-campaign> -DWORK=<work-file prefix>
#         -P campaign_cache.cmake
set(campaign ${CAMPAIGN} run --jobs 2 --profiles mcf,lbm
    --variants baseline,ucode-pred --scale 50 --quiet)
set(report ${WORK}.json)

function(run_campaign expect_rc)
    execute_process(COMMAND ${campaign} ${ARGN}
                    RESULT_VARIABLE rc ERROR_VARIABLE log
                    OUTPUT_QUIET)
    if(NOT rc EQUAL expect_rc)
        message(FATAL_ERROR "${ARGN}: exit ${rc}, expected "
                            "${expect_rc}\n${log}")
    endif()
    set(log "${log}" PARENT_SCOPE)
endfunction()

run_campaign(0 --out ${report})
run_campaign(0 --cache ${report} --out ${report})
file(READ ${report} doc)
string(JSON schema GET "${doc}" schema)
string(JSON jobs GET "${doc}" summary jobsRun)
string(JSON cached GET "${doc}" summary jobsCached)
if(NOT schema STREQUAL "chex-campaign-report-v7" OR NOT jobs EQUAL 4
   OR NOT cached EQUAL 4)
    message(FATAL_ERROR "in-place cache run wrote ${schema} with "
                        "${cached} of ${jobs} jobs cached")
endif()

string(JSON last LENGTH "${doc}" jobs)
math(EXPR last "${last} - 1")
foreach(i RANGE ${last})
    string(JSON doc SET "${doc}" jobs ${i} result "{}")
endforeach()
file(WRITE ${WORK}-emptied.json "${doc}")
run_campaign(2 --cache ${WORK}-emptied.json)
if(NOT log MATCHES "result\\.exited is missing")
    message(FATAL_ERROR "emptied results not named:\n${log}")
endif()
