# The campaign CLI's --cache input: `--cache F --out F` reads F before
# rewriting it, and a cache with emptied results is refused by name
# instead of yielding zero-cycle hits. See campaign_common.cmake for
# the usage.
include(${CMAKE_CURRENT_LIST_DIR}/campaign_common.cmake)
set(matrix run --jobs 2 --profiles mcf,lbm
    --variants baseline,ucode-pred --scale 50 --quiet)

campaign(${matrix} --out report.json)
campaign(${matrix} --cache report.json --out report.json)
load(doc report.json)
expect_eq("${doc}" chex-campaign-report-v7 schema)
expect_eq("${doc}" 4 summary jobsRun)
expect_eq("${doc}" 4 summary jobsCached)

string(JSON last LENGTH "${doc}" jobs)
math(EXPR last "${last} - 1")
foreach(i RANGE ${last})
    string(JSON doc SET "${doc}" jobs ${i} result "{}")
endforeach()
file(WRITE ${WORK}/emptied.json "${doc}")
expect_usage_error("result\\.exited is missing" ${matrix}
                   --cache emptied.json)
