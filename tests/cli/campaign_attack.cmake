# Generated-attack campaign: 64 seeded exploits x 2 variants, run
# plain, 2-way-sharded + merged, cache-satisfied, and fork-isolated.
# The synthesized programs are pure functions of (attack ID, seed),
# so all four paths agree bit-for-bit — on the per-job results and on the
# distilled security report. See campaign_common.cmake for the usage.
include(${CMAKE_CURRENT_LIST_DIR}/campaign_common.cmake)
set(matrix --jobs 2 --attacks gen/mix --seeds 64
    --variants baseline,ucode-pred --quiet)

campaign(attack ${matrix} --out atk.json --security-out sec.json)
campaign(attack ${matrix} --shard 0/2 --out atk-s0.json)
campaign(attack ${matrix} --shard 1/2 --out atk-s1.json)
campaign(merge --out atk-merged.json atk-s1.json atk-s0.json)
campaign(attack --quiet --from-report atk-merged.json
         --security-out sec-merged.json)
campaign(attack ${matrix} --cache atk.json --out atk-cached.json
         --security-out sec-cached.json)
campaign(attack ${matrix} --isolate --timeout 60 --out atk-iso.json
         --security-out sec-iso.json)

load(a atk.json)
load(m atk-merged.json)
load(c atk-cached.json)
load(i atk-iso.json)
expect_eq("${a}" chex-campaign-report-v7 schema)
expect_eq("${a}" 128 summary jobsRun)
foreach(d a m c i)
    expect_eq("${${d}}" 0 summary jobsFailed)
endforeach()
expect_eq("${c}" 128 summary jobsCached)
# Every row carries its attack ID, and the merged/cached/isolated
# runs reproduce the plain run's results bit-for-bit.
expect_every_job("${a}" gen/mix attack)
job_view(results_a "${a}" result)
job_view(results_m "${m}" result)
job_view(results_c "${c}" result)
job_view(results_i "${i}" result)
expect_same_view("merged results" "${results_a}" "${results_m}")
expect_same_view("cached results" "${results_a}" "${results_c}")
expect_same_view("isolated results" "${results_a}" "${results_i}")

load(s sec.json)
expect_eq("${s}" chex-security-report-v1 schema)
expect_eq("${s}" 128 attackJobs)
expect_eq("${s}" 64 baseline checked)
expect_eq("${s}" 64 baseline valid)
# The distilled security report is a pure function of the campaign
# rows: plain, sharded-then-merged, cached, and isolated derivations
# are byte-identical.
foreach(other sec-merged.json sec-cached.json sec-iso.json)
    file(READ ${WORK}/${other} text)
    file(READ ${WORK}/sec.json sec)
    if(NOT text STREQUAL sec)
        message(FATAL_ERROR "${other} differs from sec.json")
    endif()
endforeach()
