# The mcf,lbm smoke campaign, run plain, fork-isolated, result-cached,
# 2-way-sharded then merged, cached from the merged report, and fanned
# out of a snapshot bundle: every path yields the plain run's per-job
# results. See campaign_common.cmake for the usage.
include(${CMAKE_CURRENT_LIST_DIR}/campaign_common.cmake)
set(matrix --jobs 2 --profiles mcf,lbm --variants baseline,ucode-pred
    --scale 50)

campaign(run ${matrix} --out report.json)
load(a report.json)
expect_eq("${a}" chex-campaign-report-v7 schema)
expect_shard("${a}" 0 1)
expect_eq("${a}" 0 summary jobsFailed)
expect_eq("${a}" 4 summary jobsRun)
expect_eq("${a}" 0 summary jobsSkipped)
# job_view fails on a job without the member, so this also requires
# a result on every job.
job_view(results_a "${a}" result)
job_view(cycles_a "${a}" result cycles)

# Fork isolation does not perturb simulation results.
campaign(run ${matrix} --isolate --timeout 300 --out report-iso.json)
load(b report-iso.json)
expect_eq("${b}" chex-campaign-report-v7 schema)
expect_eq("${b}" 0 summary jobsFailed)
string(JSON jobs LENGTH "${b}" jobs)
math(EXPR last "${jobs} - 1")
foreach(i RANGE ${last})
    string(JSON attempts LENGTH "${b}" jobs ${i} attemptSeconds)
    if(attempts EQUAL 0)
        message(FATAL_ERROR "job ${i} records no attempt times")
    endif()
endforeach()
job_view(cycles_b "${b}" result cycles)
expect_same_view("isolated cycles" "${cycles_a}" "${cycles_b}")

# An identical re-run simulates nothing: every job comes from the
# prior report, bit-identical to the fresh run.
campaign(run ${matrix} --cache report.json --out report-cached.json)
load(c report-cached.json)
expect_eq("${c}" chex-campaign-report-v7 schema)
expect_eq("${c}" 4 summary jobsCached)
expect_eq("${c}" 4 summary jobsRun)
expect_eq("${c}" 0 summary jobsFailed)
expect_every_job("${c}" ON cached)
job_view(cycles_c "${c}" result cycles)
expect_same_view("cached cycles" "${cycles_a}" "${cycles_c}")

# Sharded run + merge: the merged report is the complete unsharded
# campaign, and a valid --cache input.
campaign(run ${matrix} --shard 0/2 --out shard0.json)
campaign(run ${matrix} --shard 1/2 --out shard1.json)
campaign(merge --out merged.json shard1.json shard0.json)
load(s0 shard0.json)
expect_shard("${s0}" 0 2)
expect_eq("${s0}" 2 summary jobsSkipped)
job_view(status_s0 "${s0}" status)
string(REGEX MATCHALL "=skipped\n" skipped "${status_s0}")
list(LENGTH skipped skipped)
if(NOT skipped EQUAL 2)
    message(FATAL_ERROR "shard 0 has ${skipped} skipped rows")
endif()
load(m merged.json)
expect_eq("${m}" chex-campaign-report-v7 schema)
expect_shard("${m}" 0 1)
expect_eq("${m}" 0 summary jobsSkipped)
expect_eq("${m}" 0 summary jobsFailed)
expect_eq("${m}" 4 summary jobsRun)
job_view(cycles_m "${m}" result cycles)
expect_same_view("merged cycles" "${cycles_a}" "${cycles_m}")
campaign(run ${matrix} --cache merged.json --out report-merged-cache.json)
load(mc report-merged-cache.json)
expect_eq("${mc}" 4 summary jobsCached)
expect_eq("${mc}" 4 summary jobsRun)
expect_eq("${mc}" 0 summary jobsFailed)

# Snapshot fan-out: restoring the warm checkpoint leaves every
# per-job stat bit-identical, while the folded spec hash keeps
# from-snapshot rows apart from from-scratch ones in the cache.
campaign(snapshot --profiles mcf,lbm --variants baseline,ucode-pred
         --scale 50 --warmup 500 --out warm.chexsnap)
campaign(run ${matrix} --from-snapshot warm.chexsnap
         --out report-snap.json)
load(s report-snap.json)
expect_eq("${s}" chex-campaign-report-v7 schema)
expect_eq("${s}" 0 summary jobsFailed)
expect_eq("${s}" 4 summary jobsFromSnapshot)
expect_every_job("${s}" ON fromSnapshot)
job_view(results_s "${s}" result)
expect_same_view("snapshot results" "${results_a}" "${results_s}")
foreach(i RANGE 3)
    string(JSON ha GET "${a}" jobs ${i} specHash)
    string(JSON hs GET "${s}" jobs ${i} specHash)
    if(ha STREQUAL hs)
        message(FATAL_ERROR "job ${i}: from-snapshot spec hash ${hs} "
                            "equals the from-scratch one")
    endif()
endforeach()
# Any row of the snapshot campaign replays by itself, from the same
# bundle, with a matching outcome.
campaign(replay --report report-snap.json --index 0
         --from-snapshot warm.chexsnap --scale 50)
