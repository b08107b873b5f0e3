# The server profile family through the same campaign machinery: a
# scaled-down server-lite campaign yields bit-identical cycle counts
# across plain, fork-isolated and result-cached runs, and restoring a
# churned mid-run checkpoint finishes bit-identical to the
# from-scratch run. See campaign_common.cmake for the usage.
include(${CMAKE_CURRENT_LIST_DIR}/campaign_common.cmake)
set(matrix --jobs 2 --profiles server-lite
    --variants baseline,ucode-pred --scale 200)

campaign(run ${matrix} --out server.json)
campaign(run ${matrix} --isolate --timeout 300 --out server-iso.json)
campaign(run ${matrix} --cache server.json --out server-cached.json)
load(a server.json)
load(b server-iso.json)
load(c server-cached.json)
expect_eq("${a}" 2 summary jobsRun)
foreach(d a b c)
    expect_eq("${${d}}" 0 summary jobsFailed)
endforeach()
expect_eq("${c}" 2 summary jobsCached)
job_view(cycles_a "${a}" result cycles)
job_view(cycles_b "${b}" result cycles)
job_view(cycles_c "${c}" result cycles)
expect_same_view("isolated cycles" "${cycles_a}" "${cycles_b}")
expect_same_view("cached cycles" "${cycles_a}" "${cycles_c}")
# The enforcement column actually tracks shadow storage.
job_view(shadow "${a}" result shadowBytes)
if(NOT shadow MATCHES "=[1-9]")
    message(FATAL_ERROR "no job tracks shadow storage:\n${shadow}")
endif()

# Checkpoint after a warm-up prefix — by then the alias and
# capability tables have churned through many spill/free cycles, so
# the restored tree is a reclaimed one, not a fresh fill.
campaign(snapshot --profiles server-lite --variants baseline,ucode-pred
         --scale 200 --warmup 500 --out server.chexsnap)
campaign(run ${matrix} --from-snapshot server.chexsnap
         --out server-snap.json)
load(s server-snap.json)
expect_eq("${s}" 0 summary jobsFailed)
expect_eq("${s}" 2 summary jobsFromSnapshot)
expect_every_job("${s}" ON fromSnapshot)
job_view(results_a "${a}" result)
job_view(results_s "${s}" result)
expect_same_view("snapshot results" "${results_a}" "${results_s}")
