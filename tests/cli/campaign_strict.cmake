# The strict front end: a zero or out-of-range count, an invocation
# without a subcommand, a removed flag, and a campaign flag given to
# `attack --from-report` are usage errors (exit 2), and the CLI reads
# no environment knobs. See campaign_common.cmake for the usage.
include(${CMAKE_CURRENT_LIST_DIR}/campaign_common.cmake)

set(tiny --jobs 1 --profiles mcf --variants baseline --quiet)
expect_usage_error("--scale" run ${tiny} --scale 0)
expect_usage_error("--reps" run ${tiny} --reps 0)
expect_usage_error("--seeds" attack --seeds 0)
expect_usage_error("--retries" run ${tiny} --retries 0)
expect_usage_error("--retries" run ${tiny} --retries 4294967296)
expect_usage_error("unknown command '--profiles'" --profiles mcf)
expect_usage_error("unknown option '--uninit'" replay --uninit)

# `attack --from-report` runs nothing, so each campaign-only flag is
# refused by name instead of being ignored, and no report is written.
campaign(attack --attacks gen/mix --seeds 2 --quiet --out atk.json)
expect_usage_error("--attacks does not apply" attack
                   --from-report atk.json --out x.json
                   --attacks gen/uaf --seeds 5)
foreach(flag --attacks=gen/uaf --seeds=5 --variants=baseline --seed=3
             --jobs=2 --retries=2 --isolate --timeout=9 --shard=0/2
             --cache=atk.json --no-cache --out=x.json --no-uninit)
    string(REPLACE "=" ";" args ${flag})
    list(GET args 0 name)
    expect_usage_error("${name} does not apply" attack
                       --from-report atk.json ${args})
endforeach()
if(EXISTS ${WORK}/x.json)
    message(FATAL_ERROR "attack --from-report wrote x.json")
endif()

# Flags are the only input: a CHEX_BENCH_* knob does not shard a run.
set(ENV{CHEX_BENCH_SHARD} 1/2)
campaign(run ${tiny} --scale 50 --out env.json)
unset(ENV{CHEX_BENCH_SHARD})
load(report env.json)
expect_shard("${report}" 0 1)
