# Helpers shared by the chex-campaign command-line checks. Scripts
# that include this file are run as
#   cmake -DCAMPAIGN=<chex-campaign> -DWORK=<work directory> -P <script>
# and write every report under WORK.

file(MAKE_DIRECTORY ${WORK})

# Run `chex-campaign ARGN` in WORK; fail unless it exits 0.
function(campaign)
    execute_process(COMMAND ${CAMPAIGN} ${ARGN}
                    WORKING_DIRECTORY ${WORK}
                    RESULT_VARIABLE rc ERROR_VARIABLE log
                    OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        list(JOIN ARGN " " command)
        message(FATAL_ERROR "chex-campaign ${command}: exit ${rc}\n${log}")
    endif()
endfunction()

# Fail unless `chex-campaign ARGN` exits 2 with <pattern> on stderr.
function(expect_usage_error pattern)
    execute_process(COMMAND ${CAMPAIGN} ${ARGN}
                    WORKING_DIRECTORY ${WORK}
                    RESULT_VARIABLE rc ERROR_VARIABLE log
                    OUTPUT_QUIET)
    if(NOT rc EQUAL 2 OR NOT log MATCHES "${pattern}")
        list(JOIN ARGN " " command)
        message(FATAL_ERROR "chex-campaign ${command}: exit ${rc}, "
                            "expected 2 naming '${pattern}'\n${log}")
    endif()
endfunction()

# Read the JSON file WORK/<name> into variable <out>.
function(load out name)
    file(READ ${WORK}/${name} doc)
    set(${out} "${doc}" PARENT_SCOPE)
endfunction()

# Fail unless the member at path ARGN of <doc> equals <expect>.
function(expect_eq doc expect)
    string(JSON value GET "${doc}" ${ARGN})
    if(NOT value STREQUAL "${expect}")
        message(FATAL_ERROR "${ARGN} is ${value}, expected ${expect}")
    endif()
endfunction()

# Fail unless the report's shard block is exactly {index, count}.
function(expect_shard doc index count)
    string(JSON members LENGTH "${doc}" shard)
    expect_eq("${doc}" ${index} shard index)
    expect_eq("${doc}" ${count} shard count)
    if(NOT members EQUAL 2)
        message(FATAL_ERROR "shard block has ${members} members")
    endif()
endfunction()

# Set <out> to one "label=value" line per job of <doc>, where value
# is the member at path ARGN of the job (e.g. `result cycles`). The
# whole report is parsed once; each job is then cut from its text
# and parsed alone. The canonical writer (its bytes are pinned by
# Json.WriterBytesArePinned) puts every job between a "    {" line
# and a "    }" line, and a cut that is not one whole job fails to
# parse.
function(job_view out doc)
    set(view "")
    string(JSON jobs LENGTH "${doc}" jobs)
    string(FIND "${doc}" "\n  \"jobs\": [" at)
    string(SUBSTRING "${doc}" ${at} -1 rest)
    math(EXPR last "${jobs} - 1")
    foreach(i RANGE ${last})
        string(FIND "${rest}" "\n    {\n" begin)
        string(FIND "${rest}" "\n    }" end)
        if(begin EQUAL -1 OR end LESS begin)
            message(FATAL_ERROR "job ${i} is not where a canonical "
                                "report puts it")
        endif()
        math(EXPR length "${end} + 6 - ${begin}")
        math(EXPR next "${end} + 6")
        string(SUBSTRING "${rest}" ${begin} ${length} job)
        string(SUBSTRING "${rest}" ${next} -1 rest)
        string(JSON label GET "${job}" label)
        string(JSON value GET "${job}" ${ARGN})
        string(APPEND view "${label}=${value}\n")
    endforeach()
    set(${out} "${view}" PARENT_SCOPE)
endfunction()

# Fail unless member ARGN is <expect> in every job of <doc>.
function(expect_every_job doc expect)
    job_view(view "${doc}" ${ARGN})
    string(REGEX REPLACE "[^\n]*=${expect}\n" "" others "${view}")
    if(NOT others STREQUAL "")
        message(FATAL_ERROR "jobs whose ${ARGN} is not ${expect}:\n"
                            "${others}")
    endif()
endfunction()

# Fail unless the per-job views <a> and <b> are identical.
function(expect_same_view what a b)
    if(NOT a STREQUAL b)
        message(FATAL_ERROR "${what} differ:\n${a}\nvs\n${b}")
    endif()
endfunction()
