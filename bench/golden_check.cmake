# Golden-output check: run a bench with --json in a directory of its
# own and byte-compare the report it writes with the committed copy.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<path/BENCH_name.json>
#         -DWORKDIR=<work dir> -P golden_check.cmake
#
# No environment variable changes a golden bench's report
# (RAID2_BENCH_THREADS only spreads a sweep over threads), so the
# committed reports are each bench's one output.

get_filename_component(report "${GOLDEN}" NAME)
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}" --json
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --json failed: ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORKDIR}/${report}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${WORKDIR}/${report} differs from ${GOLDEN}; "
                        "a change that moves a golden regenerates it "
                        "and says why")
endif()
