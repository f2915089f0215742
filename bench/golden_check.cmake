# Golden-output check: run a bench with --json in a directory of its
# own and byte-compare the report it writes with the committed copy.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<path/BENCH_name.json>
#         -DWORKDIR=<work dir> -P golden_check.cmake
#
# The committed reports use each bench's defaults, so the variables
# that change a bench's output are cleared first.

foreach(var RAID2_MTTDL_TRIALS RAID2_FAULT_SEED RAID2_BACKUP_QUICK
            RAID2_LOAD_QUICK RAID2_INTEGRITY_QUICK RAID2_BENCH_JSON
            RAID2_TRACE)
    unset(ENV{${var}})
endforeach()

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
