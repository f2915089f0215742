# Headline-table check: every number a "Measured" cell of EXPERIMENTS.md
# prints equals, in order, the report value pinned for it, rounded to
# the number of decimals the cell prints.
#
#   cmake -DROOT=<repository root> -P experiments_check.cmake
#
# The rows are listed below with the report and the values they print:
# a point, by name, or a series cell, as <column>@<key> for the row
# whose first column is <key> (the key column names the key itself).
# A headline row that links a committed BENCH_<name>.json and prints a
# number must be listed, unless its cell starts with "~": a row that
# prints an approximation ("~20 MB/s") is not checked.

cmake_minimum_required(VERSION 3.19) # string(JSON)

# <row label>|<report name>|<point or column@key>[|<point or column@key>...]
set(pinned
    "§1 RAID-I large reads to application|raidone_baseline|Large sequential reads, full path"
    "§1 RAID-I, copies removed (backplane cap)|raidone_baseline|  ...with host copies removed"
    "§1 single Wren IV disk|raidone_baseline|Single Wren IV disk, sequential"
    "Table 1 sequential reads (4+1 controllers)|table1_seq_peak|Sequential reads"
    "Table 1 sequential writes|table1_seq_peak|Sequential writes"
    "Table 2 RAID-I 15-disk 4 KB read rate|table2_iops|RAID-I 15-disk read rate"
    "Table 2 RAID-II 15-disk 4 KB read rate|table2_iops|RAID-II 15-disk read rate"
    "Table 2 RAID-I scaling efficiency|table2_iops|RAID-I scaling efficiency"
    "Table 2 RAID-II scaling efficiency|table2_iops|RAID-II scaling efficiency"
    "Fig 6 HIPPI loopback asymptote|fig6_hippi|Loopback asymptote (8192 KB)"
    "Fig 6 small-packet regime|fig6_hippi|Loopback at 4 KB|req KB@4"
    "Fig 7 SCSI string saturation|fig7_string|String plateau (6 disks)|disks@3"
    "Fig 8 LFS read plateau (≥10 MB reqs)|fig8_lfs|read MB/s@10240|read MB/s@20480"
    "Fig 8 LFS write plateau (≥512 KB reqs)|fig8_lfs|write MB/s@512|req KB@512"
    "Fig 8 small writes beat small reads|fig8_lfs|write MB/s@16|read MB/s@16|req KB@16"
    "§3.4 client write over Ultranet|net_client|Client write to RAID-II"
    "§3.4 client read, polling driver|net_client|Client read, polling driver"
    "§3.4 host utilization, client writes|net_client|Host CPU utilization (writes)")

# @p value, a non-negative number in fixed point (string(JSON) gives
# every report point so), rounded half up to @p places decimals and
# printed the way the table prints it.
function(round_decimal value places out)
    if(NOT value MATCHES "^([0-9]+)(\\.([0-9]*))?$")
        message(FATAL_ERROR "cannot round ${value}")
    endif()
    set(digits "${CMAKE_MATCH_1}${CMAKE_MATCH_3}")
    string(LENGTH "${CMAKE_MATCH_1}" point) # digits before the point
    # Keep the digits up to the last printed one; round on the next.
    math(EXPR keep "${point} + ${places}")
    if(keep GREATER 18)
        message(FATAL_ERROR "${value} has too many digits to round")
    endif()
    string(LENGTH "${digits}" len)
    while(len LESS_EQUAL keep)
        string(APPEND digits "0")
        math(EXPR len "${len} + 1")
    endwhile()
    string(SUBSTRING "${digits}" 0 ${keep} kept)
    string(SUBSTRING "${digits}" ${keep} 1 next)
    string(REGEX REPLACE "^0+(.)" "\\1" kept "${kept}")
    if(next GREATER_EQUAL 5)
        math(EXPR kept "${kept} + 1")
    endif()
    # Split the rounded integer back at the point.
    string(LENGTH "${kept}" len)
    while(len LESS_EQUAL places)
        string(PREPEND kept "0")
        math(EXPR len "${len} + 1")
    endwhile()
    math(EXPR whole "${len} - ${places}")
    string(SUBSTRING "${kept}" 0 ${whole} int)
    if(places EQUAL 0)
        set(${out} "${int}" PARENT_SCOPE)
    else()
        string(SUBSTRING "${kept}" ${whole} ${places} frac)
        set(${out} "${int}.${frac}" PARENT_SCOPE)
    endif()
endfunction()

# @p text with the characters a regular expression treats specially
# escaped.
function(regex_escape text out)
    string(REGEX REPLACE "([][+.*()^$?|\\\\])" "\\\\\\1" esc "${text}")
    set(${out} "${esc}" PARENT_SCOPE)
endfunction()

file(READ "${ROOT}/EXPERIMENTS.md" doc)
if(NOT doc MATCHES "\n## Headline results\n(.*)")
    message(FATAL_ERROR "EXPERIMENTS.md has no 'Headline results' table")
endif()
set(table "${CMAKE_MATCH_1}")
string(FIND "${table}" "\n## " end)
string(SUBSTRING "${table}" 0 ${end} table)

set(labels "")
foreach(entry IN LISTS pinned)
    string(REPLACE "|" ";" entry "${entry}")
    list(GET entry 0 label)
    list(APPEND labels "${label}")
endforeach()

# Rows: | label | paper | measured | bench |
set(cell "[^|\n]*")
set(errors "")
string(REGEX MATCHALL "\n\\|${cell}\\|${cell}\\|${cell}\\|${cell}\\|"
       rows "${table}")
foreach(row IN LISTS rows)
    string(REGEX MATCH "\n\\| (${cell}) \\|${cell}\\|(${cell})\\|(${cell})\\|"
           row "${row}")
    set(label "${CMAKE_MATCH_1}")
    set(measured "${CMAKE_MATCH_2}")
    set(bench "${CMAKE_MATCH_3}")
    if(bench MATCHES "BENCH_[a-z0-9_]+\\.json" AND measured MATCHES "[0-9]"
       AND NOT measured MATCHES "^ *~" AND NOT label IN_LIST labels)
        string(APPEND errors "\n  '${label}' prints a number from a "
                             "committed report but is not pinned here")
    endif()
endforeach()

# The value @p ref names in report @p json: a point's, or the series
# cell <column>@<key>; empty if there is none.
function(report_value json ref out)
    set(value "")
    if(ref MATCHES "^(.*)@([0-9.]+)$")
        set(column "${CMAKE_MATCH_1}")
        set(key "${CMAKE_MATCH_2}")
        string(JSON ncols LENGTH "${json}" series columns)
        math(EXPR last "${ncols} - 1")
        set(col "")
        foreach(c RANGE ${last})
            string(JSON name GET "${json}" series columns ${c})
            if(name STREQUAL column)
                set(col ${c})
                break()
            endif()
        endforeach()
        if(NOT col STREQUAL "")
            string(JSON nrows LENGTH "${json}" series rows)
            math(EXPR last "${nrows} - 1")
            foreach(r RANGE ${last})
                string(JSON first GET "${json}" series rows ${r} 0)
                if(first STREQUAL key)
                    string(JSON value GET "${json}" series rows ${r} ${col})
                    break()
                endif()
            endforeach()
        endif()
    else()
        string(JSON count LENGTH "${json}" points)
        math(EXPR last "${count} - 1")
        foreach(i RANGE ${last})
            string(JSON point GET "${json}" points ${i} name)
            if(point STREQUAL ref)
                string(JSON value GET "${json}" points ${i} value)
                break()
            endif()
        endforeach()
    endif()
    set(${out} "${value}" PARENT_SCOPE)
endfunction()

set(checked 0)
foreach(entry IN LISTS pinned)
    string(REPLACE "|" ";" entry "${entry}")
    list(POP_FRONT entry label report)
    set(refs "${entry}")

    regex_escape("${label}" esc)
    if(NOT table MATCHES "\n\\| ${esc} \\|${cell}\\|(${cell})\\|(${cell})\\|")
        string(APPEND errors "\n  no headline row '${label}'")
        continue()
    endif()
    set(measured "${CMAKE_MATCH_1}")
    set(bench "${CMAKE_MATCH_2}")
    if(NOT bench MATCHES "BENCH_${report}\\.json")
        string(APPEND errors "\n  '${label}' does not link "
                             "BENCH_${report}.json")
        continue()
    endif()
    string(REGEX MATCHALL "[0-9]+(\\.[0-9]+)?" printed "${measured}")
    list(LENGTH printed nprinted)
    list(LENGTH refs nrefs)
    if(NOT nprinted EQUAL nrefs)
        string(APPEND errors "\n  '${label}' prints ${nprinted} number(s) "
                             "('${measured}'); ${nrefs} are pinned")
        continue()
    endif()

    file(READ "${ROOT}/BENCH_${report}.json" json)
    foreach(num ref IN ZIP_LISTS printed refs)
        report_value("${json}" "${ref}" value)
        if(value STREQUAL "")
            string(APPEND errors "\n  BENCH_${report}.json has no "
                                 "'${ref}'")
            continue()
        endif()
        set(places 0)
        if(num MATCHES "\\.([0-9]+)$")
            string(LENGTH "${CMAKE_MATCH_1}" places)
        endif()
        round_decimal("${value}" ${places} expected)
        if(NOT num STREQUAL expected)
            string(APPEND errors "\n  '${label}' prints ${num}; "
                                 "BENCH_${report}.json '${ref}' = ${value}, "
                                 "which prints ${expected}")
        endif()
        math(EXPR checked "${checked} + 1")
    endforeach()
endforeach()

if(NOT errors STREQUAL "")
    message(FATAL_ERROR "EXPERIMENTS.md headline table:${errors}")
endif()
list(LENGTH pinned rows)
message(STATUS "${checked} numbers in ${rows} headline cells match their "
               "reports")
