# cli_flag_test.cmake - numeric-flag validation across every CLI entry point.
#
# Run as a ctest script:  cmake -DBIN_DIR=<build dir> -P cli_flag_test.cmake
#
# Every tool funnels its count-valued flags through bench::parseCountStrict
# or bench::parseJobsStrict (bench/BenchUtil.h): the whole operand must be a
# decimal number, anything else — letters, trailing junk, zero where a
# minimum of one is required, a missing operand — is a usage error and must
# exit 2 before any work starts. The paper benches' environment knobs
# (TMW_BENCH_MAX_EVENTS, TMW_BENCH_BUDGET_SECONDS) are held to the same
# rule. One stray accepted flag here means a typo like `--jobs 4x` silently
# ran single-threaded, or `TMW_BENCH_MAX_EVENTS=foo` printed an empty table
# and exited 0, so each case is pinned individually.

if(NOT DEFINED BIN_DIR)
  message(FATAL_ERROR "pass -DBIN_DIR=<directory containing the built tools>")
endif()

set(FAILURES 0)

# expect_exit(<code> <tool> [args...]) - run a tool, require an exact status.
# <tool> may be preceded by VAR=value environment assignments, which apply
# to that one run only.
function(expect_exit EXPECTED)
  set(ENV_ASSIGNMENTS "")
  set(ARGS ${ARGN})
  list(GET ARGS 0 TOOL)
  while(TOOL MATCHES "^[A-Z_]+=")
    list(APPEND ENV_ASSIGNMENTS ${TOOL})
    list(REMOVE_AT ARGS 0)
    list(GET ARGS 0 TOOL)
  endwhile()
  list(REMOVE_AT ARGS 0)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${ENV_ASSIGNMENTS}
            ${BIN_DIR}/${TOOL} ${ARGS}
    RESULT_VARIABLE STATUS
    OUTPUT_QUIET
    ERROR_VARIABLE STDERR)
  if(NOT STATUS EQUAL ${EXPECTED})
    string(JOIN " " CASE ${ARGN})
    message(SEND_ERROR
        "${CASE}: expected exit ${EXPECTED}, got '${STATUS}'\n${STDERR}")
    math(EXPR FAILURES "${FAILURES}+1")
    set(FAILURES ${FAILURES} PARENT_SCOPE)
  endif()
endfunction()

# --- bad values: every strict numeric flag, one probe each -----------------
expect_exit(2 litmus_tool --corpus --cap bogus)
expect_exit(2 litmus_tool --corpus --cap 12x)
expect_exit(2 litmus_tool --corpus --specialize bogus)
expect_exit(2 tmw_serve --max-clients bogus)
expect_exit(2 tmw_serve --max-clients 0)
expect_exit(2 tmw_serve --accept-limit bogus)
expect_exit(2 tmw_serve --jobs bogus)
expect_exit(2 tmw_serve --jobs)
expect_exit(2 tmw_audit --bases bogus)
expect_exit(2 tmw_audit --events bogus)
expect_exit(2 tmw_audit --placements bogus)
expect_exit(2 tmw_audit --corpus-cap bogus)
expect_exit(2 tmw_audit --max-findings bogus)
expect_exit(2 litmus_tool --corpus --jobs 0)
expect_exit(2 tmw_lint --bogus-flag)
expect_exit(2 tmw_lint)            # no inputs and no --corpus is a usage error

# The paper benches' knobs. The small bounds keep a wrongly accepted case
# quick: it runs a |E| <= 2 search instead of the default one.
set(SMALL TMW_BENCH_MAX_EVENTS=2 TMW_BENCH_BUDGET_SECONDS=1)
expect_exit(2 ${SMALL} table1_x86 --jobs)
expect_exit(2 TMW_BENCH_BUDGET_SECONDS=1 TMW_BENCH_MAX_EVENTS=foo table1_x86)
expect_exit(2 TMW_BENCH_BUDGET_SECONDS=1 TMW_BENCH_MAX_EVENTS=0 table1_x86)
expect_exit(2 TMW_BENCH_MAX_EVENTS=2 TMW_BENCH_BUDGET_SECONDS=abc table1_x86)
expect_exit(2 TMW_BENCH_MAX_EVENTS=2 TMW_BENCH_BUDGET_SECONDS=0 table1_x86)
# The benches without a parallel search take no arguments: a flag they
# would ignore (`--jobs` included) is a usage error, not a silent no-op.
set(NO_ARG_BENCHES sec52_power_txn fig3_isolation fig10_lock_elision
                   table2_metatheory)
foreach(BENCH ${NO_ARG_BENCHES})
  expect_exit(2 ${SMALL} ${BENCH} --jobs bogus)
endforeach()

# --- good values: the same flags must still accept well-formed operands ----
expect_exit(0 tmw_lint --corpus)
expect_exit(0 litmus_tool --corpus --cap 4 --specialize on --jobs 2)
expect_exit(0 ${SMALL} table1_x86 --jobs 2)
foreach(BENCH ${NO_ARG_BENCHES})
  expect_exit(0 ${SMALL} ${BENCH})
endforeach()

if(FAILURES GREATER 0)
  message(FATAL_ERROR "${FAILURES} CLI flag-validation case(s) failed")
endif()
message(STATUS "all CLI flag-validation cases passed")
