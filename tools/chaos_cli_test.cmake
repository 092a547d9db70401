# Chaos CLI flow: a short differential sweep must pass, write a JSON report,
# and honor the flag exit-code contract (bad flag -> 2).
set(REPORT ${WORKDIR}/chaos_cli.json)

execute_process(COMMAND ${CTL} chaos --seed 0 --runs 2 --tiny --json ${REPORT}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "chaos sweep failed: ${rc}\n${out}")
endif()
if(NOT out MATCHES "bit-identical with replay parity")
  message(FATAL_ERROR "chaos output missing the verdict line:\n${out}")
endif()
if(NOT EXISTS ${REPORT})
  message(FATAL_ERROR "chaos JSON report was not written: ${REPORT}")
endif()
file(READ ${REPORT} report_json)
if(NOT report_json MATCHES "chaos")
  message(FATAL_ERROR "chaos JSON report looks malformed:\n${report_json}")
endif()

execute_process(COMMAND ${CTL} chaos --no-such-flag
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "chaos bad flag: expected exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CTL} chaos --runs 0
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "chaos --runs 0: expected exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CTL} chaos --seed 1e3 --runs 1 --tiny
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "chaos --seed 1e3: expected exit 2, got ${rc}")
endif()

# chaos_fuzz: a bad count, or a sweep of zero seeds, checks nothing and must
# not pass.
foreach(bad "--seeds;x" "--seeds;0" "--start;-1" "--seeds;1e3")
  execute_process(COMMAND ${FUZZ} ${bad} --tiny
                  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "chaos_fuzz ${bad}: expected exit 2, got ${rc}")
  endif()
endforeach()
