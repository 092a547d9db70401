# `chopperctl resume` parity: a checkpointed run or serve that is cut short
# and resumed writes, kind by kind, the events of the uninterrupted command
# into its new WAL epoch. Resume re-enters run/serve with every flag the
# checkpointed command was given, so nothing the flags turn on (here the
# cost cache planner and its cache_plan events) may go missing.
#   run arms:  kmeans --cache-policy cost, crashed at its fourth stage
#              barrier; plain (stage adoption) and --mem-scale 0.05 (the
#              engine adopts nothing and re-runs every job).
#   serve arm: a FAIR serve WAL cut after its second job_finish line, the
#              state a crash leaves; finished jobs are re-admitted, the rest
#              re-run. Their pool grants are not carried over, so pool_grant
#              is left out of that comparison.

# Run chopperctl with ARGN; fail the test on a non-zero exit.
function(ctl)
  execute_process(COMMAND ${CTL} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "chopperctl ${ARGN} exited ${rc}:\n${out}${err}")
  endif()
  set(ctl_out "${out}" PARENT_SCOPE)
endfunction()

# Set OUT to the sorted "kind=count" list of the WAL's events, leaving out
# the kinds named after OUT (at least one).
function(kind_counts wal out)
  file(READ ${wal} text)
  string(REGEX MATCHALL "\"seq\":[0-9]+,\"k\":\"[a-z_]+\"" tags "${text}")
  list(TRANSFORM tags REPLACE ".*\"k\":\"([a-z_]+)\"" "\\1")
  set(kinds ${tags})
  list(REMOVE_DUPLICATES kinds)
  list(REMOVE_ITEM kinds ${ARGN})
  list(SORT kinds)
  set(counts "")
  foreach(kind IN LISTS kinds)
    set(same ${tags})
    list(FILTER same INCLUDE REGEX "^${kind}$")
    list(LENGTH same n)
    list(APPEND counts "${kind}=${n}")
  endforeach()
  set(${out} "${counts}" PARENT_SCOPE)
endfunction()

function(expect_same_counts label want got)
  if(NOT want STREQUAL got)
    message(FATAL_ERROR "${label}: resumed epoch differs from the "
                        "uninterrupted WAL\n  want ${want}\n  got  ${got}")
  endif()
endfunction()

foreach(arm plain mem)
  set(extra "")
  if(arm STREQUAL "mem")
    set(extra --mem-scale 0.05)
  endif()
  set(ref ${WORKDIR}/resume_cli_${arm}_ref)
  set(cut ${WORKDIR}/resume_cli_${arm}_cut)
  file(REMOVE_RECURSE ${ref} ${cut})
  set(cmd run --workload kmeans --tiny --cache-policy cost ${extra})
  ctl(${cmd} --checkpoint ${ref})
  ctl(${cmd} --checkpoint ${cut} --crash-at-barrier 3)
  if(NOT ctl_out MATCHES "chopperctl resume")
    message(FATAL_ERROR "${arm}: the scheduled crash did not fire:\n${ctl_out}")
  endif()
  ctl(resume ${cut})
  kind_counts(${ref}/wal-0.jsonl want resume)
  kind_counts(${cut}/wal-1.jsonl got resume)
  if(NOT want MATCHES "cache_plan=")
    message(FATAL_ERROR "${arm}: uninterrupted run wrote no cache_plan event")
  endif()
  expect_same_counts("run ${arm}" "${want}" "${got}")
endforeach()

set(ref ${WORKDIR}/resume_cli_serve_ref)
set(cut ${WORKDIR}/resume_cli_serve_cut)
file(REMOVE_RECURSE ${ref} ${cut})
ctl(serve --jobs 4 --mode fair --tiny --checkpoint ${ref})
file(COPY ${ref}/ DESTINATION ${cut})
# Keep the WAL up to and including its second job_finish line.
file(READ ${cut}/wal-0.jsonl wal)
set(keep 0)
foreach(i 1 2)
  string(SUBSTRING "${wal}" ${keep} -1 rest)
  string(FIND "${rest}" "\"k\":\"job_finish\"" at)
  if(at LESS 0)
    message(FATAL_ERROR "serve WAL has fewer than two job_finish lines")
  endif()
  string(SUBSTRING "${rest}" ${at} -1 rest)
  string(FIND "${rest}" "\n" eol)
  math(EXPR keep "${keep} + ${at} + ${eol} + 1")
endforeach()
string(SUBSTRING "${wal}" 0 ${keep} wal)
file(WRITE ${cut}/wal-0.jsonl "${wal}")
ctl(resume ${cut})
string(REGEX MATCHALL "re-admit \\(finished\\)" readmitted "${ctl_out}")
list(LENGTH readmitted n)
if(NOT n EQUAL 2)
  message(FATAL_ERROR "serve resume re-admitted ${n} jobs, not 2:\n${ctl_out}")
endif()
kind_counts(${ref}/wal-0.jsonl want pool_grant)
kind_counts(${cut}/wal-1.jsonl got pool_grant)
expect_same_counts("serve" "${want}" "${got}")
