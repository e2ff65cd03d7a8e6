# Worker-crash recovery for the multi-process campaign fabric (ctest
# target dtnsim_worker_crash, label `fast` — runs in the sanitizer sweep).
#
# The acceptance property of `dtnsim sweep --workers N`, proven with a
# REAL SIGKILL delivered inside a real fork/exec'd worker (the in-process
# shard/merge properties live in harness_sweep_shard_test):
#
#   1. run the campaign single-process                      -> clean.json
#   2. run it with `--workers 3 --fault kill@point=2`: the worker that
#      owns grid point 2 raises SIGKILL mid-shard; the driver must notice
#      the signal death, restart that shard (resuming its journal), finish
#      the campaign with exit 0, merge, and remove the shard work dir
#   3. strip the volatile execution metadata (every line containing
#      `"exec` — the documented filterability contract of dtnsim-sweep/1)
#      from both files and require them BYTE-IDENTICAL
#   4. degrade gracefully: a shard whose points fail past its per-point
#      retries completes the campaign with exit 1 and KEEPS the shard
#      journals; rerunning the same fleet with `--resume` (fault gone)
#      retries exactly the gap and converges to the same bytes
#
# Invoked by CTest with -DDTNSIM=... -DSOURCE_DIR=... -DWORK_DIR=...
# (see CMakeLists.txt).

foreach(var DTNSIM SOURCE_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "dtnsim_worker_crash needs -D${var}=...")
  endif()
endforeach()

set(SCRATCH ${WORK_DIR}/worker_crash)
file(REMOVE_RECURSE ${SCRATCH})
file(MAKE_DIRECTORY ${SCRATCH})
set(FIXTURE ${SOURCE_DIR}/tests/cli/resume.cfg)
set(SWEEP_ARGS sweep ${FIXTURE} --axis protocol.copies=2,4,8 --seeds 2 --quiet)

function(read_filtered path out_var)
  file(STRINGS ${path} lines)
  set(kept "")
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "\"exec")
      string(APPEND kept "${line}\n")
    endif()
  endforeach()
  set(${out_var} "${kept}" PARENT_SCOPE)
endfunction()

# 1. Uninterrupted single-process reference campaign.
execute_process(COMMAND ${DTNSIM} ${SWEEP_ARGS} --out clean.json
                WORKING_DIRECTORY ${SCRATCH}
                RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rv STREQUAL "0")
  message(FATAL_ERROR "clean campaign failed (exit ${rv}):\n${err}")
endif()

# 2. The fleet, with the worker owning point 2 SIGKILLed mid-shard. The
#    driver must restart it and still finish clean.
execute_process(COMMAND ${DTNSIM} ${SWEEP_ARGS} --out fleet.json --workers 3
                        --fault kill@point=2
                WORKING_DIRECTORY ${SCRATCH}
                RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rv STREQUAL "0")
  message(FATAL_ERROR "fleet campaign with a SIGKILLed worker did not recover "
                      "(exit ${rv}):\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "died on signal 9")
  message(FATAL_ERROR "SIGKILL never fired inside a worker — the fault was "
                      "not propagated:\n${err}")
endif()
if(NOT err MATCHES "restarting shard")
  message(FATAL_ERROR "driver never restarted the killed shard:\n${err}")
endif()
if(EXISTS ${SCRATCH}/fleet.json.journal.shards)
  message(FATAL_ERROR "clean fleet campaign left its shard work dir behind")
endif()

# 3. Bit-for-bit equivalence modulo the volatile `"exec` lines.
read_filtered(${SCRATCH}/clean.json clean)
read_filtered(${SCRATCH}/fleet.json fleet)
if(NOT clean STREQUAL fleet)
  message(FATAL_ERROR "fleet aggregates diverge from the single-process "
                      "campaign\n--- clean ---\n${clean}\n--- fleet ---\n"
                      "${fleet}")
endif()
if(clean STREQUAL "")
  message(FATAL_ERROR "filtered results are empty — the equivalence check "
                      "compared nothing")
endif()

# 4. Graceful degradation: point 1's attempts always throw, so its shard
#    completes with exit 1 (completed-with-failures — no restart), the
#    campaign publishes the survivors with exit 1, and the journals stay.
execute_process(COMMAND ${DTNSIM} ${SWEEP_ARGS} --out degraded.json --workers 3
                        --worker-retries 1 --fault throw@point=1:fires=99
                WORKING_DIRECTORY ${SCRATCH}
                RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rv STREQUAL "1")
  message(FATAL_ERROR "degraded fleet campaign exited ${rv}, expected 1:\n${err}")
endif()
if(NOT err MATCHES "1 point\\(s\\) FAILED")
  message(FATAL_ERROR "degraded campaign did not report its failed point:\n${err}")
endif()
if(NOT EXISTS ${SCRATCH}/degraded.json.journal.shards/shard-1.journal)
  message(FATAL_ERROR "degraded campaign did not keep its shard journals — "
                      "nothing left to resume")
endif()
if(NOT EXISTS ${SCRATCH}/degraded.json)
  message(FATAL_ERROR "degraded campaign refused to publish the surviving "
                      "points")
endif()

# Resume the gap (fault gone): only the failed point reruns, exit 0, and
# the merged bytes converge to the reference.
execute_process(COMMAND ${DTNSIM} ${SWEEP_ARGS} --out degraded.json --workers 3
                        --resume
                WORKING_DIRECTORY ${SCRATCH}
                RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rv STREQUAL "0")
  message(FATAL_ERROR "fleet --resume after degradation failed (exit ${rv}):\n${err}")
endif()
if(EXISTS ${SCRATCH}/degraded.json.journal.shards)
  message(FATAL_ERROR "successful fleet resume left the shard work dir behind")
endif()
read_filtered(${SCRATCH}/degraded.json degraded)
if(NOT clean STREQUAL degraded)
  message(FATAL_ERROR "degrade-then-resume aggregates diverge from the "
                      "single-process campaign\n--- clean ---\n${clean}\n"
                      "--- resumed ---\n${degraded}")
endif()
message(STATUS "worker-crash recovery and degrade-then-resume equivalence hold")

# 5. A shard journal of another campaign refuses a fleet --resume before
#    anything launches, exactly like a single-process --resume: exit 1, the
#    resume wording naming the journal, no worker spawned (no sibling shard
#    journal appears), and the foreign journal left byte-for-byte intact.
set(FOREIGN_DIR ${SCRATCH}/foreign.json.journal.shards)
file(MAKE_DIRECTORY ${FOREIGN_DIR})
execute_process(COMMAND ${DTNSIM} ${SWEEP_ARGS} --seed-base 99 --shard 0/3
                        --journal ${FOREIGN_DIR}/shard-0.journal
                WORKING_DIRECTORY ${SCRATCH}
                RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rv STREQUAL "0")
  message(FATAL_ERROR "could not seed the foreign shard journal (exit ${rv}):\n${err}")
endif()
file(SHA256 ${FOREIGN_DIR}/shard-0.journal foreign_before)
execute_process(COMMAND ${DTNSIM} ${SWEEP_ARGS} --out foreign.json --workers 3
                        --resume
                WORKING_DIRECTORY ${SCRATCH}
                RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rv STREQUAL "1")
  message(FATAL_ERROR "fleet --resume over a foreign shard journal exited ${rv}, "
                      "expected 1:\n${err}")
endif()
if(NOT err MATCHES "shard journal '[^']*shard-0\\.journal' was written by a different campaign.*delete it or rerun without resume")
  message(FATAL_ERROR "foreign shard journal was not refused with the resume "
                      "wording:\n${err}")
endif()
if(EXISTS ${FOREIGN_DIR}/shard-1.journal OR EXISTS ${FOREIGN_DIR}/shard-2.journal)
  message(FATAL_ERROR "workers were launched despite the foreign shard journal")
endif()
if(NOT EXISTS ${FOREIGN_DIR}/shard-0.journal)
  message(FATAL_ERROR "the refused resume deleted the foreign shard journal")
endif()
file(SHA256 ${FOREIGN_DIR}/shard-0.journal foreign_after)
if(NOT foreign_before STREQUAL foreign_after)
  message(FATAL_ERROR "the refused resume modified the foreign shard journal")
endif()
message(STATUS "fleet --resume refuses a foreign shard journal untouched")
