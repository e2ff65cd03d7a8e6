# bench_smoke driver (ctest target `bench_smoke`, label `slow`).
#
# 1. Smoke-runs every tracked bench binary at tiny sizes into WORK_DIR so
#    the benches cannot bit-rot. Their fatal cross-checks run: fixed-dt vs
#    event-kernel metrics in bench_world_step, threads=1 vs
#    hardware-concurrency sweep aggregates in bench_sweep.
# 2. Validates the smoke output AND the COMMITTED perf history at the repo
#    root: each BENCH_*.json must exist and carry its required fields, so
#    a bench refactor cannot silently stop emitting a tracked number.
#
# Invoked by CTest with -DBENCH_WORLD_STEP=..., -DBENCH_SWEEP=...,
# -DSOURCE_DIR=..., -DWORK_DIR=... (see CMakeLists.txt).

function(run_bench label)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "bench_smoke: ${label} failed with exit code ${rv}")
  endif()
endfunction()

function(require_fields path)
  if(NOT EXISTS ${path})
    message(FATAL_ERROR "bench_smoke: ${path} is missing")
  endif()
  file(READ ${path} content)
  foreach(field ${ARGN})
    string(FIND "${content}" "\"${field}\"" at)
    if(at EQUAL -1)
      message(FATAL_ERROR
              "bench_smoke: ${path} is missing required field \"${field}\"")
    endif()
  endforeach()
endfunction()

run_bench(bench_world_step ${BENCH_WORLD_STEP} --steps 200 --smoke
          --out ${WORK_DIR}/BENCH_world_step.smoke.json)
run_bench(bench_sweep ${BENCH_SWEEP} --smoke
          --out ${WORK_DIR}/BENCH_sweep.smoke.json)

# contact_events is the exact contact-event count of each point's timed
# window; aggregates_identical is only written after the threads=1 vs
# hardware-concurrency cross-check passed.
set(WORLD_STEP_FIELDS
    bench workload steps points incremental_steps_per_sec contact_events
    buffer_pressure slab_steps_per_sec event_kernel fixed_steps_per_sec
    event_steps_per_sec speedup allocs_per_step paper_protocols wall_s
    peak_rss_mb dijkstra_calls dijkstra_settled dijkstra_relaxed
    candidate_rebuilds candidates_tested)
set(SWEEP_FIELDS
    bench campaign runs reused_runs_per_sec reused_points_per_sec
    parallel_runs_per_sec aggregates_identical allocs_per_reused_seed
    hub_load hub_runs_per_sec hub_points_per_sec)
require_fields(${WORK_DIR}/BENCH_world_step.smoke.json ${WORLD_STEP_FIELDS})
require_fields(${SOURCE_DIR}/BENCH_world_step.json ${WORLD_STEP_FIELDS})
require_fields(${WORK_DIR}/BENCH_sweep.smoke.json ${SWEEP_FIELDS})
require_fields(${SOURCE_DIR}/BENCH_sweep.json ${SWEEP_FIELDS})

# The smoke workload is fixed by its flags, so its per-point contact-event
# counts (n = 100, 500) are exact, host-independent numbers.
file(READ ${WORK_DIR}/BENCH_world_step.smoke.json smoke_world_step)
string(REGEX MATCHALL "\"contact_events\": [0-9]+" smoke_events "${smoke_world_step}")
string(REGEX REPLACE "\"contact_events\": " "" smoke_events "${smoke_events}")
set(expected_events "2061;11927")
if(NOT smoke_events STREQUAL expected_events)
  message(FATAL_ERROR
          "bench_smoke: bench_world_step smoke contact_events are "
          "\"${smoke_events}\", expected \"${expected_events}\"")
endif()

# The smoke paper point (EER, 80 buses, 1500 s) is just as fixed: the
# routers' summed shortest-path work is an exact count. A kernel change that
# settles or relaxes more (or fewer) vertices must re-pin it on purpose.
foreach(counter calls settled relaxed)
  string(REGEX MATCH "\"dijkstra_${counter}\": [0-9]+" match "${smoke_world_step}")
  string(REGEX REPLACE "\"dijkstra_${counter}\": " "" value "${match}")
  list(APPEND smoke_dijkstra "${value}")
endforeach()
set(expected_dijkstra "1568;34062;144059")
if(NOT smoke_dijkstra STREQUAL expected_dijkstra)
  message(FATAL_ERROR
          "bench_smoke: bench_world_step smoke dijkstra calls;settled;relaxed are "
          "\"${smoke_dijkstra}\", expected \"${expected_dijkstra}\"")
endif()

# The skin list's work is just as exact: candidate-list rebuilds and
# candidate pairs range-tested, for every smoke point in file order (paper
# EER n = 80; random waypoint n = 100, 500 over the timed window; the
# sparse field's fixed-dt run). A contact layer that rebuilt its list
# every step would report one rebuild per step here.
foreach(counter candidate_rebuilds candidates_tested)
  string(REGEX MATCHALL "\"${counter}\": [0-9]+" matches "${smoke_world_step}")
  string(REGEX REPLACE "\"${counter}\": " "" values "${matches}")
  list(APPEND smoke_skin "${values}")
endforeach()
set(expected_skin "1872;25;25;75;124281;290334;1660780;5400")
if(NOT smoke_skin STREQUAL expected_skin)
  message(FATAL_ERROR
          "bench_smoke: bench_world_step smoke candidate_rebuilds then "
          "candidates_tested are \"${smoke_skin}\", expected \"${expected_skin}\"")
endif()
