# One dxbar_bench session shares one results store: fig6 prices fig5's
# load sweep and fig10 reads fig9's SPLASH runs, so in a session of all
# four the store serves every fig6 and fig10 point.  The test requires
#
#   1. the preflight and the run itself to show that fig6 and fig10
#      simulate 0 points;
#   2. each of the four JSON documents to equal the one the experiment
#      writes when it runs alone (the bench_smoke_* runs), byte for byte.
#
# Inputs: -DDXBAR_BENCH=<binary> -DSMOKE_DIR=<dir of the smoke JSONs>
#         -DWORK_DIR=<scratch directory>

foreach(var DXBAR_BENCH SMOKE_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

set(experiments fig5 fig6 fig9 fig10)
file(REMOVE_RECURSE ${WORK_DIR})
execute_process(
  COMMAND ${DXBAR_BENCH} ${experiments} --quick --json ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "session: exit code '${rc}'\n${err}")
endif()

foreach(exp fig6 fig10)
  if(NOT err MATCHES "dxbar_bench:   ${exp} +63 points \\(0 simulated\\)")
    message(FATAL_ERROR "preflight: ${exp} is not 63 points, 0 simulated:\n${err}")
  endif()
  if(NOT err MATCHES "dxbar_bench: ${exp}: 63 point\\(s\\), 63 served from the session store\n")
    message(FATAL_ERROR "${exp}: not all 63 points served from the store:\n${err}")
  endif()
  if(err MATCHES "dxbar_bench: ${exp}: warm-sweep")
    message(FATAL_ERROR "${exp}: a sweep ran points the store holds:\n${err}")
  endif()
endforeach()

foreach(exp IN LISTS experiments)
  file(READ ${SMOKE_DIR}/${exp}.json want)
  file(READ ${WORK_DIR}/${exp}.json got)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${exp}: session JSON differs from ${SMOKE_DIR}/${exp}.json")
  endif()
endforeach()
message(STATUS "fig6 and fig10 served from the store; 4 JSONs identical")
