# Tier-1 gate on the pinned experiment baseline: `dxbar_report diff
# ci/baseline <smoke_json>` must report every registered experiment as
# identical (the whole result document but git_describe), so numeric
# drift fails here as well as a shape regression.
#
# Inputs: -DDXBAR_REPORT=<binary> -DBASELINE_DIR=<dir> -DSMOKE_DIR=<dir>
#         -DEXPECTED=<number of registered experiments>

foreach(var DXBAR_REPORT BASELINE_DIR SMOKE_DIR EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

execute_process(
  COMMAND ${DXBAR_REPORT} diff ${BASELINE_DIR} ${SMOKE_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

set(want "0 shape regression\\(s\\), 0 drifted, ${EXPECTED} identical, 0 added, 0 removed")
if(NOT rc EQUAL 0 OR NOT out MATCHES "${want}")
  message(FATAL_ERROR
          "baseline diff is not ${EXPECTED} identical (exit ${rc}):\n${out}\n${err}")
endif()
message(STATUS "all ${EXPECTED} experiments identical to ${BASELINE_DIR}")
