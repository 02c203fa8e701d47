# CLI acceptance test for sweep validation: a grid whose points
# SimConfig::validate rejects (fig5 on a torus includes the
# credit-flow-controlled Buffered designs) must exit 2 with one stderr
# line naming the experiment, point, design and reason — never abort,
# and never print a table of unsimulated points.
#
# Inputs: -DDXBAR_BENCH=<binary> and optionally -DSEEDS=<n>

if(NOT DEFINED DXBAR_BENCH)
  message(FATAL_ERROR "missing -DDXBAR_BENCH")
endif()

set(args fig5 --quick topology=torus)
if(DEFINED SEEDS)
  list(APPEND args --seeds ${SEEDS})
endif()

execute_process(
  COMMAND ${DXBAR_BENCH} ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got '${rc}'\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "expected no stdout, got:\n${out}")
endif()
string(REGEX MATCH
       "dxbar_bench: fig5: point [0-9]+ \\(Buffered 4\\): torus requires [^\n]*\n"
       line "${err}")
if(line STREQUAL "")
  message(FATAL_ERROR "no validation line in stderr:\n${err}")
endif()
