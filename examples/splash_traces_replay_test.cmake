# Smoke test for the trace round trip of splash_traces:
#
#   1. `generate FFT` writes a 4x4 trace;
#   2. `replay` of that trace at 4x4 exits 0 and delivers every packet
#      that `generate` wrote;
#   3. `replay` of the same trace at 2x2, where its node ids lie outside
#      the mesh, exits 1 with one error line naming a trace line.
#
# Inputs: -DSPLASH_TRACES=<binary> -DWORK_DIR=<scratch directory>

foreach(var SPLASH_TRACES WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(trace ${WORK_DIR}/fft.trace)

function(splash_traces name)
  execute_process(
    COMMAND ${SPLASH_TRACES} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(${name}_rc "${rc}" PARENT_SCOPE)
  set(${name}_out "${out}" PARENT_SCOPE)
  set(${name}_err "${err}" PARENT_SCOPE)
endfunction()

splash_traces(generate generate FFT ${trace} width=4 height=4 transactions=10)
if(NOT generate_rc STREQUAL "0")
  message(FATAL_ERROR "generate: exit code '${generate_rc}'\n${generate_err}")
endif()
if(NOT generate_out MATCHES "wrote ([0-9]+) packets")
  message(FATAL_ERROR "generate: no packet count in:\n${generate_out}")
endif()
set(written ${CMAKE_MATCH_1})

splash_traces(replay replay ${trace} width=4 height=4)
if(NOT replay_rc STREQUAL "0")
  message(FATAL_ERROR "replay: exit code '${replay_rc}'\n${replay_err}")
endif()
if(NOT replay_out MATCHES "packets delivered +: ([0-9]+)")
  message(FATAL_ERROR "replay: no delivered count in:\n${replay_out}")
endif()
if(NOT CMAKE_MATCH_1 EQUAL written)
  message(FATAL_ERROR
          "replay delivered ${CMAKE_MATCH_1} packets, generate wrote ${written}")
endif()

# A signal shows up as a non-numeric result ("Segmentation fault", ...).
splash_traces(small replay ${trace} width=2 height=2)
if(NOT small_rc STREQUAL "1")
  message(FATAL_ERROR "2x2 replay: exit code '${small_rc}', expected 1\n"
                      "${small_err}")
endif()
if(NOT small_err MATCHES "^error: trace line [0-9]+: [^\n]*\n$")
  message(FATAL_ERROR "2x2 replay: expected one error line naming a trace "
                      "line, got:\n${small_err}")
endif()
