# CLI acceptance test for --resume, the results log in front of the
# sweep, on an open-loop grid (ablation_unified_vs_dual) and the SPLASH
# grid of fig9 (workload=splash points):
#
#   1. a run without --resume, then two runs into one fresh --resume
#      directory, print the same stdout;
#   2. the second --resume run finds every point complete;
#   3. a run with a changed config (packet_length=3) into the same
#      directory finds 0 points complete for both experiments;
#   4. a results.bin that cannot be read ends dxbar_bench with exit 1
#      and one stderr line naming the file.
#
# Inputs: -DDXBAR_BENCH=<binary> -DWORK_DIR=<scratch directory>

foreach(var DXBAR_BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

set(experiments ablation_unified_vs_dual fig9)
set(resume_dir ${WORK_DIR}/resume)
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(bench name)
  execute_process(
    COMMAND ${DXBAR_BENCH} ${experiments} --quick ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${name}: exit code '${rc}'\n${err}")
  endif()
  set(${name}_out "${out}" PARENT_SCOPE)
  set(${name}_err "${err}" PARENT_SCOPE)
endfunction()

# Asserts that `err` holds one campaign line per experiment and that
# each reports `expected` complete points ("all" = every point).
function(expect_complete name err expected)
  foreach(exp IN LISTS experiments)
    string(REGEX MATCH
           "dxbar_bench: ${exp}: [a-z -]*campaign of ([0-9]+) point\\(s\\) in [^\n]*, ([0-9]+) already complete"
           line "${err}")
    if(line STREQUAL "")
      message(FATAL_ERROR "${name}: no campaign line for ${exp}:\n${err}")
    endif()
    set(total ${CMAKE_MATCH_1})
    set(done ${CMAKE_MATCH_2})
    if(expected STREQUAL "all")
      set(want ${total})
    else()
      set(want ${expected})
    endif()
    if(NOT done EQUAL want)
      message(FATAL_ERROR
              "${name}: ${exp}: ${done} of ${total} complete, expected ${want}")
    endif()
  endforeach()
endfunction()

bench(plain)
bench(first --resume ${resume_dir})
bench(second --resume ${resume_dir})
bench(changed --resume ${resume_dir} packet_length=3)

if(NOT first_out STREQUAL plain_out)
  message(FATAL_ERROR "first --resume run differs from the plain run")
endif()
if(NOT second_out STREQUAL plain_out)
  message(FATAL_ERROR "second --resume run differs from the plain run")
endif()
expect_complete(first "${first_err}" 0)
expect_complete(second "${second_err}" all)
expect_complete(changed "${changed_err}" 0)

# An unreadable results file: one line naming it, exit 1.
set(bad_dir ${WORK_DIR}/unreadable)
foreach(exp IN LISTS experiments)
  file(MAKE_DIRECTORY ${bad_dir}/${exp}/results.bin)
  execute_process(
    COMMAND ${DXBAR_BENCH} ${exp} --quick --resume ${bad_dir}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "${exp}: unreadable results.bin: expected exit 1, "
                        "got '${rc}'\n${err}")
  endif()
  if(NOT err MATCHES "dxbar_bench: [^\n]*${exp}/results.bin[^\n]*\n$")
    message(FATAL_ERROR "${exp}: no error line naming results.bin:\n${err}")
  endif()
endforeach()
