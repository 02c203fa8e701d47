# CLI acceptance test for --resume, the session results store backed by
# DIR/results.bin, on an open-loop grid (ablation_unified_vs_dual) and
# the SPLASH grid of fig9 (workload=splash points):
#
#   1. a run without --resume, then two runs into one fresh --resume
#      directory, print the same stdout;
#   2. the second --resume run finds every point complete;
#   3. a run with a changed config (packet_length=3) into the same
#      directory finds 0 points complete for both experiments;
#   4. fig5 into a fresh directory, then fig6 into the same one: every
#      fig6 point is a fig5 config, so all 63 are complete and fig6
#      prints what a plain fig6 run prints;
#   5. a results.bin that cannot be read ends dxbar_bench with exit 1
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

# Runs dxbar_bench with ARGN; sets <name>_out and <name>_err.
function(run name)
  execute_process(
    COMMAND ${DXBAR_BENCH} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${name}: exit code '${rc}'\n${err}")
  endif()
  set(${name}_out "${out}" PARENT_SCOPE)
  set(${name}_err "${err}" PARENT_SCOPE)
endfunction()

# Asserts that `err` holds one store line per experiment in `exps` and
# that each reports `expected` points served from results.bin ("all" =
# every point).
function(expect_complete name err expected exps)
  foreach(exp IN LISTS exps)
    string(REGEX MATCH
           "dxbar_bench: ${exp}: ([0-9]+) point\\(s\\), ([0-9]+) served from [^\n]*results.bin\n"
           line "${err}")
    if(line STREQUAL "")
      message(FATAL_ERROR "${name}: no results.bin line for ${exp}:\n${err}")
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

run(plain ${experiments} --quick)
run(first ${experiments} --quick --resume ${resume_dir})
run(second ${experiments} --quick --resume ${resume_dir})
run(changed ${experiments} --quick --resume ${resume_dir} packet_length=3)

if(NOT first_out STREQUAL plain_out)
  message(FATAL_ERROR "first --resume run differs from the plain run")
endif()
if(NOT second_out STREQUAL plain_out)
  message(FATAL_ERROR "second --resume run differs from the plain run")
endif()
expect_complete(first "${first_err}" 0 "${experiments}")
expect_complete(second "${second_err}" all "${experiments}")
expect_complete(changed "${changed_err}" 0 "${experiments}")

# One directory shared by two experiments: fig6 re-prices fig5's sweep.
set(shared_dir ${WORK_DIR}/shared)
run(fig5 fig5 --quick --resume ${shared_dir})
run(fig6 fig6 --quick --resume ${shared_dir})
run(fig6_plain fig6 --quick)
expect_complete(fig5 "${fig5_err}" 0 fig5)
expect_complete(fig6 "${fig6_err}" 63 fig6)
if(NOT fig6_out STREQUAL fig6_plain_out)
  message(FATAL_ERROR "fig6 served from fig5's directory differs from a "
                      "plain fig6 run")
endif()

# An unreadable results file: one line naming it, exit 1.
set(bad_dir ${WORK_DIR}/unreadable)
file(MAKE_DIRECTORY ${bad_dir}/results.bin)
foreach(exp IN LISTS experiments)
  execute_process(
    COMMAND ${DXBAR_BENCH} ${exp} --quick --resume ${bad_dir}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "${exp}: unreadable results.bin: expected exit 1, "
                        "got '${rc}'\n${err}")
  endif()
  if(NOT err MATCHES "^dxbar_bench: [^\n]*unreadable/results.bin[^\n]*\n$")
    message(FATAL_ERROR "${exp}: no error line naming results.bin:\n${err}")
  endif()
endforeach()
