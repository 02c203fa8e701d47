# Checks that BENCHMARK.json lists exactly the metrics `dxbar_perf
# --metrics` reports, in the same order and with the same unit,
# direction and bound.
#
#   cmake -DDXBAR_PERF=<binary> -DBENCHMARK_JSON=<file> -P catalogue_selftest.cmake
execute_process(COMMAND ${DXBAR_PERF} --metrics OUTPUT_VARIABLE spec
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dxbar_perf --metrics failed: ${rc}")
endif()
file(READ ${BENCHMARK_JSON} bench)

foreach(section end_to_end per_layer)
  string(JSON n LENGTH "${spec}" ${section})
  string(JSON m LENGTH "${bench}" ${section})
  if(NOT n EQUAL m)
    message(FATAL_ERROR "${section}: dxbar_perf has ${n} metrics, "
                        "BENCHMARK.json ${m}")
  endif()
  set(keys name unit better)
  if(section STREQUAL "end_to_end")
    list(APPEND keys bound)
  endif()
  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    foreach(key IN LISTS keys)
      string(JSON want GET "${spec}" ${section} ${i} ${key})
      string(JSON have GET "${bench}" ${section} ${i} ${key})
      if(NOT want STREQUAL have)
        message(FATAL_ERROR "${section}[${i}].${key}: dxbar_perf has "
                            "'${want}', BENCHMARK.json '${have}'")
      endif()
    endforeach()
  endforeach()
endforeach()
