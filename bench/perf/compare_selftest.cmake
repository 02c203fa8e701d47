# Feeds synthetic result files through `dxbar_perf --compare` and checks
# the verdict of every row and the exit code.
#
#   cmake -DDXBAR_PERF=<binary> -DWORK_DIR=<dir> -P compare_selftest.cmake
file(MAKE_DIRECTORY ${WORK_DIR})

# Runs --compare on two files, expects exit code `rc_want`, and checks each
# "metric=verdict" pair that follows against the rows of workload w.
function(expect_compare base new rc_want)
  execute_process(COMMAND ${DXBAR_PERF} --compare ${WORK_DIR}/${base}
                          ${WORK_DIR}/${new}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  message("${out}")
  if(NOT rc EQUAL rc_want)
    message(FATAL_ERROR "${base} vs ${new}: exit ${rc}, want ${rc_want}")
  endif()
  foreach(pair IN LISTS ARGN)
    string(REPLACE "=" ";" kv "${pair}")
    list(GET kv 0 metric)
    list(GET kv 1 verdict)
    if(NOT out MATCHES "\nw +${metric} [^\n]* ${verdict}\n")
      message(FATAL_ERROR "${base} vs ${new}: expected ${metric} -> "
                          "'${verdict}'")
    endif()
  endforeach()
endfunction()

# Base as a merged file, the others as a single workload's document: both
# layouts load.
file(WRITE ${WORK_DIR}/base.json [=[
{"bench": "dxbar_perf", "workloads": [
 {"workload": "w", "seed": 1, "metrics": {
  "batch_s": {"samples": [1.0, 1.01, 0.99, 1.0, 1.02]},
  "setup_s": {"samples": [0.50, 0.51, 0.49, 0.50, 0.50]},
  "peak_rss_mb": {"samples": [100.0]},
  "sim_network_latency_cycles": {"samples": [100, 80, 120, 90, 110]},
  "sim_accepted_load": {"samples": [0.200, 0.201, 0.199, 0.200, 0.202,
                                    0.200, 0.201, 0.199, 0.200, 0.201]},
  "sim_pj_per_flit": {"samples": [300, 301, 299, 300, 300]}
 }}
]}
]=])

# Another seed: every metric is held to its bound.
file(WRITE ${WORK_DIR}/other_seed.json [=[
{"workload": "w", "seed": 2, "metrics": {
  "batch_s": {"samples": [1.0, 1.01, 0.99, 1.0, 1.02]},
  "setup_s": {"samples": [0.52, 0.53, 0.51, 0.52, 0.52]},
  "peak_rss_mb": {"samples": [120.0]},
  "sim_network_latency_cycles": {"samples": [101, 81, 121, 91, 111]},
  "sim_accepted_load": {"samples": [0.220, 0.221, 0.219, 0.220, 0.222,
                                    0.220, 0.221, 0.219, 0.220, 0.221]},
  "sim_pj_per_flit": {"samples": [290, 291, 289, 290, 290]}
}}
]=])
# sim_accepted_load wins 10/10 pairs by more than the base IQR;
# sim_pj_per_flit improves too but with only 5 pairs, which is too few to
# claim a gain.
expect_compare(base.json other_seed.json 1
               "batch_s=identical" "setup_s=within bound"
               "peak_rss_mb=worse" "sim_network_latency_cycles=unresolved"
               "sim_accepted_load=better" "sim_pj_per_flit=within bound")

# The same seed: a simulated metric that moves at all is worse, even far
# inside its bound, while host times keep their bounds.
file(WRITE ${WORK_DIR}/same_seed.json [=[
{"workload": "w", "seed": 1, "metrics": {
  "batch_s": {"samples": [1.01, 1.02, 1.00, 1.01, 1.03]},
  "sim_accepted_load": {"samples": [0.200, 0.201, 0.199, 0.200, 0.202,
                                    0.200, 0.201, 0.199, 0.200, 0.201]},
  "sim_pj_per_flit": {"samples": [299.5, 300.5, 298.5, 299.5, 299.5]}
}}
]=])
expect_compare(base.json same_seed.json 1
               "batch_s=within bound" "sim_accepted_load=identical"
               "sim_pj_per_flit=worse")

expect_compare(base.json base.json 0)

execute_process(COMMAND ${DXBAR_PERF} --compare ${WORK_DIR}/base.json
                        ${WORK_DIR}/missing.json
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "an unreadable file must fail the comparison")
endif()
