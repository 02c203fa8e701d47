// dxbar_perf's metric catalogue, per-run result documents and the
// --compare verdicts.
//
// Every metric has one spec here (name, unit, direction, and for the
// end-to-end metrics the share by which it may worsen before a change
// counts as a regression); BENCHMARK.json at the repository root lists
// the same table for tools outside the build.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dxbar::perf {

enum class Better { Lower, Higher };

struct MetricSpec {
  std::string name;
  std::string unit;
  Better better = Better::Lower;
  /// End-to-end metrics: the allowed worsening as a share of the base
  /// median.  Per-layer metrics have no bound (negative).
  double bound = -1.0;
  /// A simulated output, deterministic for a seed: between runs of the
  /// same seed it must not change at all, whatever the bound.
  bool simulated = false;
};

/// The ten router designs, by the names `design=` overrides accept; the
/// per-layer router.<design>.* metrics use the same names.
const std::vector<std::string>& design_names();

/// The experiments one session_seeds4 rep executes, in order; the
/// per-layer exp.<name>.s metrics use the same names.
const std::vector<std::string>& session_experiment_names();

/// End-to-end metrics, measured by untraced runs, in report order.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, measured by traced runs, in report order.
const std::vector<MetricSpec>& per_layer_metrics();
/// The catalogue as BENCHMARK.json lists it: {"end_to_end": [{name,
/// unit, better, bound}...], "per_layer": [{name, unit, better}...]}.
std::string catalogue_json();

/// Median and quartiles as Python's statistics.quantiles(n=4) gives them
/// (the "exclusive" method); one sample is its own median and quartiles.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> samples);

/// One workload's run: gate counts plus the per-rep samples of every
/// metric it measured (a metric of a layer the workload never enters has
/// no samples and reports 0 with n = 0).
struct WorkloadResult {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  bool quick = false;
  unsigned host_threads = 0;
  bool underprovisioned = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::vector<double>> samples;

  /// The metrics this run reports: per-layer when traced, else
  /// end-to-end.
  [[nodiscard]] const std::vector<MetricSpec>& reported() const {
    return trace ? per_layer_metrics() : end_to_end_metrics();
  }
  [[nodiscard]] Summary summary(const std::string& metric) const;
};

/// Prints `<workload> <metric> <value> <unit> <median> <q1> <q3> <n>`
/// for every reported metric.
void print_metric_lines(std::FILE* out, const WorkloadResult& r);

/// The one-line result object: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
std::string result_line(const WorkloadResult& r);

/// Detailed result document (medians, quartiles, n and samples per
/// metric, plus host and build identity) for --out files.
std::string result_json(const WorkloadResult& r, int indent);

/// Several workloads' documents merged into one --out file.
std::string merged_json(const std::vector<std::string>& workload_docs);

/// The whole content of `path`; empty when it cannot be read.
std::string read_file(const std::string& path);

/// Reads the workload names, seeds and metric samples of an --out file: a
/// merged file or a single workload's document.  Returns an error
/// message, empty on success.
std::string load_results(const std::string& path,
                         std::vector<WorkloadResult>& out);

/// --compare: one row per (workload, end-to-end metric) present in both
/// files, with both medians and quartiles and a verdict.  When both runs
/// of a workload share a seed, a simulated metric that is not identical
/// is worse, whatever its bound.  Returns the
/// process exit code: 1 if any row is `worse` or a file cannot be read,
/// else 0.
int compare_results(const std::string& base_path, const std::string& new_path,
                    std::FILE* out);

}  // namespace dxbar::perf
