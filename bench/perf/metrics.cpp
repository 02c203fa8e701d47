#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "exp/runner.hpp"

namespace dxbar::perf {

const std::vector<std::string>& design_names() {
  static const std::vector<std::string> v = {
      "bless", "scarab", "buffered4", "buffered8", "dxbar",
      "unified", "vc", "afc", "damq", "minbd"};
  return v;
}

const std::vector<std::string>& session_experiment_names() {
  static const std::vector<std::string> v = {
      "fig5", "closedloop_saturation", "closedloop_fault_tail",
      "table_router_zoo", "ablation_energy_scaling"};
  return v;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> v = {
      {"setup_s", "s", Better::Lower, 0.25},
      {"batch_s", "s", Better::Lower, 0.25},
      {"peak_rss_mb", "MiB", Better::Lower, 0.10},
      // The simulated metrics' bounds are three times their widest
      // seed-to-seed spread (IQR / median over ten seeds, on the 64x64
      // mesh) and apply between runs of different seeds; between runs of
      // the same seed anything but identical is worse.
      {"sim_accepted_load", "flits/node/cycle", Better::Higher, 0.15, true},
      {"sim_pj_per_flit", "pJ", Better::Lower, 0.10, true},
      {"sim_network_latency_cycles", "cycles", Better::Lower, 0.25, true},
  };
  return v;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> v = [] {
    std::vector<MetricSpec> m;
    for (const std::string& d : design_names()) {
      m.push_back({"router." + d + ".step_self_ns", "ns", Better::Lower});
      m.push_back({"router." + d + ".flit_events_per_cycle", "events/cycle",
                   Better::Higher});
      m.push_back(
          {"router." + d + ".deflections_per_flit", "ratio", Better::Lower});
    }
    m.push_back({"workload.begin_cycle_ns", "ns", Better::Lower});
    m.push_back({"workload.on_delivered_ns", "ns", Better::Lower});
    m.push_back({"workload.on_delivered_per_cycle", "calls/cycle",
                 Better::Higher});
    m.push_back({"workload.share", "ratio", Better::Lower});
    m.push_back({"network.setup_ms", "ms", Better::Lower});
    m.push_back({"network.step_ns_per_node_cycle", "ns", Better::Lower});
    m.push_back({"power.derive_energy_us", "us", Better::Lower});
    m.push_back({"sim.cycles_per_s", "cycles/s", Better::Higher});
    m.push_back({"sim.flit_events_per_s", "events/s", Better::Higher});
    m.push_back({"shard.cycles_per_s_1", "cycles/s", Better::Higher});
    m.push_back({"shard.cycles_per_s_4", "cycles/s", Better::Higher});
    m.push_back({"shard.speedup", "x", Better::Higher});
    m.push_back({"shard.parallel_efficiency", "ratio", Better::Higher});
    m.push_back({"shard.karp_flatt_serial_fraction", "ratio", Better::Lower});
    m.push_back({"shard.serial_callback_share", "ratio", Better::Lower});
    m.push_back({"snapshot.save_ms", "ms", Better::Lower});
    m.push_back({"snapshot.restore_ms", "ms", Better::Lower});
    m.push_back({"snapshot.bytes", "bytes", Better::Lower});
    m.push_back({"warm_cache.hits", "count", Better::Higher});
    m.push_back({"warm_cache.misses", "count", Better::Lower});
    m.push_back({"warm_cache.hit_ratio", "ratio", Better::Higher});
    for (const std::string& e : session_experiment_names()) {
      m.push_back({"exp." + e + ".s", "s", Better::Lower});
    }
    m.push_back({"exp.points", "count", Better::Higher});
    m.push_back({"exp.points_per_s", "points/s", Better::Higher});
    m.push_back({"exp.write_json_ms", "ms", Better::Lower});
    m.push_back({"report.load_ms", "ms", Better::Lower});
    m.push_back({"report.diff_ms", "ms", Better::Lower});
    m.push_back({"host.batch_wall_s", "s", Better::Lower});
    m.push_back({"host.reference_ms", "ms", Better::Lower});
    m.push_back({"trace.throughput_ratio", "ratio", Better::Higher});
    return m;
  }();
  return v;
}

std::string catalogue_json() {
  std::string out = "{\n";
  for (const bool e2e : {true, false}) {
    out += e2e ? "  \"end_to_end\": [\n" : "  \"per_layer\": [\n";
    const std::vector<MetricSpec>& table =
        e2e ? end_to_end_metrics() : per_layer_metrics();
    for (std::size_t i = 0; i < table.size(); ++i) {
      const MetricSpec& m = table[i];
      char bound[48] = "";
      if (e2e) std::snprintf(bound, sizeof(bound), ", \"bound\": %g", m.bound);
      out += "    {\"name\": \"" + m.name + "\", \"unit\": \"" + m.unit +
             "\", \"better\": \"" +
             (m.better == Better::Lower ? "lower" : "higher") + "\"" + bound +
             "}" + (i + 1 < table.size() ? ",\n" : "\n");
    }
    out += e2e ? "  ],\n" : "  ]\n";
  }
  return out + "}\n";
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  s.median = n % 2 == 1 ? samples[n / 2]
                        : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(data, n=4, method="exclusive"), term for term.
  const auto m = static_cast<long>(n) + 1;
  const auto cut = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    return (samples[static_cast<std::size_t>(j - 1)] *
                static_cast<double>(4 - delta) +
            samples[static_cast<std::size_t>(j)] *
                static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

Summary WorkloadResult::summary(const std::string& metric) const {
  const auto it = samples.find(metric);
  return it == samples.end() ? Summary{} : summarize(it->second);
}

void print_metric_lines(std::FILE* out, const WorkloadResult& r) {
  for (const MetricSpec& m : r.reported()) {
    const Summary s = r.summary(m.name);
    std::fprintf(out, "%s %s %.17g %s %.17g %.17g %.17g %zu\n",
                 r.workload.c_str(), m.name.c_str(), s.median, m.unit.c_str(),
                 s.median, s.q1, s.q3, s.n);
  }
}

std::string result_line(const WorkloadResult& r) {
  JsonWriter w(0);
  w.begin_object();
  w.key("correct").value(r.failed == 0);
  w.key("attempted").value(r.attempted);
  w.key("failed").value(r.failed);
  w.key("metrics").begin_object();
  for (const MetricSpec& m : r.reported()) {
    w.key(m.name).begin_object();
    w.key("value").value(r.summary(m.name).median);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

std::string result_json(const WorkloadResult& r, int indent) {
  JsonWriter w(indent);
  w.begin_object();
  w.key("workload").value(r.workload);
  w.key("seed").value(r.seed);
  w.key("seconds").value(r.seconds);
  w.key("trace").value(r.trace);
  w.key("quick").value(r.quick);
  w.key("host_threads").value(r.host_threads);
  w.key("underprovisioned").value(r.underprovisioned);
  w.key("git").value(exp::git_describe());
#ifdef __clang__
  w.key("compiler").value(__VERSION__);  // "Clang x.y.z ..."
#else
  w.key("compiler").value("gcc " __VERSION__);
#endif
  w.key("correct").value(r.failed == 0);
  w.key("attempted").value(r.attempted);
  w.key("failed").value(r.failed);
  w.key("metrics").begin_object();
  for (const MetricSpec& m : r.reported()) {
    const Summary s = r.summary(m.name);
    w.key(m.name).begin_object();
    w.key("unit").value(m.unit);
    w.key("median").value(s.median);
    w.key("q1").value(s.q1);
    w.key("q3").value(s.q3);
    w.key("n").value(static_cast<std::uint64_t>(s.n));
    w.key("samples").begin_array();
    if (const auto it = r.samples.find(m.name); it != r.samples.end()) {
      for (double v : it->second) w.value(v);
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

std::string merged_json(const std::vector<std::string>& workload_docs) {
  std::string out = "{\"bench\": \"dxbar_perf\", \"workloads\": [\n";
  for (std::size_t i = 0; i < workload_docs.size(); ++i) {
    out += workload_docs[i];
    out += i + 1 < workload_docs.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

namespace {

std::string read_workload(const JsonValue& doc, WorkloadResult& r) {
  const JsonValue* name = doc.find("workload");
  const JsonValue* seed = doc.find("seed");
  const JsonValue* metrics = doc.find("metrics");
  if (name == nullptr || !name->is_string() || seed == nullptr ||
      !seed->is_number() || metrics == nullptr || !metrics->is_object()) {
    return "a workload entry lacks 'workload', 'seed' or 'metrics'";
  }
  r.workload = name->scalar;
  r.seed = seed->as_uint64();
  for (const auto& [metric, body] : metrics->members) {
    const JsonValue* samples = body.find("samples");
    if (samples == nullptr || !samples->is_array()) {
      return "metric '" + metric + "' of " + r.workload + " has no samples";
    }
    std::vector<double>& dst = r.samples[metric];
    for (const JsonValue& v : samples->items) {
      if (!v.is_number()) {
        return "metric '" + metric + "' of " + r.workload +
               " has a non-numeric sample";
      }
      dst.push_back(v.as_double());
    }
  }
  return {};
}

bool beats(Better b, double x, double y) {
  return b == Better::Lower ? x < y : x > y;
}

struct Row {
  std::string verdict;
  double change = 0.0;  ///< signed share; positive = worse
};

/// The verdict on one (workload, metric); `exact` holds the metric to
/// bit-identical results (a simulated metric of two same-seed runs).
Row judge(const MetricSpec& m, const std::vector<double>& base,
          const std::vector<double>& fresh, bool exact) {
  const Summary b = summarize(base);
  const Summary f = summarize(fresh);
  Row row;
  if (b.median == f.median && b.q1 == f.q1 && b.q3 == f.q3) {
    row.verdict = "identical";
    return row;
  }
  const double scale = std::fabs(b.median) > 0.0 ? std::fabs(b.median) : 1.0;
  row.change = (m.better == Better::Lower ? f.median - b.median
                                          : b.median - f.median) /
               scale;
  if (exact) {
    row.verdict = "worse";
    return row;
  }
  const auto spread = [](const Summary& s) {
    return std::fabs(s.median) > 0.0 ? (s.q3 - s.q1) / std::fabs(s.median)
                                     : 0.0;
  };
  bool all_better = true;
  for (double x : fresh) {
    for (double y : base) all_better = all_better && beats(m.better, x, y);
  }
  if (std::max(spread(b), spread(f)) > m.bound) {
    row.verdict = all_better ? "better" : "unresolved";
    return row;
  }
  if (row.change > m.bound) {
    row.verdict = "worse";
    return row;
  }
  // choosing-metrics §8: a gain needs >= 9/10 of the paired runs won
  // (ties win nothing) and a median gap wider than the base IQR.
  const std::size_t pairs = std::min(base.size(), fresh.size());
  std::size_t wins = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    if (beats(m.better, fresh[i], base[i])) ++wins;
  }
  const bool gain = pairs >= 10 && row.change < 0.0 &&
                    10 * wins >= 9 * pairs &&
                    std::fabs(f.median - b.median) > b.q3 - b.q1;
  row.verdict = gain ? "better" : "within bound";
  return row;
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string load_results(const std::string& path,
                         std::vector<WorkloadResult>& out) {
  const std::string text = read_file(path);
  if (text.empty()) return "cannot read " + path;
  JsonValue doc;
  if (std::string err = json_parse(text, doc); !err.empty()) {
    return path + ": " + err;
  }
  std::vector<const JsonValue*> entries;
  if (const JsonValue* list = doc.find("workloads")) {
    if (!list->is_array()) return path + ": 'workloads' is not an array";
    for (const JsonValue& v : list->items) entries.push_back(&v);
  } else {
    entries.push_back(&doc);
  }
  for (const JsonValue* e : entries) {
    WorkloadResult r;
    if (std::string err = read_workload(*e, r); !err.empty()) {
      return path + ": " + err;
    }
    out.push_back(std::move(r));
  }
  return {};
}

int compare_results(const std::string& base_path, const std::string& new_path,
                    std::FILE* out) {
  std::vector<WorkloadResult> base;
  std::vector<WorkloadResult> fresh;
  for (const auto& [path, dst] : {std::pair{&base_path, &base},
                                  std::pair{&new_path, &fresh}}) {
    if (std::string err = load_results(*path, *dst); !err.empty()) {
      std::fprintf(stderr, "dxbar_perf: %s\n", err.c_str());
      return 1;
    }
  }
  std::fprintf(out, "%-22s %-28s %-16s %12s %25s %12s %25s %8s %6s  %s\n",
               "workload", "metric", "unit", "base", "base [q1, q3]", "new",
               "new [q1, q3]", "change", "bound", "verdict");
  int worse = 0;
  for (const WorkloadResult& b : base) {
    const auto f = std::find_if(
        fresh.begin(), fresh.end(),
        [&](const WorkloadResult& r) { return r.workload == b.workload; });
    if (f == fresh.end()) continue;
    for (const MetricSpec& m : end_to_end_metrics()) {
      const auto bs = b.samples.find(m.name);
      const auto fs = f->samples.find(m.name);
      if (bs == b.samples.end() || fs == f->samples.end() ||
          bs->second.empty() || fs->second.empty()) {
        continue;
      }
      const bool exact = m.simulated && b.seed == f->seed;
      const Row row = judge(m, bs->second, fs->second, exact);
      const Summary sb = summarize(bs->second);
      const Summary sf = summarize(fs->second);
      char bq[64];
      char fq[64];
      std::snprintf(bq, sizeof(bq), "[%.6g, %.6g]", sb.q1, sb.q3);
      std::snprintf(fq, sizeof(fq), "[%.6g, %.6g]", sf.q1, sf.q3);
      std::fprintf(out,
                   "%-22s %-28s %-16s %12.6g %25s %12.6g %25s %+7.2f%% "
                   "%5.0f%%  %s\n",
                   b.workload.c_str(), m.name.c_str(), m.unit.c_str(),
                   sb.median, bq, sf.median, fq, 100.0 * row.change,
                   exact ? 0.0 : 100.0 * m.bound, row.verdict.c_str());
      if (row.verdict == "worse") ++worse;
    }
  }
  std::fprintf(out, "%d worse row(s)\n", worse);
  return worse > 0 ? 1 : 0;
}

}  // namespace dxbar::perf
