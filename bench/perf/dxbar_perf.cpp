// dxbar_perf — the repository's benchmark: end-to-end and per-layer
// metrics of the simulator on four workloads (README.md beside this
// file has the workload and metric tables).
//
//   dxbar_perf [--seed S] [--seconds N] [--quick] [--trace 0|1|FILE]
//              [--out FILE]
//       runs every workload, each in a child process of its own, and
//       prints `<workload> <metric> <value> <unit> <median> <q1> <q3> <n>`
//       per metric; --out merges the children's result documents.
//   dxbar_perf --workload W [the same options]
//       runs one workload in this process; the last line of stdout is the
//       one-line result object.
//   dxbar_perf --compare BASE.json NEW.json
//       verdict per (workload, end-to-end metric) of two --out files;
//       exits 1 on any `worse` row.
//   dxbar_perf --metrics
//       the metric catalogue, as BENCHMARK.json lists it.
//
// --trace 1 (or a FILE for the spans of the first traced rep, as JSON
// lines) reports the per-layer metrics instead of the end-to-end ones.
// Any failed correctness gate makes the exit code nonzero.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hpp"
#include "workloads.hpp"

using namespace dxbar::perf;
namespace fs = std::filesystem;

namespace {

struct Args {
  std::string workload;  ///< empty = every workload, one child each
  PerfOptions opt;
  std::string trace_arg = "0";
  std::string out;
  std::string compare_base;
  std::string compare_new;
  bool metrics = false;
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: dxbar_perf [--workload W] [--seed S] [--seconds N] "
               "[--quick]\n"
               "                  [--trace 0|1|FILE] [--out FILE]\n"
               "       dxbar_perf --compare BASE.json NEW.json\n"
               "       dxbar_perf --metrics\n"
               "workloads:");
  for (const std::string& w : workload_names()) {
    std::fprintf(to, " %s", w.c_str());
  }
  std::fprintf(to, "\n");
}

/// Parses argv; returns an error message, empty on success.
std::string parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](std::string& dst) {
      if (i + 1 >= argc) return false;
      dst = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--quick") {
      a.opt.quick = true;
    } else if (arg == "--metrics") {
      a.metrics = true;
    } else if (arg == "--workload") {
      if (!next(a.workload)) return "--workload needs a name";
    } else if (arg == "--seed") {
      char* end = nullptr;
      if (!next(v)) return "--seed needs a value";
      errno = 0;
      a.opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (errno != 0 || end == v.c_str() || *end != '\0' || v[0] == '-') {
        return "bad --seed '" + v + "'";
      }
    } else if (arg == "--seconds") {
      char* end = nullptr;
      if (!next(v)) return "--seconds needs a value";
      a.opt.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.opt.seconds >= 0.0)) {
        return "bad --seconds '" + v + "'";
      }
    } else if (arg == "--trace") {
      if (!next(a.trace_arg)) return "--trace needs 0, 1 or a file";
    } else if (arg == "--out") {
      if (!next(a.out)) return "--out needs a file";
    } else if (arg == "--compare") {
      if (!next(a.compare_base) || !next(a.compare_new)) {
        return "--compare needs two files";
      }
    } else {
      return "unknown argument '" + arg + "'";
    }
  }
  a.opt.trace = a.trace_arg != "0";
  if (a.trace_arg != "0" && a.trace_arg != "1") a.opt.trace_file = a.trace_arg;
  if (!a.workload.empty()) {
    bool known = false;
    for (const std::string& w : workload_names()) {
      known = known || w == a.workload;
    }
    if (!known) return "unknown workload '" + a.workload + "'";
  }
  return {};
}

unsigned host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

/// One workload in this process.
int run_child(const Args& a) {
  WorkloadResult r;
  try {
    r = run_workload(a.workload, a.opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dxbar_perf: %s: %s\n", a.workload.c_str(), e.what());
    return 2;
  }
  std::printf("# dxbar_perf %s seed=%llu seconds=%g trace=%d quick=%d "
              "host_threads=%u underprovisioned=%s\n",
              r.workload.c_str(), static_cast<unsigned long long>(r.seed),
              r.seconds, r.trace ? 1 : 0, r.quick ? 1 : 0, r.host_threads,
              r.underprovisioned ? "true" : "false");
  print_metric_lines(stdout, r);
  if (!a.out.empty() && !write_file(a.out, result_json(r, 2))) {
    std::fprintf(stderr, "dxbar_perf: cannot write %s\n", a.out.c_str());
    return 1;
  }
  std::printf("%s\n", result_line(r).c_str());
  return r.failed == 0 ? 0 : 1;
}

/// Runs `argv` with stdout through a pipe; forwards every line but the
/// last (the child's result object) and returns the exit status.
int spawn_child(const std::vector<std::string>& argv) {
  int fds[2];
  if (pipe(fds) != 0) return 2;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) return 2;
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> cargv;
    for (const std::string& s : argv) {
      cargv.push_back(const_cast<char*>(s.c_str()));
    }
    cargv.push_back(nullptr);
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  close(fds[1]);
  if (std::FILE* in = fdopen(fds[0], "r"); in != nullptr) {
    std::string line;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), in) != nullptr) {
      line += buf;
      if (line.back() != '\n') continue;
      if (line[0] != '{') std::fputs(line.c_str(), stdout);
      line.clear();
    }
    std::fclose(in);
  } else {
    close(fds[0]);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::fflush(stdout);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 2;
}

/// Every workload, each in a child process of its own.
int run_parent(const Args& a, const std::string& exe) {
  std::vector<std::string> docs;
  std::vector<WorkloadResult> results;
  int rc = 0;
  for (const std::string& w : workload_names()) {
    const std::string part = a.opt.work_dir + "/" + w + ".json";
    fs::remove(part);
    std::vector<std::string> argv = {
        exe, "--workload", w, "--seed", std::to_string(a.opt.seed),
        "--seconds", std::to_string(a.opt.seconds), "--out", part,
        "--trace",
        a.opt.trace_file.empty() ? a.trace_arg : a.opt.trace_file + "." + w};
    if (a.opt.quick) argv.push_back("--quick");
    const int status = spawn_child(argv);
    if (status != 0) {
      std::fprintf(stderr, "dxbar_perf: workload %s exited with %d\n",
                   w.c_str(), status);
      rc = 1;
    }
    const std::string doc = read_file(part);
    if (!doc.empty()) {
      docs.push_back(doc);
      (void)load_results(part, results);
    }
    fs::remove(part);
  }

  if (a.opt.trace) {
    for (const WorkloadResult& r : results) {
      const Summary s = r.summary("trace.throughput_ratio");
      std::printf("tracing overhead %s: traced / untraced throughput = "
                  "%.4f (n=%zu)\n",
                  r.workload.c_str(), s.median, s.n);
    }
  }
  if (!a.opt.trace_file.empty()) {
    std::ofstream out(a.opt.trace_file, std::ios::binary);
    for (const std::string& w : workload_names()) {
      const std::string part = a.opt.trace_file + "." + w;
      out << read_file(part);
      fs::remove(part);
    }
    if (!out) rc = 1;
    std::printf("wrote spans to %s\n", a.opt.trace_file.c_str());
  }
  if (!a.out.empty()) {
    if (!write_file(a.out, merged_json(docs))) {
      std::fprintf(stderr, "dxbar_perf: cannot write %s\n", a.out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", a.out.c_str());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (const std::string err = parse_args(argc, argv, a); !err.empty()) {
    std::fprintf(stderr, "dxbar_perf: %s\n", err.c_str());
    usage(stderr);
    return 2;
  }
  if (a.metrics) {
    std::fputs(catalogue_json().c_str(), stdout);
    return 0;
  }
  if (!a.compare_base.empty()) {
    return compare_results(a.compare_base, a.compare_new, stdout);
  }

  std::error_code ec;
  const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  if (ec) {
    std::fprintf(stderr, "dxbar_perf: cannot locate own binary: %s\n",
                 ec.message().c_str());
    return 2;
  }
  // Scratch files (child results, the session's JSON) live beside the
  // binary, inside its build tree.
  a.opt.work_dir = (exe.parent_path() / "perf_work").string();
  fs::create_directories(a.opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "dxbar_perf: cannot create %s: %s\n",
                 a.opt.work_dir.c_str(), ec.message().c_str());
    return 2;
  }
  a.opt.host_threads = host_threads();
  return a.workload.empty() ? run_parent(a, exe.string()) : run_child(a);
}
