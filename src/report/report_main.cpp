#include "report/report_main.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "report/diff.hpp"
#include "report/html.hpp"
#include "report/render.hpp"
#include "report/result_io.hpp"

namespace dxbar::report {

namespace {

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: dxbar_report render <dir> [-o FILE] [--html]\n"
      "       dxbar_report diff <base-dir> <new-dir> [-o FILE]\n"
      "                    [--tie-margin X] [--sat-tol X]\n"
      "\n"
      "render  read every <dir>/*.json result (schema v2, as written by\n"
      "        `dxbar_bench --json`) and write a markdown report with an\n"
      "        inline-SVG plot, the table data and derived shape metrics\n"
      "        (saturation points, winners, knees) per experiment.\n"
      "        Default output: <dir>/report.md\n"
      "        --html writes a static HTML report instead: an index page\n"
      "        plus one page per experiment with SVG plots and sortable\n"
      "        tables.  -o names the output DIRECTORY (default\n"
      "        <dir>/html).\n"
      "diff    compare two result directories and classify every\n"
      "        experiment as identical / numeric-drift / SHAPE-REGRESSION\n"
      "        (winner flip, saturation shift, curve-crossing change).\n"
      "        Exits 1 when any experiment shape-regressed, so CI can\n"
      "        gate on it.  -o writes a markdown diff report with\n"
      "        base-vs-new overlay plots for regressed tables.\n"
      "\n"
      "  --tie-margin X   relative margin treating two series as tied\n"
      "                   (default %.2f)\n"
      "  --sat-tol X      saturation shift tolerance in offered-load\n"
      "                   units (default: 1.5 x-bins of the table)\n",
      kTieMargin);
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "dxbar_report: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  out << content;
  if (!out.flush()) {
    std::fprintf(stderr, "dxbar_report: failed writing %s\n", path.c_str());
    return false;
  }
  return true;
}

bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

int run_render(std::span<const char* const> args) {
  std::string dir, out_path;
  bool html = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (std::strcmp(args[i], "-o") == 0) {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "dxbar_report: -o requires a value\n");
        return 2;
      }
      out_path = args[++i];
    } else if (std::strcmp(args[i], "--html") == 0) {
      html = true;
    } else if (dir.empty()) {
      dir = args[i];
    } else {
      std::fprintf(stderr, "dxbar_report: unexpected argument '%s'\n",
                   args[i]);
      return 2;
    }
  }
  if (dir.empty()) {
    print_usage(stderr);
    return 2;
  }
  if (out_path.empty()) out_path = html ? dir + "/html" : dir + "/report.md";

  std::vector<ResultDoc> docs;
  const std::string errors = load_result_dir(dir, docs);
  if (!errors.empty()) {
    std::fprintf(stderr, "dxbar_report: %s\n", errors.c_str());
  }
  if (docs.empty()) {
    std::fprintf(stderr, "dxbar_report: no loadable result documents in %s\n",
                 dir.c_str());
    return 2;
  }
  if (html) {
    if (const std::string err = write_html_report(docs, out_path, dir);
        !err.empty()) {
      std::fprintf(stderr, "dxbar_report: %s\n", err.c_str());
      return 2;
    }
    std::printf("dxbar_report: wrote %s/index.html (+%zu page(s))\n",
                out_path.c_str(), docs.size());
  } else {
    if (!write_file(out_path, render_report(docs, dir))) return 2;
    std::printf("dxbar_report: wrote %s (%zu experiment(s))\n",
                out_path.c_str(), docs.size());
  }
  return errors.empty() ? 0 : 2;
}

int run_diff(std::span<const char* const> args) {
  std::string base_dir, fresh_dir, out_path;
  DiffOptions opt;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (std::strcmp(args[i], "-o") == 0) {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "dxbar_report: -o requires a value\n");
        return 2;
      }
      out_path = args[++i];
    } else if (std::strcmp(args[i], "--tie-margin") == 0 ||
               std::strcmp(args[i], "--sat-tol") == 0) {
      const char* flag = args[i];
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "dxbar_report: %s requires a value\n", flag);
        return 2;
      }
      double v = 0.0;
      if (!parse_double(args[++i], v)) {
        std::fprintf(stderr, "dxbar_report: bad %s value '%s'\n", flag,
                     args[i]);
        return 2;
      }
      if (std::strcmp(flag, "--tie-margin") == 0) {
        opt.tie_margin = v;
      } else {
        opt.saturation_tolerance = v;
      }
    } else if (base_dir.empty()) {
      base_dir = args[i];
    } else if (fresh_dir.empty()) {
      fresh_dir = args[i];
    } else {
      std::fprintf(stderr, "dxbar_report: unexpected argument '%s'\n",
                   args[i]);
      return 2;
    }
  }
  if (base_dir.empty() || fresh_dir.empty()) {
    print_usage(stderr);
    return 2;
  }

  std::vector<ResultDoc> base, fresh;
  bool load_failed = false;
  if (const std::string err = load_result_dir(base_dir, base); !err.empty()) {
    std::fprintf(stderr, "dxbar_report: %s\n", err.c_str());
    load_failed = true;
  }
  if (const std::string err = load_result_dir(fresh_dir, fresh);
      !err.empty()) {
    std::fprintf(stderr, "dxbar_report: %s\n", err.c_str());
    load_failed = true;
  }
  if (base.empty() || fresh.empty()) {
    std::fprintf(stderr,
                 "dxbar_report: no loadable result documents in %s\n",
                 base.empty() ? base_dir.c_str() : fresh_dir.c_str());
    return 2;
  }

  const DiffReport report = diff_results(base, fresh, opt);
  for (const ExperimentDiff& e : report.experiments) {
    std::string reasons;
    for (const TableDiff& t : e.tables) {
      for (const std::string& r : t.reasons) {
        reasons += "\n    " + r;
      }
    }
    std::printf("%-28s %s%s\n", e.name.c_str(),
                std::string(to_string(e.cls)).c_str(), reasons.c_str());
  }
  std::printf("dxbar_report: %zu shape regression(s), %zu drifted, "
              "%zu identical, %zu added, %zu removed\n",
              report.count(DiffClass::ShapeRegression),
              report.count(DiffClass::NumericDrift),
              report.count(DiffClass::Identical),
              report.count(DiffClass::Added),
              report.count(DiffClass::Removed));

  if (!out_path.empty() &&
      !write_file(out_path, render_diff(report, base, fresh, base_dir,
                                        fresh_dir))) {
    return 2;
  }
  if (load_failed) return 2;
  return report.has_shape_regression() ? 1 : 0;
}

}  // namespace

int report_main(std::span<const char* const> args) {
  if (args.empty()) {
    print_usage(stderr);
    return 2;
  }
  const std::string_view cmd = args[0];
  const auto rest = args.subspan(1);
  if (cmd == "render") return run_render(rest);
  if (cmd == "diff") return run_diff(rest);
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    print_usage(stdout);
    return 0;
  }
  std::fprintf(stderr, "dxbar_report: unknown command '%s'\n\n",
               std::string(cmd).c_str());
  print_usage(stderr);
  return 2;
}

}  // namespace dxbar::report
