// perfbench — the benchmark binary (run.py builds and invokes it).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--setup-only] [--spans-out FILE]
//   perfbench --self-test
//
// Runs one workload: set-up (inputs from the seed plus one untimed warm-up
// pass), then timed passes until S seconds have elapsed. Prints the
// figures as "name = value unit" lines, then one JSON line with every
// end-to-end metric (and, traced, every per-layer metric) for run.py.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace miniarc;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool setup_only = false;
  bool self_test = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--setup-only] [--spans-out FILE]\n"
               "       perfbench --self-test\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = next();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(next().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.traced = next() == "1";
    } else if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--spans-out") {
      args.spans_out = next();
    } else if (flag == "--self-test") {
      args.self_test = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!args.self_test && args.workload.empty()) usage("no --workload");
  return args;
}

/// Clear every MINIARC_* variable inherited from the caller, then set the
/// ones this benchmark pins: one executor thread unless a workload asks
/// for more, the bytecode engine, the default retry budget. Faults, the
/// breaker and every budget stay unset (disabled / defaults). Tracing is
/// on only in a traced run. Must run before the library reads anything.
void pin_environment(bool traced, const std::string& trace_path) {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    std::string text = *entry;
    if (text.rfind("MINIARC_", 0) == 0) {
      names.push_back(text.substr(0, text.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  setenv("MINIARC_THREADS", "1", 1);
  setenv("MINIARC_EXEC", "bytecode", 1);
  setenv("MINIARC_KERNEL_RETRIES", "2", 1);
  if (traced) setenv("MINIARC_TRACE", trace_path.c_str(), 1);
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "optimize_loop") return make_optimize_loop();
  if (name == "tools_suite") return make_tools_suite();
  if (name == "serve_mixed") return make_serve_mixed();
  if (name == "dense_kernels") return make_dense_kernels();
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "optimize_loop", "tools_suite", "serve_mixed", "dense_kernels"};
  return names;
}

/// VmHWM of this process image. (getrusage's ru_maxrss survives execve,
/// so under a parent script it reports the parent's size.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Timings are best-of-passes: every pass repeats identical work, and on a
/// shared host interference only ever adds time, so the fastest repetition
/// is the steadiest estimate of what the code costs.
Metrics end_to_end(const Run& run, Workload& workload, double setup_s) {
  Metrics out;
  out["setup_s"] = {setup_s, "s"};
  out["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  out["pass_s"] = {minimum(run.pass_s()), "s"};
  double p50 = 0.0;
  double p99 = 0.0;
  workload.op_latency(run, &p50, &p99);
  out["op_p50_ms"] = {p50, "ms"};
  out["op_p99_ms"] = {p99, "ms"};
  return out;
}

/// Per-layer figures from the span log and the layer sums, per measured
/// pass. Layers a workload does not exercise read 0.
Metrics per_layer(Run& run, Workload& workload) {
  const double passes =
      run.pass_s().empty() ? 1.0 : static_cast<double>(run.pass_s().size());
  std::map<std::string, SpanLog::Totals> spans = run.spans.totals();
  auto span = [&](const char* name) { return spans[name]; };
  auto sum = [&](const char* name) { return run.sum(name) / passes; };
  Metrics out;
  auto layer = [&](const char* prefix, const char* span_name,
                   const char* total_name, const char* calls_name) {
    SpanLog::Totals t = span(span_name);
    out[std::string(prefix) + "." + total_name] = {t.total_ms / passes, "ms"};
    out[std::string(prefix) + ".self_ms"] = {t.self_ms / passes, "ms"};
    if (calls_name != nullptr) {
      out[std::string(prefix) + "." + calls_name] = {
          static_cast<double>(t.calls) / passes, "count"};
    }
  };
  layer("parser", "parser", "ms", "calls");
  layer("translate", "translate", "ms", "calls");
  layer("interp", "interp", "run_ms", nullptr);
  layer("verify", "verify.compare", "compare_ms", "compare_calls");
  layer("advisor", "advisor", "ms", nullptr);
  layer("trace", "trace.report", "report_ms", nullptr);

  SpanLog::Totals optimize = span("optimize");
  SpanLog::Totals execs = span("optimize.exec");
  out["optimize.execs"] = {static_cast<double>(execs.calls) / passes, "count"};
  out["optimize.exec_ms"] = {execs.total_ms / passes, "ms"};
  out["optimize.max_exec_ms"] = {execs.max_ms, "ms"};
  out["optimize.rounds"] = {sum("optimize.rounds"), "count"};
  out["optimize.non_exec_ms"] = {optimize.self_ms / passes, "ms"};

  double device_stmts = sum("interp.device_stmts");
  double launches = sum("interp.launches");
  double chunks = sum("interp.chunks");
  out["interp.host_stmts"] = {sum("interp.host_stmts"), "count"};
  out["interp.device_stmts"] = {device_stmts, "count"};
  out["interp.ns_per_device_stmt"] = {
      device_stmts > 0 ? out["interp.self_ms"].value * 1e6 / device_stmts
                       : 0.0,
      "ns"};
  out["interp.launches"] = {launches, "count"};
  out["interp.chunks"] = {chunks, "count"};
  out["interp.stmts_per_chunk"] = {
      chunks > 0 ? sum("interp.chunk_stmts") / chunks : 0.0, "stmt/chunk"};
  out["device.parallel_launch_share"] = {
      launches > 0 ? sum("device.parallel_launches") / launches : 0.0,
      "ratio"};
  out["device.t4_over_t1"] = {0.0, "ratio"};

  out["runtime.transfers"] = {sum("runtime.transfers"), "count"};
  out["runtime.transfer_bytes"] = {sum("runtime.transfer_bytes"), "B"};
  out["runtime.dynamic_checks"] = {sum("runtime.dynamic_checks"), "count"};
  out["runtime.findings"] = {sum("runtime.findings"), "count"};
  out["runtime.vt_s"] = {sum("runtime.vt_s"), "s"};

  out["verify.elements_compared"] = {sum("verify.elements_compared"), "count"};
  out["advisor.recommendations"] = {sum("advisor.recommendations"), "count"};
  out["trace.report_bytes"] = {sum("trace.report_bytes"), "B"};

  SpanLog::Totals submit = span("service.submit");
  out["service.submit_us"] = {
      submit.calls > 0
          ? submit.total_ms * 1e3 / static_cast<double>(submit.calls)
          : 0.0,
      "us"};
  out["service.cache_hit_ratio"] = {0.0, "ratio"};
  out["service.cache_lookups"] = {0.0, "count"};
  out["service.compile_ms"] = {0.0, "ms"};
  out["service.queue_wait_p50_ms"] = {0.0, "ms"};
  out["service.exec_p50_ms"] = {0.0, "ms"};
  out["service.shed"] = {0.0, "count"};

  out["op.self_ms"] = {span("op").self_ms / passes, "ms"};
  workload.layer_metrics(run, out);
  return out;
}

void print_metrics(const char* heading, const Metrics& metrics) {
  std::printf("%s\n", heading);
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-30s = %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void write_metrics(JsonWriter& json, const Metrics& metrics) {
  json.begin_object();
  for (const auto& [name, metric] : metrics) {
    json.key(name);
    json.begin_object();
    json.field("value", metric.value);
    json.field("unit", metric.unit);
    json.end_object();
  }
  json.end_object();
}

void print_result(const Run& run, const Metrics& metrics,
                  const Metrics& named) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  json.field("correct", run.failed() == 0);
  json.field("attempted", run.attempted());
  json.field("failed", run.failed());
  json.key("metrics");
  write_metrics(json, metrics);
  json.key("named");
  write_metrics(json, named);
  json.end_object();
  json.finish();
  std::fputs(os.str().c_str(), stdout);
}

void print_failures(const Run& run) {
  std::fflush(stdout);
  for (const std::string& why : run.failures()) {
    std::fprintf(stderr, "perfbench: failed op: %s\n", why.c_str());
  }
}

/// Set-up plus timed passes until `seconds` have elapsed.
double measure(Run& run, Workload& workload, double seconds,
               bool setup_only) {
  auto setup_start = Clock::now();
  workload.setup(run);
  double setup_s = ms_since(setup_start) / 1e3;
  if (setup_only) return setup_s;
  run.start_measuring();
  auto start = Clock::now();
  do {
    workload.run_pass(run);
  } while (ms_since(start) / 1e3 < seconds);
  return setup_s;
}

int run_workload(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());
  Run run(args.seed, args.traced);
  double setup_s = measure(run, *workload, args.seconds, args.setup_only);
  print_failures(run);
  if (args.setup_only) {
    print_result(run, {{"setup_s", {setup_s, "s"}}}, {});
    return 0;
  }
  Metrics metrics = end_to_end(run, *workload, setup_s);
  Metrics named;
  workload->named_metrics(run, named);
  named["setup_s"] = metrics["setup_s"];
  named["peak_rss_mb"] = metrics["peak_rss_mb"];
  named["fail_ratio"] = {static_cast<double>(run.failed()) /
                             static_cast<double>(std::max(1L, run.attempted())),
                         "ratio"};
  std::printf("workload %s seed %llu: %zu passes, %ld ops attempted, %ld "
              "failed\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), run.pass_s().size(),
              run.attempted(), run.failed());
  std::printf("determinism digest: %s\n", run.determinism_digest().c_str());
  std::printf("pass seconds: min %.6g  p25 %.6g  median %.6g  p75 %.6g  "
              "max %.6g\n",
              percentile(run.pass_s(), 0.0), percentile(run.pass_s(), 0.25),
              median(run.pass_s()), percentile(run.pass_s(), 0.75),
              percentile(run.pass_s(), 1.0));
  print_metrics("named:", named);
  print_metrics("end-to-end:", metrics);
  if (args.traced) {
    Metrics layers = per_layer(run, *workload);
    print_metrics("per-layer:", layers);
    metrics.insert(layers.begin(), layers.end());
    if (!args.spans_out.empty() && !run.spans.write_json(args.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   args.spans_out.c_str());
      return 1;
    }
  }
  print_result(run, metrics, named);
  return 0;
}

/// Every workload runs one short pass with every metric printed; one
/// output check per workload is forced to fail and must be the only
/// failure counted.
int self_test() {
  bool ok = true;
  for (const std::string& name : workload_names()) {
    std::unique_ptr<Workload> workload = make_workload(name);
    Run run(1, /*traced=*/true);
    auto start = Clock::now();
    workload->setup(run);
    double setup_s = ms_since(start) / 1e3;
    long failed_in_setup = run.failed();
    run.start_measuring();
    run.sabotage(1);
    workload->run_pass(run);
    Metrics metrics = end_to_end(run, *workload, setup_s);
    Metrics layers = per_layer(run, *workload);
    Metrics named;
    workload->named_metrics(run, named);
    named["fail_ratio"] = {static_cast<double>(run.failed()) /
                               static_cast<double>(run.attempted()),
                           "ratio"};
    std::printf("== %s\n", name.c_str());
    print_metrics("named:", named);
    print_metrics("end-to-end:", metrics);
    print_metrics("per-layer:", layers);
    bool caught = failed_in_setup == 0 && run.failed() == 1;
    std::printf("self-test %s: forced failure %s (%ld of %ld ops failed)\n",
                name.c_str(),
                caught ? "counted" : "NOT counted as the only one",
                run.failed(), run.attempted());
    print_failures(run);
    ok = ok && caught;
  }
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::parse_args(argc, argv);
  perfbench::pin_environment(
      args.traced || args.self_test,
      args.spans_out.empty() ? "perfbench-trace.json"
                             : args.spans_out + ".runtime");
  return args.self_test ? perfbench::self_test()
                        : perfbench::run_workload(args);
}
