// tools_suite: what `miniarc verify`, `check` and `advise` do, for each of
// the 24 suite variants (12 programs x unoptimized/optimized) at threads=1:
// parse -> prepare -> run -> report (and advice) JSON. One op = one command
// on one variant; one pass = all 72, variants in an order the seed
// shuffles. Heavy on the host interpreter (verification's sequential
// reference), result comparison, the coherence checker, the advisor and
// serialization; few launches per op and no runaway candidate.
#include <array>
#include <sstream>

#include "harness.h"

namespace perfbench {
namespace {

using namespace miniarc;

enum class Command : std::uint8_t { kVerify, kCheck, kAdvise };
constexpr std::array<Command, 3> kCommands = {Command::kVerify, Command::kCheck,
                                              Command::kAdvise};

const char* to_string(Command command) {
  switch (command) {
    case Command::kVerify: return "verify";
    case Command::kCheck: return "check";
    case Command::kAdvise: return "advise";
  }
  return "?";
}

/// Forwards to KernelVerifier::on_compare and times each comparison.
class TimedCompareHook final : public CompareHook {
 public:
  TimedCompareHook(KernelVerifier& verifier, Run& run)
      : verifier_(verifier), run_(run) {}

  void on_compare(const ResultCompareStmt& stmt, Interpreter& interp) override {
    long before = elements_compared();
    {
      ScopedSpan span(run_.spans, "verify.compare");
      verifier_.on_compare(stmt, interp);
    }
    run_.add("verify.elements_compared",
             static_cast<double>(elements_compared() - before));
  }

 private:
  [[nodiscard]] long elements_compared() const {
    long total = 0;
    for (const KernelVerdict& v : verifier_.report().verdicts) {
      total += v.elements_compared;
    }
    return total;
  }

  KernelVerifier& verifier_;
  Run& run_;
};

/// Everything one command leaves behind for the oracles. Member order
/// matters: the interpreter refers to the program, sema and runtime.
struct ToolRun {
  ProgramPtr program;
  SemaInfo sema;
  std::unique_ptr<AccRuntime> runtime;
  std::unique_ptr<Interpreter> interp;
  std::string error;
  bool report_ok = false;
  bool verified = true;
  std::size_t recommendations = 0;
  std::string report_json;
  std::string advice_json;

  /// Build the runtime and interpreter the way the CLI does for `command`.
  void start(const BenchmarkDef& def, Command command) {
    ExecutorOptions exec;
    exec.threads = 1;
    if (command == Command::kAdvise) {
      // Savings projections are priced from recorded transfer events, so
      // advise records a trace whether or not the benchmark is traced.
      TraceOptions trace;
      trace.enabled = true;
      exec.trace = trace;
    }
    runtime = std::make_unique<AccRuntime>(MachineModel::m2090(), exec);
    InterpOptions options;
    if (command == Command::kVerify) {
      runtime->set_allocation_pooling(false);
    } else {
      runtime->checker().set_enabled(true);
      options.enable_checker = true;
    }
    interp = std::make_unique<Interpreter>(*program, sema, *runtime, options);
    def.bind_inputs(*interp);
  }

  /// Interpreter::run plus the run report, as the CLI's run_to_report.
  RunReport execute(Run& run, Command command, const std::string& name) {
    RunReport report;
    try {
      {
        ScopedSpan span(run.spans, "interp");
        interp->run();
      }
      ScopedSpan span(run.spans, "trace.report");
      report = build_run_report(*runtime, to_string(command), name);
    } catch (const std::exception& e) {
      report = build_run_report(*runtime, to_string(command), name);
      set_run_error(report, e);
    }
    report.host_statements = interp->host_statements();
    report.device_statements = interp->device_statements();
    return report;
  }

  void serialize(Run& run, const RunReport& report) {
    ScopedSpan span(run.spans, "trace.report");
    std::ostringstream os;
    write_run_report_json(report, os);
    report_json = os.str();
    report_ok = report.ok;
  }
};

void run_verify(Run& run, const BenchmarkDef& def, const Program& source,
                ToolRun& out) {
  KernelVerifier verifier;
  TimedCompareHook hook(verifier, run);
  DiagnosticEngine diags;
  KernelVerifier::Prepared prepared;
  {
    ScopedSpan span(run.spans, "translate");
    prepared = verifier.prepare(source, diags);
  }
  if (prepared.program == nullptr) {
    out.error = "verify prepare failed: " + diags.dump();
    return;
  }
  out.program = std::move(prepared.program);
  out.sema = std::move(prepared.sema);
  out.start(def, Command::kVerify);
  out.interp->set_compare_hook(&hook);
  RunReport report = out.execute(run, Command::kVerify, def.name);
  out.interp->set_compare_hook(nullptr);
  for (const KernelVerdict& verdict : verifier.report().verdicts) {
    report.verification.push_back({verdict.kernel, verdict.passed(),
                                   verdict.elements_compared,
                                   verdict.mismatches,
                                   verdict.checksum_failed});
  }
  for (const KernelMismatch& sample : verifier.report().samples) {
    report.verification_samples.push_back(sample.message());
  }
  out.verified = verifier.report().all_passed();
  out.serialize(run, report);
}

/// check and advise share the instrumented pipeline; advise adds the
/// advisor over the recorded trace.
void run_checked(Run& run, const BenchmarkDef& def, const Program& source,
                 Command command, ToolRun& out) {
  TransferVerifier verifier{InstrumentationOptions{}};
  DiagnosticEngine diags;
  TransferVerifier::Prepared prepared;
  {
    ScopedSpan span(run.spans, "translate");
    prepared = verifier.prepare(source, diags);
  }
  if (prepared.program == nullptr) {
    out.error = "check prepare failed: " + diags.dump();
    return;
  }
  out.program = std::move(prepared.program);
  out.sema = std::move(prepared.sema);
  out.start(def, command);
  RunReport report = out.execute(run, command, def.name);

  const RuntimeChecker& checker = out.runtime->checker();
  report.checker_enabled = true;
  report.static_checks = prepared.instrumentation.static_checks;
  report.hoisted_checks = prepared.instrumentation.hoisted_checks;
  report.dynamic_checks = checker.dynamic_check_count();
  for (const Finding& finding : checker.findings()) {
    report.findings.push_back(finding.message());
  }
  if (command == Command::kCheck) {
    for (const Suggestion& s :
         derive_suggestions(checker.site_stats(), checker.findings())) {
      report.suggestions.push_back(s.message());
    }
  } else {
    AdvisorReport advice;
    {
      ScopedSpan span(run.spans, "advisor");
      advice = advise(out.runtime->trace().events(), report.metrics,
                      checker.site_stats(), checker.findings(),
                      report.total_seconds, AdvisorOptions{},
                      report.line_profile.has_value() ? &*report.line_profile
                                                      : nullptr);
    }
    advice.program = def.name;
    out.recommendations = advice.recommendations.size();
    ScopedSpan span(run.spans, "trace.report");
    std::ostringstream os;
    write_advice_json(advice, os);
    out.advice_json = os.str();
  }
  out.serialize(run, report);
}

struct ToolOp {
  const BenchmarkDef* def;
  bool optimized;
  Command command;
};

class ToolsSuite final : public Workload {
 public:
  void setup(Run& run) override {
    const std::vector<BenchmarkDef>& suite = benchmark_suite();
    for (std::size_t i : shuffled(2 * suite.size(), run.seed())) {
      for (Command command : kCommands) {
        ops_.push_back({&suite[i / 2], i % 2 == 1, command});
      }
    }
    // Warm-up: one untimed pass fills every checker's native reference and
    // records the reference fingerprints later passes must reproduce.
    run_pass(run);
  }

  void run_pass(Run& run) override {
    double pass_ms = 0.0;
    for (const ToolOp& op : ops_) pass_ms += run_op(run, op);
    if (run.measuring()) run.record_pass(pass_ms / 1e3);
  }

  void named_metrics(const Run& run, Metrics& out) override {
    out["tools_s"] = {minimum(run.pass_s()), "s"};
    for (Command command : kCommands) {
      const std::string suffix = std::string(":") + to_string(command);
      std::vector<double> best;
      for (const auto& [key, ms] : run.op_best_ms()) {
        if (key.ends_with(suffix)) best.push_back(ms);
      }
      out[std::string(to_string(command)) + "_p50_ms"] = {median(best), "ms"};
    }
  }

 private:
  double run_op(Run& run, const ToolOp& op) {
    const BenchmarkDef& def = *op.def;
    const std::string key = def.name + (op.optimized ? ":opt:" : ":naive:") +
                            to_string(op.command);
    Verdict verdict;
    ToolRun out;
    run.spans.set_op(next_op_++);
    auto start = Clock::now();
    {
      ScopedSpan op_span(run.spans, "op");
      ProgramPtr program = parse_source(
          run, op.optimized ? def.optimized_source : def.unoptimized_source,
          verdict);
      if (program != nullptr) {
        if (op.command == Command::kVerify) {
          run_verify(run, def, *program, out);
        } else {
          run_checked(run, def, *program, op.command, out);
        }
      }
    }
    double ms = ms_since(start);

    verdict.expect(out.error.empty(), key + ": " + out.error);
    if (out.interp != nullptr) {
      verdict.expect(out.report_ok, key + ": run failed");
      verdict.expect(out.verified, key + ": kernel verification failed");
      verdict.expect(def.check_output(*out.interp) && !run.tampered(),
                     key + ": wrong output");
      // Reports are a pure function of the program and its inputs: the
      // first one per op is schema-checked, later ones must match its bytes.
      std::string fingerprint =
          content_hash(out.report_json) + content_hash(out.advice_json) +
          " " +
          run_fingerprint(out.runtime->total_time(),
                          out.runtime->profiler().transfers().total_bytes(),
                          out.interp->host_statements(),
                          out.interp->device_statements());
      if (run.expect_same("tools:" + key, fingerprint, verdict)) {
        std::string error;
        verdict.expect(validate_run_report(out.report_json, &error),
                       key + ": invalid run report: " + error);
        if (op.command == Command::kAdvise) {
          verdict.expect(validate_advice(out.advice_json, &error),
                         key + ": invalid advice: " + error);
        }
      }
      run.absorb(*out.runtime, *out.interp);
      run.add("trace.report_bytes", static_cast<double>(
                                        out.report_json.size() +
                                        out.advice_json.size()));
      run.add("advisor.recommendations",
              static_cast<double>(out.recommendations));
    }
    run.record_op(verdict, ms, key);
    return ms;
  }

  std::vector<ToolOp> ops_;
  long next_op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_tools_suite() {
  return std::make_unique<ToolsSuite>();
}

}  // namespace perfbench
