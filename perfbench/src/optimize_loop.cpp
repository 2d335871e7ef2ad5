// optimize_loop: InteractiveOptimizer::optimize on the twelve unoptimized
// suite programs at threads=1 — the paper's Table III loop, the wait the
// tool's user sits through. One op = parse + optimize of one program; one
// pass = all twelve, in an order the seed shuffles (the suite's inputs are
// fixed, so order is all the seed can vary).
#include <set>

#include "harness.h"

namespace perfbench {
namespace {

using namespace miniarc;

struct Table3Row {
  const char* name;
  int iterations;
  int incorrect;
  int uncaught;
};

/// Table III as this library reproduces it (iterations / incorrect
/// iterations / uncaught redundant transfer sites).
constexpr Table3Row kExpected[] = {
    {"BACKPROP", 4, 1, 0}, {"BFS", 3, 0, 0},    {"CFD", 3, 0, 1},
    {"CG", 3, 0, 0},       {"EP", 1, 0, 0},     {"HOTSPOT", 3, 0, 0},
    {"JACOBI", 3, 0, 0},   {"KMEANS", 2, 0, 0}, {"LUD", 7, 3, 0},
    {"NW", 3, 0, 0},       {"SPMUL", 3, 0, 0},  {"SRAD", 2, 0, 0},
};

/// Extra timed rounds of all but the slowest program after each pass.
constexpr int kExtraRounds = 3;

const Table3Row* expected_row(const std::string& name) {
  for (const Table3Row& row : kExpected) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

/// Optimizer-internal program executions, seen from outside: each starts
/// when the optimizer binds inputs and ends at the next binding, output
/// check, or the optimizer's return.
class ExecSpans {
 public:
  ExecSpans(SpanLog& log, long op) : log_(log), op_(op) {}
  void set_parent(int parent) { parent_ = parent; }
  void begin() {
    end();
    open_ = log_.open("optimize.exec", parent_, op_);
  }
  void end() {
    if (open_ < 0) return;
    log_.close(open_);
    open_ = -1;
  }

 private:
  SpanLog& log_;
  long op_;
  int parent_ = -1;
  int open_ = -1;
};

/// Transfer sites that fired in one checked run of `program` (the Table III
/// uncaught-redundancy column compares these between the converged and the
/// hand-optimized program).
std::size_t active_sites(const Program& program, const BenchmarkDef& def,
                         Verdict& verdict) {
  DiagnosticEngine diags;
  LoweredProgram lowered = lower_program(program, diags);
  if (lowered.program == nullptr) {
    verdict.expect(false, def.name + ": lowering failed: " + diags.dump());
    return 0;
  }
  RunResult result = run_lowered(*lowered.program, lowered.sema,
                                 def.bind_inputs, /*enable_checker=*/true);
  verdict.expect(result.ok, def.name + ": checked run failed: " + result.error);
  std::set<std::string> sites;
  if (!result.ok) return 0;
  for (const SiteStats& site : result.runtime->checker().site_stats()) {
    if (site.occurrences > 0) sites.insert(site.label + "/" + site.var);
  }
  return sites.size();
}

/// Lower and run `program` once; true when the suite's checker accepts it.
bool runs_correctly(const Program& program, const BenchmarkDef& def,
                    Verdict& verdict) {
  DiagnosticEngine diags;
  LoweredProgram lowered = lower_program(program, diags);
  if (lowered.program == nullptr) {
    verdict.expect(false, def.name + ": lowering failed: " + diags.dump());
    return false;
  }
  RunResult result = run_lowered(*lowered.program, lowered.sema,
                                 def.bind_inputs, /*enable_checker=*/false);
  return result.ok && def.check_output(*result.interp);
}

class OptimizeLoop final : public Workload {
 public:
  void setup(Run& run) override {
    const std::vector<BenchmarkDef>& suite = benchmark_suite();
    for (std::size_t i : shuffled(suite.size(), run.seed())) {
      order_.push_back(&suite[i]);
    }
    // Warm-up: run every program once so each checker's lazily built
    // native reference exists before timing, and count the hand-optimized
    // variant's active transfer sites for the uncaught column.
    for (const BenchmarkDef* def : order_) {
      Verdict verdict;
      ProgramPtr naive = parse_source(run, def->unoptimized_source, verdict);
      ProgramPtr manual = parse_source(run, def->optimized_source, verdict);
      if (naive != nullptr && manual != nullptr) {
        verdict.expect(runs_correctly(*naive, *def, verdict),
                       def->name + ": unoptimized variant is wrong");
        manual_sites_[def->name] = active_sites(*manual, *def, verdict);
      }
      run.record_op(verdict, 0.0, def->name);
    }
  }

  void run_pass(Run& run) override {
    double pass_ms = 0.0;
    const BenchmarkDef* slowest = nullptr;
    double slowest_ms = 0.0;
    for (const BenchmarkDef* def : order_) {
      double ms = optimize_one(run, *def);
      pass_ms += ms;
      if (ms > slowest_ms) {
        slowest_ms = ms;
        slowest = def;
      }
    }
    run.record_pass(pass_ms / 1e3);
    // One program (BFS) takes ~95% of a pass, so the others would get only
    // a handful of latency samples per run: repeat them. Untraced runs only,
    // so per-layer figures stay per pass.
    if (run.traced()) return;
    for (int round = 0; round < kExtraRounds; ++round) {
      for (const BenchmarkDef* def : order_) {
        if (def != slowest) (void)optimize_one(run, *def);
      }
    }
  }

  void named_metrics(const Run& run, Metrics& out) override {
    double p50 = 0.0;
    double p99 = 0.0;
    op_latency(run, &p50, &p99);
    out["optimize_s"] = {minimum(run.pass_s()), "s"};
    out["optimize_p50_ms"] = {p50, "ms"};
  }

 private:
  double optimize_one(Run& run, const BenchmarkDef& def) {
    Verdict verdict;
    const long op = next_op_++;
    run.spans.set_op(op);
    ExecSpans execs(run.spans, op);
    long checked_statements = 0;
    InputBinder bind = [&](Interpreter& interp) {
      execs.begin();
      def.bind_inputs(interp);
    };
    OutputChecker check = [&](Interpreter& interp) {
      execs.end();
      checked_statements += interp.host_statements() +
                            interp.device_statements();
      run.absorb(interp.runtime(), interp);
      return def.check_output(interp) && !run.tampered();
    };

    OptimizationOutcome outcome;
    auto start = Clock::now();
    {
      ScopedSpan op_span(run.spans, "op");
      ProgramPtr program = parse_source(run, def.unoptimized_source, verdict);
      if (program != nullptr) {
        ScopedSpan span(run.spans, "optimize");
        execs.set_parent(run.spans.current());
        InteractiveOptimizer optimizer;
        DiagnosticEngine diags;
        outcome = optimizer.optimize(*program, bind, check, diags);
        execs.end();
      }
    }
    double ms = ms_since(start);

    run.add("optimize.rounds", static_cast<double>(outcome.rounds.size()));
    const Table3Row* row = expected_row(def.name);
    verdict.expect(row != nullptr &&
                       outcome.total_iterations() == row->iterations &&
                       outcome.incorrect_iterations() == row->incorrect,
                   def.name + ": Table III iterations " +
                       std::to_string(outcome.total_iterations()) + "/" +
                       std::to_string(outcome.incorrect_iterations()));
    if (outcome.final_program == nullptr) {
      verdict.expect(false, def.name + ": optimizer returned no program");
    } else {
      // The converged program is checked in full once per run; later passes
      // must converge to the byte-identical program with identical virtual
      // time, transfer volume and validated statement counts.
      bool first = run.expect_same(
          "optimize:" + def.name,
          content_hash(print_program(*outcome.final_program)) + " " +
              run_fingerprint(outcome.final_time,
                              outcome.final_transfers.total_bytes(),
                              checked_statements, 0),
          verdict);
      if (first && row != nullptr) {
        verdict.expect(runs_correctly(*outcome.final_program, def, verdict),
                       def.name + ": converged program is wrong");
        std::size_t sites = active_sites(*outcome.final_program, def, verdict);
        std::size_t manual = manual_sites_[def.name];
        int uncaught = sites > manual ? static_cast<int>(sites - manual) : 0;
        verdict.expect(uncaught == row->uncaught,
                       def.name + ": uncaught redundancy " +
                           std::to_string(uncaught));
      }
    }
    run.record_op(verdict, ms, def.name);
    return ms;
  }

  std::vector<const BenchmarkDef*> order_;
  std::map<std::string, std::size_t> manual_sites_;
  long next_op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_optimize_loop() {
  return std::make_unique<OptimizeLoop>();
}

}  // namespace perfbench
