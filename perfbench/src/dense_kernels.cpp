// dense_kernels: compute-dense kernels — the suite's optimized JACOBI at
// N=256, the suite's SPMUL over a large make_csr matrix, and a 65536 x 24
// per-element loop — timed at threads=1. Chunks run hundreds of loop
// iterations and inputs come from the seed, so chunk execution (the
// bytecode VM) does most of the work: the opposite end from optimize_loop,
// where launches are tiny. Every run also executes the kernels at
// threads=4 (set-up, and between passes of a traced run, for
// device.t4_over_t1): outputs are checked against native C++ references,
// and every output, virtual time and statement count must be identical at
// both thread counts.
#include <cstring>

#include "harness.h"

namespace perfbench {
namespace {

using namespace miniarc;

constexpr int kJacobiN = 256;
constexpr int kJacobiIter = 2;
constexpr std::int64_t kSpmvRows = 20000;
constexpr std::int64_t kSpmvPerRow = 12;
constexpr int kSpmvIters = 3;
constexpr int kLoopN = 65536;
/// Timed thread count, and the pool width it is compared against.
constexpr int kThreads = 1;
constexpr int kParallelThreads = 4;

constexpr const char* kElementLoopSource = R"(
extern int N;
extern double a[];
extern double b[];
void main(void) {
  int i;
#pragma acc data copy(a) copyin(b)
  {
#pragma acc kernels loop gang worker
    for (i = 0; i < N; i++) {
      double acc;
      double scale;
      int k;
      acc = 0.0;
      scale = 0.5;
      for (k = 0; k < 24; k++) {
        acc = acc + b[i] * scale + k * 0.25;
        scale = scale * 1.0009765625 + 0.0001220703125;
      }
      a[i] = acc;
    }
  }
}
)";

std::vector<double> uniform(std::size_t count, std::uint64_t seed, double lo,
                            double hi) {
  TypedBuffer buffer(ScalarKind::kDouble, count);
  fill_uniform(buffer, seed, lo, hi);
  std::vector<double> values(count);
  for (std::size_t i = 0; i < count; ++i) values[i] = buffer.get(i);
  return values;
}

void bind_doubles(Interpreter& interp, const char* name,
                  const std::vector<double>& values) {
  BufferPtr buffer =
      interp.bind_buffer(name, ScalarKind::kDouble, values.size());
  for (std::size_t i = 0; i < values.size(); ++i) buffer->set(i, values[i]);
}

void bind_ints(Interpreter& interp, const char* name,
               const std::vector<std::int64_t>& values) {
  BufferPtr buffer = interp.bind_buffer(name, ScalarKind::kInt, values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    buffer->set(i, static_cast<double>(values[i]));
  }
}

/// One dense program: its source, input binder, the buffers it produces,
/// and their native reference values.
struct DenseKernel {
  std::string name;
  std::string source;
  InputBinder bind;
  std::vector<std::pair<std::string, std::vector<double>>> expected;
};

DenseKernel make_jacobi(std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(kJacobiN);
  std::vector<double> a = uniform(n * n, seed, 0.0, 1.0);
  DenseKernel kernel;
  kernel.name = "jacobi";
  kernel.source = find_benchmark("JACOBI")->optimized_source;
  kernel.bind = [a](Interpreter& interp) {
    interp.bind_scalar("N", Value::of_int(kJacobiN));
    interp.bind_scalar("ITER", Value::of_int(kJacobiIter));
    bind_doubles(interp, "a", a);
  };
  std::vector<double> ref = a;
  std::vector<double> b(ref.size(), 0.0);
  for (int k = 0; k < kJacobiIter; ++k) {
    for (std::size_t i = 1; i + 1 < n; ++i) {
      for (std::size_t j = 1; j + 1 < n; ++j) {
        b[i * n + j] = 0.25 * (ref[(i - 1) * n + j] + ref[(i + 1) * n + j] +
                               ref[i * n + j - 1] + ref[i * n + j + 1]);
      }
    }
    for (std::size_t i = 1; i + 1 < n; ++i) {
      for (std::size_t j = 1; j + 1 < n; ++j) ref[i * n + j] = b[i * n + j];
    }
  }
  kernel.expected.emplace_back("a", std::move(ref));
  return kernel;
}

DenseKernel make_spmv(std::uint64_t seed) {
  CsrMatrix csr = make_csr(kSpmvRows, kSpmvPerRow, seed);
  std::vector<double> x =
      uniform(static_cast<std::size_t>(kSpmvRows), seed + 1, 0.5, 1.5);
  DenseKernel kernel;
  kernel.name = "spmv";
  kernel.source = find_benchmark("SPMUL")->optimized_source;
  kernel.bind = [csr, x](Interpreter& interp) {
    interp.bind_scalar("NROWS", Value::of_int(kSpmvRows));
    interp.bind_scalar("NITERS", Value::of_int(kSpmvIters));
    bind_ints(interp, "rowptr", csr.row_ptr);
    bind_ints(interp, "colidx", csr.col_idx);
    bind_doubles(interp, "vals", csr.values);
    bind_doubles(interp, "x", x);
    interp.bind_buffer("y", ScalarKind::kDouble,
                       static_cast<std::size_t>(kSpmvRows));
  };
  std::vector<double> rx = x;
  std::vector<double> ry(rx.size(), 0.0);
  for (int it = 0; it < kSpmvIters; ++it) {
    for (std::size_t i = 0; i < ry.size(); ++i) {
      double sum = 0.0;
      for (auto jj = csr.row_ptr[i]; jj < csr.row_ptr[i + 1]; ++jj) {
        auto k = static_cast<std::size_t>(jj);
        sum += csr.values[k] * rx[static_cast<std::size_t>(csr.col_idx[k])];
      }
      ry[i] = sum;
    }
    for (std::size_t i = 0; i < rx.size(); ++i) rx[i] = 0.5 * ry[i];
  }
  kernel.expected.emplace_back("x", std::move(rx));
  kernel.expected.emplace_back("y", std::move(ry));
  return kernel;
}

DenseKernel make_element_loop(std::uint64_t seed) {
  std::vector<double> b =
      uniform(static_cast<std::size_t>(kLoopN), seed + 2, -1.0, 1.0);
  DenseKernel kernel;
  kernel.name = "element_loop";
  kernel.source = kElementLoopSource;
  kernel.bind = [b](Interpreter& interp) {
    interp.bind_scalar("N", Value::of_int(kLoopN));
    interp.bind_buffer("a", ScalarKind::kDouble, b.size());
    bind_doubles(interp, "b", b);
  };
  std::vector<double> a(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    double acc = 0.0;
    double scale = 0.5;
    for (int k = 0; k < 24; ++k) {
      acc = acc + b[i] * scale + k * 0.25;
      scale = scale * 1.0009765625 + 0.0001220703125;
    }
    a[i] = acc;
  }
  kernel.expected.emplace_back("a", std::move(a));
  return kernel;
}

/// Hash of the exact bits of every produced buffer.
std::string output_hash(Interpreter& interp, const DenseKernel& kernel) {
  std::string bytes;
  for (const auto& [name, expected] : kernel.expected) {
    BufferPtr buffer = interp.buffer(name);
    for (std::size_t i = 0; i < buffer->count(); ++i) {
      double value = buffer->get(i);
      char raw[sizeof value];
      std::memcpy(raw, &value, sizeof value);
      bytes.append(raw, sizeof raw);
    }
  }
  return content_hash(bytes);
}

class DenseKernels final : public Workload {
 public:
  void setup(Run& run) override {
    kernels_.push_back(make_jacobi(run.seed()));
    kernels_.push_back(make_spmv(run.seed()));
    kernels_.push_back(make_element_loop(run.seed()));
    // Warm-up: one untimed pass at each thread count; the first records
    // the reference fingerprints the other, and every later pass, must
    // reproduce.
    pass(run, kThreads);
    pass(run, kParallelThreads);
  }

  void run_pass(Run& run) override {
    run.record_pass(pass(run, kThreads));
    if (run.traced()) {
      // Untimed pass on the pool, for device.t4_over_t1.
      run.pause();
      parallel_pass_s_.push_back(pass(run, kParallelThreads));
      run.resume();
    }
  }

  void named_metrics(const Run& run, Metrics& out) override {
    out["dense_t1_s"] = {minimum(run.pass_s()), "s"};
    if (!parallel_pass_s_.empty()) {
      out["dense_t4_s"] = {minimum(parallel_pass_s_), "s"};
    }
  }

  void layer_metrics(Run& run, Metrics& out) override {
    double t1 = minimum(run.pass_s());
    double t4 = minimum(parallel_pass_s_);
    out["device.t4_over_t1"] = {t1 > 0.0 ? t4 / t1 : 0.0, "ratio"};
  }

 private:
  double pass(Run& run, int threads) {
    double pass_ms = 0.0;
    for (const DenseKernel& kernel : kernels_) {
      pass_ms += run_one(run, kernel, threads);
    }
    return pass_ms / 1e3;
  }

  double run_one(Run& run, const DenseKernel& kernel, int threads) {
    Verdict verdict;
    ExecutorOptions exec;
    exec.threads = threads;
    RunResult result;
    run.spans.set_op(next_op_++);
    auto start = Clock::now();
    {
      ScopedSpan op_span(run.spans, "op");
      ProgramPtr program = parse_source(run, kernel.source, verdict);
      if (program != nullptr) {
        DiagnosticEngine diags;
        LoweredProgram lowered;
        {
          ScopedSpan span(run.spans, "translate");
          lowered = lower_program(*program, diags);
        }
        if (lowered.program == nullptr) {
          verdict.expect(false, kernel.name + ": lowering failed: " +
                                    diags.dump());
        } else {
          ScopedSpan span(run.spans, "interp");
          result = run_lowered(*lowered.program, lowered.sema, kernel.bind,
                               /*enable_checker=*/false, nullptr, exec);
        }
      }
    }
    double ms = ms_since(start);

    if (result.interp != nullptr) {
      verdict.expect(result.ok, kernel.name + ": run failed: " + result.error);
      Interpreter& interp = *result.interp;
      if (result.ok) {
        for (const auto& [name, expected] : kernel.expected) {
          verdict.expect(buffer_close(*interp.buffer(name), expected) &&
                             !run.tampered(),
                         kernel.name + ": " + name +
                             " differs from the native reference");
        }
        run.expect_same(
            "dense:" + kernel.name,
            output_hash(interp, kernel) + " " +
                run_fingerprint(result.runtime->total_time(),
                                result.runtime->profiler().transfers()
                                    .total_bytes(),
                                interp.host_statements(),
                                interp.device_statements()),
            verdict);
      }
      run.absorb(*result.runtime, interp);
    }
    run.record_op(verdict, ms, kernel.name);
    return ms;
  }

  std::vector<DenseKernel> kernels_;
  std::vector<double> parallel_pass_s_;
  long next_op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_dense_kernels() {
  return std::make_unique<DenseKernels>();
}

}  // namespace perfbench
