// Measurement plumbing shared by the workloads: wall-clock spans recorded
// around calls into the library's public entry points, per-op latency and
// failure accounting, the determinism guard, per-layer sums, and the
// result document run.py reads.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "miniarc.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Nearest-rank percentile of `values` (q in (0, 1]); 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}
[[nodiscard]] inline double minimum(std::vector<double> values) {
  return percentile(std::move(values), 0.0);
}

/// In-memory span log. A span has a name, a start, an end, a parent and the
/// id of the op it belongs to; nothing is written until the run ends.
/// Recording is off in untraced runs and during set-up, so the only cost
/// there is one branch per call site.
class SpanLog {
 public:
  struct Totals {
    long calls = 0;
    double total_ms = 0.0;
    /// Span time minus the time covered by its child spans.
    double self_ms = 0.0;
    double max_ms = 0.0;
  };

  void set_recording(bool on) { recording_ = on; }
  [[nodiscard]] bool recording() const { return recording_; }
  void set_op(long op) { op_ = op; }

  /// Open a span whose parent is the innermost span opened by push().
  int push(const char* name);
  void pop(int id);
  /// Open a span with an explicit parent (-1 = root), for spans that do not
  /// nest on the call stack (one-op-per-request latencies, optimizer runs
  /// delimited by callbacks). Returns -1 when not recording.
  int open(const char* name, int parent, long op);
  void close(int id);
  [[nodiscard]] int current() const {
    return stack_.empty() ? -1 : stack_.back();
  }

  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Chrome trace-event JSON: one "X" event per span, tid = op id.
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    long op;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  bool recording_ = false;
  long op_ = -1;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), id_(log.recording() ? log.push(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) log_.pop(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Outcome of one op's output oracles: every check that fails makes the
/// op count as failed; the first message is kept for the log.
struct Verdict {
  bool ok = true;
  std::string why;
  void expect(bool condition, const std::string& what) {
    if (condition) return;
    if (ok) why = what;
    ok = false;
  }
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// State of one benchmark process.
class Run {
 public:
  Run(std::uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] bool traced() const { return traced_; }
  [[nodiscard]] bool measuring() const { return measuring_; }
  /// Set-up ends: later ops are timed and, in a traced run, spanned.
  void start_measuring() {
    measuring_ = true;
    spans.set_recording(traced_);
  }
  /// Bracket untimed work done between measured passes (reference passes
  /// of a traced run): ops still count and are checked, but add no
  /// latency, span or layer sum.
  void pause() {
    measuring_ = false;
    spans.set_recording(false);
  }
  void resume() { start_measuring(); }

  /// Account one finished op. Failures always count; while measuring,
  /// the op's latency also updates the best latency seen for `key` (the
  /// op's identity: the same work in every pass).
  void record_op(const Verdict& verdict, double latency_ms,
                 const std::string& key);
  void record_pass(double seconds) { pass_s_.push_back(seconds); }
  /// Determinism guard: the first fingerprint seen under `key` is the
  /// reference; any later mismatch fails `verdict`. Returns true the first
  /// time `key` is seen.
  bool expect_same(const std::string& key, const std::string& fingerprint,
                   Verdict& verdict);
  /// Per-layer sums over the measured passes (reported per pass).
  void add(const std::string& name, double value) {
    if (measuring_) sums_[name] += value;
  }
  /// Fold one finished run's deterministic counters (and, when the runtime
  /// recorded a trace, its launch/chunk rollups) into the layer sums.
  void absorb(miniarc::AccRuntime& runtime, const miniarc::Interpreter& interp);

  /// Self-test hook: the next `n` output checks report failure.
  void sabotage(int n) { sabotage_ = n; }
  /// Output checks call this; true means "pretend the output was wrong".
  [[nodiscard]] bool tampered() {
    if (sabotage_ <= 0) return false;
    --sabotage_;
    return true;
  }

  /// Hash over every op's determinism fingerprint: equal across runs of
  /// one workload and seed whenever the virtual-time results are.
  [[nodiscard]] std::string determinism_digest() const;

  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  /// Best (lowest) latency of each op key over the measured passes.
  [[nodiscard]] const std::map<std::string, double>& op_best_ms() const {
    return op_best_ms_;
  }
  [[nodiscard]] const std::vector<double>& pass_s() const { return pass_s_; }
  [[nodiscard]] double sum(const std::string& name) const {
    auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second;
  }

  SpanLog spans;

 private:
  std::uint64_t seed_;
  bool traced_;
  bool measuring_ = false;
  int sabotage_ = 0;
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, double> op_best_ms_;
  std::vector<double> pass_s_;
  std::map<std::string, std::string> fingerprints_;
  std::map<std::string, double> sums_;
};

/// One benchmark workload. setup() builds inputs and runs the untimed
/// warm-up pass; run_pass() runs one timed pass over the workload's op set
/// and records each op and the pass.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;
  virtual void setup(Run& run) = 0;
  virtual void run_pass(Run& run) = 0;
  /// The workload's end-to-end figures under the names a user of the
  /// matching command knows them by (printed beside the generic metrics).
  virtual void named_metrics(const Run& run, Metrics& out) = 0;
  /// Typical and tail op latency: by default the median and 99th
  /// percentile over op keys of each key's best latency.
  virtual void op_latency(const Run& run, double* p50_ms, double* p99_ms);
  /// Per-layer metrics only this workload can compute (its own layer
  /// readings); called once after the measured passes of a traced run.
  virtual void layer_metrics(Run& run, Metrics& out) {
    (void)run;
    (void)out;
  }
};

std::unique_ptr<Workload> make_optimize_loop();
std::unique_ptr<Workload> make_tools_suite();
std::unique_ptr<Workload> make_serve_mixed();
std::unique_ptr<Workload> make_dense_kernels();

// ---- helpers over the library's entry points ----

/// parse_mini_c under a "parser" span; a diagnostic fails `verdict`.
miniarc::ProgramPtr parse_source(Run& run, const std::string& source,
                                 Verdict& verdict);

/// Deterministic run summary used as a determinism fingerprint.
[[nodiscard]] std::string run_fingerprint(double vt_seconds,
                                          std::size_t transfer_bytes,
                                          long host_statements,
                                          long device_statements);
/// FNV-1a 64 of `text`, as 16 hex digits.
[[nodiscard]] std::string content_hash(const std::string& text);

/// Deterministic pseudo-random permutation of [0, n) from `seed`.
[[nodiscard]] std::vector<std::size_t> shuffled(std::size_t n,
                                                std::uint64_t seed);

}  // namespace perfbench
