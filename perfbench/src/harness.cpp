#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

using namespace miniarc;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

// ---- SpanLog ----

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanLog::push(const char* name) {
  int id = open(name, current(), op_);
  if (id >= 0) stack_.push_back(id);
  return id;
}

void SpanLog::pop(int id) {
  close(id);
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int SpanLog::open(const char* name, int parent, long op) {
  if (!recording_) return -1;
  spans_.push_back({name, op, parent, now_ns(), -1});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) {
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  auto duration_ms = [](const Span& span) {
    return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  };
  for (const Span& span : spans_) {
    if (span.end_ns < 0 || span.parent < 0) continue;
    child_ms[static_cast<std::size_t>(span.parent)] += duration_ms(span);
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    Totals& t = totals[span.name];
    double ms = duration_ms(span);
    ++t.calls;
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
    t.max_ms = std::max(t.max_ms, ms);
  }
  return totals;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  JsonWriter json(out);
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    json.begin_object();
    json.field("name", span.name);
    json.field("ph", "X");
    json.field("pid", 0);
    json.field("tid", span.op);
    json.field("ts", static_cast<double>(span.start_ns) / 1e3);
    json.field("dur", static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    json.key("args");
    json.begin_object();
    json.field("id", static_cast<long>(i));
    json.field("parent", span.parent);
    json.field("op", span.op);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.finish();
  return static_cast<bool>(out);
}

// ---- Run ----

void Run::record_op(const Verdict& verdict, double latency_ms,
                    const std::string& key) {
  ++attempted_;
  if (!verdict.ok) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(verdict.why);
  }
  if (!measuring_) return;
  auto [it, inserted] = op_best_ms_.emplace(key, latency_ms);
  if (!inserted) it->second = std::min(it->second, latency_ms);
}

void Workload::op_latency(const Run& run, double* p50_ms, double* p99_ms) {
  std::vector<double> best;
  for (const auto& [key, ms] : run.op_best_ms()) best.push_back(ms);
  *p50_ms = percentile(best, 0.50);
  *p99_ms = percentile(best, 0.99);
}

bool Run::expect_same(const std::string& key, const std::string& fingerprint,
                      Verdict& verdict) {
  auto [it, inserted] = fingerprints_.emplace(key, fingerprint);
  if (!inserted) {
    verdict.expect(it->second == fingerprint,
                   "nondeterministic " + key + ": " + fingerprint + " vs " +
                       it->second);
  }
  return inserted;
}

std::string Run::determinism_digest() const {
  std::string text;
  for (const auto& [key, fingerprint] : fingerprints_) {
    text += key + "=" + fingerprint + "\n";
  }
  return content_hash(text);
}

void Run::absorb(AccRuntime& runtime, const Interpreter& interp) {
  if (!measuring_ || !traced_) return;
  add("interp.host_stmts", static_cast<double>(interp.host_statements()));
  add("interp.device_stmts", static_cast<double>(interp.device_statements()));
  const TransferTotals& transfers = runtime.profiler().transfers();
  add("runtime.transfers", static_cast<double>(transfers.total_count()));
  add("runtime.transfer_bytes", static_cast<double>(transfers.total_bytes()));
  add("runtime.dynamic_checks",
      static_cast<double>(runtime.checker().dynamic_check_count()));
  add("runtime.findings",
      static_cast<double>(runtime.checker().findings().size()));
  add("runtime.vt_s", runtime.total_time());
  if (!runtime.trace().enabled()) return;
  TraceMetrics metrics = aggregate_trace(runtime.trace().events());
  for (const KernelRollup& kernel : metrics.kernels) {
    add("interp.launches", static_cast<double>(kernel.launches));
    add("interp.chunks", static_cast<double>(kernel.chunks));
    add("interp.chunk_stmts", static_cast<double>(kernel.statements));
    if (kernel.partition == "parallel") {
      add("device.parallel_launches", static_cast<double>(kernel.launches));
    }
  }
}

// ---- helpers ----

ProgramPtr parse_source(Run& run, const std::string& source,
                        Verdict& verdict) {
  DiagnosticEngine diags;
  ProgramPtr program;
  {
    ScopedSpan span(run.spans, "parser");
    program = parse_mini_c(source, diags);
  }
  if (program == nullptr || diags.has_errors()) {
    verdict.expect(false, "parse failed: " + diags.dump());
    return nullptr;
  }
  return program;
}

std::string run_fingerprint(double vt_seconds, std::size_t transfer_bytes,
                            long host_statements, long device_statements) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, "vt=%.17g bytes=%zu host=%ld dev=%ld",
                vt_seconds, transfer_bytes, host_statements,
                device_statements);
  return buffer;
}

std::string content_hash(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, hash);
  return buffer;
}

std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  InputRng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i - 1)));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

}  // namespace perfbench
