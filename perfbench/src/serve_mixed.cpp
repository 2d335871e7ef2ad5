// serve_mixed: a closed loop driven by one generator thread into one
// ServiceCore with kWorkers workers and at most kOutstanding requests in
// flight, threads=1 per request. The request mix is run and advise requests
// over suite sources whose sets/size give few-millisecond runs, plus
// fault-armed tenants (transient transfer faults the retry ladder absorbs)
// and statement-budget tenants (which wind down PARTIAL), as in
// bench_service_throughput. Every fifth request of a tenant carries a unique
// trailing comment: it misses the compile cache while doing identical
// work. This exercises admission, the compile cache, per-request runtime
// construction and serialization; the front end runs only on misses.
//
// One pass = one 256-request cycle, the same requests in every pass and for
// every seed, so per-pass counts are the same in every run.
#include <algorithm>
#include <deque>
#include <future>

#include "harness.h"

namespace perfbench {
namespace {

using namespace miniarc;

// One worker with a request always queued behind the running one: with 2
// or 4 workers the best pass moved 20-25% from run to run on a shared
// 4-vCPU host, too much to gate on.
constexpr int kWorkers = 1;
constexpr std::size_t kOutstanding = 2;
/// Latency percentiles are taken per window of this many requests, so the
/// 99th percentile has at least ten samples beyond it.
constexpr std::size_t kWindow = 1024;
constexpr std::uint64_t kCycleOrderSeed = 0x5e7e;

struct Tenant {
  std::string name;
  ServiceRequest request;
  ServiceStatus expected = ServiceStatus::kOk;
  /// Requests of this tenant per cycle.
  int per_cycle = 0;
};

struct SourceSpec {
  const char* benchmark;
  std::vector<std::pair<std::string, double>> sets;
  std::size_t size;
};

/// Suite programs with externs sized so a run is well-defined (in-bounds,
/// finite) under the service's ramp inputs and takes a few milliseconds.
const std::vector<SourceSpec>& source_specs() {
  static const std::vector<SourceSpec> specs = {
      {"JACOBI", {{"N", 32}, {"ITER", 4}}, 1024},
      {"HOTSPOT", {{"GRID", 32}, {"STEPS", 4}}, 1024},
      {"SPMUL", {{"NROWS", 256}, {"NITERS", 4}}, 2048},
      {"LUD", {{"NDIM", 24}}, 576},
      {"CFD", {{"NCELLS", 240}, {"NSTEPS", 4}}, 256},
      {"SRAD", {{"SIZE", 24}, {"ROI", 8}, {"NITERS", 4}, {"LAMBDA", 0.5}},
       576},
  };
  return specs;
}

std::vector<Tenant> make_tenants() {
  std::vector<Tenant> tenants;
  for (const SourceSpec& spec : source_specs()) {
    const BenchmarkDef* def = find_benchmark(spec.benchmark);
    for (const char* command : {"run", "advise"}) {
      Tenant tenant;
      tenant.name = std::string(spec.benchmark) + "-" + command;
      tenant.request.command = command;
      tenant.request.source = def->optimized_source;
      tenant.request.sets = spec.sets;
      tenant.request.buffer_size = spec.size;
      tenant.per_cycle = command == std::string("run") ? 24 : 12;
      tenants.push_back(std::move(tenant));
    }
  }
  // Fault-armed tenant: transient transfer faults, all recovered.
  Tenant faulty = tenants[0];
  faulty.name = "JACOBI-faults";
  faulty.request.faults = FaultPlan::parse("transient=0.3,seed=9");
  faulty.per_cycle = 20;
  tenants.push_back(std::move(faulty));
  // Statement-budget tenant: cancelled mid-run, PARTIAL by design.
  Tenant budgeted = tenants[2];
  budgeted.name = "HOTSPOT-budget";
  budgeted.request.budget.stmt_budget = 4000;
  budgeted.expected = ServiceStatus::kPartial;
  budgeted.per_cycle = 20;
  tenants.push_back(std::move(budgeted));
  for (Tenant& tenant : tenants) {
    tenant.request.program_name = tenant.name;
    tenant.request.threads = 1;
  }
  return tenants;
}

struct Slot {
  std::size_t tenant;
  bool cache_miss;
};

struct Pending {
  std::future<ServiceResponse> future;
  Clock::time_point submitted;
  const Slot* slot;
  int span;
};

/// Per-tenant counts read once from its (byte-identical) run report.
struct TenantCounts {
  double transfers = 0;
  double launches = 0;
  double chunks = 0;
  double chunk_stmts = 0;
  double parallel_launches = 0;
  double dynamic_checks = 0;
  double findings = 0;
};

double number_at(const JsonValue& root, const char* object, const char* key) {
  const JsonValue* parent = root.find(object);
  const JsonValue* value = parent != nullptr ? parent->find(key) : nullptr;
  return value != nullptr && value->is_number() ? value->number : 0.0;
}

TenantCounts counts_from_report(const std::string& report_json) {
  TenantCounts counts;
  std::optional<JsonValue> root = parse_json(report_json);
  if (!root.has_value()) return counts;
  if (const JsonValue* profile = root->find("profile")) {
    counts.transfers = number_at(*profile, "transfers", "h2d_count") +
                       number_at(*profile, "transfers", "d2h_count");
  }
  counts.dynamic_checks = number_at(*root, "checker", "dynamic_checks");
  if (const JsonValue* checker = root->find("checker")) {
    if (const JsonValue* findings = checker->find("findings")) {
      counts.findings = static_cast<double>(findings->array.size());
    }
  }
  const JsonValue* trace = root->find("trace");
  const JsonValue* kernels =
      trace != nullptr ? trace->find("kernels") : nullptr;
  if (kernels == nullptr) return counts;
  for (const JsonValue& kernel : kernels->array) {
    auto field = [&](const char* key) {
      const JsonValue* v = kernel.find(key);
      return v != nullptr && v->is_number() ? v->number : 0.0;
    };
    counts.launches += field("launches");
    counts.chunks += field("chunks");
    counts.chunk_stmts += field("statements");
    const JsonValue* partition = kernel.find("partition");
    if (partition != nullptr && partition->string == "parallel") {
      counts.parallel_launches += field("launches");
    }
  }
  return counts;
}

const Histogram* registry_histogram(ServiceCore& core, const char* name) {
  for (const MetricInfo& info : core.metrics_registry().snapshot()) {
    if (info.name == name && info.histogram != nullptr) return info.histogram;
  }
  return nullptr;
}

class ServeMixed final : public Workload {
 public:
  void setup(Run& run) override {
    tenants_ = make_tenants();
    // Every seed sends the same requests (every fifth request of a tenant
    // misses the cache) in the same cyclic order: which requests run side by
    // side changes throughput by tens of percent, so the seed only picks
    // where in the cycle the loop starts and the text of the cache-busting
    // comments.
    std::vector<Slot> slots;
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      for (int i = 0; i < tenants_[t].per_cycle; ++i) {
        slots.push_back({t, i % 5 == 4});
      }
    }
    std::vector<std::size_t> order = shuffled(slots.size(), kCycleOrderSeed);
    std::rotate(order.begin(),
                order.begin() + static_cast<std::ptrdiff_t>(run.seed() %
                                                            order.size()),
                order.end());
    for (std::size_t i : order) cycle_.push_back(slots[i]);
    seed_ = run.seed();
    ServiceOptions options;
    options.jobs = kWorkers;
    options.queue_depth = 64;
    options.cache_bytes = std::size_t{4} << 20;
    options.exec_engine = ExecEngine::kBytecode;
    core_ = std::make_unique<ServiceCore>(options);
    // Warm-up: one untimed cycle compiles every tenant's source and records
    // the reference report of each tenant.
    run_pass(run);
  }

  void run_pass(Run& run) override {
    if (run.measuring() && !baseline_taken_) {
      baseline_taken_ = true;
      baseline_ = core_->stats();
    }
    std::deque<Pending> pending;
    std::size_t next = 0;
    auto start = Clock::now();
    while (next < cycle_.size() || !pending.empty()) {
      while (next < cycle_.size() && pending.size() < kOutstanding) {
        pending.push_back(submit(run, cycle_[next++]));
      }
      bool progressed = false;
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          complete(run, *it);
          it = pending.erase(it);
          progressed = true;
        } else {
          ++it;
        }
      }
      if (!progressed) {
        (void)pending.front().future.wait_for(std::chrono::microseconds(50));
      }
    }
    if (run.measuring()) run.record_pass(ms_since(start) / 1e3);
  }

  void named_metrics(const Run& run, Metrics& out) override {
    double pass_s = minimum(run.pass_s());
    double p50 = 0.0;
    double p99 = 0.0;
    op_latency(run, &p50, &p99);
    out["serve_req_per_s"] = {
        pass_s > 0.0 ? static_cast<double>(cycle_.size()) / pass_s : 0.0,
        "1/s"};
    out["serve_p50_ms"] = {p50, "ms"};
    out["serve_p99_ms"] = {p99, "ms"};
  }

  /// Submit-to-response latency: the median and 99th percentile of each
  /// window of kWindow requests, best window of the run.
  void op_latency(const Run& run, double* p50_ms, double* p99_ms) override {
    (void)run;
    if (window_p50_.empty()) {
      *p50_ms = percentile(window_, 0.50);
      *p99_ms = percentile(window_, 0.99);
      return;
    }
    *p50_ms = minimum(window_p50_);
    *p99_ms = minimum(window_p99_);
  }

  void layer_metrics(Run& run, Metrics& out) override {
    ServiceStats stats = core_->stats();
    double hits = static_cast<double>(stats.cache.hits - baseline_.cache.hits);
    double lookups =
        hits + static_cast<double>(stats.cache.misses - baseline_.cache.misses);
    double passes =
        std::max<double>(1.0, static_cast<double>(run.pass_s().size()));
    out["service.cache_hit_ratio"] = {lookups > 0 ? hits / lookups : 0.0,
                                      "ratio"};
    out["service.cache_lookups"] = {lookups / passes, "count"};
    out["service.shed"] = {
        static_cast<double>((stats.shed_budget + stats.shed_overload +
                             stats.shed_shutdown) -
                            (baseline_.shed_budget + baseline_.shed_overload +
                             baseline_.shed_shutdown)) /
            passes,
        "count"};
    const Histogram* wait =
        registry_histogram(*core_, "miniarc_service_queue_wait_ms");
    const Histogram* exec =
        registry_histogram(*core_, "miniarc_service_execute_ms");
    out["service.queue_wait_p50_ms"] = {
        wait != nullptr ? wait->percentile(0.5) : 0.0, "ms"};
    out["service.exec_p50_ms"] = {exec != nullptr ? exec->percentile(0.5) : 0.0,
                                  "ms"};
    // Front-end cost per distinct source, timed outside the closed loop.
    std::vector<double> compile_ms;
    for (const Tenant& tenant : tenants_) {
      std::string error;
      auto start = Clock::now();
      auto compiled = build_compiled_program(
          tenant.request.source,
          tenant.request.command == "advise" ? CompileMode::kAdvise
                                             : CompileMode::kRun,
          &error);
      compile_ms.push_back(ms_since(start));
      if (compiled == nullptr) {
        run.record_op(Verdict{false, error}, 0.0, tenant.name);
      }
    }
    out["service.compile_ms"] = {median(compile_ms), "ms"};
  }

 private:
  Pending submit(Run& run, const Slot& slot) {
    const Tenant& tenant = tenants_[slot.tenant];
    ServiceRequest request = tenant.request;
    request.id = std::to_string(next_id_);
    if (slot.cache_miss) {
      request.source += "\n// seed " + std::to_string(seed_) + " request " +
                        std::to_string(next_id_) + "\n";
    }
    const long op = next_id_++;
    Pending pending;
    pending.slot = &slot;
    pending.span = run.spans.open("op", -1, op);
    int submit_span = run.spans.open("service.submit", pending.span, op);
    pending.submitted = Clock::now();
    pending.future = core_->submit(std::move(request));
    run.spans.close(submit_span);
    return pending;
  }

  void complete(Run& run, Pending& pending) {
    ServiceResponse response = pending.future.get();
    double ms = ms_since(pending.submitted);
    run.spans.close(pending.span);
    const Slot& slot = *pending.slot;
    const Tenant& tenant = tenants_[slot.tenant];
    Verdict verdict;
    bool status_ok = response.status == tenant.expected && !run.tampered();
    verdict.expect(status_ok, tenant.name + ": status " +
                                  to_string(response.status) + " (" +
                                  response.error + ")");
    if (run.measuring()) {
      verdict.expect(response.cache_hit != slot.cache_miss,
                     tenant.name + ": unexpected cache outcome");
    }
    // Reports and advice are a pure function of the request: the first one
    // per tenant is schema-checked, later ones must match its bytes whether
    // the compile cache hit or missed.
    const TenantRollup& rollup = response.rollup;
    bool first = run.expect_same(
        "serve:" + tenant.name,
        content_hash(response.report_json) +
            content_hash(response.advice_json) + " " +
            run_fingerprint(rollup.vt_seconds,
                            static_cast<std::size_t>(rollup.h2d_bytes +
                                                     rollup.d2h_bytes),
                            rollup.host_statements, rollup.device_statements),
        verdict);
    if (first) {
      std::string error;
      verdict.expect(validate_run_report(response.report_json, &error),
                     tenant.name + ": invalid run report: " + error);
      if (tenant.request.command == "advise") {
        verdict.expect(validate_advice(response.advice_json, &error),
                       tenant.name + ": invalid advice: " + error);
      }
      counts_[slot.tenant] = counts_from_report(response.report_json);
    }
    if (run.traced()) {
      const TenantCounts& counts = counts_[slot.tenant];
      run.add("runtime.vt_s", rollup.vt_seconds);
      run.add("runtime.transfer_bytes",
              static_cast<double>(rollup.h2d_bytes + rollup.d2h_bytes));
      run.add("runtime.transfers", counts.transfers);
      run.add("runtime.dynamic_checks", counts.dynamic_checks);
      run.add("runtime.findings", counts.findings);
      run.add("interp.host_stmts", static_cast<double>(rollup.host_statements));
      run.add("interp.device_stmts",
              static_cast<double>(rollup.device_statements));
      run.add("interp.launches", counts.launches);
      run.add("interp.chunks", counts.chunks);
      run.add("interp.chunk_stmts", counts.chunk_stmts);
      run.add("device.parallel_launches", counts.parallel_launches);
      run.add("trace.report_bytes",
              static_cast<double>(response.report_json.size() +
                                  response.advice_json.size()));
    }
    run.record_op(verdict, ms, tenant.name);
    if (run.measuring()) {
      window_.push_back(ms);
      if (window_.size() == kWindow) {
        window_p50_.push_back(percentile(window_, 0.50));
        window_p99_.push_back(percentile(window_, 0.99));
        window_.clear();
      }
    }
  }

  std::vector<Tenant> tenants_;
  std::vector<Slot> cycle_;
  std::unique_ptr<ServiceCore> core_;
  std::map<std::size_t, TenantCounts> counts_;
  std::vector<double> window_;
  std::vector<double> window_p50_;
  std::vector<double> window_p99_;
  ServiceStats baseline_;
  bool baseline_taken_ = false;
  long next_id_ = 0;
  std::uint64_t seed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed() {
  return std::make_unique<ServeMixed>();
}

}  // namespace perfbench
