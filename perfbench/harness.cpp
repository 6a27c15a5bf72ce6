#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "engine/count_sim.hpp"
#include "isa/compiled.hpp"
#include "support/rng.hpp"

namespace bench {

using namespace ppde;

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[above] - values[below]);
}

double peak_rss_mb() {
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// ---------------------------------------------------------------------------
// Trace.

namespace {
thread_local std::vector<std::int64_t> open_spans;
std::atomic<unsigned> next_thread{1};
thread_local const unsigned thread_index = next_thread++;
}  // namespace

Trace::Span::Span(Trace& trace, std::string name)
    : Span(trace, std::move(name),
           open_spans.empty() ? kRoot : open_spans.back()) {}

Trace::Span::Span(Trace& trace, std::string name, std::int64_t parent)
    : trace_(trace) {
  if (!trace_.enabled()) return;
  id_ = trace_.open(std::move(name), parent);
  open_spans.push_back(id_);
  on_stack_ = true;
}

Trace::Span::~Span() {
  if (id_ == kRoot) return;
  trace_.close(id_);
  if (on_stack_ && !open_spans.empty() && open_spans.back() == id_)
    open_spans.pop_back();
}

std::int64_t Trace::open(std::string name, std::int64_t parent) {
  const double now = seconds_since(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(Record{std::move(name), now, now, parent, thread_index});
  return static_cast<std::int64_t>(records_.size() - 1);
}

void Trace::close(std::int64_t id) {
  const double now = seconds_since(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<std::size_t>(id)].end = now;
}

std::vector<Trace::Record> Trace::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::map<std::string, double> Trace::self_seconds() const {
  const std::vector<Record> spans = records();
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != kRoot)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Children may run concurrently (pool threads, client connections):
    // subtract the union of their intervals, clipped to the parent's.
    std::vector<std::pair<double, double>> covered;
    for (std::size_t child : children[i])
      covered.emplace_back(std::max(spans[child].start, spans[i].start),
                           std::min(spans[child].end, spans[i].end));
    std::sort(covered.begin(), covered.end());
    double busy = 0.0, reach = spans[i].start;
    for (const auto& [start, end] : covered) {
      const double from = std::max(start, reach);
      if (end > from) {
        busy += end - from;
        reach = end;
      }
    }
    const std::string& name = spans[i].name;
    self[name.substr(0, name.find('.'))] +=
        (spans[i].end - spans[i].start) - busy;
  }
  return self;
}

void Trace::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const std::vector<Record> spans = records();
  out << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    char line[512];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld}}",
                  i == 0 ? "" : ",\n", spans[i].name.c_str(),
                  spans[i].thread, spans[i].start * 1e6,
                  (spans[i].end - spans[i].start) * 1e6,
                  i, static_cast<long long>(spans[i].parent));
    out << line;
  }
  out << "]\n";
}

// ---------------------------------------------------------------------------
// Expectations and results.

void Expectations::set(const std::string& name, const std::string& value) {
  overrides_[name] = value;
}

std::uint64_t Expectations::u64(const std::string& name,
                                std::uint64_t fallback) const {
  const auto it = overrides_.find(name);
  return it == overrides_.end() ? fallback : std::stoull(it->second);
}

std::string Expectations::str(const std::string& name,
                              const std::string& fallback) const {
  const auto it = overrides_.find(name);
  return it == overrides_.end() ? fallback : it->second;
}

void Result::operation(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    errors_.push_back(what);
  }
}

bool Result::gate(const std::string& name, bool ok,
                  const std::string& detail) {
  ++attempted_;
  if (!ok) ++failed_;
  gates_.push_back(Gate{name, ok, detail});
  return ok;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Result::to_json() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) + ",\"gates\":[";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"name\":" + quoted(gates_[i].name) + ",\"ok\":";
    out += gates_[i].ok ? "true" : "false";
    out += ",\"detail\":" + quoted(gates_[i].detail) + "}";
  }
  out += "],\"errors\":[";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    if (i != 0) out += ',';
    out += quoted(errors_[i]);
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out += ',';
    first = false;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out += quoted(name) + ":{\"value\":" + number +
           ",\"unit\":" + quoted(metric.unit) + "}";
  }
  return out + "}}";
}

void report_idle(Result& result, const std::vector<Group>& groups) {
  struct Named {
    const char* name;
    const char* unit;
  };
  static const std::map<Group, std::vector<Named>> kGroups = {
      {Group::kSplit,
       {{"engine.step_ns", "ns"},
        {"engine.draw_ns", "ns"},
        {"engine.ln_ns", "ns"},
        {"isa.lookup_ns", "ns"},
        {"engine.update_ns", "ns"}}},
      {Group::kTrials,
       {{"engine.firings", "count"},
        {"engine.trial_s_p50", "s"},
        {"engine.trial_s_max", "s"},
        {"engine.ns_per_firing", "ns"},
        {"engine.weight_updates_per_firing", "ratio"},
        {"pool.busy_fraction", "ratio"}}},
      {Group::kSmc,
       {{"smc.trials_run", "count"},
        {"smc.trials_folded", "count"},
        {"smc.useful_fraction", "ratio"},
        {"smc.fold_us_per_trial", "us"}}},
      {Group::kVerify,
       {{"verify.configs", "count"},
        {"verify.edges", "count"},
        {"verify.configs_per_s", "1/s"},
        {"verify.bytes_per_config", "bytes"},
        {"verify.thread_speedup", "ratio"}}},
      {Group::kServe,
       {{"serve.rpc_stats_ms", "ms"},
        {"serve.encode_batch_request_us", "us"},
        {"serve.encode_batch_result_us", "us"},
        {"serve.parse_batch_result_us", "us"},
        {"serve.frame_bytes", "bytes"},
        {"serve.encode_batch_result_us.1trial", "us"},
        {"serve.parse_batch_result_us.1trial", "us"},
        {"serve.frame_bytes.1trial", "bytes"},
        {"serve.admission_wait_ms", "ms"},
        {"serve.queue_depth_max", "count"},
        {"serve.useful_fraction", "ratio"}}},
  };
  for (const Group group : groups)
    for (const Named& metric : kGroups.at(group))
      result.metric(metric.name, 0.0, metric.unit);
}

// ---------------------------------------------------------------------------
// Pipeline.

std::unique_ptr<Pipeline> build_pipeline(int n, bool broadcast,
                                         Trace& trace) {
  auto pipeline = std::make_unique<Pipeline>();
  Clock::time_point start = Clock::now();
  {
    Trace::Span span(trace, "czerner.build");
    pipeline->construction = czerner::build_construction(n);
  }
  pipeline->build_seconds = seconds_since(start);
  start = Clock::now();
  {
    Trace::Span span(trace, "compile.lower");
    pipeline->lowered = compile::lower_program(pipeline->construction.program);
  }
  pipeline->lower_seconds = seconds_since(start);
  start = Clock::now();
  {
    Trace::Span span(trace, "compile.convert");
    compile::ConversionOptions options;
    options.with_broadcast = broadcast;
    pipeline->conversion =
        compile::machine_to_protocol(pipeline->lowered.machine, options);
  }
  pipeline->convert_seconds = seconds_since(start);
  return pipeline;
}

std::unique_ptr<Pipeline> timed_setup(int n, bool broadcast, int min_reps,
                                      Trace& trace, Result& result) {
  std::vector<double> seconds;
  std::unique_ptr<Pipeline> pipeline;
  const bool traced = trace.enabled();
  trace.set_enabled(false);
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(seconds.size()) < min_reps ||
         seconds_since(start) < kMinSetupSeconds) {
    pipeline.reset();
    const Clock::time_point rep = Clock::now();
    pipeline = build_pipeline(n, broadcast, trace);
    seconds.push_back(seconds_since(rep));
  }
  result.metric("setup_s", median(seconds), "s");
  trace.set_enabled(traced);
  if (traced) {
    // One more build under the recorder: its spans and layer times are
    // the ones the traced run reports.
    pipeline.reset();
    pipeline = build_pipeline(n, broadcast, trace);
  }
  return pipeline;
}

void report_pipeline(const Pipeline& pipeline, Trace& trace,
                     Result& result) {
  const Clock::time_point start = Clock::now();
  std::shared_ptr<const isa::CompiledProtocol> compiled;
  {
    Trace::Span span(trace, "isa.compile");
    compiled = isa::CompiledProtocol::compile(pipeline.protocol());
  }
  const double isa_seconds = seconds_since(start);
  const isa::CompiledProtocol::RawTables& t = compiled->raw();
  const auto bytes = [](const auto& v) {
    return static_cast<double>(v.size() * sizeof(v[0]));
  };
  const double table_bytes =
      bytes(t.dense) + bytes(t.ph_disp) + bytes(t.ph_key) +
      bytes(t.ph_entry) + bytes(t.out_begin) + bytes(t.out_flat) +
      bytes(t.in_begin) + bytes(t.in_flat) + bytes(t.self_active) +
      bytes(t.cand_begin) + bytes(t.cand_flat) + bytes(t.cells) +
      bytes(t.active_bits) + bytes(t.any_bits);
  result.metric("czerner.build_s", pipeline.build_seconds, "s");
  result.metric("compile.lower_s", pipeline.lower_seconds, "s");
  result.metric("compile.convert_s",
                std::max(0.0, pipeline.convert_seconds - isa_seconds), "s");
  result.metric("isa.compile_s", isa_seconds, "s");
  result.metric("isa.transitions",
                static_cast<double>(pipeline.protocol().num_transitions()),
                "count");
  result.metric("isa.table_bytes", table_bytes, "bytes");
}

// ---------------------------------------------------------------------------
// Per-firing split.

namespace {

std::atomic<std::uint64_t> sink{0};

}  // namespace

void report_firing_split(const pp::Protocol& protocol,
                         const pp::Config& initial, std::uint64_t seed,
                         Trace& trace, Result& result) {
  Trace::Span span(trace, "engine.firing_split");
  // Step loop from the workload's initial configuration. A frozen run
  // restarts with the next seed, as the next trial would. The populated
  // states seen along the way are the pairs the lookup probe draws from.
  engine::CountSimulator sim(protocol, initial, seed);
  std::uint64_t restarts = 0;
  std::vector<char> seen(protocol.num_states(), 0);
  const double step_ns = ns_per_iteration([&](std::uint64_t iterations) {
    for (std::uint64_t i = 0; i < iterations; ++i) {
      if (sim.frozen()) sim.reset(initial, seed + ++restarts);
      sim.step();
    }
    const std::vector<std::uint32_t>& counts = sim.config().counts();
    for (std::size_t q = 0; q < counts.size(); ++q)
      if (counts[q] != 0) seen[q] = 1;
  });
  std::vector<pp::State> populated;
  for (std::size_t q = 0; q < seen.size(); ++q)
    if (seen[q]) populated.push_back(static_cast<pp::State>(q));

  support::Rng rng(seed);
  const std::uint64_t m = initial.total();
  const double draw_ns = ns_per_iteration([&](std::uint64_t iterations) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < iterations; ++i) acc += rng.below(m);
    sink += acc;
  });
  // Operands are drawn up front so the timed loops are the log and the
  // table probe alone.
  std::vector<double> units(4096);
  for (double& u : units) u = support::to_unit_open(rng());
  const double ln_ns = ns_per_iteration([&](std::uint64_t iterations) {
    double acc = 0.0;
    for (std::uint64_t i = 0; i < iterations; ++i)
      acc += std::log(units[i & 4095]);
    sink += static_cast<std::uint64_t>(-acc);
  });
  const isa::CompiledProtocol& compiled = protocol.compiled();
  std::vector<std::pair<pp::State, pp::State>> pairs(4096);
  for (auto& [q, r] : pairs) {
    q = populated[rng.below(populated.size())];
    r = populated[rng.below(populated.size())];
  }
  const double pair_ns = ns_per_iteration([&](std::uint64_t iterations) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < iterations; ++i) acc += pairs[i & 4095].first;
    sink += acc;
  });
  const double lookup_ns =
      ns_per_iteration([&](std::uint64_t iterations) {
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < iterations; ++i) {
          const auto& [q, r] = pairs[i & 4095];
          acc += compiled.entry_of(q, r);
        }
        sink += acc;
      }) -
      pair_ns;
  result.metric("engine.step_ns", step_ns, "ns");
  result.metric("engine.draw_ns", draw_ns, "ns");
  result.metric("engine.ln_ns", ln_ns, "ns");
  result.metric("isa.lookup_ns", std::max(0.0, lookup_ns), "ns");
  result.metric("engine.update_ns",
                step_ns - draw_ns - ln_ns - std::max(0.0, lookup_ns), "ns");
}

void report_self_times(const Trace& trace, Result& result) {
  const std::map<std::string, double> self = trace.self_seconds();
  for (const char* layer :
       {"czerner", "compile", "isa", "engine", "smc", "verify", "serve"}) {
    const auto it = self.find(layer);
    result.metric(std::string(layer) + ".self_s",
                  it == self.end() ? 0.0 : it->second, "s");
  }
}

}  // namespace bench
