// Shared plumbing of the ppde benchmark: clocks and order statistics, the
// in-memory span recorder of traced runs, the result record (metrics,
// attempted/failed operations, correctness gates) and the protocol
// pipeline every workload builds through the library's public entry
// points.
//
// Nothing here reaches inside src/: spans wrap the benchmark's own calls
// into each module, so a traced run executes exactly the library code an
// untraced run does.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "pp/config.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double median(std::vector<double> values);

/// Linearly interpolated quantile q in [0, 1]; 0 when empty.
double quantile(std::vector<double> values, double q);

/// Peak resident set of this process and its reaped children, in MiB.
double peak_rss_mb();

/// Run `body(iterations)` in doubling batches until it has taken at least
/// `min_seconds`; returns nanoseconds per iteration.
template <typename Body>
double ns_per_iteration(Body&& body, double min_seconds = 0.15) {
  std::uint64_t iterations = 1024, total = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < min_seconds) {
    body(iterations);
    total += iterations;
    iterations *= 2;
    elapsed = seconds_since(start);
  }
  return elapsed * 1e9 / static_cast<double>(total);
}

// ---------------------------------------------------------------------------
// Spans.

/// In-memory span recorder. A span carries a name ("<layer>.<what>", the
/// layer being a src/ module name), start, end and the index of its
/// parent span. Spans stay in memory until write() at the end of the run.
/// A disabled recorder records nothing.
class Trace {
 public:
  static constexpr std::int64_t kRoot = -1;

  struct Record {
    std::string name;
    double start = 0.0;  ///< seconds since the recorder was created
    double end = 0.0;
    std::int64_t parent = kRoot;
    unsigned thread = 0;  ///< small per-thread index, for the trace viewer
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_.load(); }
  /// Pause or resume recording: a traced run times its untraced baseline
  /// job with recording paused.
  void set_enabled(bool enabled) { enabled_.store(enabled); }

  /// RAII span. Without an explicit parent, the parent is the innermost
  /// span still open on the calling thread; pool threads pass the id of
  /// the span that caused their work.
  class Span {
   public:
    Span(Trace& trace, std::string name);
    Span(Trace& trace, std::string name, std::int64_t parent);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Index of this span's record, or kRoot when tracing is off.
    std::int64_t id() const { return id_; }

   private:
    Trace& trace_;
    std::int64_t id_ = kRoot;
    bool on_stack_ = false;
  };

  /// Self time per layer: each span's duration minus the part of its
  /// interval that its children cover, summed over the layer's spans.
  std::map<std::string, double> self_seconds() const;

  /// Write every span as a Chrome trace-event JSON array.
  void write(const std::string& path) const;

 private:
  std::int64_t open(std::string name, std::int64_t parent);
  void close(std::int64_t id);
  std::vector<Record> records() const;

  std::atomic<bool> enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
};

// ---------------------------------------------------------------------------
// Results and gates.

/// Expected values of the correctness gates. Every gate reads its
/// expectation through here, so `--expect name=value` can replace any of
/// them; the benchmark's self-test uses that to show each gate trips.
class Expectations {
 public:
  void set(const std::string& name, const std::string& value);
  std::uint64_t u64(const std::string& name, std::uint64_t fallback) const;
  std::string str(const std::string& name, const std::string& fallback) const;

 private:
  std::map<std::string, std::string> overrides_;
};

/// One run's outcome: every operation attempted (jobs, queries and gate
/// checks), those that failed, and the metrics.
class Result {
 public:
  /// Count one operation; a failed one also counts against `failed`.
  void operation(bool ok, const std::string& what);
  /// Count one correctness gate as an operation. Returns `ok`.
  bool gate(const std::string& name, bool ok, const std::string& detail);
  /// Set (or replace) a metric.
  void metric(const std::string& name, double value, const std::string& unit);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// {"attempted","failed","gates":[...],"errors":[...],"metrics":{...}}
  /// on one line.
  std::string to_json() const;

 private:
  struct Gate {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Gate> gates_;
  std::vector<std::string> errors_;
  std::map<std::string, Metric> metrics_;
};

/// Per-layer metric groups a workload may leave idle. A traced run reports
/// every per-layer metric; those of a group the workload never exercises
/// read 0 (no work done, no time spent).
enum class Group { kSplit, kTrials, kSmc, kVerify, kServe };

/// Set every metric of `groups` to 0; the workload then overwrites the
/// ones it measures.
void report_idle(Result& result, const std::vector<Group>& groups);

// ---------------------------------------------------------------------------
// The paper's pipeline: construction -> lowering -> conversion.

/// Construction n, its population machine and protocol. Heap-held because
/// the conversion keeps a pointer to the lowered machine.
struct Pipeline {
  ppde::czerner::Construction construction;
  ppde::compile::LoweredMachine lowered;
  ppde::compile::ProtocolConversion conversion;
  double build_seconds = 0.0;  ///< czerner::build_construction
  double lower_seconds = 0.0;  ///< compile::lower_program
  double convert_seconds = 0.0;  ///< machine_to_protocol, isa included

  const ppde::pp::Protocol& protocol() const { return conversion.protocol; }
  /// The converted protocol's input configuration |F| + extra.
  ppde::pp::Config initial(std::uint64_t extra) const {
    return conversion.initial_config(conversion.num_pointers + extra);
  }
};

/// Build construction n and convert it, with or without the output
/// broadcast, timing each layer and recording one span per layer call.
std::unique_ptr<Pipeline> build_pipeline(int n, bool broadcast, Trace& trace);

/// Set-up repetitions continue until they have taken this long, so that
/// a set-up of a few milliseconds is still a median over many builds.
inline constexpr double kMinSetupSeconds = 0.5;

/// Build the pipeline at least `min_reps` times, and until
/// kMinSetupSeconds have passed, with the recorder paused, and report the
/// median as setup_s. Returns the last build; a traced run builds once
/// more under the recorder and returns that build.
std::unique_ptr<Pipeline> timed_setup(int n, bool broadcast, int min_reps,
                                      Trace& trace, Result& result);

/// Per-layer metrics of the pipeline (czerner/compile/isa). Times
/// isa::CompiledProtocol::compile on the finished protocol once more to
/// split it out of the conversion time.
void report_pipeline(const Pipeline& pipeline, Trace& trace, Result& result);

/// The per-firing split (engine.step_ns, draw, ln, isa.lookup, derived
/// update) on `protocol` from `initial`, timed through public calls.
void report_firing_split(const ppde::pp::Protocol& protocol,
                         const ppde::pp::Config& initial, std::uint64_t seed,
                         Trace& trace, Result& result);

/// `<layer>.self_s` for every layer, from the recorded spans.
void report_self_times(const Trace& trace, Result& result);

}  // namespace bench
