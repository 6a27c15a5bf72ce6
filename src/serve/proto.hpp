// Message schemas of the serve protocol (S25).
//
// Two conversations share the same frame format (serve/wire.hpp):
//
//   client <-> daemon      {"req":"certify"|"ensemble"|"stats"|"shutdown",
//                           ...query parameters...}
//                          -> {"ok":true, ...} | {"ok":false,"error":...}
//   daemon <-> worker      {"op":"batch", kind, n, extra, expected, seed,
//                           first, count, window, budget}
//                          -> {"op":"result","first",...,"records":[...]}
//                          {"op":"exit"}
//
// Trial records travel as compact JSON arrays, with every 64-bit integer
// as a decimal number (exact — the wire parser re-reads the raw token via
// strtoull) and every double as the hex string of its IEEE-754 bit
// pattern, so a record crosses the wire bit-identically and the
// coordinator's canonical fold (smc/partial.hpp) sees exactly what an
// in-process fold would.
//
// Parsers ignore fields they do not know. A "batch" width or a "dispatch"
// core sent by older clients and daemons is dropped that way: neither
// ever changed a record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/ensemble.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/wire.hpp"
#include "smc/certify.hpp"
#include "smc/partial.hpp"

namespace ppde::serve {

// ---------------------------------------------------------------------------
// Client <-> daemon.

/// One client query. For req == "certify", `trials` is the SPRT trial
/// budget (CertifyOptions::max_trials); for "ensemble" it is the exact
/// fleet size. `shard` (certify/ensemble) overrides the daemon's per-batch
/// dispatch size; 0 keeps the server default. Defaults mirror the CLI
/// `certify` flag defaults so a client request omitting a field means the
/// same thing as the CLI omitting the flag.
struct QueryParams {
  std::string req = "certify";
  int n = 1;
  std::uint32_t extra = 0;
  std::uint64_t trials = 4096;
  std::uint64_t seed = 42;
  double delta = 0.01;
  double indifference = 0.05;
  double alpha = 0.01;
  double beta = 0.01;
  std::uint64_t window = 90'000'000;
  std::uint64_t budget = 2'000'000'000;
  std::uint64_t shard = 0;
  /// Stress scenario descriptor (S27), e.g. "ring+corrupt:0.001". Empty
  /// means the default scenario (uniform scheduler, no faults) and — like
  /// the digest-scoping rule it mirrors — is omitted from the encoded
  /// query, so pre-S27 clients and servers interoperate unchanged. A
  /// malformed descriptor is rejected at admission with an error frame.
  std::string scenario{};
  /// Stats-only (S29): "" = the JSON reply, "prometheus" = wrap the
  /// text exposition in {"ok":true,"prometheus":"..."}. Omitted when
  /// empty (pre-S29 interop).
  std::string format{};
  /// Stats-only (S29): return the newest N flight-recorder records as a
  /// "recent" array. 0 (omitted on the wire) disables.
  std::uint64_t recent = 0;
};

std::string encode_query(const QueryParams& query);
QueryParams parse_query(const Json& json);

/// The CertifyOptions a query denotes (threads/batch are irrelevant
/// server-side — sharding replaces them — and left at defaults; neither
/// is part of the certificate payload).
smc::CertifyOptions certify_options_of(const QueryParams& query);

std::string encode_error(const std::string& message, bool busy = false);

// ---------------------------------------------------------------------------
// Daemon <-> worker.

struct BatchRequest {
  bool ensemble = false;  ///< certify record shape otherwise
  int n = 1;
  std::uint32_t extra = 0;
  bool expected = false;  ///< certify: the output being certified
  std::uint64_t seed = 0;
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  std::uint64_t window = 0;
  std::uint64_t budget = 0;
  /// Scenario descriptor, forwarded verbatim ("" = default, field omitted
  /// on the wire — workers predating S27 only ever see default batches).
  std::string scenario{};
  /// Distributed tracing (S29): the daemon's query_seq for the query
  /// this batch belongs to, 0 (omitted on the wire) when the daemon is
  /// not tracing. A nonzero id asks the worker to run the batch under a
  /// capture-mode tracer and ship the drained span deltas back in the
  /// result; a pre-S29 worker ignores it and ships identical records.
  std::uint64_t trace_id = 0;
};

std::string encode_batch_request(const BatchRequest& request);
/// Throws std::runtime_error unless `json` is a batch op.
BatchRequest parse_batch_request(const Json& json);

std::string encode_exit();
bool is_exit(const Json& json);

/// One ensemble trial's wire record: exactly the TrialResult fields
/// engine::aggregate and the ensemble JSONL summary consume (per-trial
/// wall/CPU time is an execution record, not a statistic, and stays
/// process-local).
struct EnsembleRecord {
  std::uint64_t trial = 0;
  bool stabilised = false;
  bool output = false;
  std::uint64_t interactions = 0;
  std::uint64_t parallel_time_bits = 0;
  std::uint64_t meetings = 0;
  std::uint64_t firings = 0;
  std::uint64_t null_skip_batches = 0;
  std::uint64_t skipped_meetings = 0;
  std::uint64_t consensus_flips = 0;
  std::uint64_t weight_updates = 0;

  bool operator==(const EnsembleRecord&) const = default;
};

EnsembleRecord make_ensemble_record(std::uint64_t trial,
                                    const engine::TrialResult& result);
/// Inverse of make_ensemble_record up to the unshipped fields (seed,
/// consensus_since, wall) — everything aggregate() reads round-trips.
engine::TrialResult to_trial_result(const EnsembleRecord& record);

struct BatchResult {
  std::uint64_t first = 0;
  std::vector<smc::TrialRecord> records;           ///< certify batches
  std::vector<EnsembleRecord> ensemble_records;    ///< ensemble batches
  /// Observability sidecar (S29). None of it feeds the canonical fold:
  /// parse_batch_result round-trips records identically whether these
  /// fields are present, absent, or dropped by an old peer.
  std::uint64_t worker_pid = 0;  ///< producing process, for track groups
  std::vector<obs::CapturedEvent> trace;  ///< drained worker span deltas
  std::vector<obs::MetricSnapshot> metric_deltas;  ///< registry deltas
};

std::string encode_batch_result(const BatchResult& result, bool ensemble);
/// Throws std::runtime_error unless `json` is a result op of the expected
/// shape.
BatchResult parse_batch_result(const Json& json, bool ensemble);

}  // namespace ppde::serve
