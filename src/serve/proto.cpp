#include "serve/proto.hpp"

#include <bit>
#include <cstdio>
#include <stdexcept>

#include "smc/json.hpp"

namespace ppde::serve {

namespace {

void append_u64(std::string& out, std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%llu",
                static_cast<unsigned long long>(value));
  out += buffer;
}

void append_hex_string(std::string& out, std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "\"%016llx\"",
                static_cast<unsigned long long>(value));
  out += buffer;
}

std::uint64_t element_u64(const std::vector<Json>& fields, std::size_t i) {
  if (i >= fields.size())
    throw std::runtime_error("serve proto: short record array");
  return fields[i].as_u64();
}

std::uint64_t element_hex(const std::vector<Json>& fields, std::size_t i) {
  if (i >= fields.size())
    throw std::runtime_error("serve proto: short record array");
  return fields[i].as_hex_u64();
}

const std::string& element_str(const std::vector<Json>& fields,
                               std::size_t i) {
  if (i >= fields.size())
    throw std::runtime_error("serve proto: short record array");
  return fields[i].as_string();
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
}

// -- observability sidecar of a batch result (S29) --------------------------
//
// Trace events travel as compact arrays
//   ["name","cat",kind,ts_ns,dur_ns,tid,has_value,"value-bits"]
// with ts/dur as exact decimal u64 and the optional span value as the hex
// of its IEEE-754 bit pattern (the wire's standard double convention).
// Metric deltas are tagged by kind:
//   ["name",0,counter_delta]
//   ["name",1,"gauge-bits"]
//   ["name",2,count,sum,max,[[bucket,delta],...]]   (sparse buckets)

void append_trace_events(std::string& out,
                         const std::vector<obs::CapturedEvent>& events) {
  out += ",\"trace\":[";
  bool first = true;
  for (const obs::CapturedEvent& event : events) {
    if (!first) out += ',';
    first = false;
    out += '[';
    append_json_string(out, event.name);
    out += ',';
    append_json_string(out, event.cat);
    out += ',';
    append_u64(out, static_cast<std::uint64_t>(event.kind));
    out += ',';
    append_u64(out, event.ts_ns);
    out += ',';
    append_u64(out, event.dur_ns);
    out += ',';
    append_u64(out, event.tid);
    out += ',';
    out += event.has_value ? '1' : '0';
    out += ',';
    append_hex_string(out, std::bit_cast<std::uint64_t>(event.value));
    out += ']';
  }
  out += ']';
}

void append_metric_deltas(std::string& out,
                          const std::vector<obs::MetricSnapshot>& deltas) {
  out += ",\"metrics\":[";
  bool first = true;
  for (const obs::MetricSnapshot& delta : deltas) {
    if (!first) out += ',';
    first = false;
    out += '[';
    append_json_string(out, delta.name);
    out += ',';
    switch (delta.kind) {
      case obs::MetricKind::kCounter:
        out += '0';
        out += ',';
        append_u64(out, static_cast<std::uint64_t>(delta.value));
        break;
      case obs::MetricKind::kGauge:
        out += '1';
        out += ',';
        append_hex_string(out, std::bit_cast<std::uint64_t>(delta.value));
        break;
      case obs::MetricKind::kHistogram: {
        out += '2';
        out += ',';
        append_u64(out, delta.count);
        out += ',';
        append_u64(out, delta.sum);
        out += ',';
        append_u64(out, delta.max);
        out += ",[";
        bool first_bucket = true;
        for (std::size_t b = 0; b < delta.buckets.size(); ++b) {
          if (delta.buckets[b] == 0) continue;
          if (!first_bucket) out += ',';
          first_bucket = false;
          out += '[';
          append_u64(out, b);
          out += ',';
          append_u64(out, delta.buckets[b]);
          out += ']';
        }
        out += ']';
        break;
      }
    }
    out += ']';
  }
  out += ']';
}

std::vector<obs::CapturedEvent> parse_trace_events(const Json& array) {
  std::vector<obs::CapturedEvent> events;
  for (const Json& entry : array.items()) {
    const std::vector<Json>& fields = entry.items();
    obs::CapturedEvent event;
    event.name = element_str(fields, 0);
    event.cat = element_str(fields, 1);
    const std::uint64_t kind = element_u64(fields, 2);
    if (kind > static_cast<std::uint64_t>(obs::TraceEvent::Kind::kInstant))
      throw std::runtime_error("serve proto: bad trace event kind");
    event.kind = static_cast<obs::TraceEvent::Kind>(kind);
    event.ts_ns = element_u64(fields, 3);
    event.dur_ns = element_u64(fields, 4);
    event.tid = static_cast<std::uint32_t>(element_u64(fields, 5));
    event.has_value = element_u64(fields, 6) != 0;
    event.value = std::bit_cast<double>(element_hex(fields, 7));
    events.push_back(std::move(event));
  }
  return events;
}

std::vector<obs::MetricSnapshot> parse_metric_deltas(const Json& array) {
  std::vector<obs::MetricSnapshot> deltas;
  for (const Json& entry : array.items()) {
    const std::vector<Json>& fields = entry.items();
    obs::MetricSnapshot delta;
    delta.name = element_str(fields, 0);
    switch (element_u64(fields, 1)) {
      case 0:
        delta.kind = obs::MetricKind::kCounter;
        delta.value = static_cast<double>(element_u64(fields, 2));
        break;
      case 1:
        delta.kind = obs::MetricKind::kGauge;
        delta.value = std::bit_cast<double>(element_hex(fields, 2));
        break;
      case 2: {
        delta.kind = obs::MetricKind::kHistogram;
        delta.count = element_u64(fields, 2);
        delta.sum = element_u64(fields, 3);
        delta.max = element_u64(fields, 4);
        if (fields.size() < 6)
          throw std::runtime_error("serve proto: short histogram delta");
        for (const Json& pair : fields[5].items()) {
          const std::vector<Json>& parts = pair.items();
          const std::uint64_t bucket = element_u64(parts, 0);
          if (bucket >= obs::Histogram::kBuckets)
            throw std::runtime_error("serve proto: bad histogram bucket");
          if (delta.buckets.size() <= bucket)
            delta.buckets.resize(bucket + 1, 0);
          delta.buckets[bucket] = element_u64(parts, 1);
        }
        break;
      }
      default:
        throw std::runtime_error("serve proto: bad metric delta kind");
    }
    deltas.push_back(std::move(delta));
  }
  return deltas;
}

}  // namespace

std::string encode_query(const QueryParams& query) {
  smc::JsonWriter json;
  json.field("req", std::string_view(query.req));
  json.field("n", query.n);
  json.field("extra", static_cast<std::uint64_t>(query.extra));
  json.field("trials", query.trials);
  json.field("seed", query.seed);
  json.field("delta", query.delta);
  json.field("indifference", query.indifference);
  json.field("alpha", query.alpha);
  json.field("beta", query.beta);
  json.field("window", query.window);
  json.field("budget", query.budget);
  json.field("shard", query.shard);
  if (!query.scenario.empty())
    json.field("scenario", std::string_view(query.scenario));
  if (!query.format.empty())
    json.field("format", std::string_view(query.format));
  if (query.recent != 0) json.field("recent", query.recent);
  return json.finish();
}

QueryParams parse_query(const Json& json) {
  QueryParams query;
  query.req = json.str("req", "");
  if (query.req.empty())
    throw std::runtime_error("serve proto: query without a req field");
  query.n = static_cast<int>(json.u64("n", 1));
  query.extra = static_cast<std::uint32_t>(json.u64("extra", 0));
  query.trials = json.u64("trials", query.trials);
  query.seed = json.u64("seed", query.seed);
  query.delta = json.dbl("delta", query.delta);
  query.indifference = json.dbl("indifference", query.indifference);
  query.alpha = json.dbl("alpha", query.alpha);
  query.beta = json.dbl("beta", query.beta);
  query.window = json.u64("window", query.window);
  query.budget = json.u64("budget", query.budget);
  query.shard = json.u64("shard", 0);
  query.scenario = json.str("scenario", "");
  query.format = json.str("format", "");
  query.recent = json.u64("recent", 0);
  return query;
}

smc::CertifyOptions certify_options_of(const QueryParams& query) {
  smc::CertifyOptions options;
  options.delta = query.delta;
  options.indifference = query.indifference;
  options.alpha = query.alpha;
  options.beta = query.beta;
  options.max_trials = query.trials;
  options.seed = query.seed;
  options.sim.stable_window = query.window;
  options.sim.max_interactions = query.budget;
  // Throws std::invalid_argument on a malformed descriptor — callers
  // reject the query at admission (handle_connection) before any work.
  if (!query.scenario.empty())
    options.scenario = sched::Scenario::parse(query.scenario);
  return options;
}

std::string encode_error(const std::string& message, bool busy) {
  smc::JsonWriter json;
  json.field("ok", false);
  json.field("error", std::string_view(message));
  if (busy) json.field("busy", true);
  return json.finish();
}

std::string encode_batch_request(const BatchRequest& request) {
  smc::JsonWriter json;
  json.field("op", std::string_view("batch"));
  json.field("kind",
             std::string_view(request.ensemble ? "ensemble" : "certify"));
  json.field("n", request.n);
  json.field("extra", static_cast<std::uint64_t>(request.extra));
  json.field("expected", request.expected);
  json.field("seed", request.seed);
  json.field("first", request.first);
  json.field("count", request.count);
  json.field("window", request.window);
  json.field("budget", request.budget);
  if (!request.scenario.empty())
    json.field("scenario", std::string_view(request.scenario));
  if (request.trace_id != 0) json.field("trace_id", request.trace_id);
  return json.finish();
}

BatchRequest parse_batch_request(const Json& json) {
  if (json.str("op", "") != "batch")
    throw std::runtime_error("serve proto: expected a batch op");
  BatchRequest request;
  request.ensemble = json.str("kind", "certify") == "ensemble";
  request.n = static_cast<int>(json.u64("n", 1));
  request.extra = static_cast<std::uint32_t>(json.u64("extra", 0));
  request.expected = json.boolean("expected", false);
  request.seed = json.u64("seed", 0);
  request.first = json.u64("first", 0);
  request.count = json.u64("count", 0);
  request.window = json.u64("window", 90'000'000);
  request.budget = json.u64("budget", 2'000'000'000);
  request.scenario = json.str("scenario", "");
  request.trace_id = json.u64("trace_id", 0);
  return request;
}

std::string encode_exit() { return R"({"op":"exit"})"; }

bool is_exit(const Json& json) { return json.str("op", "") == "exit"; }

EnsembleRecord make_ensemble_record(std::uint64_t trial,
                                    const engine::TrialResult& result) {
  EnsembleRecord record;
  record.trial = trial;
  record.stabilised = result.sim.stabilised;
  record.output = result.sim.output;
  record.interactions = result.sim.interactions;
  record.parallel_time_bits =
      std::bit_cast<std::uint64_t>(result.sim.parallel_time);
  record.meetings = result.metrics.meetings;
  record.firings = result.metrics.firings;
  record.null_skip_batches = result.metrics.null_skip_batches;
  record.skipped_meetings = result.metrics.skipped_meetings;
  record.consensus_flips = result.metrics.consensus_flips;
  record.weight_updates = result.metrics.weight_updates;
  record.tree_descents = result.metrics.tree_descents;
  return record;
}

engine::TrialResult to_trial_result(const EnsembleRecord& record) {
  engine::TrialResult result;
  result.sim.stabilised = record.stabilised;
  result.sim.output = record.output;
  result.sim.interactions = record.interactions;
  result.sim.parallel_time = std::bit_cast<double>(record.parallel_time_bits);
  result.metrics.meetings = record.meetings;
  result.metrics.firings = record.firings;
  result.metrics.null_skip_batches = record.null_skip_batches;
  result.metrics.skipped_meetings = record.skipped_meetings;
  result.metrics.consensus_flips = record.consensus_flips;
  result.metrics.weight_updates = record.weight_updates;
  result.metrics.tree_descents = record.tree_descents;
  return result;
}

std::string encode_batch_result(const BatchResult& result, bool ensemble) {
  std::string out = R"({"op":"result","first":)";
  append_u64(out, result.first);
  out += ",\"records\":[";
  bool first_record = true;
  if (!ensemble) {
    for (const smc::TrialRecord& record : result.records) {
      if (!first_record) out += ',';
      first_record = false;
      out += '[';
      append_u64(out, record.trial);
      out += ',';
      out += record.success ? '1' : '0';
      out += ',';
      out += record.stabilised ? '1' : '0';
      out += ',';
      append_hex_string(out, record.time_bits);
      out += ',';
      append_u64(out, record.meetings);
      out += ',';
      append_u64(out, record.firings);
      out += ']';
    }
  } else {
    for (const EnsembleRecord& record : result.ensemble_records) {
      if (!first_record) out += ',';
      first_record = false;
      out += '[';
      append_u64(out, record.trial);
      out += ',';
      out += record.stabilised ? '1' : '0';
      out += ',';
      out += record.output ? '1' : '0';
      out += ',';
      append_u64(out, record.interactions);
      out += ',';
      append_hex_string(out, record.parallel_time_bits);
      for (const std::uint64_t value :
           {record.meetings, record.firings, record.null_skip_batches,
            record.skipped_meetings, record.consensus_flips,
            record.weight_updates, record.tree_descents}) {
        out += ',';
        append_u64(out, value);
      }
      out += ']';
    }
  }
  out += ']';
  if (result.worker_pid != 0) {
    out += ",\"pid\":";
    append_u64(out, result.worker_pid);
  }
  if (!result.trace.empty()) append_trace_events(out, result.trace);
  if (!result.metric_deltas.empty())
    append_metric_deltas(out, result.metric_deltas);
  out += '}';
  return out;
}

BatchResult parse_batch_result(const Json& json, bool ensemble) {
  if (json.str("op", "") != "result")
    throw std::runtime_error("serve proto: expected a result op");
  BatchResult result;
  result.first = json.u64("first", 0);
  const Json* records = json.find("records");
  if (records == nullptr)
    throw std::runtime_error("serve proto: result without records");
  for (const Json& entry : records->items()) {
    const std::vector<Json>& fields = entry.items();
    if (!ensemble) {
      smc::TrialRecord record;
      record.trial = element_u64(fields, 0);
      record.success = element_u64(fields, 1) != 0;
      record.stabilised = element_u64(fields, 2) != 0;
      record.time_bits = element_hex(fields, 3);
      record.meetings = element_u64(fields, 4);
      record.firings = element_u64(fields, 5);
      result.records.push_back(record);
    } else {
      EnsembleRecord record;
      record.trial = element_u64(fields, 0);
      record.stabilised = element_u64(fields, 1) != 0;
      record.output = element_u64(fields, 2) != 0;
      record.interactions = element_u64(fields, 3);
      record.parallel_time_bits = element_hex(fields, 4);
      record.meetings = element_u64(fields, 5);
      record.firings = element_u64(fields, 6);
      record.null_skip_batches = element_u64(fields, 7);
      record.skipped_meetings = element_u64(fields, 8);
      record.consensus_flips = element_u64(fields, 9);
      record.weight_updates = element_u64(fields, 10);
      record.tree_descents = element_u64(fields, 11);
      result.ensemble_records.push_back(record);
    }
  }
  result.worker_pid = json.u64("pid", 0);
  if (const Json* trace = json.find("trace"))
    result.trace = parse_trace_events(*trace);
  if (const Json* metrics = json.find("metrics"))
    result.metric_deltas = parse_metric_deltas(*metrics);
  return result;
}

}  // namespace ppde::serve
