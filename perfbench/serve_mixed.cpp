// serve-mixed: an in-process serve::Server with 4 forked workers, driven
// as a closed loop by 3 client connections (each caller waits for its
// reply) with 9 short certify queries for every ensemble query. Short
// queries are bound by wire marshalling, admission, speculative dispatch,
// the fold and transport; the ensembles keep workers busy, so queueing
// and head-of-line blocking show. A throughput gain that costs latency
// shows here.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <tuple>

#include "bignum/nat.hpp"
#include "engine/executor.hpp"
#include "serve/client.hpp"
#include "serve/proto.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "smc/json.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace bench {

using namespace ppde;

namespace {

constexpr unsigned kWorkers = 4;
constexpr unsigned kClients = 3;
/// Queries in the measured mix per second of --seconds. The mix is a
/// fixed amount of work, so run_s and queries_per_s measure the server
/// rather than the length of the run.
constexpr double kQueriesPerSecond = 50.0;
constexpr std::uint64_t kSegments = 6;
/// Certify replies checked against an in-process smc::certify.
constexpr std::uint64_t kDigestSamples = 6;

/// Query k of the mix: every tenth is an ensemble, the rest certify, each
/// with its own seed derived from the workload seed.
serve::QueryParams mix_query(std::uint64_t workload_seed, std::uint64_t k) {
  serve::QueryParams query;
  query.n = 1;
  query.extra = 8;  // population 22
  query.seed = support::derive_trial_seed(workload_seed, k);
  if (k % 10 == 9) {
    query.req = "ensemble";
    query.trials = 8;
    query.window = 90'000'000;
    query.budget = 50'000'000;
    query.shard = 1;
  } else {
    query.req = "certify";
    query.trials = 24;
    query.delta = 0.1;
    query.indifference = 0.8;
    query.window = 1'000'000;
    query.budget = 100'000'000;
    query.shard = 4;
  }
  return query;
}

/// A server with its accept loop running; stops and joins on destruction.
class Fleet {
 public:
  Fleet() : server_(options()), runner_([this] { server_.run(); }) {}
  ~Fleet() {
    server_.request_stop();
    runner_.join();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::string hostport() const {
    return "127.0.0.1:" + std::to_string(server_.port());
  }

 private:
  static serve::ServerOptions options() {
    serve::ServerOptions options;
    options.workers = kWorkers;
    return options;
  }

  serve::Server server_;
  std::thread runner_;
};

struct Reply {
  std::uint64_t k = 0;
  double seconds = 0.0;
  double done = 0.0;  ///< completion, in seconds since the mix started
  bool ok = false;
  std::string text;
};

/// One query's round trip; `ok` iff the reply carries `success`
/// ("ok":true unless a test expects otherwise).
Reply ask(const std::string& hostport, const serve::QueryParams& query,
          std::uint64_t k, const std::string& success = "\"ok\":true") {
  Reply reply;
  reply.k = k;
  std::string error;
  const Clock::time_point start = Clock::now();
  const bool sent =
      serve::rpc(hostport, serve::encode_query(query), &reply.text, &error);
  reply.seconds = seconds_since(start);
  if (!sent) reply.text = "rpc failed: " + error;
  reply.ok = sent && reply.text.find(success) != std::string::npos;
  return reply;
}

/// Run the first `count` queries of the mix on kClients closed-loop
/// connections. Returns replies indexed by k and the mix's wall time.
std::vector<Reply> run_mix(const std::string& hostport, std::uint64_t seed,
                           std::uint64_t count, const std::string& success,
                           Trace& trace, double* seconds) {
  std::vector<Reply> replies(count);
  std::atomic<std::uint64_t> next{0};
  const Clock::time_point start = Clock::now();
  {
    Trace::Span mix(trace, "serve.mix");
    const std::int64_t parent = mix.id();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c)
      clients.emplace_back([&] {
        for (std::uint64_t k = next++; k < count; k = next++) {
          const serve::QueryParams query = mix_query(seed, k);
          Trace::Span span(trace, "serve." + query.req, parent);
          replies[k] = ask(hostport, query, k, success);
          replies[k].done = seconds_since(start);
        }
      });
    for (std::thread& client : clients) client.join();
  }
  *seconds = seconds_since(start);
  return replies;
}

/// The certificate digest of a certify reply, or "" if it carries none.
std::string digest_of(const std::string& reply) {
  try {
    const serve::Json json = serve::Json::parse(reply);
    const serve::Json* certificate = json.find("certificate");
    return certificate ? certificate->str("digest", "") : "";
  } catch (const std::exception&) {
    return "";
  }
}

serve::Json stats(const std::string& hostport, double* seconds) {
  serve::QueryParams query;
  query.req = "stats";
  const Reply reply = ask(hostport, query, 0);
  *seconds = reply.seconds;
  if (!reply.ok) throw std::runtime_error("stats: " + reply.text);
  return serve::Json::parse(reply.text);
}

double metric_of(const serve::Json& stats, const std::string& name,
                 const std::string& field = "") {
  const serve::Json* metrics = stats.find("metrics");
  const serve::Json* metric = metrics ? metrics->find(name) : nullptr;
  if (metric == nullptr) return 0.0;
  return field.empty() ? metric->as_double() : metric->dbl(field, 0.0);
}

/// Mean microseconds of one `call()`.
template <typename Call>
double us_per_call(Call&& call) {
  return ns_per_iteration([&](std::uint64_t iterations) {
           for (std::uint64_t i = 0; i < iterations; ++i) call();
         }) /
         1e3;
}

/// Frame marshalling of one certify batch (4 trial records, the mix's
/// certify shard) and one ensemble batch (1 record, its ensemble shard),
/// built from real trial outcomes.
void report_frames(const Pipeline& pipeline, std::uint64_t seed,
                   Trace& trace, Result& result) {
  Trace::Span span(trace, "serve.frames");
  const serve::QueryParams certify = mix_query(seed, 0);
  const serve::QueryParams ensemble = mix_query(seed, 9);
  const pp::Config initial = pipeline.initial(certify.extra);
  serve::BatchRequest request{false, 1, certify.extra, true, certify.seed, 0,
                              4, certify.window, certify.budget};
  std::string text;
  result.metric(
      "serve.encode_batch_request_us",
      us_per_call([&] { text = serve::encode_batch_request(request); }), "us");

  const std::vector<smc::TrialOutcome> outcomes = smc::run_outcome_range(
      pipeline.protocol(), initial, true, serve::certify_options_of(certify),
      0, 4, 1);
  serve::BatchResult four;
  for (std::uint64_t i = 0; i < outcomes.size(); ++i)
    four.records.push_back(smc::make_trial_record(i, outcomes[i]));
  engine::TrialExecutor executor(pipeline.protocol(),
                                 engine::EngineKind::kCountNullSkip,
                                 isa::Dispatch::kBytecode, {}, 1);
  pp::SimulationOptions sim;
  sim.stable_window = ensemble.window;
  sim.max_interactions = ensemble.budget;
  serve::BatchResult one;
  one.ensemble_records.push_back(serve::make_ensemble_record(
      0, executor.run(0, initial, support::derive_trial_seed(ensemble.seed, 0),
                      sim)));

  for (const auto& [frame, is_ensemble, suffix] :
       {std::tuple{&four, false, ""}, std::tuple{&one, true, ".1trial"}}) {
    result.metric(std::string("serve.encode_batch_result_us") + suffix,
                  us_per_call([&, frame = frame, is_ensemble = is_ensemble] {
                    text = serve::encode_batch_result(*frame, is_ensemble);
                  }),
                  "us");
    result.metric(std::string("serve.frame_bytes") + suffix,
                  static_cast<double>(text.size()), "bytes");
    serve::BatchResult parsed;
    result.metric(std::string("serve.parse_batch_result_us") + suffix,
                  us_per_call([&, is_ensemble = is_ensemble] {
                    parsed = serve::parse_batch_result(serve::Json::parse(text),
                                                       is_ensemble);
                  }),
                  "us");
    const bool round_trip = is_ensemble
                                ? parsed.ensemble_records ==
                                      frame->ensemble_records
                                : parsed.records == frame->records;
    result.gate(std::string("serve.frame_round_trip") + suffix, round_trip,
                std::to_string(text.size()) + " bytes");
  }
}

}  // namespace

void serve_mixed(const RunOptions& run, Trace& trace, Result& result) {
  // Setup is the fork of the worker pool plus a warm-up ensemble of one
  // single-trial batch per worker, so the workers have built their
  // protocol. The server must fork before this process starts any thread,
  // so each set-up repetition stops its fleet, joining every thread,
  // before the next forks.
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setup;
  for (int rep = 0; rep < (run.tiny ? 1 : 3); ++rep) {
    fleet.reset();
    const Clock::time_point start = Clock::now();
    fleet = std::make_unique<Fleet>();
    serve::QueryParams warm = mix_query(run.seed, 9);
    warm.trials = kWorkers;
    warm.budget = 100'000;
    const Reply reply = ask(fleet->hostport(), warm, 0);
    setup.push_back(seconds_since(start));
    result.operation(reply.ok, "warm-up: " + reply.text);
  }
  result.metric("setup_s", median(setup), "s");
  const std::string hostport = fleet->hostport();

  const auto count = static_cast<std::uint64_t>(
      std::max(60.0, kQueriesPerSecond * run.seconds));
  const std::string success = run.expect.str("serve.reply", "\"ok\":true");
  trace.set_enabled(false);
  double seconds = 0.0;
  const std::vector<Reply> replies =
      run_mix(hostport, run.seed, count, success, trace, &seconds);
  trace.set_enabled(run.traced);

  std::vector<double> certify_seconds, ensemble_seconds;
  for (const Reply& reply : replies) {
    result.operation(reply.ok, "query " + std::to_string(reply.k) + ": " +
                                   reply.text.substr(0, 200));
    (reply.k % 10 == 9 ? ensemble_seconds : certify_seconds)
        .push_back(reply.seconds);
  }
  // The mix's wall time, robust to a burst of host noise: completions are
  // cut into kSegments equal runs, and run_s is kSegments times the
  // median segment's duration.
  std::vector<double> done;
  for (const Reply& reply : replies) done.push_back(reply.done);
  std::sort(done.begin(), done.end());
  std::vector<double> segments;
  for (std::uint64_t i = 0; i < kSegments; ++i) {
    const std::uint64_t first = i * count / kSegments;
    const std::uint64_t last = (i + 1) * count / kSegments - 1;
    segments.push_back(done[last] - (first == 0 ? 0.0 : done[first - 1]));
  }
  const double run_seconds = median(segments) * kSegments;
  result.metric("run_s", run_seconds, "s");
  result.metric("queries_per_s", static_cast<double>(count) / run_seconds,
                "1/s");
  result.metric("certify_p50_ms", median(certify_seconds) * 1e3, "ms");
  result.metric("certify_p95_ms", quantile(certify_seconds, 0.95) * 1e3, "ms");
  result.metric("ensemble_p50_ms", median(ensemble_seconds) * 1e3, "ms");

  // Sampled certify replies against in-process smc::certify of the same
  // query; the protocol is built only now, after every fork.
  std::unique_ptr<Pipeline> pipeline = build_pipeline(1, true, trace);
  for (std::uint64_t s = 0; s < kDigestSamples; ++s) {
    const std::uint64_t k = s * count / kDigestSamples / 10 * 10;  // certify
    const serve::QueryParams query = mix_query(run.seed, k);
    smc::CertifyOptions options = serve::certify_options_of(query);
    options.threads = run.threads;
    const bool expected =
        bignum::Nat(query.extra) >= czerner::Construction::threshold(query.n);
    const std::string local = serve::Json::parse(smc::to_jsonl(smc::certify(
        pipeline->protocol(), pipeline->initial(query.extra), expected,
        options))).str("digest", "");
    const std::string served = digest_of(replies[k].text);
    result.gate("serve.digest",
                served == run.expect.str("serve.digest", local),
                "query " + std::to_string(k) + ": served " + served +
                    ", in-process " + local);
  }
  if (!run.traced) return;

  // Traced mix: the same queries again, one span per query, with a stats
  // poller reading admission and queue depth from the daemon.
  double rpc_seconds = 0.0;
  const serve::Json before = stats(hostport, &rpc_seconds);
  std::atomic<bool> mixing{true};
  std::vector<double> rpc_ms;
  double queue_depth_max = 0.0;
  std::string poll_error;
  std::thread poller([&] {
    try {
      while (mixing.load()) {
        double rpc = 0.0;
        {
          Trace::Span span(trace, "serve.stats");
          queue_depth_max = std::max(
              queue_depth_max, stats(hostport, &rpc).dbl("queue_depth", 0.0));
        }
        rpc_ms.push_back(rpc * 1e3);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    } catch (const std::exception& error) {
      poll_error = error.what();
    }
  });
  double traced_seconds = 0.0;
  std::vector<Reply> traced;
  try {
    traced = run_mix(hostport, run.seed, count, success, trace,
                     &traced_seconds);
  } catch (...) {
    mixing = false;
    poller.join();
    throw;
  }
  mixing = false;
  poller.join();
  result.operation(poll_error.empty(), "stats poll: " + poll_error);
  const serve::Json after = stats(hostport, &rpc_seconds);

  bool same = true;
  for (std::uint64_t k = 0; k < count; ++k)
    same = same && traced[k].ok && (k % 10 == 9 ||
                                    digest_of(traced[k].text) ==
                                        digest_of(replies[k].text));
  result.gate("serve.traced_digests", same,
              std::to_string(count) + " queries replayed");
  report_overhead(traced_seconds, seconds, result);

  double useful = 0.0;
  for (const Reply& reply : traced) {
    if (!reply.ok) continue;
    const serve::Json json = serve::Json::parse(reply.text);
    const serve::Json* body = json.find("certificate");
    if (body == nullptr) body = json.find("summary");
    if (body != nullptr) useful += body->dbl("trials", 0.0);
  }
  const std::string wait = "serve.admission_wait_micros";
  const double waits = metric_of(after, wait, "count") -
                       metric_of(before, wait, "count");
  result.metric("serve.rpc_stats_ms", median(rpc_ms), "ms");
  result.metric("serve.admission_wait_ms",
                waits == 0.0 ? 0.0
                             : (metric_of(after, wait, "sum") -
                                metric_of(before, wait, "sum")) /
                                   waits / 1e3,
                "ms");
  result.metric("serve.queue_depth_max", queue_depth_max, "count");
  const std::string executed = "worker.serve.trials_executed";
  result.metric("serve.useful_fraction",
                useful / (metric_of(after, executed) -
                          metric_of(before, executed)),
                "ratio");
  report_frames(*pipeline, run.seed, trace, result);
  report_pipeline(*pipeline, trace, result);
  report_idle(result,
              {Group::kSplit, Group::kTrials, Group::kSmc, Group::kVerify});
}

}  // namespace bench
