// Tests for the serve subsystem (DESIGN.md S25): wire framing and the
// recursive-descent JSON parser, bit-exact snapshot/restore of the SPRT
// and P² estimators, the resumable certification fold (FoldState) and its
// reorder-buffer wrapper (StreamingMerger) differentially against
// certify_trials under many shard layouts, the worker batch protocol over
// a real socketpair, the end-to-end daemon against in-process
// smc::certify (byte-identical certificate digest, including after a
// killed-worker trial reassignment), and the SIGINT/SIGTERM watcher.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bignum/nat.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/ensemble.hpp"
#include "serve/client.hpp"
#include "serve/proto.hpp"
#include "serve/server.hpp"
#include "serve/signals.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"
#include "smc/certify.hpp"
#include "smc/json.hpp"
#include "smc/partial.hpp"

namespace ppde::serve {
namespace {

// ---------------------------------------------------------------------------
// Wire: JSON parser.

TEST(Json, ParsesScalarsExactly) {
  const Json json = Json::parse(
      R"({"a":18446744073709551615,"b":-2.5,"c":"hi \"x\"\n","d":true,)"
      R"("e":null,"f":"00ff00000000002a"})");
  EXPECT_EQ(json.u64("a", 0), 18446744073709551615ull);  // > 2^53: exact
  EXPECT_DOUBLE_EQ(json.dbl("b", 0.0), -2.5);
  EXPECT_EQ(json.str("c", ""), "hi \"x\"\n");
  EXPECT_TRUE(json.boolean("d", false));
  ASSERT_NE(json.find("e"), nullptr);
  EXPECT_EQ(json.find("g"), nullptr);
  EXPECT_EQ(json.find("f")->as_hex_u64(), 0x00ff00000000002aull);
}

TEST(Json, ParsesNestedArraysAndObjects) {
  const Json json = Json::parse(R"({"r":[[1,2],[3],{"k":[4]}]})");
  const Json* r = json.find("r");
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->items().size(), 3u);
  EXPECT_EQ(r->items()[0].items()[1].as_u64(), 2u);
  EXPECT_EQ(r->items()[2].find("k")->items()[0].as_u64(), 4u);
}

TEST(Json, ParsesUnicodeEscapes) {
  const Json json = Json::parse(R"({"s":"Aé"})");
  EXPECT_EQ(json.str("s", ""), "A\xc3\xa9");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse(R"({"a":1} trailing)"), std::runtime_error);
  EXPECT_THROW(Json::parse(R"({"a":})"), std::runtime_error);
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse(R"({"a":truth})"), std::runtime_error);
}

TEST(Json, BoundsNestingDepthWithoutCrashing) {
  const auto nested = [](std::size_t depth, char open, char close) {
    return std::string(depth, open) + std::string(depth, close);
  };
  const Json shallow = Json::parse(nested(1000, '[', ']'));
  EXPECT_EQ(shallow.kind(), Json::Kind::kArray);
  for (const std::size_t depth : {100'000u, 1'000'000u}) {
    EXPECT_THROW(Json::parse(nested(depth, '[', ']')), std::exception);
    // Unterminated, and objects: rejected on depth, not on the missing end.
    EXPECT_THROW(Json::parse(std::string(depth, '[')), std::exception);
    std::string objects;
    for (std::size_t i = 0; i < depth; ++i) objects += R"({"a":)";
    EXPECT_THROW(Json::parse(objects), std::exception);
  }
}

TEST(Json, RoundTripsWriterOutput) {
  smc::JsonWriter writer;
  writer.field("n", std::uint64_t{12345678901234567ull});
  writer.field("x", 0.125);
  writer.field("s", std::string_view("a\\b\"c"));
  writer.hex_field("h", 0xdeadbeefull);
  const Json json = Json::parse(writer.finish());
  EXPECT_EQ(json.u64("n", 0), 12345678901234567ull);
  EXPECT_DOUBLE_EQ(json.dbl("x", 0.0), 0.125);
  EXPECT_EQ(json.str("s", ""), "a\\b\"c");
  EXPECT_EQ(json.find("h")->as_hex_u64(), 0xdeadbeefull);
}

// ---------------------------------------------------------------------------
// Wire: framing.

TEST(Wire, FramesRoundTripOverSocketpair) {
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  const std::string message = R"({"op":"batch","count":3})";
  write_frame(pair[0], message);
  write_frame(pair[0], "");  // empty payload is legal
  std::string out;
  ASSERT_TRUE(read_frame(pair[1], out));
  EXPECT_EQ(out, message);
  ASSERT_TRUE(read_frame(pair[1], out));
  EXPECT_EQ(out, "");
  ::close(pair[0]);
  EXPECT_FALSE(read_frame(pair[1], out));  // clean EOF, not an error
  ::close(pair[1]);
}

TEST(Wire, RejectsOversizedFrames) {
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  // Hand-build a header claiming a payload beyond the cap.
  const unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(pair[0], header, 4), 4);
  std::string out;
  EXPECT_THROW(read_frame(pair[1], out), std::runtime_error);
  ::close(pair[0]);
  ::close(pair[1]);
}

// ---------------------------------------------------------------------------
// SMC partial state: snapshot/restore and the canonical fold.

TEST(PartialState, P2SnapshotResumesByteIdentically) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(0.0, 100.0);
  std::vector<double> stream(500);
  for (double& value : stream) value = dist(rng);

  for (const std::size_t split : {0ul, 1ul, 3ul, 4ul, 5ul, 17ul, 499ul}) {
    smc::QuantileTails uninterrupted;
    smc::QuantileTails first;
    for (std::size_t i = 0; i < split; ++i) {
      uninterrupted.add(stream[i]);
      first.add(stream[i]);
    }
    smc::QuantileTails resumed;
    resumed.restore(first.snapshot());
    for (std::size_t i = split; i < stream.size(); ++i) {
      uninterrupted.add(stream[i]);
      resumed.add(stream[i]);
    }
    // Bit-exact, not approximately equal: the digest depends on it.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(uninterrupted.p50()),
              std::bit_cast<std::uint64_t>(resumed.p50()))
        << "split " << split;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(uninterrupted.p90()),
              std::bit_cast<std::uint64_t>(resumed.p90()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(uninterrupted.p99()),
              std::bit_cast<std::uint64_t>(resumed.p99()));
    EXPECT_EQ(uninterrupted.count(), resumed.count());
  }
}

smc::CertifyOptions fold_options() {
  smc::CertifyOptions options;
  options.delta = 0.1;
  options.indifference = 0.3;
  options.alpha = 0.05;
  options.beta = 0.05;
  options.max_trials = 200;
  options.seed = 9;
  return options;
}

/// Deterministic fake outcome: a pure function of (trial, seed) with a
/// mixed success/failure pattern so the SPRT walks around before deciding.
smc::TrialOutcome fake_outcome(std::uint64_t, std::uint64_t seed) {
  smc::TrialOutcome outcome;
  outcome.stabilised = (seed % 17) != 0;
  outcome.success = outcome.stabilised && (seed % 8) != 0;
  outcome.convergence_parallel_time =
      static_cast<double>(seed % 1009) / 7.0;
  outcome.metrics.meetings = seed % 101;
  outcome.metrics.firings = seed % 53;
  return outcome;
}

std::vector<smc::TrialRecord> fake_records(const smc::CertifyOptions& options,
                                           std::uint64_t count) {
  std::vector<smc::TrialRecord> records;
  records.reserve(count);
  for (std::uint64_t trial = 0; trial < count; ++trial)
    records.push_back(smc::make_trial_record(
        trial,
        fake_outcome(trial, engine::derive_trial_seed(options.seed, trial))));
  return records;
}

TEST(PartialState, SprtRestoreContinuesByteIdentically) {
  const smc::CertifyOptions options = fold_options();
  const std::vector<smc::TrialRecord> records =
      fake_records(options, options.max_trials);
  for (const std::size_t split : {0ul, 1ul, 7ul, 20ul}) {
    smc::Sprt uninterrupted(options.sprt());
    for (std::size_t i = 0; i < records.size() && !uninterrupted.decided();
         ++i)
      uninterrupted.update(records[i].success);

    smc::Sprt prefix(options.sprt());
    for (std::size_t i = 0; i < split && !prefix.decided(); ++i)
      prefix.update(records[i].success);
    smc::Sprt resumed(options.sprt());
    resumed.restore(prefix.trials(), prefix.successes(), prefix.llr());
    for (std::size_t i = split; i < records.size() && !resumed.decided();
         ++i)
      resumed.update(records[i].success);

    EXPECT_EQ(resumed.decision(), uninterrupted.decision()) << split;
    EXPECT_EQ(resumed.trials(), uninterrupted.trials());
    EXPECT_EQ(resumed.successes(), uninterrupted.successes());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(resumed.llr()),
              std::bit_cast<std::uint64_t>(uninterrupted.llr()));
  }
}

TEST(PartialState, FoldStateSerializationResumesAtEverySplit) {
  const smc::CertifyOptions options = fold_options();
  const std::vector<smc::TrialRecord> records =
      fake_records(options, options.max_trials);

  smc::FoldState reference(options);
  for (const smc::TrialRecord& record : records) reference.fold(record);
  const std::string reference_payload =
      smc::certificate_payload(reference.finish(options));

  for (std::size_t split = 0; split <= records.size(); split += 13) {
    smc::FoldState before(options);
    for (std::size_t i = 0; i < split; ++i) before.fold(records[i]);
    smc::FoldState after =
        smc::FoldState::deserialize(options, before.serialize());
    for (std::size_t i = split; i < records.size(); ++i)
      after.fold(records[i]);
    EXPECT_EQ(smc::certificate_payload(after.finish(options)),
              reference_payload)
        << "split " << split;
  }
}

TEST(PartialState, FoldStateRejectsMalformedCheckpoints) {
  const smc::CertifyOptions options = fold_options();
  EXPECT_THROW(smc::FoldState::deserialize(options, "not_a_checkpoint"),
               std::runtime_error);
  EXPECT_THROW(smc::FoldState::deserialize(options, "smc_fold_v1 1 2"),
               std::runtime_error);
}

// The tentpole differential: the streaming merge reproduces the
// certify_trials certificate *byte-identically* under any shard layout.
TEST(PartialState, MergerMatchesCertifyTrialsUnderAnyShardLayout) {
  smc::CertifyOptions options = fold_options();
  options.threads = 1;
  options.batch = 8;
  const smc::Certificate reference = smc::certify_trials(
      [](unsigned, std::uint64_t trial, std::uint64_t seed) {
        return fake_outcome(trial, seed);
      },
      options);
  const std::string reference_payload = smc::certificate_payload(reference);
  ASSERT_GT(reference.trials, 0u);

  const std::vector<smc::TrialRecord> records =
      fake_records(options, options.max_trials);

  const auto shards_of = [&](std::uint64_t shard) {
    std::vector<std::pair<std::uint64_t, std::vector<smc::TrialRecord>>>
        shards;
    for (std::uint64_t first = 0; first < records.size(); first += shard) {
      const std::uint64_t count =
          std::min<std::uint64_t>(shard, records.size() - first);
      shards.emplace_back(
          first, std::vector<smc::TrialRecord>(
                     records.begin() + static_cast<std::ptrdiff_t>(first),
                     records.begin() +
                         static_cast<std::ptrdiff_t>(first + count)));
    }
    return shards;
  };

  // In-order delivery at several shard sizes (including one big shard).
  for (const std::uint64_t shard : {1u, 2u, 3u, 5u, 8u, 64u, 200u}) {
    smc::StreamingMerger merger(options);
    for (auto& [first, batch] : shards_of(shard))
      merger.absorb(first, std::move(batch));
    EXPECT_EQ(smc::certificate_payload(merger.finish()), reference_payload)
        << "shard " << shard;
    EXPECT_TRUE(merger.decided());
  }

  // Reverse and shuffled arrival order; duplicated deliveries (a range
  // re-run after a worker death whose original response arrives anyway).
  for (const std::uint64_t shard : {3u, 8u}) {
    auto shards = shards_of(shard);
    std::reverse(shards.begin(), shards.end());
    smc::StreamingMerger reversed(options);
    for (auto& [first, batch] : shards) reversed.absorb(first, batch);
    EXPECT_EQ(smc::certificate_payload(reversed.finish()),
              reference_payload);

    shards = shards_of(shard);
    std::mt19937_64 rng(5);
    std::shuffle(shards.begin(), shards.end(), rng);
    smc::StreamingMerger shuffled(options);
    for (auto& [first, batch] : shards) {
      shuffled.absorb(first, batch);
      if (rng() % 3 == 0) shuffled.absorb(first, batch);  // duplicate
    }
    EXPECT_EQ(smc::certificate_payload(shuffled.finish()),
              reference_payload);
  }
}

TEST(PartialState, MergerRejectsMislabelledRecords) {
  smc::StreamingMerger merger(fold_options());
  std::vector<smc::TrialRecord> records(2);
  records[0].trial = 4;
  records[1].trial = 6;  // not contiguous with first=4
  EXPECT_THROW(merger.absorb(4, records), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Proto: record round-trips.

TEST(Proto, CertifyRecordsRoundTripBitExactly) {
  BatchResult result;
  result.first = 17;
  for (std::uint64_t i = 0; i < 5; ++i) {
    smc::TrialRecord record;
    record.trial = 17 + i;
    record.success = i % 2 == 0;
    record.stabilised = i != 3;
    record.time_bits = std::bit_cast<std::uint64_t>(0.1 * (i + 1));
    record.meetings = 1000 + i;
    record.firings = 500 + i;
    result.records.push_back(record);
  }
  const BatchResult parsed = parse_batch_result(
      Json::parse(encode_batch_result(result, false)), false);
  EXPECT_EQ(parsed.first, result.first);
  ASSERT_EQ(parsed.records.size(), result.records.size());
  for (std::size_t i = 0; i < result.records.size(); ++i)
    EXPECT_EQ(parsed.records[i], result.records[i]) << i;
}

TEST(Proto, EnsembleRecordsRoundTripThroughTrialResults) {
  engine::TrialResult trial;
  trial.sim.stabilised = true;
  trial.sim.output = true;
  trial.sim.interactions = 123456;
  trial.sim.parallel_time = 98.75;
  trial.metrics.meetings = 1;
  trial.metrics.firings = 2;
  trial.metrics.null_skip_batches = 3;
  trial.metrics.skipped_meetings = 4;
  trial.metrics.consensus_flips = 5;
  trial.metrics.weight_updates = 6;
  trial.metrics.tree_descents = 7;

  BatchResult result;
  result.first = 3;
  result.ensemble_records.push_back(make_ensemble_record(3, trial));
  const BatchResult parsed = parse_batch_result(
      Json::parse(encode_batch_result(result, true)), true);
  ASSERT_EQ(parsed.ensemble_records.size(), 1u);
  EXPECT_EQ(parsed.ensemble_records[0], result.ensemble_records[0]);

  const engine::TrialResult back =
      to_trial_result(parsed.ensemble_records[0]);
  EXPECT_EQ(back.sim.interactions, trial.sim.interactions);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.sim.parallel_time),
            std::bit_cast<std::uint64_t>(trial.sim.parallel_time));
  EXPECT_EQ(back.metrics.tree_descents, trial.metrics.tree_descents);
}

TEST(Proto, QueryRoundTripsAndDefaults) {
  QueryParams query;
  query.req = "certify";
  query.n = 1;
  query.extra = 8;
  query.trials = 24;
  query.seed = 7;
  query.delta = 0.1;
  query.indifference = 0.8;
  const QueryParams parsed = parse_query(Json::parse(encode_query(query)));
  EXPECT_EQ(parsed.req, "certify");
  EXPECT_EQ(parsed.extra, 8u);
  EXPECT_EQ(parsed.trials, 24u);
  EXPECT_DOUBLE_EQ(parsed.indifference, 0.8);
  // A minimal request means the same as the CLI's flag defaults.
  const QueryParams defaults =
      parse_query(Json::parse(R"({"req":"certify"})"));
  EXPECT_EQ(defaults.trials, 4096u);
  EXPECT_EQ(defaults.seed, 42u);
  EXPECT_DOUBLE_EQ(defaults.delta, 0.01);
  EXPECT_THROW(parse_query(Json::parse(R"({"n":1})")), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Worker process over a real socketpair.

/// A forked worker_main child on one end of a socketpair; fd() is the
/// parent's end.
class ForkedWorker {
 public:
  ForkedWorker() {
    int pair[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0)
      throw std::runtime_error("socketpair failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::close(pair[0]);
      int status = 0;
      try {
        worker_main(pair[1]);
      } catch (...) {
        status = 1;
      }
      ::_exit(status);
    }
    ::close(pair[1]);
    fd_ = pair[0];
  }

  int fd() const { return fd_; }

  /// Send the exit op and reap the child; true iff it exited with 0.
  bool exit_cleanly() {
    write_frame(fd_, encode_exit());
    int status = 0;
    ::waitpid(pid_, &status, 0);
    ::close(fd_);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  int fd_ = -1;
};

TEST(Worker, BatchRecordsMatchInProcessOutcomes) {
  ForkedWorker worker;

  BatchRequest request;
  request.ensemble = false;
  request.n = 1;
  request.extra = 2;
  request.expected = true;
  request.seed = 7;
  request.first = 2;
  request.count = 4;
  request.window = 1'000'000;
  request.budget = 100'000'000;
  write_frame(worker.fd(), encode_batch_request(request));
  std::string payload;
  ASSERT_TRUE(read_frame(worker.fd(), payload));
  const BatchResult result = parse_batch_result(Json::parse(payload), false);
  EXPECT_TRUE(worker.exit_cleanly());

  // Differential: the worker's records are exactly what the in-process
  // shard entry point computes for the same range.
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  smc::CertifyOptions options;
  options.seed = 7;
  options.sim.stable_window = 1'000'000;
  options.sim.max_interactions = 100'000'000;
  const std::vector<smc::TrialOutcome> outcomes = smc::run_outcome_range(
      conv.protocol, conv.initial_config(conv.num_pointers + 2), true,
      options, 2, 4, 1);
  ASSERT_EQ(result.records.size(), outcomes.size());
  EXPECT_EQ(result.first, 2u);
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    EXPECT_EQ(result.records[i], smc::make_trial_record(2 + i, outcomes[i]))
        << i;
}

// ---------------------------------------------------------------------------
// End-to-end daemon.

struct RunningServer {
  Server server;
  std::thread thread;

  explicit RunningServer(const ServerOptions& options) : server(options) {
    thread = std::thread([this] { server.run(); });
  }
  ~RunningServer() {
    server.request_stop();
    thread.join();
  }
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server.port());
  }
};

QueryParams smoke_query() {
  QueryParams query;
  query.req = "certify";
  query.n = 1;
  query.extra = 2;
  query.trials = 24;
  query.seed = 7;
  query.delta = 0.1;
  query.indifference = 0.8;
  // A small stability window keeps each trial cheap; the differential
  // stays exact because the reference certificate uses the same options.
  query.window = 1'000'000;
  query.budget = 100'000'000;
  return query;
}

/// The in-process certificate for the same workload a daemon query names.
smc::Certificate reference_certificate(const QueryParams& query) {
  const auto lowered =
      compile::lower_program(czerner::build_construction(query.n).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const std::uint64_t m = conv.num_pointers + query.extra;
  const bool expected = bignum::Nat(query.extra) >=
                        czerner::Construction::threshold(query.n);
  smc::CertifyOptions options = certify_options_of(query);
  options.threads = 1;
  return smc::certify(conv.protocol, conv.initial_config(m), expected,
                      options);
}

std::string digest_of(const std::string& json_text) {
  const std::size_t key = json_text.find("\"digest\":\"");
  if (key == std::string::npos) return "";
  const std::size_t start = key + 10;
  const std::size_t end = json_text.find('"', start);
  return json_text.substr(start, end - start);
}

TEST(Server, CertifyMatchesInProcessDigestByteForByte) {
  const QueryParams query = smoke_query();
  const std::string reference = smc::to_jsonl(reference_certificate(query));
  ASSERT_NE(digest_of(reference), "");

  for (const unsigned workers : {1u, 2u, 4u}) {
    ServerOptions options;
    options.port = 0;
    options.workers = workers;
    options.shard = 4;
    RunningServer running(options);
    std::string response;
    std::string error;
    ASSERT_TRUE(
        rpc(running.endpoint(), encode_query(query), &response, &error))
        << error;
    EXPECT_TRUE(Json::parse(response).boolean("ok", false)) << response;
    EXPECT_EQ(digest_of(response), digest_of(reference))
        << "workers " << workers << ": " << response;
  }
}

TEST(Server, KilledWorkerRangeIsReassignedWithSameDigest) {
  const QueryParams query = smoke_query();
  const std::string reference = smc::to_jsonl(reference_certificate(query));

  ServerOptions options;
  options.port = 0;
  options.workers = 2;
  options.shard = 4;
  options.kill_worker_after = 1;  // SIGKILL a worker mid-query
  RunningServer running(options);
  std::string response;
  std::string error;
  ASSERT_TRUE(
      rpc(running.endpoint(), encode_query(query), &response, &error))
      << error;
  EXPECT_TRUE(Json::parse(response).boolean("ok", false)) << response;
  EXPECT_EQ(digest_of(response), digest_of(reference)) << response;
}

TEST(Server, EnsembleSummaryMatchesInProcessStats) {
  QueryParams query;
  query.req = "ensemble";
  query.n = 1;
  query.extra = 2;
  query.trials = 12;
  query.seed = 5;
  query.window = 1'000'000;
  query.budget = 100'000'000;

  ServerOptions options;
  options.port = 0;
  options.workers = 2;
  options.shard = 3;
  RunningServer running(options);
  std::string response;
  std::string error;
  ASSERT_TRUE(
      rpc(running.endpoint(), encode_query(query), &response, &error))
      << error;
  const Json json = Json::parse(response);
  ASSERT_TRUE(json.boolean("ok", false)) << response;
  const Json* summary = json.find("summary");
  ASSERT_NE(summary, nullptr);

  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  engine::EnsembleOptions ensemble;
  ensemble.trials = 12;
  ensemble.threads = 1;
  ensemble.master_seed = 5;
  ensemble.sim.stable_window = query.window;
  ensemble.sim.max_interactions = query.budget;
  const engine::EnsembleStats stats = engine::run_ensemble(
      conv.protocol, conv.initial_config(conv.num_pointers + 2), ensemble);

  EXPECT_EQ(summary->u64("trials", 0), stats.trials);
  EXPECT_EQ(summary->u64("stabilised", 0), stats.stabilised);
  EXPECT_EQ(summary->u64("accepted", 0), stats.accepted);
  EXPECT_EQ(summary->u64("total_meetings", 0), stats.totals.meetings);
  EXPECT_EQ(summary->u64("total_firings", 0), stats.totals.firings);
  EXPECT_DOUBLE_EQ(summary->dbl("interactions_max", 0.0),
                   stats.interactions.max);
  EXPECT_DOUBLE_EQ(summary->dbl("parallel_time_p50", 0.0),
                   stats.parallel_time.p50);
}

TEST(Server, StatsShutdownAndAdmissionControl) {
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  options.max_trials_cap = 100;
  RunningServer running(options);

  std::string response;
  std::string error;
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(QueryParams{"stats"}),
                  &response, &error))
      << error;
  const Json stats = Json::parse(response);
  EXPECT_TRUE(stats.boolean("ok", false));
  EXPECT_EQ(stats.u64("workers_total", 0), 1u);
  EXPECT_EQ(stats.u64("workers_alive", 0), 1u);
  ASSERT_NE(stats.find("metrics"), nullptr);

  // Over-budget query is rejected at admission, not executed.
  QueryParams over = smoke_query();
  over.trials = 101;
  ASSERT_TRUE(
      rpc(running.endpoint(), encode_query(over), &response, &error));
  EXPECT_FALSE(Json::parse(response).boolean("ok", true)) << response;

  QueryParams shutdown;
  shutdown.req = "shutdown";
  ASSERT_TRUE(
      rpc(running.endpoint(), encode_query(shutdown), &response, &error));
  EXPECT_TRUE(Json::parse(response).boolean("ok", false));
  // ~RunningServer joins run(); a hung shutdown would hang the test.
}

TEST(Server, ConcurrentQueriesShareTheWorkerPool) {
  const QueryParams query = smoke_query();
  const std::string reference = smc::to_jsonl(reference_certificate(query));

  ServerOptions options;
  options.port = 0;
  options.workers = 2;
  options.max_active = 2;
  options.shard = 4;
  RunningServer running(options);

  std::vector<std::string> responses(2);
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i)
    clients.emplace_back([&, i] {
      std::string error;
      rpc(running.endpoint(), encode_query(query), &responses[i], &error);
    });
  for (std::thread& client : clients) client.join();
  for (const std::string& response : responses) {
    ASSERT_FALSE(response.empty());
    EXPECT_TRUE(Json::parse(response).boolean("ok", false)) << response;
    EXPECT_EQ(digest_of(response), digest_of(reference)) << response;
  }
}

/// Fields older clients and daemons still send, which parsers must drop:
/// the lockstep batch width and the execution-core selector, valid or not.
constexpr const char* kLegacyFields[] = {
    R"("batch":8)", R"("dispatch":"interp")", R"("dispatch":"bogus")"};

/// `frame` (an encoded JSON object) with `field` appended.
std::string with_legacy_field(const std::string& frame, const char* field) {
  return frame.substr(0, frame.rfind('}')) + "," + field + "}";
}

TEST(Server, LegacyBatchFieldIsIgnored) {
  // Query: parses to exactly what the frame without the field denotes.
  const QueryParams query = smoke_query();
  const std::string plain = encode_query(query);
  std::vector<std::string> frames = {plain};
  for (const char* field : kLegacyFields) {
    const std::string legacy = with_legacy_field(plain, field);
    ASSERT_NE(legacy.find(field), std::string::npos);
    EXPECT_EQ(encode_query(parse_query(Json::parse(legacy))), plain) << field;
    frames.push_back(legacy);
  }

  // Worker: the same range with and without each field ships
  // byte-identical records.
  ForkedWorker worker;
  BatchRequest request;
  request.n = 1;
  request.extra = 2;
  request.expected = true;
  request.seed = 7;
  request.first = 2;
  request.count = 4;
  request.window = 1'000'000;
  request.budget = 100'000'000;
  const std::string plain_request = encode_batch_request(request);
  std::vector<std::string> requests = {plain_request};
  for (const char* field : kLegacyFields) {
    const std::string legacy = with_legacy_field(plain_request, field);
    EXPECT_EQ(encode_batch_request(parse_batch_request(Json::parse(legacy))),
              plain_request)
        << field;
    requests.push_back(legacy);
  }
  std::vector<std::string> records;
  for (const std::string& frame : requests) {
    write_frame(worker.fd(), frame);
    std::string payload;
    ASSERT_TRUE(read_frame(worker.fd(), payload));
    const BatchResult result = parse_batch_result(Json::parse(payload), false);
    EXPECT_EQ(result.records.size(), 4u);
    BatchResult bare;  // records only, without the timing sidecar
    bare.first = result.first;
    bare.records = result.records;
    records.push_back(encode_batch_result(bare, false));
  }
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_EQ(records[i], records[0]) << requests[i];
  EXPECT_TRUE(worker.exit_cleanly());

  // Daemon: every frame certifies to the in-process digest.
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  options.shard = 8;
  RunningServer running(options);
  const std::string reference =
      digest_of(smc::to_jsonl(reference_certificate(query)));
  for (const std::string& frame : frames) {
    std::string response;
    std::string error;
    ASSERT_TRUE(rpc(running.endpoint(), frame, &response, &error)) << error;
    EXPECT_TRUE(Json::parse(response).boolean("ok", false)) << response;
    EXPECT_EQ(digest_of(response), reference) << frame;
  }
}

TEST(Server, OversizedClientFrameGetsAnErrorAndServingContinues) {
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  RunningServer running(options);

  // A client frame header declaring 1 MiB, far above the query frame cap:
  // the daemon answers with an error instead of buffering the payload.
  std::string error;
  const int fd = connect_hostport(running.endpoint(), &error);
  ASSERT_GE(fd, 0) << error;
  constexpr std::uint32_t kDeclared = 1u << 20;
  static_assert(kDeclared > kMaxQueryFrameBytes);
  const unsigned char header[4] = {
      static_cast<unsigned char>(kDeclared >> 24),
      static_cast<unsigned char>(kDeclared >> 16),
      static_cast<unsigned char>(kDeclared >> 8),
      static_cast<unsigned char>(kDeclared)};
  ASSERT_EQ(::send(fd, header, sizeof header, 0),
            static_cast<ssize_t>(sizeof header));
  std::string response;
  ASSERT_TRUE(read_frame(fd, response));
  ::close(fd);
  const Json rejected = Json::parse(response);
  EXPECT_FALSE(rejected.boolean("ok", true)) << response;
  EXPECT_NE(rejected.str("error", "").find("size limit"), std::string::npos)
      << response;

  // The next query, on a fresh connection, is served normally.
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(QueryParams{"stats"}),
                  &response, &error))
      << error;
  EXPECT_TRUE(Json::parse(response).boolean("ok", false)) << response;
}

TEST(Server, TricklingClientIsCutOffAtTheFrameDeadline) {
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  RunningServer running(options);

  // Declare a 100-byte query frame, then trickle its payload one byte per
  // second: every single read completes quickly, but the frame never does
  // within the deadline. The daemon must give up on the whole frame —
  // answer with an error or close — within the deadline plus a second.
  std::string error;
  const int fd = connect_hostport(running.endpoint(), &error);
  ASSERT_GE(fd, 0) << error;
  const auto start = std::chrono::steady_clock::now();
  constexpr std::uint32_t kDeclared = 100;
  const unsigned char header[4] = {0, 0, 0, kDeclared};
  ASSERT_EQ(::send(fd, header, sizeof header, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof header));
  const auto limit = kQueryFrameDeadline + std::chrono::seconds(1);
  bool answered = false;
  for (std::uint32_t sent = 0; sent < kDeclared; ++sent) {
    pollfd watch{fd, POLLIN, 0};
    if (::poll(&watch, 1, 1000) > 0) {
      answered = true;
      break;
    }
    if (std::chrono::steady_clock::now() - start > limit) break;
    const char byte = ' ';
    if (::send(fd, &byte, 1, MSG_NOSIGNAL) != 1) {
      answered = true;  // the daemon already closed its end
      break;
    }
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  if (!answered) {
    ::close(fd);  // unblocks a daemon still waiting on the frame
    FAIL() << "no reply or close within the frame deadline";
  }
  EXPECT_LE(waited, limit);
  std::string response;
  try {
    if (read_frame(fd, response)) {
      const Json rejected = Json::parse(response);
      EXPECT_FALSE(rejected.boolean("ok", true)) << response;
      EXPECT_NE(rejected.str("error", "").find("deadline"), std::string::npos)
          << response;
    }
  } catch (const std::runtime_error&) {
    // A reset instead of a reply: the daemon closed with bytes unread.
  }
  ::close(fd);

  // The next query, on a fresh connection, is served normally.
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(QueryParams{"stats"}),
                  &response, &error))
      << error;
  EXPECT_TRUE(Json::parse(response).boolean("ok", false)) << response;
}

// ---------------------------------------------------------------------------
// Distributed observability (S29): the worker's wire sidecar, the daemon's
// roll-up + flight recorder + Prometheus surfaces, and the standing
// invariant that none of it moves a certificate digest.

TEST(Worker, ShipsMetricDeltasAndTraceSidecar) {
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(pair[0]);
    int status = 0;
    try {
      worker_main(pair[1]);
    } catch (...) {
      status = 1;
    }
    ::_exit(status);
  }
  ::close(pair[1]);

  BatchRequest request;
  request.ensemble = false;
  request.n = 1;
  request.extra = 2;
  request.expected = true;
  request.seed = 7;
  request.first = 0;
  request.count = 4;
  request.window = 1'000'000;
  request.budget = 100'000'000;

  const auto round_trip = [&](std::uint64_t trace_id) {
    request.trace_id = trace_id;
    write_frame(pair[0], encode_batch_request(request));
    std::string payload;
    EXPECT_TRUE(read_frame(pair[0], payload));
    return parse_batch_result(Json::parse(payload), false);
  };

  const auto delta_of = [](const BatchResult& result,
                           std::string_view name) -> double {
    for (const obs::MetricSnapshot& metric : result.metric_deltas)
      if (metric.name == name) return metric.value;
    return -1.0;
  };

  // Untraced batch: metrics still ship (they are free), spans do not.
  const BatchResult untraced = round_trip(0);
  EXPECT_EQ(untraced.worker_pid, static_cast<std::uint64_t>(pid));
  EXPECT_TRUE(untraced.trace.empty());
  EXPECT_EQ(delta_of(untraced, "serve.trials_executed"), 4.0);

  // Traced batch: the sidecar carries this batch's spans with owned names
  // and the query's trace_id as the worker_batch span argument...
  request.first = 4;
  const BatchResult traced = round_trip(99);
  EXPECT_EQ(traced.worker_pid, static_cast<std::uint64_t>(pid));
  ASSERT_FALSE(traced.trace.empty());
  bool saw_batch_span = false;
  for (const obs::CapturedEvent& event : traced.trace)
    if (event.name == "worker_batch") {
      saw_batch_span = true;
      EXPECT_TRUE(event.has_value);
      EXPECT_EQ(event.value, 99.0);
    }
  EXPECT_TRUE(saw_batch_span);
  // ...and the metric delta covers only this batch, not the running total.
  EXPECT_EQ(delta_of(traced, "serve.trials_executed"), 4.0);

  write_frame(pair[0], encode_exit());
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ::close(pair[0]);
}

TEST(Server, StatsRollUpFlightRecorderAndPrometheusSurfaces) {
  QueryParams query;
  query.req = "ensemble";
  query.n = 1;
  query.extra = 2;
  query.trials = 12;
  query.seed = 5;
  query.window = 1'000'000;
  query.budget = 100'000'000;

  ServerOptions options;
  options.port = 0;
  options.workers = 2;
  options.shard = 3;
  options.prom_port = 0;  // ephemeral /metrics listener
  RunningServer running(options);
  ASSERT_NE(running.server.prom_port(), 0);

  // The test process hosts the daemon, and earlier Server tests already
  // fed the process-global registry — so assert the *delta* this query
  // contributes, not absolute totals.
  const auto counter_value = [&](std::string_view name) {
    QueryParams stats_query{"stats"};
    std::string stats_response;
    std::string stats_error;
    EXPECT_TRUE(rpc(running.endpoint(), encode_query(stats_query),
                    &stats_response, &stats_error))
        << stats_error;
    const Json parsed = Json::parse(stats_response);
    const Json* metrics = parsed.find("metrics");
    EXPECT_NE(metrics, nullptr);
    return metrics == nullptr ? 0 : metrics->u64(name, 0);
  };
  const std::uint64_t shipped_before =
      counter_value("worker.serve.trials_executed");
  const std::uint64_t done_before = counter_value("worker.engine.trials_done");
  const std::uint64_t delivered_before =
      counter_value("serve.trials_delivered");

  std::string response;
  std::string error;
  ASSERT_TRUE(
      rpc(running.endpoint(), encode_query(query), &response, &error))
      << error;
  ASSERT_TRUE(Json::parse(response).boolean("ok", false)) << response;

  // Worker metrics rolled up under `worker.` next to the daemon's own:
  // every trial the workers ran is visible fleet-wide, and the admission
  // instruments (queue-depth gauge, wait histogram) saw the query.
  QueryParams stats_query{"stats"};
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(stats_query), &response,
                  &error))
      << error;
  const Json stats = Json::parse(response);
  ASSERT_TRUE(stats.boolean("ok", false)) << response;
  const Json* metrics = stats.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->u64("worker.serve.trials_executed", 0) - shipped_before,
            12u);
  EXPECT_EQ(metrics->u64("worker.engine.trials_done", 0) - done_before, 12u);
  EXPECT_EQ(metrics->u64("serve.trials_delivered", 0) - delivered_before,
            12u);
  ASSERT_NE(metrics->find("serve.queue_depth"), nullptr);
  const Json* wait = metrics->find("serve.admission_wait_micros");
  ASSERT_NE(wait, nullptr);
  EXPECT_GE(wait->u64("count", 0), 1u);

  // Flight recorder: the ensemble query is the newest record, with its
  // trial roll-up and per-worker latency lines.
  stats_query.recent = 5;
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(stats_query), &response,
                  &error))
      << error;
  const Json with_recent = Json::parse(response);
  const Json* recent = with_recent.find("recent");
  ASSERT_NE(recent, nullptr) << response;
  ASSERT_GE(recent->items().size(), 1u);
  const Json& record = recent->items()[0];
  EXPECT_EQ(record.str("req", ""), "ensemble");
  EXPECT_EQ(record.str("outcome", ""), "ok");
  EXPECT_EQ(record.u64("trials_executed", 0), 12u);
  ASSERT_NE(record.find("workers"), nullptr);
  EXPECT_GE(record.find("workers")->items().size(), 1u);

  // Prometheus, both ways: inline through the protocol...
  stats_query.recent = 0;
  stats_query.format = "prometheus";
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(stats_query), &response,
                  &error))
      << error;
  const std::string exposition =
      Json::parse(response).str("prometheus", "");
  EXPECT_NE(exposition.find("# TYPE ppde_worker_serve_trials_executed"),
            std::string::npos);
  EXPECT_NE(exposition.find("ppde_serve_admission_wait_micros_bucket"),
            std::string::npos);

  // ...and scraped over HTTP from the --prom-port listener.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(running.server.prom_port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const std::string get = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, get.data(), get.size(), 0),
            static_cast<ssize_t>(get.size()));
  std::string scraped;
  char buffer[4096];
  ssize_t got;
  while ((got = ::recv(fd, buffer, sizeof buffer, 0)) > 0)
    scraped.append(buffer, static_cast<std::size_t>(got));
  ::close(fd);
  EXPECT_NE(scraped.find("200 OK"), std::string::npos);
  EXPECT_NE(scraped.find("ppde_serve_trials_delivered"), std::string::npos);

  // An unknown exposition format is an error, not silence.
  stats_query.format = "xml";
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(stats_query), &response,
                  &error));
  EXPECT_FALSE(Json::parse(response).boolean("ok", true)) << response;
}

TEST(Server, TracedFleetStitchesWorkersWithUnchangedDigest) {
  const QueryParams query = smoke_query();
  const std::string reference = smc::to_jsonl(reference_certificate(query));
  ASSERT_NE(digest_of(reference), "");

  for (const unsigned workers : {1u, 2u, 4u}) {
    ServerOptions options;
    options.port = 0;
    options.workers = workers;
    options.shard = 4;
    const std::string path = testing::TempDir() + "serve_stitch_" +
                             std::to_string(workers) + ".json";
    std::string traced;
    {
      // Fork-safety ordering under test: the Server constructor forks the
      // pool, the tracer starts strictly after, run() then announces the
      // worker pids it inherited.
      Server server(options);
      ASSERT_TRUE(obs::Tracer::start(path));
      std::thread thread([&server] { server.run(); });
      std::string error;
      ASSERT_TRUE(rpc("127.0.0.1:" + std::to_string(server.port()),
                      encode_query(query), &traced, &error))
          << error;
      server.request_stop();
      thread.join();
    }
    obs::Tracer::stop();

    // Tracing moved nothing: the certificate digest is byte-identical to
    // the in-process reference at every worker count.
    EXPECT_TRUE(Json::parse(traced).boolean("ok", false)) << traced;
    EXPECT_EQ(digest_of(traced), digest_of(reference))
        << "workers " << workers << ": " << traced;

    // The trace is one stitched timeline: every worker announced as its
    // own track group, worker spans present alongside daemon spans.
    std::ifstream in(path);
    std::stringstream content;
    content << in.rdbuf();
    const std::string text = content.str();
    std::size_t groups = 0;
    for (std::size_t at = text.find("\"ppde worker ");
         at != std::string::npos; at = text.find("\"ppde worker ", at + 1))
      ++groups;
    EXPECT_EQ(groups, workers) << path;
    EXPECT_NE(text.find("\"name\":\"worker_batch\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"query\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"merge_fold\""), std::string::npos);
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Signals.

TEST(Signals, WatchRunsCallbackOffTheSignalPath) {
  std::atomic<int> delivered{0};
  {
    SignalWatch watch([&](int signo) { delivered.store(signo); });
    // raise() would target this thread, whose mask blocks the signal
    // forever; kill() targets the process, so sigwait picks it up.
    ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
    for (int spin = 0; spin < 2000 && delivered.load() == 0; ++spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(delivered.load(), SIGTERM);
}

TEST(Signals, WatchDestructsCleanlyWithoutASignal) {
  for (int i = 0; i < 3; ++i) {
    SignalWatch watch([](int) {});
  }
}

}  // namespace
}  // namespace ppde::serve
