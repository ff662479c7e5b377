// The traced run: per-layer metrics of one workload.
//
// The benchmark's own code times calls into each layer's public functions,
// replayed on the workload's own inputs, and records a span around each:
//
//   wire (untraced, then traced)  client.request > client.wait
//   in-process replay             request > protocol.parse, router.submit,
//                                 router.wait > serve.queue_wait,
//                                 serve.decode; protocol.format
//   layer replays                 features.encode, crf.viterbi,
//                                 crf.posteriors, graphner.decode_one,
//                                 graphner.decode_blended,
//                                 router.cache_get, router.canary,
//                                 wal.append
//
// Where no public call reaches a layer, the program's own records are read:
// the replica's timings on each replayed response, the router/cache
// counters of the obs snapshot, the learn.batch / graph.knn_append /
// propagation.incremental trace spans, the #LEARN reply's counts, and
// Algorithm 1's PipelineTimings. Spans are kept
// in memory and written to .bench_build/perfbench-trace/ when the run ends.
#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>

#include "perfbench/session.hpp"
#include "src/crf/state_space.hpp"
#include "src/features/encoder.hpp"
#include "src/obs/span.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/wal.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kReplayRequests = 2000;  ///< decode-layer replay length
constexpr std::size_t kCacheReplayKeys = 20000;
constexpr double kPhaseShare = 0.25;  ///< of --seconds, per traced traffic phase

/// The CRF layer of a trained model, rebuilt through the crf module's public
/// API from the model's canonical text serialization (feature names in id
/// order, then the weight table at full precision) — the same
/// reconstruction the model loader performs.
struct CrfLayer {
  crf::FeatureIndex index;
  std::unique_ptr<crf::LinearChainCrf> crf;
};

CrfLayer rebuild_crf(const core::GraphNerModel& model) {
  std::stringstream text;
  model.save(text);
  std::vector<std::string> lines;
  for (std::string line; std::getline(text, line);) lines.push_back(std::move(line));

  // "weights <m>" follows the "features <n>" header and its n names.
  CrfLayer layer;
  std::size_t w = 0;
  while (w < lines.size() && lines[w].rfind("weights ", 0) != 0) ++w;
  if (w == lines.size()) throw std::runtime_error("model text: no weights section");
  std::size_t f = w;
  while (f > 0 && lines[f - 1].rfind("features ", 0) != 0) --f;
  if (f == 0 || f + std::stoul(lines[f - 1].substr(9)) != w)
    throw std::runtime_error("model text: malformed features section");
  const std::size_t features = w - f;
  for (std::size_t i = 0; i < features; ++i) layer.index.intern(lines[f + i]);
  layer.index.freeze();

  const std::size_t count = std::stoul(lines[w].substr(8));
  std::vector<double> weights;
  weights.reserve(count);
  for (std::size_t i = w + 1; weights.size() < count && i < lines.size(); ++i) {
    std::istringstream row(lines[i]);
    double value = 0.0;
    while (weights.size() < count && row >> value) weights.push_back(value);
  }
  const crf::StateSpace space = model.config().crf_order == 2
                                    ? crf::StateSpace::order2(model.labels())
                                    : crf::StateSpace::order1(model.labels());
  layer.crf = std::make_unique<crf::LinearChainCrf>(space, layer.index.size());
  layer.crf->set_weights(weights);
  return layer;
}

/// Times `fn` once, records a span of `name`, returns microseconds.
template <typename Fn>
double timed(SpanLog& spans, const char* name, std::uint64_t request, Fn&& fn) {
  const std::int64_t start = now_ns();
  fn();
  const std::int64_t end = now_ns();
  spans.add(name, start, end, -1, request);
  return static_cast<double>(end - start) / 1e3;
}

/// What the replica reports on a response it served (not a cache hit).
struct ReplicaSample {
  double queue_us = 0.0;
  double decode_us = 0.0;
  std::size_t batch_size = 0;
  bool coalesced = false;
};

struct InProcessResult {
  std::vector<double> latency_ms;
  std::vector<ReplicaSample> replica;
  std::vector<Observation> observed;
  Tally tally;
  SpanLog spans{true};
};

/// The socket handler's loop without the socket: parse every due line,
/// submit it, then wait for the futures in order and format each response —
/// open loop at `rate`, over the workload's own streams.
void replay_in_process(Session& session, double rate, double seconds,
                       std::uint64_t request_base, std::vector<InProcessResult>& out) {
  router::Router& router = session.tier().router();
  const std::int64_t period =
      static_cast<std::int64_t>(static_cast<double>(kConns) * 1e9 / rate);
  const std::int64_t t0 = now_ns() + 1'000'000;
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  out.resize(kConns);
  std::vector<std::exception_ptr> errors(kConns);
  std::vector<std::unique_ptr<ItemStream>> streams;
  for (std::size_t c = 0; c < kConns; ++c) streams.push_back(session.make_stream(kConns + c));
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kConns; ++c) {
      threads.emplace_back([&, c](std::stop_token stop) {
        try {
          InProcessResult& result = out[c];
          std::int64_t due = t0 + static_cast<std::int64_t>(c) * period / kConns;
          std::uint64_t seq = 0;
          struct Pending {
            serve::Request request;
            std::future<serve::TagResponse> future;
            std::int64_t due;
            std::uint32_t code;
            std::int32_t root;
            std::uint64_t id;
            int gen_lo;
          };
          std::vector<Pending> group;
          while (due <= end) {
            if (stop.stop_requested()) throw std::runtime_error("replay stopped");
            std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(std::max(due, now_ns()))));
            const std::int64_t now = now_ns();
            group.clear();
            for (; due <= end && due <= now; due += period) {
              const std::uint32_t code = streams[c]->next();
              const std::uint64_t id = request_base + c * 100'000'000ULL + seq++;
              const std::int32_t root = result.spans.add("request", due, 0, -1, id);
              const std::int64_t p0 = now_ns();
              serve::ParsedLine parsed =
                  serve::parse_request_line(item_of(session.inputs(), code).line);
              const std::int64_t p1 = now_ns();
              text::Sentence sentence;
              sentence.id = parsed.request.id;
              sentence.tokens = parsed.request.tokens;
              serve::SubmitOptions options;
              options.key = parsed.request.key;
              const int gen_lo = session.clock().lower();
              auto future = router.submit(std::move(sentence), std::move(options));
              const std::int64_t p2 = now_ns();
              result.spans.add("protocol.parse", p0, p1, root, id);
              result.spans.add("router.submit", p1, p2, root, id);
              group.push_back({std::move(parsed.request), std::move(future), due, code,
                               root, id, gen_lo});
              ++result.tally.sent;
            }
            for (Pending& p : group) {
              const std::uint64_t id = p.id;
              const std::int64_t w0 = now_ns();
              const serve::TagResponse response = p.future.get();
              const std::int64_t w1 = now_ns();
              const std::string line = serve::format_response(p.request, response);
              const std::int64_t w2 = now_ns();
              const auto wait = result.spans.add("router.wait", w0, w1, p.root, id);
              // The replica's own timings of this request, placed at the
              // start of the wait they are part of.
              result.spans.add("serve.queue_wait", w0,
                               w0 + static_cast<std::int64_t>(response.queue_us * 1e3),
                               wait, id);
              result.spans.add("serve.decode", w0,
                               w0 + static_cast<std::int64_t>(response.decode_us * 1e3),
                               wait, id);
              result.spans.add("protocol.format", w1, w2, p.root, id);
              result.spans.end(p.root, w2);
              if (response.batch_size > 0)
                result.replica.push_back({response.queue_us, response.decode_us,
                                          response.batch_size, response.coalesced});
              if (response.ok()) {
                ++result.tally.ok;
                result.latency_ms.push_back(static_cast<double>(w2 - p.due) / 1e6);
                if (id % 8 == 0)
                  result.observed.push_back(
                      {p.code, line, p.gen_lo, session.clock().upper()});
              } else {
                ++result.tally.refused[std::string(serve::status_name(response.status))];
              }
            }
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
}

double gauge_value(const obs::RegistrySnapshot& snapshot, const std::string& name) {
  for (const auto& sample : snapshot.gauges)
    if (sample.name == name) return sample.value;
  return 0.0;
}

/// Sum of one "<n> <word>" count across #LEARN replies ("+62 vertices",
/// "616 patched", "268 relaxations").
double reply_sum(const std::vector<std::string>& replies, const std::string& pattern) {
  const std::regex re(pattern);
  double total = 0.0;
  for (const auto& reply : replies) {
    std::smatch match;
    if (std::regex_search(reply, match, re)) total += std::stod(match[1].str());
  }
  return total;
}

double mean_duration_ms(const std::vector<obs::SpanRecord>& records,
                        const std::string& name, std::size_t& count) {
  double sum = 0.0;
  count = 0;
  for (const auto& record : records) {
    if (record.name != name) continue;
    sum += record.duration_seconds * 1e3;
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

}  // namespace

RunResult run_traced(Session& session) {
  RunResult result;
  Report& report = result.report;
  const WorkloadSpec& spec = session.spec();
  const double S = session.options().seconds;
  SpanLog spans(true);

  (void)session.setup();
  (void)session.closed_loop(0.5, false);  // warm-up
  router::Router& router = session.tier().router();
  const obs::RegistrySnapshot before = router.observability_snapshot();
  (void)obs::Trace::global().drain();
  if (spec.learn_concurrent) session.start_learn(false, true);

  // Wire, untraced then traced, then the same stream shape in-process.
  const PhaseResult plain = session.open_loop(spec.nominal_sps, kPhaseShare * S, false, 0);
  const PhaseResult traced =
      session.open_loop(spec.nominal_sps, kPhaseShare * S, true, 1'000'000'000ULL);
  for (const auto& stream : traced.streams) spans.append(stream.spans);
  std::vector<InProcessResult> replay;
  replay_in_process(session, spec.nominal_sps, kPhaseShare * S, 2'000'000'000ULL, replay);
  SpanLog replay_spans(true);
  std::vector<double> replay_latency_ms;
  std::vector<ReplicaSample> replica;
  for (auto& r : replay) {
    replay_spans.append(r.spans);
    replay_latency_ms.insert(replay_latency_ms.end(), r.latency_ms.begin(),
                             r.latency_ms.end());
    replica.insert(replica.end(), r.replica.begin(), r.replica.end());
    session.observe(r.observed, r.tally);
  }
  spans.append(replay_spans);
  const obs::RegistrySnapshot after = router.observability_snapshot();

  const double wire_p50_us = quantile(plain.latency_ms, 0.5) * 1e3;
  report.add_value("trace.overhead_us", "us",
                   quantile(traced.latency_ms, 0.5) * 1e3 - wire_p50_us,
                   traced.latency_ms.size(), "traced minus untraced wire p50");
  report.add_percentile("client.gen_lag_ms", "ms", plain.lag_ms, 0.99,
                        "send time minus due time");
  report.add_value("socket.overhead_us", "us",
                   wire_p50_us - quantile(replay_latency_ms, 0.5) * 1e3,
                   replay_latency_ms.size(),
                   "wire p50 minus in-process submit->formatted p50");
  const double parse_us = replay_spans.mean_us("protocol.parse");
  const double submit_us = replay_spans.mean_us("router.submit");
  const double format_us = replay_spans.mean_us("protocol.format");
  const double queue_us = replay_spans.mean_us("serve.queue_wait");
  const double decode_us = replay_spans.mean_us("serve.decode");
  report.add_value("protocol.parse_us", "us", parse_us, replay_latency_ms.size(), "mean");
  report.add_value("protocol.format_us", "us", format_us, replay_latency_ms.size(), "mean");
  report.add_value("router.submit_us", "us", submit_us, replay_latency_ms.size(), "mean");
  std::ostringstream ledger;
  ledger << "mean wire latency " << mean(plain.latency_ms) * 1e3 << " us minus self times: parse "
         << parse_us << ", submit " << submit_us << ", queue wait " << queue_us
         << ", decode " << decode_us << ", format " << format_us;
  report.add_value("stage.unaccounted_us", "us",
                   mean(plain.latency_ms) * 1e3 -
                       (parse_us + submit_us + queue_us + decode_us + format_us),
                   plain.latency_ms.size(), ledger.str());

  const auto delta = [&](const char* name) {
    return static_cast<double>(after.counter_value(name) - before.counter_value(name));
  };
  const double requests = delta("router.requests");
  report.add_value("router.cache_hit_ratio", "ratio",
                   requests > 0 ? delta("cache.hits") / requests : 0.0,
                   static_cast<std::size_t>(requests), "cache.hits / router.requests");
  report.add_value("router.failovers", "count", delta("router.failovers"),
                   static_cast<std::size_t>(requests));
  report.add_value("router.cache_bytes", "bytes", gauge_value(after, "cache.bytes"), 1,
                   "cache.bytes gauge after the traffic");
  // The replica's own figures on the replayed requests it served.
  std::vector<double> queue_wait_us, decode_us_all;
  double batches = 0.0;  // a batch of b requests carries 1/b on each
  std::size_t coalesced = 0;
  for (const ReplicaSample& sample : replica) {
    queue_wait_us.push_back(sample.queue_us);
    decode_us_all.push_back(sample.decode_us);
    batches += 1.0 / static_cast<double>(sample.batch_size);
    coalesced += sample.coalesced;
  }
  const std::string served = "the replay's replica-served requests";
  report.add_percentile("serve.queue_wait_us_p99", "us", queue_wait_us, 0.99, served);
  report.add_value("serve.batch_size_mean", "count",
                   batches > 0 ? static_cast<double>(replica.size()) / batches : 0.0,
                   replica.size(), served + ", per micro-batch");
  report.add_value("serve.coalesced_frac", "ratio",
                   replica.empty() ? 0.0
                                   : static_cast<double>(coalesced) /
                                         static_cast<double>(replica.size()),
                   replica.size(), served + ", in-batch duplicates");
  report.add_percentile("serve.decode_us_p50", "us", decode_us_all, 0.50, served);

  // #LEARN through Router::admin: beside the traffic (learn_mixed) or on
  // the idle tier.
  if (!spec.learn_concurrent) session.start_learn(false, false);
  session.finish_learn();
  const LearnResult& learn = session.learn();
  const std::vector<obs::SpanRecord> program_spans = obs::Trace::global().drain();
  std::size_t n = 0;
  report.add_value("router.learn_commit_ms", "ms", mean(learn.commit_ms),
                   learn.commit_ms.size(), "Router::admin(\"learn file ...\"), mean");
  report.add_value("learner.snapshot_ms", "ms", mean(learn.snapshot_ms),
                   learn.snapshot_ms.size(), "mean");
  const double learn_ms = mean_duration_ms(program_spans, "learn.batch", n);
  report.add_value("learner.learn_ms", "ms", learn_ms, n, "learn.batch spans, mean");
  const double append_ms = mean_duration_ms(program_spans, "graph.knn_append", n);
  report.add_value("graph.knn_append_ms", "ms", append_ms, n, "graph.knn_append spans");
  const double incremental_ms =
      mean_duration_ms(program_spans, "propagation.incremental", n);
  report.add_value("propagation.incremental_ms", "ms", incremental_ms, n,
                   "propagation.incremental spans");
  report.add_value("learner.appended_vertices", "count",
                   reply_sum(learn.replies, R"(\+(\d+) vertices)"), learn.replies.size(),
                   "LearnStats via #LEARN replies, summed");
  report.add_value("learner.patched_vertices", "count",
                   reply_sum(learn.replies, R"((\d+) patched)"), learn.replies.size());
  report.add_value("learner.relaxations", "count",
                   reply_sum(learn.replies, R"((\d+) relaxations)"), learn.replies.size());

  // Canary gate and WAL, replayed per committed batch.
  {
    crf::LinearChainCrf::Scratch scratch;
    features::EncodeScratch encode;
    std::vector<double> canary_ms;
    // Each kept generation against the previous kept one (the gate compares
    // the serving generation with the fork).
    std::size_t previous = 0;
    for (std::size_t g = 1; g < learn.generations.size(); ++g) {
      if (!learn.generations[g]) continue;
      canary_ms.push_back(timed(spans, "router.canary", g, [&] {
        for (const auto& sentence : session.inputs().canary) {
          (void)learn.generations[previous]->decode_one_blended(sentence, scratch, encode);
          (void)learn.generations[g]->decode_one_blended(sentence, scratch, encode);
        }
      }) / 1e3);
      previous = g;
    }
    report.add_value("router.canary_ms", "ms", mean(canary_ms), canary_ms.size(),
                     "blended decode of the canary set under both generations");
    const TempDir wal_dir(scratch_root());
    util::Wal wal((wal_dir.path() / "replay.wal").string());
    std::vector<double> append_us;
    for (std::size_t b = 0; b < session.inputs().learn_batches.size(); ++b)
      append_us.push_back(timed(spans, "wal.append", b, [&] {
        wal.append(session.inputs().learn_batches[b]);
      }));
    report.add_value("wal.append_us", "us", mean(append_us), append_us.size(),
                     "Wal::append with fsync, each batch's payload");
  }

  // Decode layers on the workload's own request stream, serving generation.
  {
    const core::GraphNerModel& model = *learn.generations.back();
    const CrfLayer layer = rebuild_crf(model);
    auto stream = session.make_stream(0);
    std::vector<const text::Sentence*> sentences;
    for (std::size_t r = 0; r < kReplayRequests; ++r)
      sentences.push_back(&item_of(session.inputs(), stream->next()).sentence);
    // Pre-encoded copies feed the CRF-only replays.
    std::vector<crf::EncodedSentence> encoded;
    crf::LinearChainCrf::Scratch scratch;
    features::EncodeScratch encode;
    for (const auto* sentence : sentences)
      encoded.push_back(features::encode_for_inference(*sentence, model.extractor(),
                                                       layer.index, encode));
    // One pass per layer call over the whole replay, so every call sees the
    // same cache state; a first untimed pass warms them all.
    std::vector<double> encode_us, viterbi_us, posteriors_us, one_us, blended_us;
    std::vector<std::vector<text::Tag>> viterbi(sentences.size()), one(sentences.size());
    for (const bool measured : {false, true}) {
      const auto pass = [&](const char* name, std::vector<double>& out, auto&& call) {
        for (std::size_t r = 0; r < sentences.size(); ++r) {
          const std::int64_t start = now_ns();
          call(r);
          const std::int64_t end = now_ns();
          if (!measured) continue;
          spans.add(name, start, end, -1, r);
          out.push_back(static_cast<double>(end - start) / 1e3);
        }
      };
      pass("features.encode", encode_us, [&](std::size_t r) {
        (void)features::encode_for_inference(*sentences[r], model.extractor(),
                                             layer.index, encode);
      });
      pass("crf.viterbi", viterbi_us,
           [&](std::size_t r) { viterbi[r] = layer.crf->viterbi(encoded[r], scratch); });
      pass("crf.posteriors", posteriors_us,
           [&](std::size_t r) { (void)layer.crf->posteriors(encoded[r], scratch); });
      pass("graphner.decode_one", one_us, [&](std::size_t r) {
        one[r] = model.decode_one(*sentences[r], scratch, encode);
      });
      pass("graphner.decode_blended", blended_us, [&](std::size_t r) {
        (void)model.decode_one_blended(*sentences[r], scratch, encode);
      });
    }
    for (std::size_t r = 0; r < sentences.size(); ++r)
      if (viterbi[r] != one[r])
        throw CheckFailed("rebuilt CRF layer disagrees with decode_one on " +
                          sentences[r]->id);
    const auto count = encode_us.size();
    report.add_value("features.encode_us", "us", mean(encode_us), count,
                     "encode_for_inference, warm scratch, mean");
    report.add_value("crf.viterbi_us", "us", mean(viterbi_us), count);
    report.add_value("crf.posteriors_us", "us", mean(posteriors_us), count);
    report.add_value("graphner.decode_one_us", "us", mean(one_us), count);
    report.add_value("graphner.decode_blended_us", "us", mean(blended_us), count);
    report.add_value("graphner.blend_extra_us", "us", mean(blended_us) - mean(one_us),
                     count, "decode_one_blended minus decode_one");
  }

  // The router cache on the workload's key stream (a fresh cache of the
  // tier's size, so the replay starts cold like the tier did).
  {
    obs::Registry registry;
    router::ShardedLruCache cache(router::LruCacheConfig{4096, 8}, registry);
    auto stream = session.make_stream(0);
    std::vector<double> get_us;
    for (std::size_t r = 0; r < kCacheReplayKeys; ++r) {
      const Item& item = item_of(session.inputs(), stream->next());
      const std::string key = serve::sentence_key(item.sentence.tokens);
      std::optional<std::vector<text::Tag>> hit;
      const std::int64_t start = now_ns();
      hit = cache.get(key);
      get_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
      if (!hit) cache.put(key, item.gold, 1);
    }
    report.add_value("router.cache_get_us", "us", mean(get_us), get_us.size(),
                     "ShardedLruCache::get on the key stream, mean");
  }

  (void)session.probe_f1();
  session.close_tier();

  // Algorithm 1, one pass with its phase timings.
  {
    const auto& inputs = session.inputs();
    const auto context = session.model().prepare(inputs.corpus.train, inputs.corpus.test);
    const auto output = session.model().finish(context, model_config().propagation,
                                               model_config().alpha);
    const auto& t = output.timings;
    report.add_value("test.crf_inference_s", "s", t.crf_inference_seconds, 1,
                     "PipelineTimings");
    report.add_value("graph.build_s", "s", t.graph_construction_seconds, 1);
    report.add_value("propagation.full_s", "s", t.propagation_seconds, 1);
    report.add_value("test.combine_decode_s", "s", t.combine_decode_seconds, 1);
  }

  session.check_observed();
  const auto path = std::filesystem::current_path() / ".bench_build" / "perfbench-trace" /
                    (std::string(spec.name) + "-seed" +
                     std::to_string(session.options().seed) + ".tsv");
  write_spans(path, spans);
  std::cout << "trace: " << spans.spans().size() << " spans written to " << path.string()
            << '\n';
  result.tally = session.tally();
  return result;
}

}  // namespace perfbench
