// Serving runtime tests: concurrent correctness (byte-identical to offline
// decode), micro-batching, backpressure, graceful shutdown, the wire
// protocol, the socket server end to end, and the fault-tolerance layer
// (deadlines, degradation, injected faults). The concurrency tests are
// the ones the CI ThreadSanitizer job exercises.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/corpus/generator.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/request_queue.hpp"
#include "src/serve/service.hpp"
#include "src/serve/socket_server.hpp"
#include "src/util/fault.hpp"

namespace graphner::serve {
namespace {

/// Samples recorded into histogram `name` of a registry snapshot.
std::uint64_t histogram_count(const obs::RegistrySnapshot& snapshot,
                              const std::string& name) {
  for (const auto& h : snapshot.histograms)
    if (h.name == name) return h.data.count();
  return 0;
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(0.08, 7));
    model_ = new core::GraphNerModel(
        core::GraphNerModel::train(data.train, {}, core::GraphNerConfig{}));
    sentences_ = new std::vector<text::Sentence>();
    for (const auto& s : data.test) {
      text::Sentence stripped;
      stripped.id = s.id;
      stripped.tokens = s.tokens;
      sentences_->push_back(std::move(stripped));
    }
    expected_ = new std::vector<std::vector<text::Tag>>(
        model_->decode_crf(*sentences_));
  }

  static void TearDownTestSuite() {
    delete expected_;
    delete sentences_;
    delete model_;
  }

  static const core::GraphNerModel* model_;
  static std::vector<text::Sentence>* sentences_;
  static std::vector<std::vector<text::Tag>>* expected_;
};

const core::GraphNerModel* ServeTest::model_ = nullptr;
std::vector<text::Sentence>* ServeTest::sentences_ = nullptr;
std::vector<std::vector<text::Tag>>* ServeTest::expected_ = nullptr;

TEST_F(ServeTest, EightClientThreadsMatchSequentialDecode) {
  ServiceConfig config;
  config.workers = 4;
  config.batching.max_batch = 8;
  config.batching.max_delay = std::chrono::microseconds(500);
  TaggingService service(*model_, config);

  constexpr std::size_t kClients = 8;
  const std::size_t n = sentences_->size();
  std::vector<std::vector<text::Tag>> results(n);
  std::vector<std::thread> clients;
  std::atomic<std::size_t> failures{0};
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Client c owns indices c, c + kClients, ... — disjoint result slots,
      // so no synchronisation is needed on `results`.
      for (std::size_t i = c; i < n; i += kClients) {
        auto response = service.tag((*sentences_)[i]);
        if (!response.ok()) {
          ++failures;
          continue;
        }
        results[i] = std::move(response.tags);
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0U);
  // Byte-identical to the sequential offline decode, element by element.
  ASSERT_EQ(results.size(), expected_->size());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(results[i], (*expected_)[i]) << i;

  const auto snapshot = service.metrics();
  EXPECT_EQ(snapshot.counter_value("submitted"), n);
  EXPECT_EQ(snapshot.counter_value("completed"), n);
  EXPECT_EQ(snapshot.counter_value("errors"), 0U);
  EXPECT_EQ(snapshot.counter_value("rejected_overload"), 0U);
  EXPECT_EQ(histogram_count(snapshot, "queue_wait_us"), n);
  EXPECT_EQ(histogram_count(snapshot, "decode_us"), n);
  EXPECT_GE(snapshot.counter_value("batches"), 1U);
  EXPECT_EQ(histogram_count(snapshot, "batch_size"),
            snapshot.counter_value("batches"));
}

TEST_F(ServeTest, MicroBatchingCoalescesBurstTraffic) {
  ServiceConfig config;
  config.workers = 1;
  config.batching.max_batch = 16;
  config.batching.max_delay = std::chrono::microseconds(5000);
  TaggingService service(*model_, config);

  constexpr std::size_t kBurst = 64;
  std::vector<std::future<TagResponse>> futures;
  futures.reserve(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i)
    futures.push_back(service.submit((*sentences_)[i % sentences_->size()]));
  std::size_t max_batch_seen = 0;
  for (auto& future : futures) {
    const auto response = future.get();
    EXPECT_TRUE(response.ok());
    max_batch_seen = std::max(max_batch_seen, response.batch_size);
  }
  const auto snapshot = service.metrics();
  // A burst of 64 against one worker cannot have been 64 singleton batches.
  EXPECT_LT(snapshot.counter_value("batches"), kBurst);
  EXPECT_GT(max_batch_seen, 1U);
  EXPECT_LE(max_batch_seen, config.batching.max_batch);
}

TEST_F(ServeTest, CoalescesDuplicateRequestsWithinBatch) {
  ServiceConfig config;
  config.workers = 1;
  config.batching.max_batch = 16;
  config.batching.max_delay = std::chrono::microseconds(5000);
  TaggingService service(*model_, config);

  // A burst where every request is the same sentence: one micro-batch
  // should decode it once and fan the result out to the duplicates.
  constexpr std::size_t kBurst = 48;
  const auto& sentence = (*sentences_)[0];
  std::vector<std::future<TagResponse>> futures;
  futures.reserve(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i)
    futures.push_back(service.submit(sentence));
  std::size_t coalesced = 0;
  for (auto& future : futures) {
    const auto response = future.get();
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response.tags, (*expected_)[0]);  // identical to offline decode
    if (response.coalesced) ++coalesced;
  }
  const auto snapshot = service.metrics();
  EXPECT_GT(coalesced, 0U);
  EXPECT_EQ(snapshot.counter_value("coalesced"), coalesced);
  EXPECT_EQ(snapshot.counter_value("completed"), kBurst);
  // Per-request metrics are still recorded for coalesced responses.
  EXPECT_EQ(histogram_count(snapshot, "decode_us"), kBurst);

  // With coalescing off, no request reports a shared decode.
  ServiceConfig plain = config;
  plain.batching.coalesce_duplicates = false;
  TaggingService plain_service(*model_, plain);
  std::vector<std::future<TagResponse>> plain_futures;
  for (std::size_t i = 0; i < 8; ++i)
    plain_futures.push_back(plain_service.submit(sentence));
  for (auto& future : plain_futures) EXPECT_FALSE(future.get().coalesced);
  EXPECT_EQ(plain_service.metrics().counter_value("coalesced"), 0U);
}

TEST_F(ServeTest, BoundedQueueRejectsWithStructuredOverload) {
  ServiceConfig config;
  config.workers = 1;
  config.batching.max_batch = 1;
  config.batching.max_queue_depth = 2;
  TaggingService service(*model_, config);

  constexpr std::size_t kFlood = 256;
  std::vector<std::future<TagResponse>> futures;
  futures.reserve(kFlood);
  for (std::size_t i = 0; i < kFlood; ++i)
    futures.push_back(service.submit((*sentences_)[i % sentences_->size()]));
  std::size_t ok = 0;
  std::size_t overloaded = 0;
  for (auto& future : futures) {
    const auto response = future.get();
    if (response.ok()) ++ok;
    if (response.status == Status::kOverloaded) {
      ++overloaded;
      EXPECT_FALSE(response.error.empty());
      EXPECT_TRUE(response.tags.empty());
    }
  }
  // Pushing is orders of magnitude faster than decoding, so a depth-2
  // queue must have turned most of the flood away — and every future
  // resolved (nothing blocked forever waiting for room).
  EXPECT_GT(overloaded, 0U);
  EXPECT_EQ(ok + overloaded, kFlood);
  EXPECT_EQ(service.metrics().counter_value("rejected_overload"), overloaded);
}

TEST_F(ServeTest, GracefulStopDrainsQueuedWorkAndRejectsNewWork) {
  ServiceConfig config;
  config.workers = 2;
  config.batching.max_batch = 4;
  TaggingService service(*model_, config);

  std::vector<std::future<TagResponse>> futures;
  for (std::size_t i = 0; i < 32; ++i)
    futures.push_back(service.submit((*sentences_)[i % sentences_->size()]));
  service.stop();

  for (auto& future : futures) EXPECT_TRUE(future.get().ok());  // drained

  const auto rejected = service.submit((*sentences_)[0]).get();
  EXPECT_EQ(rejected.status, Status::kShutdown);
  EXPECT_EQ(service.metrics().counter_value("rejected_shutdown"), 1U);
}

TEST_F(ServeTest, EmptySentenceTagsToEmpty) {
  TaggingService service(*model_, {});
  const auto response = service.tag(text::Sentence{});
  EXPECT_TRUE(response.ok());
  EXPECT_TRUE(response.tags.empty());
}

TEST_F(ServeTest, SocketServerRoundTripsAgainstOfflineDecode) {
  ServiceConfig config;
  config.workers = 2;
  TaggingService service(*model_, config);
  SocketServer server(service, {});  // port 0 = ephemeral
  server.start();

  ClientConnection connection;
  connection.connect("127.0.0.1", server.port());
  const std::size_t n = std::min<std::size_t>(20, sentences_->size());
  // Pipeline all requests, then read all responses: exercises the
  // read-ahead submit path in the connection handler.
  for (std::size_t i = 0; i < n; ++i) {
    std::string line = "s" + std::to_string(i);
    line += '\t';
    for (std::size_t t = 0; t < (*sentences_)[i].size(); ++t) {
      if (t > 0) line += ' ';
      line += (*sentences_)[i].tokens[t];
    }
    connection.send_line(line);
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::string response;
    ASSERT_TRUE(connection.recv_line(response));
    std::string expected_line = "s" + std::to_string(i) + "\tOK\t";
    for (std::size_t t = 0; t < (*expected_)[i].size(); ++t) {
      if (t > 0) expected_line += ' ';
      expected_line += text::tag_name((*expected_)[i][t]);
    }
    EXPECT_EQ(response, expected_line);
  }

  // JSON flavour round-trip on the same connection.
  connection.send_line("{\"id\": \"j1\", \"tokens\": [\"the\", \"BRCA1\", \"gene\"]}");
  std::string json_response;
  ASSERT_TRUE(connection.recv_line(json_response));
  EXPECT_EQ(json_response.rfind("{\"id\":\"j1\",\"status\":\"ok\",\"tags\":[", 0), 0U)
      << json_response;

  // Bare "#METRICS" answers the full JSON snapshot (serve.* names).
  connection.send_line("#METRICS");
  std::string metrics_line;
  ASSERT_TRUE(connection.recv_line(metrics_line));
  EXPECT_EQ(metrics_line.front(), '{');
  EXPECT_NE(metrics_line.find("\"serve.completed\":"), std::string::npos);

  connection.send_line("#QUIT");
  std::string eof_line;
  EXPECT_FALSE(connection.recv_line(eof_line));
  server.stop();
  service.stop();
}

TEST_F(ServeTest, RetiredDecodeLinesDrawNoReplyAndChangeNoTags) {
  // "#DECODE ..." is retired: every form parses like a blank line.
  const std::vector<std::string> decode_lines = {
      "#DECODE", "#DECODE off", "#DECODE beam=4 quantized=int8",
      "#DECODE garbage"};
  for (const auto& line : decode_lines)
    EXPECT_EQ(parse_request_line(line).kind, LineKind::kEmpty) << line;

  ServiceConfig config;
  config.workers = 2;
  TaggingService service(*model_, config);
  SocketServer server(service, {});  // port 0 = ephemeral
  server.start();

  const std::size_t n = std::min<std::size_t>(12, sentences_->size());
  std::vector<std::string> requests;
  for (std::size_t i = 0; i < n; ++i) {
    std::string line = "d" + std::to_string(i) + "\t";
    for (std::size_t t = 0; t < (*sentences_)[i].size(); ++t) {
      if (t > 0) line += ' ';
      line += (*sentences_)[i].tokens[t];
    }
    requests.push_back(std::move(line));
  }

  // Pipeline every request, optionally with a #DECODE line after each,
  // then read exactly one reply per request; #QUIT must then hit EOF, so
  // no reply to a #DECODE line can be hiding behind the last response.
  const auto exchange = [&](bool interleave_decode) {
    ClientConnection connection;
    connection.connect("127.0.0.1", server.port());
    for (std::size_t i = 0; i < n; ++i) {
      connection.send_line(requests[i]);
      if (interleave_decode)
        connection.send_line(decode_lines[i % decode_lines.size()]);
    }
    std::vector<std::string> responses(n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(connection.recv_line(responses[i]));
      EXPECT_EQ(responses[i].rfind("d" + std::to_string(i) + "\tOK\t", 0), 0U)
          << responses[i];
    }
    connection.send_line("#QUIT");
    std::string extra;
    EXPECT_FALSE(connection.recv_line(extra)) << extra;
    return responses;
  };
  const auto with_decode = exchange(/*interleave_decode=*/true);
  const auto fresh = exchange(/*interleave_decode=*/false);
  EXPECT_EQ(with_decode, fresh);
  server.stop();
  service.stop();
}

// --- Fault tolerance: deadlines, degradation, chaos --------------------------

/// Scopes chaos to one test: the FaultInjector is a process-wide singleton,
/// so every test that configures it must leave it disabled for the next.
struct FaultGuard {
  FaultGuard() { util::FaultInjector::instance().disable(); }
  ~FaultGuard() { util::FaultInjector::instance().disable(); }
};

TEST_F(ServeTest, DeadlinedRequestsAreShedBeforeDecode) {
  FaultGuard guard;
  // Every batch stalls 60 ms — far past the 20 ms request deadlines, so
  // each request has expired by the time its worker reaches it.
  util::FaultInjector::instance().configure("worker.stall=1:60", 1);
  ServiceConfig config;
  config.workers = 1;
  config.batching.max_batch = 4;
  config.batching.max_delay = std::chrono::microseconds(1000);
  TaggingService service(*model_, config);

  constexpr std::size_t kN = 8;
  std::vector<std::future<TagResponse>> futures;
  futures.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i)
    futures.push_back(service.submit((*sentences_)[i % sentences_->size()],
                                     std::chrono::milliseconds(20)));
  for (auto& future : futures) {
    const auto response = future.get();
    EXPECT_EQ(response.status, Status::kDeadlineExceeded);
    EXPECT_TRUE(response.tags.empty());
    EXPECT_FALSE(response.error.empty());
    EXPECT_FALSE(response.degraded);
  }
  const auto snapshot = service.metrics();
  EXPECT_EQ(snapshot.counter_value("deadline_expired"), kN);
  // Nothing wasted worker time on decode.
  EXPECT_EQ(snapshot.counter_value("completed"), 0U);
  EXPECT_EQ(snapshot.counter_value("submitted"), kN);
}

TEST_F(ServeTest, DegradedModeFallsBackToPlainViterbiAndRecovers) {
  FaultGuard guard;
  // A slow worker (5 ms per batch) lets the queue build past the high-water
  // mark, then drain back to the low-water mark — both transitions of the
  // hysteresis happen within one flood.
  util::FaultInjector::instance().configure("worker.stall=1:5", 1);
  ServiceConfig config;
  config.workers = 1;
  config.batching.max_batch = 1;  // one request per batch: depth falls by 1 each
  config.batching.max_delay = std::chrono::microseconds(100);
  config.blend_decode = true;
  config.degrade.high_watermark = 4;
  config.degrade.low_watermark = 0;
  TaggingService service(*model_, config);

  const auto& sentence = (*sentences_)[0];
  crf::LinearChainCrf::Scratch scratch;
  features::EncodeScratch encode;
  const auto blended = model_->decode_one_blended(sentence, scratch, encode);
  const auto& plain = (*expected_)[0];

  constexpr std::size_t kFlood = 24;
  std::vector<std::future<TagResponse>> futures;
  futures.reserve(kFlood);
  for (std::size_t i = 0; i < kFlood; ++i)
    futures.push_back(service.submit(sentence));
  std::size_t degraded_count = 0;
  for (auto& future : futures) {
    const auto response = future.get();
    ASSERT_TRUE(response.ok());
    if (response.degraded) {
      ++degraded_count;
      EXPECT_EQ(response.tags, plain);  // the cheap tier: plain CRF Viterbi
    } else {
      EXPECT_EQ(response.tags, blended);  // full quality: posterior blend
    }
  }
  // The flood tripped degradation, but not every response was degraded:
  // the last batch sees an empty queue and recovers before decoding.
  EXPECT_GT(degraded_count, 0U);
  EXPECT_LT(degraded_count, kFlood);
  EXPECT_EQ(service.metrics().counter_value("degraded"), degraded_count);
  EXPECT_FALSE(service.degraded());

  // Post-flood traffic is full quality again.
  const auto after = service.tag(sentence);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.degraded);
  EXPECT_EQ(after.tags, blended);
}

TEST_F(ServeTest, PushRacingShutdownResolvesEveryFuture) {
  FaultGuard guard;
  // Half the pushes stall 1 ms inside push(), widening the submit/stop race.
  util::FaultInjector::instance().configure("queue.push=0.5:1", 7);
  ServiceConfig config;
  config.workers = 2;
  config.batching.max_batch = 8;
  TaggingService service(*model_, config);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 32;
  std::vector<std::vector<std::future<TagResponse>>> futures(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    futures[p].reserve(kPerProducer);
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i)
        futures[p].push_back(
            service.submit((*sentences_)[(p + i) % sentences_->size()]));
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  service.stop();  // races the producers mid-flood
  for (auto& producer : producers) producer.join();

  // Every single future resolves with a terminal status — nothing hangs,
  // nothing loses its promise, regardless of where stop() landed.
  std::size_t ok = 0, shutdown = 0, overloaded = 0;
  for (auto& per_producer : futures) {
    for (auto& future : per_producer) {
      switch (future.get().status) {
        case Status::kOk: ++ok; break;
        case Status::kShutdown: ++shutdown; break;
        case Status::kOverloaded: ++overloaded; break;
        default: FAIL() << "unexpected status";
      }
    }
  }
  EXPECT_EQ(ok + shutdown + overloaded, kProducers * kPerProducer);
  const auto snapshot = service.metrics();
  EXPECT_EQ(snapshot.counter_value("submitted"), kProducers * kPerProducer);
  EXPECT_EQ(snapshot.counter_value("completed"), ok);
  EXPECT_EQ(snapshot.counter_value("rejected_shutdown"), shutdown);
  EXPECT_EQ(snapshot.counter_value("rejected_overload"), overloaded);
}

TEST_F(ServeTest, OverloadFloodWithDeadlinesResolvesAllRequests) {
  FaultGuard guard;
  // Stalled workers + a tiny queue: accepted requests outlive their 1 ms
  // deadline while waiting, the rest bounce off the full queue.
  util::FaultInjector::instance().configure("worker.stall=1:10", 3);
  ServiceConfig config;
  config.workers = 1;
  config.batching.max_batch = 2;
  config.batching.max_queue_depth = 4;
  config.batching.max_delay = std::chrono::microseconds(500);
  TaggingService service(*model_, config);

  constexpr std::size_t kFlood = 64;
  std::vector<std::future<TagResponse>> futures;
  futures.reserve(kFlood);
  for (std::size_t i = 0; i < kFlood; ++i)
    futures.push_back(service.submit((*sentences_)[i % sentences_->size()],
                                     std::chrono::milliseconds(1)));
  std::size_t ok = 0, overloaded = 0, expired = 0;
  for (auto& future : futures) {
    const auto response = future.get();
    switch (response.status) {
      case Status::kOk: ++ok; break;
      case Status::kOverloaded: ++overloaded; break;
      case Status::kDeadlineExceeded: ++expired; break;
      default: FAIL() << "unexpected status";
    }
    // Retryability is exactly the transient statuses.
    EXPECT_EQ(status_retryable(response.status),
              response.status == Status::kOverloaded ||
                  response.status == Status::kDeadlineExceeded);
  }
  EXPECT_EQ(ok + overloaded + expired, kFlood);
  EXPECT_GT(overloaded, 0U);
  EXPECT_GT(expired, 0U);
  const auto snapshot = service.metrics();
  EXPECT_EQ(snapshot.counter_value("submitted"), kFlood);
  EXPECT_EQ(snapshot.counter_value("completed"), ok);
  EXPECT_EQ(snapshot.counter_value("rejected_overload"), overloaded);
  EXPECT_EQ(snapshot.counter_value("deadline_expired"), expired);
}

TEST_F(ServeTest, AbandonedFuturesDoNotBlockDrainOrStop) {
  FaultGuard guard;
  util::FaultInjector::instance().configure("worker.stall=1:5:2", 5);
  ServiceConfig config;
  config.workers = 1;
  config.batching.max_batch = 4;
  TaggingService service(*model_, config);

  // Callers that give up still must not wedge the pipeline: drop every
  // future immediately and stop. Workers set promises nobody waits on.
  constexpr std::size_t kN = 16;
  for (std::size_t i = 0; i < kN; ++i) {
    auto abandoned = service.submit((*sentences_)[i % sentences_->size()]);
    (void)abandoned;  // destroyed here, before the response exists
  }
  service.stop();
  const auto snapshot = service.metrics();
  EXPECT_EQ(snapshot.counter_value("submitted"), kN);
  EXPECT_EQ(snapshot.counter_value("completed") +
                snapshot.counter_value("rejected_overload") +
                snapshot.counter_value("rejected_shutdown") +
                snapshot.counter_value("deadline_expired"),
            kN);
}

TEST(ServeQueue, ShutdownRaceLosesNoAcceptedRequest) {
  FaultGuard guard;
  // A third of the pushes stall inside push() so shutdown() lands between
  // admissions; every accepted request must still come out of pop_batch.
  util::FaultInjector::instance().configure("queue.push=0.3:1", 11);
  BatchPolicy policy;
  policy.max_batch = 4;
  policy.max_delay = std::chrono::microseconds(200);
  BatchQueue queue(policy);

  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> popped{0};
  std::thread consumer([&] {
    std::vector<PendingRequest> batch;
    while (queue.pop_batch(batch)) popped += batch.size();
  });

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 64;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        PendingRequest request;
        request.enqueued_at = std::chrono::steady_clock::now();
        if (queue.push(std::move(request)) == BatchQueue::PushResult::kAccepted)
          ++accepted;
        else
          ++rejected;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  queue.shutdown();
  for (auto& producer : producers) producer.join();
  consumer.join();  // pop_batch returns false only once fully drained

  EXPECT_EQ(accepted + rejected, kProducers * kPerProducer);
  EXPECT_EQ(popped, accepted);  // drained exactly the admitted requests
  EXPECT_EQ(queue.depth(), 0U);
}

TEST_F(ServeTest, ConnectRetriesExhaustedAfterBackoff) {
  TaggingService service(*model_, {});
  // Grab an ephemeral port that briefly had a listener, then free it: a
  // connect() there gets ECONNREFUSED, the retryable condition.
  std::uint16_t dead_port = 0;
  {
    SocketServer server(service, {});
    server.start();
    dead_port = server.port();
    server.stop();
  }
  util::BackoffPolicy policy;
  policy.initial = std::chrono::milliseconds(1);
  policy.max = std::chrono::milliseconds(4);
  policy.max_retries = 2;
  ClientConnection connection;
  try {
    connection.connect("127.0.0.1", dead_port, policy);
    FAIL() << "connect to a dead port must exhaust its retries";
  } catch (const ConnectRetriesExhausted& e) {
    EXPECT_EQ(e.attempts(), 3);  // initial try + 2 retries
    EXPECT_NE(std::string(e.what()).find("gave up after 3 attempt(s)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(connection.connected());
  service.stop();
}

TEST_F(ServeTest, RequestWithRetryRecoversFromDeadlineExceeded) {
  FaultGuard guard;
  // Exactly the first batch stalls 80 ms; with a 30 ms default deadline the
  // first attempt comes back DEADLINE_EXCEEDED and the retry succeeds.
  util::FaultInjector::instance().configure("worker.stall=1:80:1", 1);
  ServiceConfig config;
  config.workers = 1;
  config.default_deadline = std::chrono::milliseconds(30);
  TaggingService service(*model_, config);
  SocketServer server(service, {});
  server.start();

  ClientConnection connection;
  connection.connect("127.0.0.1", server.port());
  util::BackoffPolicy policy;
  policy.initial = std::chrono::milliseconds(1);
  policy.max_retries = 3;
  std::string response;
  ASSERT_TRUE(connection.request_with_retry("r1\tthe BRCA1 gene", response,
                                            policy));
  EXPECT_EQ(response_status(response), "OK") << response;
  // Attempt 1 was shed.
  EXPECT_GE(service.metrics().counter_value("deadline_expired"), 1U);
  server.stop();
  service.stop();
}

TEST_F(ServeTest, ServerSurvivesInjectedSocketFaults) {
  FaultGuard guard;
  // Connection 1 dies at accept, connection 2 at its first read; the
  // server process must outlive both and serve connection 3 normally.
  util::FaultInjector::instance().configure(
      "socket.accept=1:0:1,socket.read=1:0:1", 9);
  ServiceConfig config;
  config.workers = 1;
  TaggingService service(*model_, config);
  SocketServer server(service, {});
  server.start();

  const std::string request = "r1\tp53 binds DNA";
  std::string response;
  bool answered = false;
  int attempts = 0;
  for (; attempts < 6 && !answered; ++attempts) {
    try {
      ClientConnection connection;
      connection.connect("127.0.0.1", server.port());
      connection.send_line(request);
      answered = connection.recv_line(response);
    } catch (const std::exception&) {
      // dropped mid-send — reconnect and resend (nothing was answered)
    }
  }
  ASSERT_TRUE(answered);
  EXPECT_GT(attempts, 1);  // at least one connection was actually killed
  EXPECT_EQ(response_status(response), "OK") << response;
  EXPECT_EQ(util::FaultInjector::instance().stats("socket.accept").fires, 1U);
  EXPECT_EQ(util::FaultInjector::instance().stats("socket.read").fires, 1U);
  server.stop();
  service.stop();
}

TEST(ServeProtocol, ParsesDeadlineSuffixAndJsonDeadline) {
  auto tsv = parse_request_line("r1@250\tthe BRCA1 gene");
  ASSERT_EQ(tsv.kind, LineKind::kRequest);
  EXPECT_EQ(tsv.request.id, "r1");
  EXPECT_EQ(tsv.request.deadline_ms, 250);

  // Ids that legitimately contain '@' (emails, handles) round-trip whole:
  // only a non-empty all-digit suffix is a deadline.
  auto email = parse_request_line("user@host.com\tp53 binds DNA");
  ASSERT_EQ(email.kind, LineKind::kRequest);
  EXPECT_EQ(email.request.id, "user@host.com");
  EXPECT_EQ(email.request.deadline_ms, 0);

  auto mixed = parse_request_line("x@12y\tp53");
  ASSERT_EQ(mixed.kind, LineKind::kRequest);
  EXPECT_EQ(mixed.request.id, "x@12y");
  EXPECT_EQ(mixed.request.deadline_ms, 0);

  // Bare '@<ms>' — deadline with no id of its own.
  auto bare = parse_request_line("@77\tp53");
  ASSERT_EQ(bare.kind, LineKind::kRequest);
  EXPECT_EQ(bare.request.id, "-");
  EXPECT_EQ(bare.request.deadline_ms, 77);

  auto json = parse_request_line(
      "{\"id\": \"j\", \"tokens\": [\"a\"], \"deadline_ms\": 50}");
  ASSERT_EQ(json.kind, LineKind::kRequest);
  EXPECT_EQ(json.request.deadline_ms, 50);

  EXPECT_EQ(parse_request_line(
                "{\"tokens\": [\"a\"], \"deadline_ms\": \"soon\"}").kind,
            LineKind::kMalformed);
}

TEST(ServeProtocol, FormatsDegradedResponsesAndClassifiesRetryable) {
  Request request;
  request.id = "d1";
  TagResponse degraded;
  degraded.tags = {text::Tag::kB, text::Tag::kI, text::Tag::kO};
  degraded.degraded = true;
  // TSV: the status gains a '*'; tags are unchanged in shape.
  EXPECT_EQ(format_response(request, degraded), "d1\tOK*\tB I O");
  EXPECT_EQ(response_status("d1\tOK*\tB I O"), "OK");  // marker stripped

  Request json_request = request;
  json_request.json = true;
  const std::string json_line = format_response(json_request, degraded);
  EXPECT_EQ(json_line,
            "{\"id\":\"d1\",\"status\":\"ok\",\"degraded\":true,"
            "\"tags\":[\"B\",\"I\",\"O\"]}");
  EXPECT_EQ(response_status(json_line), "OK");

  TagResponse expired;
  expired.status = Status::kDeadlineExceeded;
  expired.error = "deadline exceeded after 1200 us in queue";
  const std::string expired_line = format_response(request, expired);
  EXPECT_EQ(response_status(expired_line), "DEADLINE_EXCEEDED");
  EXPECT_TRUE(response_retryable(expired_line));
  EXPECT_TRUE(response_retryable("r\tOVERLOADED\tqueue full"));
  EXPECT_FALSE(response_retryable("r\tOK\tB I O"));
  EXPECT_FALSE(response_retryable("r\tERROR\tboom"));
  EXPECT_FALSE(response_retryable("not a response line"));
}

TEST(ServeProtocol, ParsesTsvJsonAndControlLines) {
  auto tsv = parse_request_line("req-1\tthe BRCA1 gene");
  ASSERT_EQ(tsv.kind, LineKind::kRequest);
  EXPECT_EQ(tsv.request.id, "req-1");
  EXPECT_EQ(tsv.request.tokens,
            (std::vector<std::string>{"the", "BRCA1", "gene"}));
  EXPECT_FALSE(tsv.request.json);

  auto bare = parse_request_line("p53 binds DNA");
  ASSERT_EQ(bare.kind, LineKind::kRequest);
  EXPECT_EQ(bare.request.id, "-");
  EXPECT_EQ(bare.request.tokens.size(), 3U);

  auto json = parse_request_line(
      "{\"id\": \"a b\", \"tokens\": [\"x\", \"quo\\\"te\"]}");
  ASSERT_EQ(json.kind, LineKind::kRequest);
  EXPECT_TRUE(json.request.json);
  EXPECT_EQ(json.request.id, "a b");
  EXPECT_EQ(json.request.tokens, (std::vector<std::string>{"x", "quo\"te"}));

  EXPECT_EQ(parse_request_line("#METRICS").kind, LineKind::kMetrics);
  EXPECT_EQ(parse_request_line("  #QUIT ").kind, LineKind::kQuit);
  EXPECT_EQ(parse_request_line("   ").kind, LineKind::kEmpty);
  EXPECT_EQ(parse_request_line("{\"id\": 17}").kind, LineKind::kMalformed);
  EXPECT_EQ(parse_request_line("{\"tokens\": [\"x\"]} trailing").kind,
            LineKind::kMalformed);
}

TEST(ServeProtocol, NormalizationUnifiesTsvAndJsonSpellings) {
  // The same sentence in sloppy JSON tokens (stray whitespace, a UTF-8
  // BOM, an empty token) and in clean TSV must converge on one canonical
  // token vector — everything keyed on the sentence downstream (batch
  // coalescing, the router's cross-request cache) depends on it.
  auto json = parse_request_line(
      "{\"id\":\"r1\",\"tokens\":[\"\\tp53 \",\"binds\\n\",\" DNA\",\"\","
      "\"\xEF\xBB\xBFgene\"]}");
  ASSERT_EQ(json.kind, LineKind::kRequest);
  auto tsv = parse_request_line("r1\tp53 binds DNA gene");
  ASSERT_EQ(tsv.kind, LineKind::kRequest);
  EXPECT_EQ(json.request.tokens,
            (std::vector<std::string>{"p53", "binds", "DNA", "gene"}));
  EXPECT_EQ(json.request.tokens, tsv.request.tokens);
  EXPECT_EQ(sentence_key(json.request.tokens),
            sentence_key(tsv.request.tokens));

  // Interior whitespace collapses but does not split the token, and the
  // key still tells one two-word token from two tokens apart.
  EXPECT_EQ(normalize_token("New \r\n York"), "New York");
  EXPECT_NE(sentence_key({"New York"}), sentence_key({"New", "York"}));
}

TEST(ServeProtocol, ParsesReplicaAdminLines) {
  const auto admin = parse_request_line("  #REPLICA kill 1 ");
  ASSERT_EQ(admin.kind, LineKind::kAdmin);
  EXPECT_EQ(admin.admin, "kill 1");

  const auto bare = parse_request_line("#REPLICA");
  EXPECT_EQ(bare.kind, LineKind::kMalformed);
  EXPECT_NE(bare.error.find("needs a command"), std::string::npos);
}

TEST_F(ServeTest, RequestDeadlineBoundsTheRetryLoop) {
  TaggingService service(*model_, {});
  SocketServer server(service, {});
  server.start();
  service.stop();  // every request now answers SHUTDOWN — retryable forever

  ClientConnection connection;
  connection.connect("127.0.0.1", server.port());
  util::BackoffPolicy policy;
  policy.initial = std::chrono::milliseconds(25);
  policy.max = std::chrono::milliseconds(25);
  policy.jitter = 0.0;
  policy.max_retries = 1000;  // ~25 s of backoff if only retries bounded it
  std::string response;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(
      connection.request_with_retry("r1@80\tp53 binds DNA", response, policy));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(response_status(response), "SHUTDOWN") << response;
  // The '@80' budget, not the retry count, ended the loop.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  server.stop();
}

TEST(ServeProtocol, ParsesMetricsFlavours) {
  const auto bare = parse_request_line("#METRICS");
  ASSERT_EQ(bare.kind, LineKind::kMetrics);
  EXPECT_EQ(bare.metrics_flavour, MetricsFlavour::kJson);

  const auto json = parse_request_line("#METRICS JSON");
  ASSERT_EQ(json.kind, LineKind::kMetrics);
  EXPECT_EQ(json.metrics_flavour, MetricsFlavour::kJson);

  const auto tsv = parse_request_line("  #METRICS TSV  ");
  ASSERT_EQ(tsv.kind, LineKind::kMetrics);
  EXPECT_EQ(tsv.metrics_flavour, MetricsFlavour::kTsv);

  const auto prom = parse_request_line("#METRICS PROM");
  ASSERT_EQ(prom.kind, LineKind::kMetrics);
  EXPECT_EQ(prom.metrics_flavour, MetricsFlavour::kProm);

  const auto bad = parse_request_line("#METRICS XML");
  EXPECT_EQ(bad.kind, LineKind::kMalformed);
  EXPECT_NE(bad.error.find("XML"), std::string::npos);
}

TEST_F(ServeTest, MetricsScrapeFlavoursConserveCountsOverSocket) {
  ServiceConfig config;
  config.workers = 2;
  TaggingService service(*model_, config);
  SocketServer server(service, {});  // port 0 = ephemeral
  server.start();

  ClientConnection connection;
  connection.connect("127.0.0.1", server.port());
  const std::size_t n = std::min<std::size_t>(16, sentences_->size());
  for (std::size_t i = 0; i < n; ++i) {
    std::string line = "s" + std::to_string(i) + '\t';
    for (std::size_t t = 0; t < (*sentences_)[i].size(); ++t) {
      if (t > 0) line += ' ';
      line += (*sentences_)[i].tokens[t];
    }
    connection.send_line(line);
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::string response;
    ASSERT_TRUE(connection.recv_line(response));
  }

  // TSV flavour: name<TAB>value lines until "#END". The CI chaos smoke
  // asserts the same conservation law with awk over this exact format.
  connection.send_line("#METRICS TSV");
  std::map<std::string, std::string> tsv;
  std::string line;
  while (true) {
    ASSERT_TRUE(connection.recv_line(line));
    if (line == "#END") break;
    const auto tab = line.find('\t');
    ASSERT_NE(tab, std::string::npos) << line;
    tsv[line.substr(0, tab)] = line.substr(tab + 1);
  }
  auto tsv_count = [&](const std::string& name) -> std::uint64_t {
    const auto it = tsv.find(name);
    return it == tsv.end() ? 0 : std::stoull(it->second);
  };
  EXPECT_EQ(tsv_count("serve.submitted"), n);
  EXPECT_EQ(tsv_count("serve.errors"), 0U);
  // Conservation: every submitted request is accounted for exactly once.
  EXPECT_EQ(tsv_count("serve.submitted"),
            tsv_count("serve.completed") + tsv_count("serve.rejected_overload") +
                tsv_count("serve.rejected_shutdown") +
                tsv_count("serve.deadline_expired"));
  EXPECT_EQ(tsv.count("serve.queue_wait_us.p50"), 1U);
  EXPECT_EQ(tsv.count("serve.queue_depth"), 1U);

  // JSON flavour: one line, same snapshot, serve.* names inside.
  connection.send_line("#METRICS JSON");
  std::string json_line;
  ASSERT_TRUE(connection.recv_line(json_line));
  EXPECT_EQ(json_line.front(), '{');
  EXPECT_NE(json_line.find("\"serve.submitted\":" + std::to_string(n)),
            std::string::npos)
      << json_line;
  EXPECT_NE(json_line.find("\"serve.completed\":" + std::to_string(n)),
            std::string::npos)
      << json_line;

  // Prometheus flavour: typed series until "# EOF".
  connection.send_line("#METRICS PROM");
  bool saw_type = false;
  bool saw_submitted = false;
  while (true) {
    ASSERT_TRUE(connection.recv_line(line));
    if (line == "# EOF") break;
    if (line == "# TYPE graphner_serve_submitted counter") saw_type = true;
    if (line == "graphner_serve_submitted " + std::to_string(n))
      saw_submitted = true;
  }
  EXPECT_TRUE(saw_type);
  EXPECT_TRUE(saw_submitted);

  connection.send_line("#QUIT");
  std::string eof_line;
  EXPECT_FALSE(connection.recv_line(eof_line));
  server.stop();
  service.stop();
}

TEST(ServeProtocol, FormatsBothFlavoursAndSanitizes) {
  Request tsv_request;
  tsv_request.id = "id\twith\ttabs";
  TagResponse ok;
  ok.tags = {text::Tag::kB, text::Tag::kI, text::Tag::kO};
  EXPECT_EQ(format_response(tsv_request, ok), "id with tabs\tOK\tB I O");

  TagResponse overloaded;
  overloaded.status = Status::kOverloaded;
  overloaded.error = "queue full";
  Request plain;
  plain.id = "r9";
  EXPECT_EQ(format_response(plain, overloaded), "r9\tOVERLOADED\tqueue full");

  Request json_request;
  json_request.id = "q\"1";
  json_request.json = true;
  EXPECT_EQ(format_response(json_request, ok),
            "{\"id\":\"q\\\"1\",\"status\":\"ok\",\"tags\":[\"B\",\"I\",\"O\"]}");
  EXPECT_EQ(format_response(json_request, overloaded),
            "{\"id\":\"q\\\"1\",\"status\":\"overloaded\","
            "\"error\":\"queue full\"}");
}

}  // namespace
}  // namespace graphner::serve
