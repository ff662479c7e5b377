#include "src/router/replica.hpp"

#include <thread>
#include <utility>
#include <vector>

namespace graphner::router {

void merge_snapshot(obs::RegistrySnapshot& into,
                    const obs::RegistrySnapshot& from) {
  for (const auto& counter : from.counters) {
    bool merged = false;
    for (auto& existing : into.counters) {
      if (existing.name == counter.name && existing.labels == counter.labels) {
        existing.value += counter.value;
        merged = true;
        break;
      }
    }
    if (!merged) into.counters.push_back(counter);
  }
  for (const auto& gauge : from.gauges) {
    bool replaced = false;
    for (auto& existing : into.gauges) {
      if (existing.name == gauge.name && existing.labels == gauge.labels) {
        existing.value = gauge.value;  // newer observation wins
        replaced = true;
        break;
      }
    }
    if (!replaced) into.gauges.push_back(gauge);
  }
  for (const auto& histogram : from.histograms) {
    bool merged = false;
    for (auto& existing : into.histograms) {
      if (existing.name == histogram.name &&
          existing.labels == histogram.labels) {
        existing.data.merge(histogram.data);
        merged = true;
        break;
      }
    }
    if (!merged) into.histograms.push_back(histogram);
  }
}

InProcessReplica::InProcessReplica(
    std::shared_ptr<const core::GraphNerModel> model,
    serve::ServiceConfig config)
    : config_(config), model_(std::move(model)) {
  service_ = std::make_shared<serve::TaggingService>(*model_, config_);
  healthy_ = true;
}

InProcessReplica::~InProcessReplica() { stop(); }

ReplicaSubmission InProcessReplica::submit(text::Sentence sentence,
                                           serve::SubmitOptions options) {
  std::shared_ptr<serve::TaggingService> service;
  std::uint64_t fingerprint = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!healthy_ || !service_) return {};
    service = service_;
    fingerprint = model_->fingerprint();
  }
  // The router already resolved the tenant onto this replica; the inner
  // service must not second-guess the name against its own default.
  options.model.clear();
  // Submitted outside the lock: submit() never blocks, but a concurrent
  // kill() may stop the service first — then the future resolves with
  // SHUTDOWN and the router fails over to a sibling.
  ReplicaSubmission out;
  out.future = service->submit(std::move(sentence), std::move(options));
  out.fingerprint = fingerprint;
  out.accepted = true;
  return out;
}

bool InProcessReplica::healthy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return healthy_;
}

std::uint64_t InProcessReplica::fingerprint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return model_ ? model_->fingerprint() : 0;
}

std::shared_ptr<const text::LabelSet> InProcessReplica::labels() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!labels_ && model_)
    labels_ = std::make_shared<const text::LabelSet>(model_->labels());
  return labels_;
}

std::shared_ptr<serve::TaggingService> InProcessReplica::detach_locked(
    std::shared_ptr<serve::TaggingService> replacement) {
  auto old = std::exchange(service_, std::move(replacement));
  if (old) draining_.push_back(old.get());
  return old;
}

void InProcessReplica::retire(std::shared_ptr<serve::TaggingService> old) {
  if (!old) return;
  old->stop();  // graceful: drains queued work, every future resolves
  const obs::RegistrySnapshot terminal = old->metrics();
  std::lock_guard<std::mutex> lock(mutex_);
  merge_snapshot(retired_, terminal);
  std::erase(draining_, old.get());
}

void InProcessReplica::kill() {
  std::shared_ptr<serve::TaggingService> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    old = detach_locked(nullptr);
    healthy_ = false;
  }
  retire(std::move(old));
}

void InProcessReplica::revive() {
  std::shared_ptr<const core::GraphNerModel> model;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_ || healthy_) return;
    model = model_;
  }
  auto service = std::make_shared<serve::TaggingService>(*model, config_);
  std::lock_guard<std::mutex> lock(mutex_);
  service_ = std::move(service);
  healthy_ = true;
}

void InProcessReplica::swap_model(
    std::shared_ptr<const core::GraphNerModel> model) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
  }
  // Start the new worker pool first and install it together with its
  // model in one step: no submit ever finds the replica without a live
  // service, so a failover walk never meets it unhealthy mid-swap.
  auto service = std::make_shared<serve::TaggingService>(*model, config_);
  std::shared_ptr<serve::TaggingService> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;  // the unused service stops in its destructor
    old = detach_locked(std::move(service));
    model_ = std::move(model);
    labels_ = nullptr;  // re-materialized from the new model on demand
    healthy_ = true;
  }
  // A submit that read the old service just before the exchange may still
  // be pushing into it. No new reference can appear, so wait for those to
  // drop before stopping admission, or the push would answer SHUTDOWN.
  while (old.use_count() > 1) std::this_thread::yield();
  retire(std::move(old));  // queued requests finish under the old model
}

obs::RegistrySnapshot InProcessReplica::metrics_snapshot() const {
  std::shared_ptr<serve::TaggingService> service;
  obs::RegistrySnapshot out;
  {
    // A draining service is counted here until retire() folds it into
    // retired_ (under this lock), so every service is counted exactly once
    // and the counters never dip mid-swap or mid-kill. Its pointer stays
    // valid while it is listed.
    std::lock_guard<std::mutex> lock(mutex_);
    out = retired_;
    for (const serve::TaggingService* draining : draining_)
      merge_snapshot(out, draining->metrics());
    service = service_;
  }
  if (service) merge_snapshot(out, service->metrics());
  return out;
}

void InProcessReplica::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  kill();
}

}  // namespace graphner::router
