#include "src/router/replica.hpp"

#include <utility>

namespace graphner::router {

InProcessReplica::InProcessReplica(
    std::shared_ptr<const core::GraphNerModel> model,
    serve::ServiceConfig config)
    : service_(std::move(model), config) {}

ReplicaSubmission InProcessReplica::submit(text::Sentence sentence,
                                           serve::SubmitOptions options) {
  if (!healthy()) return {};
  // A kill() racing this submit still lets the request in; it decodes on
  // the live workers like everything else already queued. Only a
  // concurrent stop() can answer SHUTDOWN, and the router fails over.
  return {service_.submit(std::move(sentence), std::move(options)), true};
}

void InProcessReplica::kill() noexcept {
  State up = State::kUp;
  state_.compare_exchange_strong(up, State::kDown);
}

void InProcessReplica::revive() noexcept {
  State down = State::kDown;
  state_.compare_exchange_strong(down, State::kUp);
}

void InProcessReplica::stop() {
  if (state_.exchange(State::kStopped) == State::kStopped) return;
  service_.stop();
}

}  // namespace graphner::router
