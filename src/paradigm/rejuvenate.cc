#include "src/paradigm/rejuvenate.h"

#include "src/pcr/errors.h"

namespace paradigm {

RejuvenatingTask::RejuvenatingTask(pcr::Runtime& runtime, std::string name,
                                   std::function<void()> body, Options options)
    : state_(std::make_shared<State>()) {
  state_->runtime = &runtime;
  state_->name = std::move(name);
  state_->body = std::move(body);
  state_->options = options;
  Launch(state_);
}

RejuvenatingTask::~RejuvenatingTask() { state_->cancelled = true; }

void RejuvenatingTask::Launch(std::shared_ptr<State> state) {
  pcr::Runtime& runtime = *state->runtime;
  std::string thread_name =
      state->name + (state->rejuvenations == 0
                         ? ""
                         : '#' + std::to_string(state->rejuvenations));
  runtime.ForkDetached(
      [state] {
        try {
          state->body();
        } catch (const pcr::ThreadKilled&) {
          throw;  // shutdown unwinding is not a failure; never rejuvenate past it
        } catch (const std::exception& e) {
          state->failures.emplace_back(e.what());
        } catch (...) {
          state->failures.emplace_back("(non-standard exception)");
        }
        if (state->failures.size() <= static_cast<size_t>(state->rejuvenations)) {
          return;  // clean exit: the service finished on purpose
        }
        if (state->cancelled) {
          return;
        }
        if (state->options.max_rejuvenations >= 0 &&
            state->rejuvenations >= state->options.max_rejuvenations) {
          state->gave_up = true;
          return;
        }
        ++state->rejuvenations;
        Launch(state);  // "Ok let's make two of them!"
      },
      pcr::ForkOptions{.name = std::move(thread_name), .priority = state->options.priority});
}

}  // namespace paradigm
