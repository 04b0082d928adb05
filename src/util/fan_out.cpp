#include "util/fan_out.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace dlsched {

namespace {

/// One `fan_out` call: the index range every lane claims from.  It lives
/// on the caller's stack; the caller does not return before every helper
/// that picked it up has left it.
struct Task {
  Task(std::size_t n, const std::function<void(std::size_t)>& fn)
      : count(n), body(fn) {}

  /// Claims and runs indices until the range is exhausted or a body
  /// throws; the first exception closes the range for every lane.
  void drain() {
    for (std::size_t i = next.fetch_add(1); i < count;
         i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
        next.store(count);
        return;
      }
    }
  }

  const std::size_t count;
  const std::function<void(std::size_t)>& body;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written once, by the lane that set `failed`
  std::size_t running = 0;   // helpers inside drain(); guarded by the pool
  std::condition_variable left;  // `running` dropped to 0
};

/// One helper thread's record.  Records are never freed, so a caller's
/// pointer to one stays valid across a fork-time quiesce.
struct Helper {
  std::thread thread;
  std::condition_variable wake;
  Task* task = nullptr;   // assigned work; guarded by the pool mutex
  bool started = false;   // the helper picked `task` up; guarded likewise
  bool quit = false;      // leave once idle (fork quiesce); guarded likewise
};

class Pool {
 public:
  /// Never destroyed: parked helpers may outlive static destruction.
  static Pool& instance() {
    static Pool* pool = new Pool();
    return *pool;
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  void run(std::size_t count, std::size_t lanes,
           const std::function<void(std::size_t)>& body);

  std::size_t live_helpers() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return helpers_.size() - stopped_.size();
  }

 private:
  Pool() {
    DLSCHED_EXPECT(
        ::pthread_atfork([] { instance().quiesce(); },
                         [] { instance().resume(); },
                         [] { instance().resume(); }) == 0,
        "fan_out: cannot register the fork handlers");
  }

  /// Assigns `task` to an idle helper, restarts a stopped one or creates
  /// one while the pool is smaller than `lanes - 1`; nullptr when none is
  /// available.  Caller holds `mutex_`.
  Helper* recruit_locked(Task& task, std::size_t lanes);
  void helper_loop(Helper& self);

  /// fork() prepare handler: joins every helper and returns with `mutex_`
  /// held, so no other thread is mid-update when the process is copied
  /// and the child starts with no thread behind any record.
  void quiesce();
  /// fork() parent and child handler: reopens the pool; helpers respawn
  /// on demand.
  void resume();

  std::mutex mutex_;
  std::vector<std::unique_ptr<Helper>> helpers_;  // every record
  std::vector<Helper*> idle_;     // parked; the most recently parked last
  std::vector<Helper*> stopped_;  // records without a thread
  bool quiescing_ = false;        // a fork is in progress
};

Helper* Pool::recruit_locked(Task& task, std::size_t lanes) {
  Helper* helper = nullptr;
  if (!idle_.empty()) {
    // Most recently parked first: its caches are the warmest, and a run
    // of equal-width calls keeps reusing the same few helpers.
    helper = idle_.back();
    idle_.pop_back();
    helper->task = &task;
    return helper;
  }
  if (!stopped_.empty()) {
    helper = stopped_.back();
    stopped_.pop_back();
  } else if (helpers_.size() + 1 < lanes) {
    helpers_.push_back(std::make_unique<Helper>());
    helper = helpers_.back().get();
  } else {
    return nullptr;
  }
  helper->task = &task;
  try {
    helper->thread = std::thread([this, helper] { helper_loop(*helper); });
  } catch (const std::system_error&) {
    // Out of threads: the lanes already recruited (and the caller) cover
    // the range.
    helper->task = nullptr;
    stopped_.push_back(helper);
    return nullptr;
  }
  return helper;
}

void Pool::run(std::size_t count, std::size_t lanes,
               const std::function<void(std::size_t)>& body) {
  Task task(count, body);
  std::vector<Helper*> recruited;
  recruited.reserve(lanes - 1);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    while (!quiescing_ && recruited.size() + 1 < lanes) {
      Helper* helper = recruit_locked(task, lanes);
      if (helper == nullptr) break;
      recruited.push_back(helper);
    }
  }
  for (Helper* helper : recruited) helper->wake.notify_one();

  task.drain();

  std::unique_lock<std::mutex> lock(mutex_);
  // Helpers that have not picked the task up yet would only wake to an
  // exhausted range: take the assignment back instead of waiting for them.
  for (Helper* helper : recruited) {
    if (helper->task != &task || helper->started) continue;
    helper->task = nullptr;
    if (!helper->quit) idle_.push_back(helper);
  }
  task.left.wait(lock, [&] { return task.running == 0; });
  lock.unlock();
  if (task.error) std::rethrow_exception(task.error);
}

void Pool::helper_loop(Helper& self) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    self.wake.wait(lock, [&] { return self.task != nullptr || self.quit; });
    if (self.task == nullptr) return;  // quiesced while idle
    Task& task = *self.task;
    self.started = true;
    ++task.running;
    lock.unlock();
    task.drain();
    lock.lock();
    self.task = nullptr;
    self.started = false;
    // Park before releasing the caller, so a caller that starts its next
    // call at once finds this helper idle again.
    if (!self.quit) idle_.push_back(&self);
    // Notify under the lock: the task dies as soon as its caller wakes.
    if (--task.running == 0) task.left.notify_one();
  }
}

void Pool::quiesce() {
  std::vector<Helper*> leaving;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    quiescing_ = true;
    for (const std::unique_ptr<Helper>& helper : helpers_) {
      if (!helper->thread.joinable()) continue;
      helper->quit = true;
      leaving.push_back(helper.get());
    }
  }
  // A busy helper finishes its share of the running call first.
  for (Helper* helper : leaving) {
    helper->wake.notify_one();
    helper->thread.join();
  }
  mutex_.lock();  // held across fork(); resume() releases it
  idle_.clear();
  for (Helper* helper : leaving) {
    helper->quit = false;
    stopped_.push_back(helper);
  }
}

void Pool::resume() {
  quiescing_ = false;
  mutex_.unlock();
}

}  // namespace

std::size_t lane_count(std::size_t requested, std::size_t items) noexcept {
  static const std::size_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  const std::size_t lanes = requested != 0 ? requested : hardware;
  return std::max<std::size_t>(1, std::min(lanes, items));
}

void fan_out(std::size_t count, std::size_t lanes,
             const std::function<void(std::size_t)>& body) {
  if (lanes <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  Pool::instance().run(count, std::min(lanes, count), body);
}

std::size_t fan_out_helpers() { return Pool::instance().live_helpers(); }

}  // namespace dlsched
