#include "util/fan_out.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace dlsched {

namespace {

struct Task;

/// What a thread is running: the call whose body it is in (nullptr at top
/// level and inside inline calls) and the most lanes a call opened there
/// may use.
struct Frame {
  Task* task = nullptr;
  std::size_t lanes = SIZE_MAX;
};

thread_local Frame t_frame;

/// Sets this thread's frame for a scope and restores the outer one.
class FrameScope {
 public:
  FrameScope(Task* task, std::size_t lanes) : outer_(t_frame) {
    t_frame = {task, lanes};
  }
  ~FrameScope() { t_frame = outer_; }
  FrameScope(const FrameScope&) = delete;
  FrameScope& operator=(const FrameScope&) = delete;

 private:
  Frame outer_;
};

/// One `fan_out` call: the index range every lane claims from.  It lives
/// on the caller's stack; the caller does not return before every lane
/// that joined it has left it.
struct Task {
  Task(std::size_t n, std::size_t width, Task* outer,
       const std::function<void(std::size_t)>& fn)
      : count(n), lanes(width), parent(outer), body(fn) {}

  /// Claims and runs indices until the range is exhausted or a body
  /// throws; the first exception closes the range for every lane.
  void drain() {
    const FrameScope scope(this, lanes);
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

  [[nodiscard]] bool exhausted() const { return next.load() >= count; }

  /// True when this call was opened, at any depth, inside `outer`'s body.
  [[nodiscard]] bool beneath(const Task& outer) const {
    for (const Task* t = parent; t != nullptr; t = t->parent) {
      if (t == &outer) return true;
    }
    return false;
  }

  const std::size_t count;
  const std::size_t lanes;  // most lanes that ever run this call
  Task* const parent;       // the call whose body opened this one, if any
  const std::function<void(std::size_t)>& body;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written once, by the lane that set `failed`
  // Guarded by the pool mutex:
  std::size_t joined = 1;   // lanes assigned so far, the caller included
  std::size_t running = 0;  // joined lanes other than the caller, not left
  bool open = false;        // on the pool's open list
  std::condition_variable wake;  // for the caller: `running` dropped to 0,
                                 // or a call beneath this one opened
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

  void run(std::size_t count, std::size_t lanes, Task* parent,
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
                         [] { instance().resume_child(); }) == 0,
        "fan_out: cannot register the fork handlers");
  }

  /// Assigns `task` to an idle helper, restarts a stopped one or creates
  /// one while the pool is smaller than `task.lanes - 1`; nullptr when
  /// none is available.  Caller holds `mutex_`.
  Helper* recruit_locked(Task& task);
  void helper_loop(Helper& self);

  /// Counts one more lane into `task`, closing it once every lane it may
  /// use has joined.  Caller holds `mutex_`.
  void join_locked(Task& task);
  /// A lane other than the caller leaves `task`.  Caller holds `mutex_`,
  /// so the task outlives the notification.
  static void leave_locked(Task& task);
  /// Puts `task` on the open list and wakes the callers above it, which
  /// may be waiting for their helpers.  Caller holds `mutex_`.
  void open_locked(Task& task);
  /// Takes `task` off the open list.  Caller holds `mutex_`.
  void close_locked(Task& task);
  /// The oldest open call with indices left, beneath `outer` when given;
  /// closes exhausted calls on the way.  Caller holds `mutex_`.
  Task* open_call_locked(const Task* outer);

  /// fork() prepare handler: joins every helper and returns with `mutex_`
  /// held, so no other thread is mid-update when the process is copied
  /// and the child starts with no thread behind any record.
  void quiesce();
  /// fork() parent handler: reopens the pool; helpers respawn on demand.
  void resume();
  /// fork() child handler: as `resume`, and forgets the open calls, whose
  /// callers do not exist in the child.
  void resume_child();

  std::mutex mutex_;
  std::vector<std::unique_ptr<Helper>> helpers_;  // every record
  std::vector<Helper*> idle_;     // parked; the most recently parked last
  std::vector<Helper*> stopped_;  // records without a thread
  std::vector<Task*> open_;       // calls with a free lane; oldest first
  bool quiescing_ = false;        // a fork is in progress
};

void Pool::join_locked(Task& task) {
  ++task.joined;
  ++task.running;
  if (task.joined >= task.lanes) close_locked(task);
}

void Pool::leave_locked(Task& task) {
  if (--task.running == 0) task.wake.notify_one();
}

void Pool::open_locked(Task& task) {
  task.open = true;
  open_.push_back(&task);
  for (Task* outer = task.parent; outer != nullptr; outer = outer->parent) {
    outer->wake.notify_one();
  }
}

void Pool::close_locked(Task& task) {
  if (!task.open) return;
  task.open = false;
  open_.erase(std::find(open_.begin(), open_.end(), &task));
}

Task* Pool::open_call_locked(const Task* outer) {
  for (std::size_t k = 0; k < open_.size();) {
    Task* task = open_[k];
    if (task->exhausted()) {
      close_locked(*task);
      continue;
    }
    if (outer == nullptr || task->beneath(*outer)) return task;
    ++k;
  }
  return nullptr;
}

Helper* Pool::recruit_locked(Task& task) {
  Helper* helper = nullptr;
  if (!idle_.empty()) {
    // Most recently parked first: its caches are the warmest, and a run
    // of equal-width calls keeps reusing the same few helpers.
    helper = idle_.back();
    idle_.pop_back();
    helper->task = &task;
    join_locked(task);
    return helper;
  }
  if (!stopped_.empty()) {
    helper = stopped_.back();
    stopped_.pop_back();
  } else if (helpers_.size() + 1 < task.lanes) {
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
  join_locked(task);
  return helper;
}

void Pool::run(std::size_t count, std::size_t lanes, Task* parent,
               const std::function<void(std::size_t)>& body) {
  Task task(count, lanes, parent, body);
  std::vector<Helper*> recruited;
  recruited.reserve(lanes - 1);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    while (!quiescing_ && task.joined < lanes) {
      Helper* helper = recruit_locked(task);
      if (helper == nullptr) break;
      recruited.push_back(helper);
    }
    // Every lane is busy: lanes that run out of work later join here.
    if (!quiescing_ && task.joined < lanes) open_locked(task);
  }
  for (Helper* helper : recruited) helper->wake.notify_one();

  task.drain();

  std::unique_lock<std::mutex> lock(mutex_);
  close_locked(task);
  // Helpers that have not picked the task up yet would only wake to an
  // exhausted range: take the assignment back instead of waiting for them.
  for (Helper* helper : recruited) {
    if (helper->task != &task || helper->started) continue;
    helper->task = nullptr;
    --task.running;
    if (!helper->quit) idle_.push_back(helper);
  }
  // Wait for the lanes still inside, running the indices of calls opened
  // beneath this one meanwhile: those calls are what the lanes wait on.
  // An unrelated call is never joined here, so this caller never waits
  // behind another caller's job.
  while (task.running != 0) {
    Task* below = open_call_locked(&task);
    if (below == nullptr) {
      task.wake.wait(lock);
      continue;
    }
    join_locked(*below);
    lock.unlock();
    below->drain();
    lock.lock();
    leave_locked(*below);
  }
  lock.unlock();
  if (task.error) std::rethrow_exception(task.error);
}

void Pool::helper_loop(Helper& self) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    self.wake.wait(lock, [&] { return self.task != nullptr || self.quit; });
    if (self.task == nullptr) return;  // quiesced while idle
    self.started = true;
    while (self.task != nullptr) {
      Task& task = *self.task;
      lock.unlock();
      task.drain();
      lock.lock();
      // Join an open call before parking, unless a fork waits for this
      // helper to leave.
      self.task = self.quit ? nullptr : open_call_locked(nullptr);
      if (self.task != nullptr) {
        join_locked(*self.task);
      } else {
        self.started = false;
        // Park before releasing the caller, so a caller that starts its
        // next call at once finds this helper idle again.
        if (!self.quit) idle_.push_back(&self);
      }
      leave_locked(task);
    }
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

void Pool::resume_child() {
  open_.clear();
  resume();
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
  const Frame outer = t_frame;
  lanes = std::min({lanes, count, outer.lanes});
  if (lanes <= 1) {
    // One lane: calls opened inside run inline too.
    const FrameScope scope(nullptr, 1);
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  Pool::instance().run(count, lanes, outer.task, body);
}

std::size_t fan_out_helpers() { return Pool::instance().live_helpers(); }

}  // namespace dlsched
