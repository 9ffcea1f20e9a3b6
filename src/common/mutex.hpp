// Annotated mutex / scoped-lock / condition-variable wrappers.
//
// libstdc++'s std::mutex carries no thread-safety annotations, so Clang's
// -Wthread-safety cannot see a std::lock_guard acquire it and every
// AEEP_GUARDED_BY member would warn even in correct code. These thin
// wrappers put the annotations on the lock operations themselves; they are
// the only mutex types the concurrent subsystems use.
//
//   aeep::Mutex     — std::mutex with ACQUIRE/RELEASE-annotated lock ops
//   aeep::MutexLock — std::lock_guard equivalent (scoped capability)
//   aeep::CondVar   — condition variable waiting on a Mutex; every wait
//                     is annotated AEEP_REQUIRES(mutex) and returns with
//                     the mutex re-held, matching the analysis model
//
// There is deliberately no unique_lock equivalent with unlock()/lock():
// the mid-scope-unlock pattern is where lock bugs breed, and every former
// use of it in this codebase restructured cleanly into brace scopes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.hpp"

namespace aeep {

class AEEP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() AEEP_ACQUIRE() { impl_.lock(); }
  void unlock() AEEP_RELEASE() { impl_.unlock(); }

 private:
  friend class CondVar;
  std::mutex impl_;
};

/// Scoped lock: acquires in the constructor, releases in the destructor.
class AEEP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) AEEP_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() AEEP_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable bound to aeep::Mutex. Waits drop and re-take the
/// underlying std::mutex directly (invisible to the analysis), so from the
/// checker's point of view the capability is held across the wait — which
/// is exactly the guarantee the caller observes on return.
class CondVar {
 public:
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  void wait(Mutex& mutex) AEEP_REQUIRES(mutex) { cv_.wait(mutex.impl_); }

  template <typename Pred>
  void wait(Mutex& mutex, Pred pred) AEEP_REQUIRES(mutex) {
    while (!pred()) wait(mutex);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mutex,
                          const std::chrono::duration<Rep, Period>& dur)
      AEEP_REQUIRES(mutex) {
    return cv_.wait_for(mutex.impl_, dur);
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      Mutex& mutex, const std::chrono::time_point<Clock, Duration>& deadline)
      AEEP_REQUIRES(mutex) {
    return cv_.wait_until(mutex.impl_, deadline);
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace aeep
