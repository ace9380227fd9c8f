// Annotated locking primitives: thin wrappers over std::mutex /
// std::shared_mutex / std::condition_variable carrying the Clang
// thread-safety capability annotations (common/thread_annotations.h), plus
// the RAII guards that go with them.
//
// Every lock in Daisy goes through these types so the locking protocol is
// machine-checked: which field a mutex guards is written as
// DAISY_GUARDED_BY on the field, which lock a method needs as
// DAISY_REQUIRES / DAISY_REQUIRES_SHARED on the method, and
// `clang++ -Wthread-safety -Werror=thread-safety` (the static-analysis CI
// leg) rejects any access that breaks the contract. On GCC the annotations
// compile away and the wrappers are zero-cost forwarding shims.
//
// scripts/daisy_lint.py enforces the migration: spelling std::mutex /
// std::shared_mutex / std::condition_variable / std::*_lock outside this
// header fails the lint (std::thread is allowed only in the approved
// worker-pool files — see the linter's allowlist).
//
// Usage:
//
//   class Engine {
//     Status Mutate() {
//       WriterLock lock(&mu_);
//       return MutateLocked();             // ok: exclusive hold
//     }
//     Status MutateLocked() DAISY_REQUIRES(mu_);
//     SharedMutex mu_;
//     uint64_t epoch_ DAISY_GUARDED_BY(mu_) = 0;
//   };

#ifndef DAISY_COMMON_MUTEX_H_
#define DAISY_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace daisy {

class CondVar;

/// Plain exclusive mutex (annotated std::mutex).
class DAISY_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DAISY_ACQUIRE() { mu_.lock(); }
  void Unlock() DAISY_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Reader/writer mutex (annotated std::shared_mutex). Exclusive hold
/// satisfies shared requirements (a writer may call REQUIRES_SHARED
/// methods).
class DAISY_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() DAISY_ACQUIRE() { mu_.lock(); }
  void Unlock() DAISY_RELEASE() { mu_.unlock(); }
  void LockShared() DAISY_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() DAISY_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive guard over Mutex. Supports the leader/follower pattern
/// (drop the lock for a blocking call, retake it after) via Unlock()/
/// Relock(); the destructor releases only if still held.
class DAISY_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) DAISY_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() DAISY_RELEASE() {
    if (held_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases early (e.g. around a blocking I/O call).
  void Unlock() DAISY_RELEASE() {
    mu_->Unlock();
    held_ = false;
  }

  /// Retakes the lock after an early Unlock().
  void Relock() DAISY_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  Mutex* const mu_;
  bool held_ = true;
};

/// RAII shared (reader) guard over SharedMutex.
class DAISY_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) DAISY_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderLock() DAISY_RELEASE() { mu_->UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII exclusive (writer) guard over SharedMutex.
class DAISY_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) DAISY_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterLock() DAISY_RELEASE() { mu_->Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Condition variable paired with daisy::Mutex. Wait() requires the mutex
/// held (enforced by the analysis); it atomically releases while blocked
/// and reacquires before returning, exactly like
/// std::condition_variable::wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Caller must hold `mu` (typically via a MutexLock on the same mutex).
  /// Spurious wakeups happen; always wait in a predicate loop.
  void Wait(Mutex* mu) DAISY_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // the caller's guard still owns the relocked mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace daisy

#endif  // DAISY_COMMON_MUTEX_H_
