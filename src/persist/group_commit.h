// Group commit: a leader/follower commit queue that batches
// concurrently-arriving WAL records into one write() + one fsync.
//
// Per-op fsync is the writer-throughput ceiling — every committed writer
// operation pays a full device flush before its call returns. Under N
// concurrent writers the queue amortizes: ops enqueue their encoded
// records *under the engine's exclusive lock* (so queue order == epoch
// order == WAL replay order, preserving the serial-equivalence contract),
// release the lock, and wait. The first waiter to find the queue
// unled becomes the leader, takes every pending record, and appends them
// with WalWriter::AppendBatch — all frames in one write, one fsync for
// the lot — then distributes the shared result. Each op is acked to its
// caller only after that sync returns: durability-before-ack is exactly
// the single-op contract, paid once per batch instead of once per op.
//
// Failure semantics (the PR 6 health machine, batched): a failed batch
// write/sync fails *every* op in the batch — none may be acked, because
// none is provably durable (the file may hold a torn multi-record tail;
// ReadWal's prefix rule discards it frame by frame). The queue then
// poisons itself: later enqueues and pending records fail fast with the
// original cause instead of appending after a hole — a record written
// *behind* a torn region would be unreachable on replay yet acked.
// Reset() (after a successful generation rotation) re-arms the queue on
// the fresh WAL.
//
// Locking: the queue's internal mutex is always acquired *after* the
// engine lock (Enqueue/Flush/Reset run under it) or with no engine lock
// held at all (Wait); the queue never acquires the engine lock, so no
// cycle exists. WAL file I/O stays serialized: the single leader runs
// outside both locks, and every snapshot/rotation path Flush()es first —
// which waits out an in-flight leader — before touching the Env.

#ifndef DAISY_PERSIST_GROUP_COMMIT_H_
#define DAISY_PERSIST_GROUP_COMMIT_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "persist/wal.h"

namespace daisy {
namespace persist {

class GroupCommitQueue {
 public:
  /// One enqueued record's completion slot. `done`/`result` are guarded
  /// by the queue mutex (not annotatable: the Ticket outlives any one
  /// queue and the analysis can't tie a struct to an external capability);
  /// shared_ptr so the op thread and the queue can both outlive each
  /// other safely.
  struct Ticket {
    Status result = Status::OK();
    bool done = false;
  };
  using TicketPtr = std::shared_ptr<Ticket>;

  /// `writer` must outlive the queue or be replaced via Reset() first.
  explicit GroupCommitQueue(WalWriter* writer) : writer_(writer) {}

  GroupCommitQueue(const GroupCommitQueue&) = delete;
  GroupCommitQueue& operator=(const GroupCommitQueue&) = delete;

  /// Queues one encoded record for the next batch. MUST be called under
  /// the engine's exclusive lock — that is what makes queue order equal
  /// epoch order. If the queue is poisoned the returned ticket is already
  /// done, carrying the poison cause (the record is not queued: it would
  /// land behind a torn region and be unreachable on replay).
  TicketPtr Enqueue(std::string payload);

  /// Blocks until `ticket`'s batch committed (leading the commit if the
  /// queue is unled) and returns its result. MUST be called *without* the
  /// engine lock — the whole point is that the engine stays available to
  /// other ops while this one waits for the shared fsync.
  Status Wait(const TicketPtr& ticket);

  /// Drains the queue: waits out an in-flight leader, then commits every
  /// pending record inline. Called under the engine's exclusive lock
  /// (which is what guarantees no new Enqueue can race the drain) before
  /// any snapshot/rotation I/O, so WAL writes never interleave with other
  /// Env calls. Returns the first failure (a poisoned queue reports its
  /// poison even when empty — the caller is about to trust the file).
  Status Flush();

  /// Re-arms the queue on a fresh WAL after a generation rotation:
  /// replaces the writer and clears the poison. Caller must hold the
  /// engine's exclusive lock and have Flush()ed (the queue must be idle).
  void Reset(WalWriter* writer);

  /// Test hook: while held, no waiter takes leadership, so records from
  /// concurrent ops pile into one pending batch; releasing commits them
  /// together. Flush() ignores the hold.
  void TestHoldCommits(bool hold);

  /// Test hook: records currently pending (not yet taken by a leader).
  size_t TestPendingDepth();

 private:
  Mutex mu_;
  CondVar cv_;
  WalWriter* writer_ DAISY_GUARDED_BY(mu_);
  /// FIFO in engine-epoch order; each entry is (encoded record, ticket).
  std::vector<std::pair<std::string, TicketPtr>> pending_
      DAISY_GUARDED_BY(mu_);
  /// a leader is running AppendBatch
  bool committing_ DAISY_GUARDED_BY(mu_) = false;
  bool hold_ DAISY_GUARDED_BY(mu_) = false;  ///< TestHoldCommits
  Status poison_ DAISY_GUARDED_BY(mu_) = Status::OK();
};

}  // namespace persist
}  // namespace daisy

#endif  // DAISY_PERSIST_GROUP_COMMIT_H_
