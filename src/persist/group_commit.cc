#include "persist/group_commit.h"

namespace daisy {
namespace persist {

GroupCommitQueue::TicketPtr GroupCommitQueue::Enqueue(std::string payload) {
  MutexLock lk(&mu_);
  auto ticket = std::make_shared<Ticket>();
  if (!poison_.ok()) {
    ticket->result = poison_;
    ticket->done = true;
    return ticket;
  }
  pending_.emplace_back(std::move(payload), ticket);
  return ticket;
}

Status GroupCommitQueue::Wait(const TicketPtr& ticket) {
  MutexLock lk(&mu_);
  for (;;) {
    if (ticket->done) return ticket->result;
    if (!committing_ && !hold_ && !pending_.empty()) {
      // Become the leader: take the whole queue (our ticket is in it —
      // any earlier leader would have completed it) and commit outside
      // the lock so followers can keep enqueueing the next batch.
      committing_ = true;
      auto batch = std::move(pending_);
      pending_.clear();
      std::vector<std::string> payloads;
      payloads.reserve(batch.size());
      for (auto& entry : batch) payloads.push_back(std::move(entry.first));
      // Snapshot the writer under the lock; Reset() requires an idle
      // queue, so it cannot swap writer_ while committing_ is set.
      WalWriter* writer = writer_;
      lk.Unlock();
      const Status committed = writer->AppendBatch(payloads);
      lk.Relock();
      if (!committed.ok()) poison_ = committed;
      for (auto& entry : batch) {
        entry.second->result = committed;
        entry.second->done = true;
      }
      committing_ = false;
      cv_.NotifyAll();
      continue;  // our own ticket is done now
    }
    cv_.Wait(&mu_);
  }
}

Status GroupCommitQueue::Flush() {
  MutexLock lk(&mu_);
  while (committing_) cv_.Wait(&mu_);
  if (!pending_.empty()) {
    // No leader can start (we hold the mutex) and no enqueuer can race
    // (the caller holds the engine's exclusive lock), so committing
    // inline while holding the mutex is safe.
    auto batch = std::move(pending_);
    pending_.clear();
    Status committed = poison_;
    if (committed.ok()) {
      std::vector<std::string> payloads;
      payloads.reserve(batch.size());
      for (auto& entry : batch) payloads.push_back(std::move(entry.first));
      committed = writer_->AppendBatch(payloads);
      if (!committed.ok()) poison_ = committed;
    }
    for (auto& entry : batch) {
      entry.second->result = committed;
      entry.second->done = true;
    }
    cv_.NotifyAll();
  }
  return poison_;
}

void GroupCommitQueue::Reset(WalWriter* writer) {
  MutexLock lk(&mu_);
  writer_ = writer;
  poison_ = Status::OK();
}

void GroupCommitQueue::TestHoldCommits(bool hold) {
  MutexLock lk(&mu_);
  hold_ = hold;
  if (!hold_) cv_.NotifyAll();
}

size_t GroupCommitQueue::TestPendingDepth() {
  MutexLock lk(&mu_);
  return pending_.size();
}

}  // namespace persist
}  // namespace daisy
