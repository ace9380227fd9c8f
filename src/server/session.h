// Per-connection session state for daisyd.
//
// One Session lives for exactly one accepted connection, owned by the
// worker thread serving it. The interesting member is `disconnected`: a
// hangup watchdog thread peeks the socket (MSG_PEEK | MSG_DONTWAIT) while
// statements execute and flips the flag the moment the peer goes away.
// The serve loop wires the flag into every QueryLimits as the cooperative
// cancel pointer, so a query whose client vanished is cut at the next
// batch/rule boundary instead of running (and cleaning) to completion for
// nobody — the engine's monotone-prefix contract makes the cut safe.

#ifndef DAISY_SERVER_SESSION_H_
#define DAISY_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>

#include "common/timer.h"

namespace daisy {

class Histogram;

namespace server {

struct Session {
  uint64_t id = 0;
  int fd = -1;
  /// Set by the hangup watchdog; read (relaxed) by executing queries as
  /// their cooperative cancel flag and by the serve loop between frames.
  std::atomic<bool> disconnected{false};

  // Per-session statement counters (server-side observability).
  uint64_t queries = 0;
  uint64_t writes = 0;

  /// The request being served: its latency histogram (null once observed)
  /// and its clock, started when its frame was read.
  Histogram* request_latency = nullptr;
  Timer request_timer;
};

}  // namespace server
}  // namespace daisy

#endif  // DAISY_SERVER_SESSION_H_
