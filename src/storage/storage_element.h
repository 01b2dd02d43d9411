// StorageElement (SE): the unit of storage in the UDR architecture (§2.3,
// §3.4.1). An SE is a shared-nothing group of 2–4 blades holding one primary
// partition copy (and, via the replication layer, secondary copies of other
// partitions) entirely in RAM, with periodic checkpoints to local disk.
//
// Durability model (paper §3.1 + footnote 6):
//   * default: RAM contents are checkpointed to local disk every
//     `checkpoint_period`; an unplanned crash loses every transaction
//     committed after the last checkpoint unless a slave replica already
//     received it;
//   * wal_sync_commit mode: each transaction is forced to disk before commit
//     ("100% guaranteed durability"), at a large per-commit latency penalty —
//     the paper notes this slides the F-R trade-off too far for most
//     providers.
//
// The SE holds no log of its own: commits reach its store through the
// partition's replica set (ReplicaSet::Write applies them and appends to the
// partition's commit log), and the durability model is evaluated over that
// log (LocalRecovery).

#ifndef UDR_STORAGE_STORAGE_ELEMENT_H_
#define UDR_STORAGE_STORAGE_ELEMENT_H_

#include <algorithm>
#include <string>

#include "common/status.h"
#include "common/time.h"
#include "sim/clock.h"
#include "sim/topology.h"
#include "storage/commit_log.h"
#include "storage/record_store.h"

namespace udr::storage {

/// Static configuration of one storage element.
struct StorageElementConfig {
  std::string name = "se";
  sim::SiteId site = 0;
  /// Blades forming the SE (2-4; intra-SE redundancy is handled by the
  /// platform and not modelled beyond the capacity figure).
  int blades = 2;
  /// RAM budget for subscriber data. The paper's state-of-the-art figure is
  /// ~200 GB per SE (one partition). Tests use smaller budgets.
  int64_t ram_budget_bytes = 200LL * 1024 * 1024 * 1024;
  /// Checkpoint-to-local-disk period (§3.1 decision 1).
  MicroDuration checkpoint_period = Minutes(5);
  /// Force transactions to disk before commit (footnote 6).
  bool wal_sync_commit = false;

  // -- Service-time model (per indexed single-record operation) --------------
  /// CPU + memory cost of an indexed read on the storage engine.
  MicroDuration read_service_time = Micros(15);
  /// CPU + memory cost of a write (lock, buffer, apply, log append).
  MicroDuration write_service_time = Micros(25);
  /// Additional per-commit cost of a synchronous disk force.
  MicroDuration wal_sync_penalty = Millis(4);
  /// Throughput tax while a checkpoint pass is running, as a fraction of
  /// service time added on average (storage engine "slightly slowed down",
  /// §3.1). Scales inversely with the checkpoint period.
  double checkpoint_overhead_factor = 0.05;
};

/// What a crash followed by recovery from local disk alone loses.
struct CrashRecovery {
  MicroTime crash_time = 0;
  CommitSeq last_seq_before_crash = 0;
  CommitSeq recovered_seq = 0;       ///< State recovered from local disk.
  int64_t lost_transactions = 0;     ///< Committed txns lost from RAM.
  MicroDuration data_loss_window = 0;///< Age of the oldest lost commit.
};

/// One storage element: the RAM-resident record store plus its service-time,
/// capacity and durability models.
class StorageElement {
 public:
  StorageElement(StorageElementConfig config, sim::SimClock* clock,
                 uint32_t replica_id = 0);

  const StorageElementConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  sim::SiteId site() const { return config_.site; }
  uint32_t replica_id() const { return replica_id_; }

  RecordStore& store() { return store_; }
  const RecordStore& store() const { return store_; }

  // -- Service-time model -----------------------------------------------------

  /// Engine time to serve one indexed read.
  MicroDuration ReadServiceTime() const;
  /// Engine time to execute + commit one write transaction of `ops` writes.
  MicroDuration WriteServiceTime(int ops = 1) const;

  // -- Background streaming load ----------------------------------------------

  /// Charges `service` of engine time to background streaming work (bulk
  /// migration copy / catch-up). The engine serves one stream at a time, so
  /// loads accumulate: a second charge queues behind the first. Foreground
  /// operations arriving before `busy_until` queue behind the stream.
  void AddBackgroundLoad(MicroTime now, MicroDuration service) {
    busy_until_ = std::max(busy_until_, now) + service;
  }
  /// How long a foreground op arriving at `now` waits for in-flight
  /// background streaming work (0 when the engine is idle).
  MicroDuration BackgroundQueueDelay(MicroTime now) const {
    return busy_until_ > now ? busy_until_ - now : 0;
  }
  MicroTime busy_until() const { return busy_until_; }

  // -- Capacity ----------------------------------------------------------------

  /// Remaining RAM budget in bytes.
  int64_t FreeBytes() const { return config_.ram_budget_bytes - store_.ApproxBytes(); }
  /// Checks whether `bytes` more can be stored.
  Status CheckCapacity(int64_t bytes) const;
  /// Estimated subscriber capacity given an average per-record footprint.
  int64_t SubscriberCapacity(int64_t avg_record_bytes) const {
    return config_.ram_budget_bytes / avg_record_bytes;
  }

  // -- Durability --------------------------------------------------------------

  /// Time of the last completed checkpoint at or before `t`.
  MicroTime LastCheckpointTime(MicroTime t) const;

  /// What an unplanned failure of this SE at `crash_time` loses when it
  /// recovers from local disk only (no peer holds the suffix), given the
  /// commit log `log` of the partition it masters: the disk holds the log
  /// prefix up to the last checkpoint (every commit under wal-sync), and the
  /// entries after it are lost. Changes nothing; re-seeding a crashed copy
  /// is ReplicaSet::RecoverReplica.
  CrashRecovery LocalRecovery(const CommitLog& log, MicroTime crash_time) const;

  sim::SimClock* clock() const { return clock_; }

 private:
  StorageElementConfig config_;
  sim::SimClock* clock_;
  uint32_t replica_id_;
  RecordStore store_;
  /// Engine busy horizon from background streaming work (migration).
  MicroTime busy_until_ = 0;
};

}  // namespace udr::storage

#endif  // UDR_STORAGE_STORAGE_ELEMENT_H_
