#include "storage/storage_element.h"

#include <algorithm>

namespace udr::storage {

StorageElement::StorageElement(StorageElementConfig config,
                               sim::SimClock* clock, uint32_t replica_id)
    : config_(std::move(config)),
      clock_(clock),
      replica_id_(replica_id) {}

MicroDuration StorageElement::ReadServiceTime() const {
  // The checkpoint pass steals cycles from the engine; amortized as a small
  // factor that grows as the period shrinks (5-minute period = configured
  // factor; 1-minute period = 5x the factor, etc.).
  double factor = config_.checkpoint_overhead_factor *
                  (static_cast<double>(Minutes(5)) /
                   static_cast<double>(std::max<MicroDuration>(
                       config_.checkpoint_period, Seconds(1))));
  return static_cast<MicroDuration>(
      static_cast<double>(config_.read_service_time) * (1.0 + factor));
}

MicroDuration StorageElement::WriteServiceTime(int ops) const {
  double factor = config_.checkpoint_overhead_factor *
                  (static_cast<double>(Minutes(5)) /
                   static_cast<double>(std::max<MicroDuration>(
                       config_.checkpoint_period, Seconds(1))));
  MicroDuration base = static_cast<MicroDuration>(
      static_cast<double>(config_.write_service_time * ops) * (1.0 + factor));
  if (config_.wal_sync_commit) base += config_.wal_sync_penalty;
  return base;
}

Status StorageElement::CheckCapacity(int64_t bytes) const {
  if (store_.ApproxBytes() + bytes > config_.ram_budget_bytes) {
    return Status::ResourceExhausted(
        config_.name + ": RAM budget exceeded (" +
        std::to_string(store_.ApproxBytes() + bytes) + " > " +
        std::to_string(config_.ram_budget_bytes) + " bytes)");
  }
  return Status::Ok();
}

MicroTime StorageElement::LastCheckpointTime(MicroTime t) const {
  if (config_.checkpoint_period <= 0) return t;
  return (t / config_.checkpoint_period) * config_.checkpoint_period;
}

CrashRecovery StorageElement::LocalRecovery(const CommitLog& log,
                                            MicroTime crash_time) const {
  CrashRecovery out;
  out.crash_time = crash_time;
  out.last_seq_before_crash = log.SeqAtTime(crash_time);
  // Under wal-sync every commit is forced to disk before it is acknowledged.
  out.recovered_seq = log.SeqAtTime(
      config_.wal_sync_commit ? crash_time : LastCheckpointTime(crash_time));
  out.lost_transactions =
      static_cast<int64_t>(out.last_seq_before_crash - out.recovered_seq);
  if (out.lost_transactions > 0) {
    const LogEntry& first_lost = log.At(out.recovered_seq + 1);
    out.data_loss_window = crash_time - first_lost.commit_time;
  }
  return out;
}

}  // namespace udr::storage
