/**
 * @file
 * Disk command queue scheduling policies.
 *
 * The drives of the era accepted one command at a time; queueing
 * happens in the (simulated) driver.  FCFS matches the paper's
 * prototype; a C-SCAN elevator is provided for ablation studies.
 */

#ifndef RAID2_DISK_SCHEDULER_HH
#define RAID2_DISK_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event.hh"
#include "sim/types.hh"

namespace raid2::disk {

using sim::Tick;

/** One queued disk command (media phase only; see DiskModel). */
struct DiskRequest
{
    std::uint64_t startSector = 0;
    std::uint32_t sectors = 0;
    bool write = false;
    sim::Event done;
    Tick submitTick = 0;
};

/** Queue-order policy for pending disk commands.  Both policies keep
 *  their queue in a vector that retains its capacity, so a warm drive
 *  queues commands without allocating. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    virtual void push(DiskRequest req) = 0;
    /** Select and remove the next command given the head position. */
    virtual DiskRequest pop(std::uint64_t current_sector) = 0;
    virtual bool empty() const = 0;
    virtual std::size_t size() const = 0;
};

/** First-come first-served (the prototype's policy). */
class FcfsScheduler : public Scheduler
{
  public:
    void push(DiskRequest req) override;
    DiskRequest pop(std::uint64_t current_sector) override;
    bool empty() const override { return head == queue.size(); }
    std::size_t size() const override { return queue.size() - head; }

  private:
    /** queue[head..] are pending; the popped prefix is dropped when the
     *  queue drains or grows to more than half of it. */
    std::vector<DiskRequest> queue;
    std::size_t head = 0;
};

/** C-SCAN elevator: service ascending sector order, wrap at the end. */
class ElevatorScheduler : public Scheduler
{
  public:
    void push(DiskRequest req) override;
    DiskRequest pop(std::uint64_t current_sector) override;
    bool empty() const override { return queue.empty(); }
    std::size_t size() const override { return queue.size(); }

  private:
    std::vector<DiskRequest> queue;
};

std::unique_ptr<Scheduler> makeFcfsScheduler();
std::unique_ptr<Scheduler> makeElevatorScheduler();

} // namespace raid2::disk

#endif // RAID2_DISK_SCHEDULER_HH
