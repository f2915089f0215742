#include "disk/scheduler.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace raid2::disk {

void
FcfsScheduler::push(DiskRequest req)
{
    queue.push_back(std::move(req));
}

DiskRequest
FcfsScheduler::pop(std::uint64_t)
{
    if (empty())
        sim::panic("FcfsScheduler::pop on empty queue");
    DiskRequest req = std::move(queue[head++]);
    if (head == queue.size()) {
        queue.clear();
        head = 0;
    } else if (2 * head > queue.size()) {
        queue.erase(queue.begin(), queue.begin() + head);
        head = 0;
    }
    return req;
}

void
ElevatorScheduler::push(DiskRequest req)
{
    queue.push_back(std::move(req));
}

DiskRequest
ElevatorScheduler::pop(std::uint64_t current_sector)
{
    if (queue.empty())
        sim::panic("ElevatorScheduler::pop on empty queue");

    // Prefer the smallest start sector at or beyond the head; if none,
    // wrap to the overall smallest (C-SCAN).
    auto best = queue.end();
    auto smallest = queue.begin();
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->startSector < smallest->startSector)
            smallest = it;
        if (it->startSector >= current_sector &&
            (best == queue.end() || it->startSector < best->startSector)) {
            best = it;
        }
    }
    if (best == queue.end())
        best = smallest;
    DiskRequest req = std::move(*best);
    queue.erase(best);
    return req;
}

std::unique_ptr<Scheduler>
makeFcfsScheduler()
{
    return std::make_unique<FcfsScheduler>();
}

std::unique_ptr<Scheduler>
makeElevatorScheduler()
{
    return std::make_unique<ElevatorScheduler>();
}

} // namespace raid2::disk
