/**
 * @file
 * Hierarchical statistics registry.
 *
 * Components register their integer counters, Distributions and
 * Utilizations by address under dotted names
 * ("xbus.port.hippi_src.bytes", "disk.0.service_ms"), and a Gauge
 * closure only for a value computed when the registry is dumped (a
 * ratio, a flag, a container size, a tick sum in ms); a bench or tool
 * then dumps the whole tree as text or as nested JSON.  Counters print
 * as exact integers.  The registry stores non-owning pointers: it must
 * not outlive the components that registered with it, which holds
 * naturally because benches create the registry alongside the
 * simulated system and dump it before teardown.
 *
 * The dotted names are the hierarchy: dump() prints them sorted (so
 * siblings group), toJson() nests them into objects at the dots.
 */

#ifndef RAID2_SIM_STATS_REGISTRY_HH
#define RAID2_SIM_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace raid2::sim {

class JsonWriter;

/** Name -> stat registry with text and JSON dumping. */
class StatsRegistry
{
  public:
    /** Closure returning the current value of a derived statistic. */
    using Gauge = std::function<double()>;

    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    /** @{ Register a stat under @p name (panics on duplicates).  A
     *  counter is read through its address, so a temporary cannot be
     *  registered. */
    void add(const std::string &name, const std::uint64_t &counter);
    void add(const std::string &name, std::uint64_t &&) = delete;
    void add(const std::string &name, const Distribution &d);
    void add(const std::string &name, const Utilization &u);
    void addGauge(const std::string &name, Gauge fn);
    /** @} */

    /** Drop every entry whose name starts with @p prefix. */
    void removePrefix(const std::string &prefix);

    bool contains(const std::string &name) const;
    std::size_t size() const { return entries.size(); }

    /**
     * Supply the elapsed-time closure used to turn Utilization busy
     * time into a fraction (typically bound to EventQueue::now).
     */
    void setElapsed(std::function<Tick()> fn) { elapsedFn = std::move(fn); }

    /** Sorted "name = value" text dump; siblings group by prefix. */
    void dump(std::ostream &os) const;

    /** Nested-object JSON snapshot of every registered stat. */
    void toJson(std::ostream &os, bool pretty = true) const;
    std::string toJson() const;

    /** Emit the snapshot into an already-open JSON object. */
    void writeJsonBody(JsonWriter &jw) const;

  private:
    struct Entry
    {
        enum class Kind { Counter, Dist, Util, GaugeFn };
        Kind kind;
        const std::uint64_t *counter = nullptr;
        const Distribution *dist = nullptr;
        const Utilization *util = nullptr;
        Gauge gauge;
    };

    void insert(const std::string &name, Entry e);
    void dumpEntry(std::ostream &os, const std::string &name,
                   const Entry &e) const;
    void jsonValue(JsonWriter &jw, const Entry &e) const;

    std::map<std::string, Entry> entries;
    std::function<Tick()> elapsedFn;
};

} // namespace raid2::sim

#endif // RAID2_SIM_STATS_REGISTRY_HH
