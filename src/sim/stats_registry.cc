#include "sim/stats_registry.hh"

#include <iomanip>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace raid2::sim {

void
StatsRegistry::insert(const std::string &name, Entry e)
{
    if (name.empty())
        panic("StatsRegistry: empty stat name");
    // A name may not be both a leaf and an interior node ("a.b" and
    // "a.b.c") or the nested JSON would emit a duplicate key.
    for (std::size_t dot = name.find('.'); dot != std::string::npos;
         dot = name.find('.', dot + 1)) {
        if (entries.count(name.substr(0, dot)))
            panic("StatsRegistry: '%s' conflicts with existing leaf '%s'",
                  name.c_str(), name.substr(0, dot).c_str());
    }
    auto next = entries.lower_bound(name + ".");
    if (next != entries.end() &&
        next->first.compare(0, name.size() + 1, name + ".") == 0)
        panic("StatsRegistry: leaf '%s' conflicts with existing subtree "
              "'%s'", name.c_str(), next->first.c_str());
    auto [it, inserted] = entries.emplace(name, std::move(e));
    if (!inserted)
        panic("StatsRegistry: duplicate stat name '%s'", name.c_str());
}

void
StatsRegistry::add(const std::string &name, const std::uint64_t &counter)
{
    Entry e;
    e.kind = Entry::Kind::Counter;
    e.counter = &counter;
    insert(name, std::move(e));
}

void
StatsRegistry::add(const std::string &name, const Distribution &d)
{
    Entry e;
    e.kind = Entry::Kind::Dist;
    e.dist = &d;
    insert(name, std::move(e));
}

void
StatsRegistry::add(const std::string &name, const Utilization &u)
{
    Entry e;
    e.kind = Entry::Kind::Util;
    e.util = &u;
    insert(name, std::move(e));
}

void
StatsRegistry::addGauge(const std::string &name, Gauge fn)
{
    if (!fn)
        panic("StatsRegistry: null gauge for '%s'", name.c_str());
    Entry e;
    e.kind = Entry::Kind::GaugeFn;
    e.gauge = std::move(fn);
    insert(name, std::move(e));
}

void
StatsRegistry::removePrefix(const std::string &prefix)
{
    for (auto it = entries.lower_bound(prefix); it != entries.end();) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        it = entries.erase(it);
    }
}

bool
StatsRegistry::contains(const std::string &name) const
{
    return entries.count(name) != 0;
}

void
StatsRegistry::dumpEntry(std::ostream &os, const std::string &name,
                         const Entry &e) const
{
    os << name << " = ";
    switch (e.kind) {
      case Entry::Kind::Counter:
        os << *e.counter;
        break;
      case Entry::Kind::GaugeFn:
        os << e.gauge();
        break;
      case Entry::Kind::Dist:
        os << "dist(n=" << e.dist->count() << ", mean=" << e.dist->mean()
           << ", min=" << e.dist->min() << ", max=" << e.dist->max()
           << ", stddev=" << e.dist->stddev() << ")";
        break;
      case Entry::Kind::Util: {
        os << "busy_ms=" << ticksToMs(e.util->busy());
        if (elapsedFn)
            os << ", util=" << e.util->fraction(elapsedFn());
        break;
      }
    }
    os << "\n";
}

void
StatsRegistry::dump(std::ostream &os) const
{
    // std::map iteration is sorted: dotted siblings come out adjacent,
    // which is the hierarchical grouping a reader wants.
    for (const auto &[name, entry] : entries)
        dumpEntry(os, name, entry);
}

void
StatsRegistry::jsonValue(JsonWriter &jw, const Entry &e) const
{
    switch (e.kind) {
      case Entry::Kind::Counter:
        jw.value(*e.counter);
        break;
      case Entry::Kind::GaugeFn:
        jw.value(e.gauge());
        break;
      case Entry::Kind::Dist:
        jw.beginObject();
        jw.kv("count", e.dist->count());
        jw.kv("mean", e.dist->mean());
        jw.kv("min", e.dist->min());
        jw.kv("max", e.dist->max());
        jw.kv("stddev", e.dist->stddev());
        jw.kv("total", e.dist->total());
        jw.endObject();
        break;
      case Entry::Kind::Util:
        jw.beginObject();
        jw.kv("busy_ms", ticksToMs(e.util->busy()));
        if (elapsedFn)
            jw.kv("utilization", e.util->fraction(elapsedFn()));
        jw.endObject();
        break;
    }
}

void
StatsRegistry::writeJsonBody(JsonWriter &jw) const
{
    // Nest dotted names into objects.  The sorted map guarantees all
    // children of a prefix are contiguous, so a simple open/close walk
    // over the name components reconstructs the tree.
    std::vector<std::string> open; // currently-open object path
    for (const auto &[name, entry] : entries) {
        // Split the dotted name.
        std::vector<std::string> parts;
        std::size_t start = 0;
        while (true) {
            const std::size_t dot = name.find('.', start);
            if (dot == std::string::npos) {
                parts.push_back(name.substr(start));
                break;
            }
            parts.push_back(name.substr(start, dot - start));
            start = dot + 1;
        }
        // Close objects that are no longer on the path; the last part
        // is the leaf key, everything before it is the object path.
        std::size_t common = 0;
        while (common < open.size() && common + 1 < parts.size() &&
               open[common] == parts[common])
            ++common;
        while (open.size() > common) {
            jw.endObject();
            open.pop_back();
        }
        while (open.size() + 1 < parts.size()) {
            jw.key(parts[open.size()]);
            jw.beginObject();
            open.push_back(parts[open.size()]);
        }
        jw.key(parts.back());
        jsonValue(jw, entry);
    }
    while (!open.empty()) {
        jw.endObject();
        open.pop_back();
    }
}

void
StatsRegistry::toJson(std::ostream &os, bool pretty) const
{
    JsonWriter jw(os, pretty);
    jw.beginObject();
    writeJsonBody(jw);
    jw.endObject();
}

std::string
StatsRegistry::toJson() const
{
    std::ostringstream oss;
    toJson(oss);
    return oss.str();
}

} // namespace raid2::sim
