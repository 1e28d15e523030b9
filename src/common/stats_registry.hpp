/**
 * @file
 * Hierarchical statistics registry (zsim's AggregateStat idiom).
 *
 * Components register named, described stats into a StatGroup tree via
 * a registerStats(StatGroup&) hook; the tree is walked at dump time, so
 * stats are *pulled* from live counters rather than copied on every
 * event — registration is one-time setup cost, the hot paths keep
 * bumping their plain uint64 fields.
 *
 * Three stat flavours:
 *  - bound stats: a getter closure over a component's counter, read at
 *    every dump() (addCounter / addScalar / addString / addCustom);
 *  - snapshot stats: a value fixed at registration time (addConst*),
 *    for derived results computed once at end of run;
 *  - histograms: a bound UnitHistogram dumped as counts + summary.
 *
 * Names are unique within a group (stat vs. stat, stat vs. child
 * group); violations throw std::invalid_argument so misconfigured
 * registrations fail loudly and testably. reset() walks the tree
 * running registered reset hooks — the "end of warmup" semantics.
 *
 * A struct of uint64 counters lists its fields once, in a table of
 * CounterField rows (end of this file); registration, sums, JSON
 * blocks, cross-thread snapshots and metrics-window columns are all
 * generated from that table.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"

namespace zc {

class StatGroup
{
  public:
    StatGroup() = default;
    StatGroup(const StatGroup&) = delete;
    StatGroup& operator=(const StatGroup&) = delete;

    /** Get-or-create a child group. Creating over a stat name throws. */
    StatGroup&
    group(const std::string& name, const std::string& desc = "")
    {
        for (auto& c : children_) {
            if (c->name_ == name) return *c;
        }
        if (statNames_.count(name)) {
            throw std::invalid_argument("StatGroup '" + name_ +
                                        "': group name '" + name +
                                        "' collides with a stat");
        }
        children_.push_back(std::make_unique<StatGroup>());
        children_.back()->name_ = name;
        children_.back()->desc_ = desc;
        return *children_.back();
    }

    /** Bound uint64 stat, read at dump time. */
    void
    addCounter(const std::string& name, const std::string& desc,
               std::function<std::uint64_t()> get)
    {
        addStat(name, desc,
                [g = std::move(get)] { return JsonValue(g()); });
    }

    /** Bound double stat, read at dump time. */
    void
    addScalar(const std::string& name, const std::string& desc,
              std::function<double()> get)
    {
        addStat(name, desc,
                [g = std::move(get)] { return JsonValue(g()); });
    }

    /** Bound string stat, read at dump time. */
    void
    addString(const std::string& name, const std::string& desc,
              std::function<std::string()> get)
    {
        addStat(name, desc,
                [g = std::move(get)] { return JsonValue(g()); });
    }

    /** Arbitrary bound stat producing any JSON shape (vectors, series). */
    void
    addCustom(const std::string& name, const std::string& desc,
              std::function<JsonValue()> get)
    {
        addStat(name, desc, std::move(get));
    }

    /** Snapshot stats: the value is fixed at registration time. */
    void
    addConst(const std::string& name, const std::string& desc,
             JsonValue value)
    {
        auto shared = std::make_shared<JsonValue>(std::move(value));
        addStat(name, desc, [shared] { return *shared; });
    }

    /**
     * Bound histogram: dumped as samples / mean / bin counts. The
     * histogram must outlive the group.
     */
    void
    addHistogram(const std::string& name, const std::string& desc,
                 const UnitHistogram* h)
    {
        addStat(name, desc, [h] {
            JsonValue out = JsonValue::object();
            out.set("samples", JsonValue(h->samples()));
            out.set("bins", JsonValue(std::uint64_t{h->bins()}));
            out.set("mean", JsonValue(h->mean()));
            JsonValue counts = JsonValue::array();
            for (std::size_t i = 0; i < h->bins(); i++) {
                counts.push(JsonValue(h->binCount(i)));
            }
            out.set("counts", std::move(counts));
            return out;
        });
    }

    /** Hook run by reset(), after descending into child groups. */
    void addResetHook(std::function<void()> hook)
    {
        resetHooks_.push_back(std::move(hook));
    }

    /** Dump the subtree; stat order is registration order. */
    JsonValue
    dump() const
    {
        JsonValue out = JsonValue::object();
        for (const auto& s : stats_) {
            out.obj().emplace_back(s.name, s.get());
        }
        for (const auto& c : children_) {
            out.obj().emplace_back(c->name_, c->dump());
        }
        return out;
    }

    /** Companion tree of stat/group descriptions (the dump's schema). */
    JsonValue
    describe() const
    {
        JsonValue out = JsonValue::object();
        for (const auto& s : stats_) {
            out.obj().emplace_back(s.name, JsonValue(s.desc));
        }
        for (const auto& c : children_) {
            JsonValue sub = c->describe();
            if (!c->desc_.empty()) {
                sub.obj().insert(sub.obj().begin(),
                                 {"_desc", JsonValue(c->desc_)});
            }
            out.obj().emplace_back(c->name_, std::move(sub));
        }
        return out;
    }

    void
    reset()
    {
        for (const auto& c : children_) c->reset();
        for (const auto& h : resetHooks_) h();
    }

    const std::string& name() const { return name_; }
    std::size_t numStats() const { return stats_.size(); }
    std::size_t numChildren() const { return children_.size(); }

  private:
    struct Stat
    {
        std::string name;
        std::string desc;
        std::function<JsonValue()> get;
    };

    void
    addStat(const std::string& name, const std::string& desc,
            std::function<JsonValue()> get)
    {
        if (!statNames_.insert(name).second) {
            throw std::invalid_argument("StatGroup '" + name_ +
                                        "': duplicate stat '" + name + "'");
        }
        for (const auto& c : children_) {
            if (c->name_ == name) {
                statNames_.erase(name);
                throw std::invalid_argument("StatGroup '" + name_ +
                                            "': stat name '" + name +
                                            "' collides with a group");
            }
        }
        stats_.push_back(Stat{name, desc, std::move(get)});
    }

    std::string name_;
    std::string desc_;
    std::vector<Stat> stats_;
    std::vector<std::unique_ptr<StatGroup>> children_;
    std::unordered_set<std::string> statNames_;
    std::vector<std::function<void()>> resetHooks_;
};

/**
 * Root of a stats tree plus serialization conveniences. Own one per
 * experiment; hand root() (or subgroups of it) to components'
 * registerStats() hooks.
 */
class StatsRegistry
{
  public:
    StatGroup& root() { return root_; }
    const StatGroup& root() const { return root_; }

    JsonValue toJson() const { return root_.dump(); }
    JsonValue schema() const { return root_.describe(); }
    void reset() { root_.reset(); }

    /** Pretty-print the tree to @p path; returns false on I/O error. */
    bool
    writeJsonFile(const std::string& path, int indent = 2) const
    {
        std::ofstream out(path);
        if (!out) return false;
        out << toJson().str(indent) << "\n";
        return out.good();
    }

  private:
    StatGroup root_;
};

/**
 * One row of a counter struct's table: the stat name, its description
 * and the uint64 field it reads. Each counter struct declares one table
 * of these beside itself, and the helpers below generate its stats-tree
 * registration, cross-shard and cross-thread sums, JSON blocks and
 * cross-thread snapshots from that table (obs/metrics.hpp adds the
 * metrics-window columns), so a counter is declared once and no export
 * can list a different set.
 */
template <class T>
struct CounterField
{
    const char* name;
    const char* desc;
    std::uint64_t T::*field;
};

/** Add every @p table field of @p from into @p into. */
template <class T, std::size_t N>
void
sumCounters(T& into, const CounterField<T> (&table)[N], const T& from)
{
    for (const CounterField<T>& f : table) into.*f.field += from.*f.field;
}

/** Register every @p table field of the snapshot @p snap returns. */
template <class T, std::size_t N, class Fn>
void
registerCounters(StatGroup& g, const CounterField<T> (&table)[N], Fn snap)
{
    for (const CounterField<T>& f : table) {
        g.addCounter(f.name, f.desc,
                     [snap, m = f.field] { return snap().*m; });
    }
}

/** Set every @p table field of @p t as a member of the object @p out. */
template <class T, std::size_t N>
void
countersJson(JsonValue& out, const CounterField<T> (&table)[N], const T& t)
{
    for (const CounterField<T>& f : table) {
        out.set(f.name, JsonValue(t.*f.field));
    }
}

static_assert(alignof(std::uint64_t) >=
                  std::atomic_ref<std::uint64_t>::required_alignment,
              "counter fields must be usable through std::atomic_ref");

/**
 * Bump a counter field that other threads read while this one writes
 * it: a relaxed atomic add on the plain field (std::atomic_ref), so
 * the counter struct stays the one declaration and needs no atomic
 * mirror. Readers take their snapshot with loadCounters().
 */
inline void
bumpCounter(std::uint64_t& c, std::uint64_t n = 1)
{
    std::atomic_ref<std::uint64_t>(c).fetch_add(n,
                                                std::memory_order_relaxed);
}

/** Copy every @p table field of @p live, which writers bump through
 *  bumpCounter(), into @p out with relaxed atomic loads. */
template <class T, std::size_t N>
void
loadCounters(T& out, const CounterField<T> (&table)[N], const T& live)
{
    for (const CounterField<T>& f : table) {
        out.*f.field = std::atomic_ref<std::uint64_t>(
                           const_cast<std::uint64_t&>(live.*f.field))
                           .load(std::memory_order_relaxed);
    }
}

/** Append one compact JSON record to a JSONL stream file. */
inline bool
appendJsonl(const std::string& path, const JsonValue& record)
{
    std::ofstream out(path, std::ios::app);
    if (!out) return false;
    out << record.str() << "\n";
    return out.good();
}

} // namespace zc
