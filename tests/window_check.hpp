/**
 * @file
 * The every-counter check shared by tests/test_net.cpp and
 * tests/test_obs.cpp: a run's metrics windows carry every counter of
 * its stats tree, and every window delta reconciles.
 */

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace zc {

/**
 * Check a run's parsed NDJSON @p windows against its dumped stats tree
 * @p stats (the registry root, holding "store" and, for a server,
 * "server"). Every counter of the store's totals, obs, compression and
 * persist groups (with persist's phase group) and of the server group
 * is in the last window under its window name: its stats-tree name,
 * persist_<name> or net_<name>. The resident levels are gauges without
 * a d_* column, and every d_* column sums over the windows to its
 * final value. No two columns share a window name.
 */
inline void
expectEveryCounterWindowed(const JsonValue& stats,
                           const std::vector<JsonValue>& windows)
{
    ASSERT_FALSE(windows.empty());
    const JsonValue& last = windows.back();

    // Tree entries that are configuration or connection state, not
    // counters, and the levels the windows carry as gauges.
    const std::set<std::string> config = {"max_value_bytes", "queue_cap",
                                          "snapshot_every_ops", "port",
                                          "connections"};
    const std::set<std::string> gauges = {"resident_raw_bytes",
                                          "resident_stored_bytes"};

    // Window name -> what it exports; seeded with the snapshotter's and
    // the store's own columns so a counter cannot shadow them.
    std::map<std::string, std::string> owner;
    for (const char* own : {"seq", "t_ms", "window_ms", "ops", "hit_rate",
                            "p50_ns", "p99_ns", "persist_queue_depth"}) {
        owner.emplace(own, "window");
    }
    auto walk = [&](const JsonValue* group, const std::string& path,
                    const std::string& prefix) {
        ASSERT_NE(group, nullptr) << path;
        for (const auto& [key, v] : group->obj()) {
            if (v.kind() != JsonValue::Kind::U64 || config.count(key)) {
                continue;
            }
            const std::string name = prefix + key;
            const std::string where = path + "." + key;
            auto [it, fresh] = owner.emplace(name, where);
            EXPECT_TRUE(fresh) << where << " and " << it->second
                               << " share the column " << name;
            EXPECT_NE(last.find(name), nullptr)
                << where << " is not windowed as " << name;
            EXPECT_EQ(last.find("d_" + name) == nullptr,
                      gauges.count(key) != 0)
                << name;
        }
    };
    const JsonValue* store = stats.find("store");
    ASSERT_NE(store, nullptr);
    walk(store->find("totals"), "store.totals", "");
    walk(store->find("obs"), "store.obs", "");
    if (const JsonValue* comp = store->find("compression")) {
        walk(comp, "store.compression", "");
    }
    if (const JsonValue* persist = store->find("persist")) {
        walk(persist, "store.persist", "persist_");
        walk(persist->find("phase"), "store.persist.phase", "persist_");
    }
    if (const JsonValue* server = stats.find("server")) {
        walk(server, "server", "net_");
    }

    std::map<std::string, std::uint64_t> sums;
    for (const JsonValue& w : windows) {
        for (const auto& [key, v] : w.obj()) {
            if (key.rfind("d_", 0) == 0) sums[key.substr(2)] += v.asU64();
        }
    }
    for (const auto& [name, sum] : sums) {
        const JsonValue* final_value = last.find(name);
        ASSERT_NE(final_value, nullptr) << name;
        EXPECT_EQ(sum, final_value->asU64()) << name;
    }
}

} // namespace zc
