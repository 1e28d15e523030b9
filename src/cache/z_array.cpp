#include "cache/z_array.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace zc {

ZArray::ZArray(std::uint32_t num_blocks, const ZArrayConfig& cfg,
               std::unique_ptr<ReplacementPolicy> policy)
    : ZArray(num_blocks, cfg, std::move(policy),
             makeHashFamily(cfg.hashKind, cfg.ways,
                            num_blocks / cfg.ways, cfg.seed))
{
}

ZArray::ZArray(std::uint32_t num_blocks, const ZArrayConfig& cfg,
               std::unique_ptr<ReplacementPolicy> policy,
               std::vector<HashPtr> hashes)
    : CacheArray(num_blocks, std::move(policy)),
      cfg_(cfg),
      linesPerWay_(num_blocks / cfg.ways),
      hashes_(std::move(hashes)),
      tags_(num_blocks, kInvalidAddr),
      rng_(cfg.seed, /*stream=*/0x2545f4914f6cdd1dULL),
      bloom_(256),
      seen_(num_blocks)
{
    zc_assert(cfg.ways >= 2);
    zc_assert(cfg.levels >= 1);
    zc_assert(num_blocks % cfg.ways == 0);
    zc_assert(isPow2(linesPerWay_));
    zc_assert(hashes_.size() == cfg.ways);
    for (const auto& h : hashes_) {
        zc_assert(h != nullptr);
        zc_assert(h->buckets() == linesPerWay_);
    }
    wayIndex_.build(hashes_, linesPerWay_);
    nodes_.reserve(256);
    cands_.reserve(256);
    candNode_.reserve(256);
}

std::uint32_t
ZArray::nominalCandidates(std::uint32_t ways, std::uint32_t levels)
{
    std::uint32_t r = 0, term = 1;
    for (std::uint32_t l = 0; l < levels; l++) {
        r += ways * term;
        term *= (ways - 1);
    }
    return r;
}

std::uint32_t
ZArray::walkLatency(std::uint32_t ways, std::uint32_t levels,
                    std::uint32_t tag_cycles)
{
    std::uint32_t t = 0, accesses = 1;
    for (std::uint32_t l = 0; l < levels; l++) {
        t += std::max(tag_cycles, accesses);
        accesses *= (ways - 1);
    }
    return t;
}

BlockPos
ZArray::access(Addr lineAddr, const AccessContext& ctx)
{
    // A lookup reads one tag per way (each way has its own index).
    stats_->tagReads += cfg_.ways;
    const BlockPos pos = ZArray::probe(lineAddr);
    if (pos == kInvalidPos) return kInvalidPos;
    stats_->dataReads++;
    policy_->onHit(pos, ctx);
    return pos;
}

BlockPos
ZArray::probe(Addr lineAddr) const
{
    BlockPos found = kInvalidPos;
    wayIndex_.forEachPosition(lineAddr, [&](std::uint32_t, BlockPos pos) {
        if (tags_[pos] != lineAddr) return false;
        found = pos;
        return true;
    });
    return found;
}

std::uint32_t
ZArray::lookupWays(Addr lineAddr, BlockPos* out, std::uint32_t cap) const
{
    if (cap < cfg_.ways) return 0;
    // Straight into the caller's buffer: lookupWays must stay free of
    // mutable state so concurrent lock-free readers can call it.
    wayIndex_.positionsAll(lineAddr, out);
    return cfg_.ways;
}

bool
ZArray::onAncestorPath(std::int32_t node, BlockPos pos) const
{
    for (std::int32_t i = node; i != -1; i = nodes_[i].parent) {
        if (nodes_[i].pos == pos) return true;
    }
    return false;
}

void
ZArray::pushNode(BlockPos pos, std::uint32_t way, std::int32_t parent)
{
    Addr addr = tags_[pos];
    bool repeat = false;
    if (cfg_.bloomRepeatFilter && addr != kInvalidAddr) {
        repeat = bloom_.mightContain(addr);
        if (!repeat) bloom_.insert(addr);
    }
    nodes_.push_back(WalkNode{pos, addr, way, parent, repeat});
    if (addr == kInvalidAddr) walkFoundEmpty_ = true;
    if (nodes_.size() >= walkCap_) walkCapped_ = true;
}

void
ZArray::expandNode(std::uint32_t node_idx)
{
    // Copy: nodes_ may reallocate while we push children.
    const WalkNode n = nodes_[node_idx];
    if (n.addr == kInvalidAddr) return; // nothing to move out of an empty
    if (n.repeat) {
        zstats_.repeatsTotal++;
        return; // Bloom filter: do not walk through repeats (III-D)
    }
    // One batched evaluation covers the W-1 sibling ways (the node's
    // own way is computed too but skipped).
    const auto parent = static_cast<std::int32_t>(node_idx);
    wayIndex_.forEachPosition(n.addr, [&](std::uint32_t w, BlockPos pos) {
        if (w == n.way) return false;
        if (onAncestorPath(parent, pos)) {
            // A cycle back onto this node's own relocation path; such a
            // candidate could not be relocated consistently, so skip it.
            zstats_.repeatsTotal++;
            return false;
        }
        stats_->tagReads++;
        pushNode(pos, w, parent);
        return walkFoundEmpty_ || walkCapped_;
    });
}

bool
ZArray::pushFirstLevel(Addr incoming)
{
    // First-level candidates: the blocks conflicting with the incoming
    // address in each way. Their tags were already read by the missing
    // lookup, so they add no tag-array traffic here. All W are read,
    // also past the walk's stop, because they are insert()'s check that
    // the block is not resident.
    wayIndex_.forEachPosition(incoming, [&](std::uint32_t w, BlockPos pos) {
        if (tags_[pos] == incoming) {
            zc_panic("insert of a resident block (its probe hits)");
        }
        if (!walkFoundEmpty_ && !walkCapped_) pushNode(pos, w, -1);
        return false;
    });
    return walkFoundEmpty_ || walkCapped_;
}

void
ZArray::expandLevels(std::size_t frontier_begin, std::size_t frontier_end,
                     std::uint32_t levels)
{
    for (std::uint32_t l = 1; l < levels; l++) {
        if (walkFoundEmpty_ || walkCapped_) return;
        std::size_t children_begin = nodes_.size();
        for (std::size_t i = frontier_begin; i < frontier_end; i++) {
            expandNode(static_cast<std::uint32_t>(i));
            if (walkFoundEmpty_ || walkCapped_) return;
        }
        frontier_begin = children_begin;
        frontier_end = nodes_.size();
        if (frontier_begin == frontier_end) return; // nothing expanded
    }
}

std::uint32_t
ZArray::walkBfs(Addr incoming)
{
    if (!pushFirstLevel(incoming)) {
        expandLevels(0, nodes_.size(), cfg_.levels);
    }
    return static_cast<std::uint32_t>(nodes_.size());
}

std::uint32_t
ZArray::walkDfs(Addr incoming)
{
    if (pushFirstLevel(incoming)) {
        return static_cast<std::uint32_t>(nodes_.size());
    }

    // Single random path, cuckoo-hashing style: L = R / W steps deep for
    // the same candidate count R as the configured BFS walk.
    std::uint32_t target = cfg_.maxCandidates
                               ? cfg_.maxCandidates
                               : nominalCandidates(cfg_.ways, cfg_.levels);
    std::int32_t cur = static_cast<std::int32_t>(rng_.below(cfg_.ways));
    while (nodes_.size() < target) {
        const WalkNode n = nodes_[cur];
        if (n.addr == kInvalidAddr) break;
        if (cfg_.bloomRepeatFilter && n.repeat) {
            zstats_.repeatsTotal++;
            break;
        }
        std::uint32_t w = rng_.below(cfg_.ways - 1);
        if (w >= n.way) w++;
        BlockPos pos = wayIndex_.position(w, n.addr);
        if (onAncestorPath(cur, pos)) {
            // Path cycled back on itself; stop extending.
            zstats_.repeatsTotal++;
            break;
        }
        stats_->tagReads++;
        pushNode(pos, w, cur);
        cur = static_cast<std::int32_t>(nodes_.size()) - 1;
        if (walkFoundEmpty_) break;
    }
    return static_cast<std::uint32_t>(nodes_.size());
}

std::int32_t
ZArray::emptyNode() const
{
    // Every walk stops at the first empty slot it pushes, so that slot
    // is the last node, and the shallowest empty one.
    if (!walkFoundEmpty_) return -1;
    zc_assert(nodes_.back().addr == kInvalidAddr);
    return static_cast<std::int32_t>(nodes_.size()) - 1;
}

std::int32_t
ZArray::selectAmong(std::size_t begin, std::size_t end,
                    std::int32_t extra_idx)
{
    // Deduplicate candidate positions (repeats across branches are legal
    // but must not be offered to the policy twice); keep the shallowest
    // node per position so the relocation chain is shortest.
    cands_.clear();
    candNode_.clear();
    seen_.clear();
    auto consider = [&](std::size_t i) {
        const WalkNode& n = nodes_[i];
        if (seen_.insert(n.pos)) {
            cands_.push_back(n.pos);
            candNode_.push_back(static_cast<std::uint32_t>(i));
        } else {
            zstats_.repeatsTotal++;
        }
    };
    if (extra_idx >= 0) consider(static_cast<std::size_t>(extra_idx));
    for (std::size_t i = begin; i < end; i++) consider(i);

    zc_assert(!cands_.empty());
    BlockPos victim_pos = policy_->select(cands_);
    for (std::size_t i = 0; i < cands_.size(); i++) {
        if (cands_[i] == victim_pos) {
            return static_cast<std::int32_t>(candNode_[i]);
        }
    }
    zc_panic("policy selected a non-candidate position");
}

Replacement
ZArray::commit(Addr lineAddr, const AccessContext& ctx,
               std::uint32_t victim_idx, std::uint32_t candidates)
{
    Replacement r;
    r.candidates = candidates;

    const WalkNode& victim = nodes_[victim_idx];
    r.victimPos = victim.pos;
    if (victim.addr != kInvalidAddr) {
        notifyEviction(victim.pos);
        r.evictedAddr = victim.addr;
        policy_->onEvict(victim.pos);
        tags_[victim.pos] = kInvalidAddr;
        valid_--;
    } else {
        zstats_.emptyAbsorbed++;
    }

    // Relocate ancestors one step down the path: the victim's parent
    // moves into the victim's (now empty) slot, and so on up to the root,
    // whose slot receives the incoming block.
    std::int32_t cur = static_cast<std::int32_t>(victim_idx);
    while (nodes_[cur].parent != -1) {
        const WalkNode& child = nodes_[cur];
        const WalkNode& par = nodes_[nodes_[cur].parent];
        zc_assert(tags_[par.pos] == par.addr);
        zc_assert(tags_[child.pos] == kInvalidAddr);
        tags_[child.pos] = par.addr;
        tags_[par.pos] = kInvalidAddr;
        policy_->onMove(par.pos, child.pos);
        stats_->tagReads++;
        stats_->tagWrites++;
        stats_->dataReads++;
        stats_->dataWrites++;
        r.relocations++;
        cur = nodes_[cur].parent;
    }

    BlockPos root_pos = nodes_[cur].pos;
    zc_assert(tags_[root_pos] == kInvalidAddr);
    tags_[root_pos] = lineAddr;
    stats_->tagWrites++;
    stats_->dataWrites++;
    valid_++;
    policy_->onInsert(root_pos, ctx);

    zstats_.walks++;
    zstats_.candidatesTotal += candidates;
    zstats_.relocationsTotal += r.relocations;
    return r;
}

Replacement
ZArray::insert(Addr lineAddr, const AccessContext& ctx)
{
    zc_assert(lineAddr != kInvalidAddr);

    nodes_.clear();
    walkFoundEmpty_ = false;
    walkCapped_ = false;
    walkCap_ = cfg_.maxCandidates ? cfg_.maxCandidates
                                  : std::numeric_limits<std::uint32_t>::max();
    if (cfg_.bloomRepeatFilter) bloom_.clear();

    std::uint32_t candidates = 0;
    std::int32_t victim_idx = -1;

    switch (cfg_.strategy) {
      case WalkStrategy::Bfs:
        candidates = walkBfs(lineAddr);
        victim_idx = emptyNode();
        if (victim_idx < 0) victim_idx = selectAmong(0, nodes_.size(), -1);
        break;

      case WalkStrategy::Dfs:
        candidates = walkDfs(lineAddr);
        victim_idx = emptyNode();
        if (victim_idx < 0) victim_idx = selectAmong(0, nodes_.size(), -1);
        break;

      case WalkStrategy::Hybrid: {
        candidates = walkBfs(lineAddr);
        victim_idx = emptyNode();
        if (victim_idx < 0) {
            // Phase 2: try to re-insert the phase-1 victim instead of
            // evicting it, doubling the candidate pool with no extra
            // walk-table state (Section III-D).
            std::int32_t v1 = selectAmong(0, nodes_.size(), -1);
            std::size_t phase2_begin = nodes_.size();
            expandLevels(static_cast<std::size_t>(v1),
                         static_cast<std::size_t>(v1) + 1, cfg_.levels + 1);
            candidates += static_cast<std::uint32_t>(nodes_.size() -
                                                     phase2_begin);
            victim_idx = emptyNode();
            if (victim_idx < 0) {
                victim_idx = selectAmong(phase2_begin, nodes_.size(), v1);
            }
        }
        break;
      }
    }

    zc_assert(victim_idx >= 0);
    if (cfg_.traceCapacity > 0) {
        // Must run before commit(): eviction-priority rank compares
        // policy state at the candidates' pre-relocation positions.
        recordWalkEvent(static_cast<std::uint32_t>(victim_idx), candidates);
    }
    return commit(lineAddr, ctx, static_cast<std::uint32_t>(victim_idx),
                  candidates);
}

std::uint32_t
ZArray::nodeDepth(std::int32_t idx) const
{
    std::uint32_t d = 0;
    for (std::int32_t i = nodes_[idx].parent; i != -1; i = nodes_[i].parent) {
        d++;
    }
    return d;
}

void
ZArray::recordWalkEvent(std::uint32_t victim_idx, std::uint32_t candidates)
{
    WalkEvent ev;
    ev.candidates = candidates;
    ev.capped = walkCapped_;

    const WalkNode& victim = nodes_[victim_idx];
    ev.victimDepth = nodeDepth(static_cast<std::int32_t>(victim_idx));
    ev.emptyAbsorbed = victim.addr == kInvalidAddr;

    // Deepest node expanded; nodes_ is in push order, so the maximum
    // depth is reached by the last node for BFS/DFS and by scanning the
    // (short) table in general.
    std::uint32_t max_depth = 0;
    seen_.clear();
    for (std::size_t i = 0; i < nodes_.size(); i++) {
        max_depth =
            std::max(max_depth, nodeDepth(static_cast<std::int32_t>(i)));
        // Eviction-priority rank: distinct valid candidates the policy
        // preferred to evict over the chosen victim. Only valid
        // non-victim candidates enter the set, and the policy is asked
        // only on a position's first sight.
        if (!ev.emptyAbsorbed && nodes_[i].addr != kInvalidAddr &&
            nodes_[i].pos != victim.pos && seen_.insert(nodes_[i].pos) &&
            policy_->ordersBefore(nodes_[i].pos, victim.pos)) {
            ev.evictionRank++;
        }
    }
    ev.levels = max_depth + 1;
    ev.latencyCycles =
        walkLatency(cfg_.ways, ev.levels, cfg_.traceTagCycles);
    ev.hiddenUnderMissLatency =
        ev.latencyCycles <= cfg_.traceMissLatencyCycles;

    traceSummary_.events++;
    if (ev.hiddenUnderMissLatency) traceSummary_.hidden++;
    if (ev.capped) traceSummary_.capped++;
    if (ev.emptyAbsorbed) traceSummary_.emptyAbsorbed++;
    traceSummary_.candidates.record(ev.candidates);
    traceSummary_.victimDepth.record(ev.victimDepth);
    traceSummary_.evictionRank.record(ev.evictionRank);
    traceSummary_.latencyCycles.record(ev.latencyCycles);

    if (trace_.size() < cfg_.traceCapacity) {
        trace_.push_back(ev);
    } else {
        trace_[traceHead_] = ev;
        traceHead_ = (traceHead_ + 1) % trace_.size();
    }
}

std::vector<WalkEvent>
ZArray::walkTraceSnapshot() const
{
    std::vector<WalkEvent> out;
    out.reserve(trace_.size());
    for (std::size_t i = 0; i < trace_.size(); i++) {
        out.push_back(trace_[(traceHead_ + i) % trace_.size()]);
    }
    return out;
}

void
ZArray::registerStats(StatGroup& g)
{
    CacheArray::registerStats(g);
    StatGroup& w = g.group("walk", "zcache replacement-walk statistics");
    w.addCounter("walks", "replacements performed",
                 [this] { return zstats_.walks; });
    w.addCounter("candidates_total", "candidates summed over walks",
                 [this] { return zstats_.candidatesTotal; });
    w.addCounter("relocations_total", "relocations summed over walks",
                 [this] { return zstats_.relocationsTotal; });
    w.addCounter("repeats_total", "repeated/skipped candidates",
                 [this] { return zstats_.repeatsTotal; });
    w.addCounter("empty_absorbed", "fills absorbed by empty slots",
                 [this] { return zstats_.emptyAbsorbed; });
    w.addScalar("avg_candidates", "mean candidates per walk (R observed)",
                [this] { return zstats_.avgCandidates(); });
    w.addScalar("avg_relocations", "mean relocations per walk (m observed)",
                [this] { return zstats_.avgRelocations(); });

    if (!walkTraceEnabled()) return;
    StatGroup& t = g.group("walk_trace",
                           "per-replacement event trace (ring buffer)");
    t.addCounter("events", "walk events traced",
                 [this] { return traceSummary_.events; });
    t.addCounter("hidden", "walks fitting under the miss latency",
                 [this] { return traceSummary_.hidden; });
    t.addCounter("capped", "walks early-stopped by the candidate cap",
                 [this] { return traceSummary_.capped; });
    t.addCounter("empty_absorbed", "walks absorbed by an empty slot",
                 [this] { return traceSummary_.emptyAbsorbed; });
    t.addScalar("victim_depth_mean", "mean victim level (== relocations)",
                [this] { return traceSummary_.victimDepth.mean(); });
    t.addScalar("eviction_rank_mean",
                "mean candidates preferred over the chosen victim",
                [this] { return traceSummary_.evictionRank.mean(); });
    t.addScalar("candidates_stddev", "per-walk candidate-count jitter",
                [this] { return traceSummary_.candidates.stddev(); });
    t.addScalar("latency_cycles_mean", "mean estimated walk latency",
                [this] { return traceSummary_.latencyCycles.mean(); });
    t.addCustom("ring", "retained events, oldest first", [this] {
        JsonValue out = JsonValue::array();
        for (const WalkEvent& ev : walkTraceSnapshot()) {
            JsonValue e = JsonValue::object();
            e.set("candidates", JsonValue(ev.candidates));
            e.set("levels", JsonValue(ev.levels));
            e.set("victim_depth", JsonValue(ev.victimDepth));
            e.set("eviction_rank", JsonValue(ev.evictionRank));
            e.set("latency_cycles", JsonValue(ev.latencyCycles));
            e.set("empty_absorbed", JsonValue(ev.emptyAbsorbed));
            e.set("capped", JsonValue(ev.capped));
            e.set("hidden", JsonValue(ev.hiddenUnderMissLatency));
            out.push(std::move(e));
        }
        return out;
    });
}

bool
ZArray::invalidate(Addr lineAddr)
{
    BlockPos pos = probe(lineAddr);
    if (pos == kInvalidPos) return false;
    tags_[pos] = kInvalidAddr;
    stats_->tagWrites++;
    policy_->onEvict(pos);
    valid_--;
    return true;
}

Addr
ZArray::addrAt(BlockPos pos) const
{
    zc_assert(pos < numBlocks_);
    return tags_[pos];
}

void
ZArray::forEachValid(const std::function<void(BlockPos, Addr)>& fn) const
{
    for (BlockPos p = 0; p < numBlocks_; p++) {
        if (tags_[p] != kInvalidAddr) fn(p, tags_[p]);
    }
}

std::uint32_t
ZArray::validCount() const
{
    return valid_;
}

std::string
ZArray::name() const
{
    const char* strat = cfg_.strategy == WalkStrategy::Bfs
                            ? "bfs"
                            : (cfg_.strategy == WalkStrategy::Dfs ? "dfs"
                                                                  : "hybrid");
    return "ZArray(ways=" + std::to_string(cfg_.ways) +
           ", levels=" + std::to_string(cfg_.levels) + ", R=" +
           std::to_string(nominalCandidates(cfg_.ways, cfg_.levels)) +
           ", walk=" + strat + ", hash=" + hashKindName(cfg_.hashKind) +
           ", repl=" + policy_->name() + ")";
}

} // namespace zc
