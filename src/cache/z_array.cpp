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
      wayPos_(cfg.ways),
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
    sizeWalkBuffers();
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

std::uint32_t
ZArray::walkBound() const
{
    // R nodes: the first level and L-1 expanded levels. The hybrid's
    // second phase expands the phase-1 victim L more levels, (W-1) + ...
    // + (W-1)^L = R - R/W nodes. A cap stops every walk, and DFS runs
    // to it even past R.
    std::uint32_t bound = nominalCandidates(cfg_.ways, cfg_.levels);
    if (cfg_.strategy == WalkStrategy::Hybrid) {
        bound += bound - bound / cfg_.ways;
    }
    if (cfg_.maxCandidates == 0) return bound;
    return cfg_.strategy == WalkStrategy::Dfs
               ? cfg_.maxCandidates
               : std::min(cfg_.maxCandidates, bound);
}

void
ZArray::sizeWalkBuffers()
{
    const std::size_t bound = walkBound();
    if (bound <= nodes_.size()) return;
    nodes_.resize(bound);
    cands_.resize(bound);
    candNode_.resize(bound);
}

ZArray::Walk
ZArray::walk(Addr incoming)
{
    const bool bloom = cfg_.bloomRepeatFilter;
    if (bloom) bloom_.clear();

    // The walk's working state lives in locals; its counters are stored
    // once, at the end.
    WalkNode* const nodes = nodes_.data();
    const Addr* const tags = tags_.data();
    const std::uint32_t ways = cfg_.ways;
    const std::uint32_t cap = cfg_.maxCandidates
                                  ? cfg_.maxCandidates
                                  : std::numeric_limits<std::uint32_t>::max();
    std::uint32_t n = 0;       // nodes pushed
    std::uint64_t repeats = 0; // children skipped on a cycle or a repeat
    bool empty = false;        // the last node pushed is an empty slot
    bool capped = false;       // n reached the cap

    // Each address's W positions, in way order.
    WayIndexer::Cursor at = wayIndex_.cursor(wayPos_.data());

    // The two steps below are forced inline so that this state stays in
    // registers: GCC otherwise keeps `expand`, which two places call,
    // out of line, and every counter it touches then lives on the stack.
    //
    // The child step that every level, phase and strategy shares. A
    // position on the relocation path above it could not be relocated
    // consistently, so the child is skipped (false); the search starts
    // at the grandparent @p above, because the parent lies in another
    // way. Otherwise the step reads the slot's tag, marks its block in
    // the Bloom filter and pushes it; the walk stops on an empty slot
    // or at the cap.
    const auto child = [&](BlockPos pos, std::uint32_t way,
                           std::int32_t parent, std::int32_t above)
                           __attribute__((always_inline)) {
        for (std::int32_t a = above; a != -1; a = nodes[a].parent) {
            if (nodes[a].pos == pos) {
                repeats++;
                return false;
            }
        }
        const Addr addr = tags[pos];
        bool repeat = false;
        if (bloom && addr != kInvalidAddr) {
            repeat = bloom_.mightContain(addr);
            if (!repeat) bloom_.insert(addr);
        }
        nodes[n++] = WalkNode{addr, pos, way, parent, repeat};
        empty = addr == kInvalidAddr;
        capped = n >= cap;
        return true;
    };

    // BFS below the frontier [begin, end) down to `levels` levels: level
    // by level, each node's children in way order. The walk stops at
    // its empty slot, so every node expanded holds a block.
    const auto expand = [&](std::uint32_t begin, std::uint32_t end,
                            std::uint32_t levels)
                            __attribute__((always_inline)) {
        for (std::uint32_t l = 1; l < levels && begin < end; l++) {
            const std::uint32_t next = n;
            for (std::uint32_t i = begin; i < end; i++) {
                const WalkNode nd = nodes[i];
                if (nd.repeat) {
                    // Bloom filter: do not walk through repeats (III-D).
                    repeats++;
                    continue;
                }
                at.start(nd.addr);
                for (std::uint32_t w = 0; w < ways; w++) {
                    const BlockPos pos = at.next();
                    if (w == nd.way) continue;
                    child(pos, w, static_cast<std::int32_t>(i), nd.parent);
                    if (empty || capped) return;
                }
            }
            begin = next;
            end = n;
        }
    };

    // First level: the blocks conflicting with the incoming address in
    // each way. Their tags were already read by the missing lookup, so
    // they add no tag-array traffic here. All W are read, also past the
    // walk's stop, because they are insert()'s check that the block is
    // not resident.
    at.start(incoming);
    for (std::uint32_t w = 0; w < ways; w++) {
        const BlockPos pos = at.next();
        if (tags[pos] == incoming) {
            zc_panic("insert of a resident block (its probe hits)");
        }
        if (!empty && !capped) child(pos, w, -1, -1);
    }
    const std::uint32_t firstLevel = n;

    if (!empty && !capped && cfg_.strategy != WalkStrategy::Dfs) {
        expand(0, n, cfg_.levels);
    }
    if (!empty && !capped && cfg_.strategy == WalkStrategy::Dfs) {
        // Single random path, cuckoo-hashing style: L = R / W steps deep
        // for the same candidate count R as the configured BFS walk.
        const std::uint32_t target =
            cfg_.maxCandidates ? cfg_.maxCandidates
                               : nominalCandidates(ways, cfg_.levels);
        std::uint32_t cur = rng_.below(ways);
        while (n < target) {
            const WalkNode nd = nodes[cur];
            if (nd.repeat) {
                repeats++;
                break;
            }
            std::uint32_t w = rng_.below(ways - 1);
            if (w >= nd.way) w++;
            // A path that cycles back on itself stops extending.
            if (!child(wayIndex_.position(w, nd.addr), w,
                       static_cast<std::int32_t>(cur), nd.parent) ||
                empty) {
                break;
            }
            cur = n - 1;
        }
    }

    // The walk stops at the first empty slot it pushes, so that slot is
    // its last node, and the shallowest empty one.
    std::uint32_t victim = n - 1;
    if (!empty) victim = selectAmong(0, n, -1);
    if (!empty && cfg_.strategy == WalkStrategy::Hybrid) {
        // Phase 2: try to re-insert the phase-1 victim instead of
        // evicting it, doubling the candidate pool with no extra
        // walk-table state (Section III-D).
        const std::uint32_t phase2 = n;
        if (!capped) expand(victim, victim + 1, cfg_.levels + 1);
        victim = empty ? n - 1
                       : selectAmong(phase2, n,
                                     static_cast<std::int32_t>(victim));
    }

    zc_assert(n <= nodes_.size());
    // Each child pushed after the first level read one tag.
    stats_->tagReads += n - firstLevel;
    zstats_.repeatsTotal += repeats;
    return Walk{victim, n, capped};
}

std::uint32_t
ZArray::selectAmong(std::uint32_t begin, std::uint32_t end,
                    std::int32_t extra_idx)
{
    // Deduplicate candidate positions (repeats across branches are legal
    // but must not be offered to the policy twice); keep the shallowest
    // node per position so the relocation chain is shortest.
    BlockPos* const cands = cands_.data();
    std::uint32_t* const candNode = candNode_.data();
    std::uint32_t k = 0;
    seen_.clear();
    const auto consider = [&](std::uint32_t i) {
        const BlockPos pos = nodes_[i].pos;
        if (!seen_.insert(pos)) return;
        cands[k] = pos;
        candNode[k] = i;
        k++;
    };
    if (extra_idx >= 0) consider(static_cast<std::uint32_t>(extra_idx));
    for (std::uint32_t i = begin; i < end; i++) consider(i);
    zstats_.repeatsTotal += (end - begin) + (extra_idx >= 0) - k;

    zc_assert(k > 0);
    const BlockPos victim_pos = policy_->select({cands, k});
    for (std::uint32_t j = 0; j < k; j++) {
        if (cands[j] == victim_pos) return candNode[j];
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
    const Walk w = walk(lineAddr);
    if (cfg_.traceCapacity > 0) {
        // Must run before commit(): eviction-priority rank compares
        // policy state at the candidates' pre-relocation positions.
        recordWalkEvent(w);
    }
    return commit(lineAddr, ctx, w.victim, w.candidates);
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
ZArray::recordWalkEvent(const Walk& w)
{
    WalkEvent ev;
    ev.candidates = w.candidates;
    ev.capped = w.capped;

    const WalkNode& victim = nodes_[w.victim];
    ev.victimDepth = nodeDepth(static_cast<std::int32_t>(w.victim));
    ev.emptyAbsorbed = victim.addr == kInvalidAddr;

    // Deepest node expanded; nodes_ is in push order, so the maximum
    // depth is reached by the last node for BFS/DFS and by scanning the
    // (short) table in general. Every candidate is one node.
    std::uint32_t max_depth = 0;
    seen_.clear();
    for (std::uint32_t i = 0; i < w.candidates; i++) {
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
