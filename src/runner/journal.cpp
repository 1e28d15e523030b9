#include "runner/journal.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstring>

#include <unistd.h>

#include "common/crc32.hpp"
#include "common/fault_injection.hpp"
#include "common/framed_log.hpp"
#include "common/json.hpp"

namespace zc {

namespace {

constexpr int kJournalVersion = 1;

std::string
errnoMessage()
{
    return std::strerror(errno);
}

/**
 * Every field that shapes a run, in declaration order. The fingerprint
 * hashes this, so editing any parameter of any point invalidates old
 * journals instead of silently mixing incompatible results.
 */
JsonValue
paramsJson(const RunParams& p)
{
    JsonValue o = JsonValue::object();
    o.set("workload", JsonValue(p.workload));
    o.set("serial_lookup", JsonValue(p.serialLookup));
    o.set("warmup_instr", JsonValue(p.warmupInstr));
    o.set("measure_instr", JsonValue(p.measureInstr));
    o.set("seed", JsonValue(p.seed));
    o.set("epoch_instr", JsonValue(p.epochInstr));
    o.set("walk_trace_capacity", JsonValue(p.walkTraceCapacity));

    JsonValue s = JsonValue::object();
    s.set("kind", JsonValue(std::string(arrayKindName(p.l2Spec.kind))));
    s.set("blocks", JsonValue(p.l2Spec.blocks));
    s.set("ways", JsonValue(p.l2Spec.ways));
    s.set("levels", JsonValue(p.l2Spec.levels));
    s.set("candidates", JsonValue(p.l2Spec.candidates));
    s.set("hash", JsonValue(std::string(hashKindName(p.l2Spec.hashKind))));
    s.set("policy", JsonValue(std::string(policyKindName(p.l2Spec.policy))));
    s.set("walk", JsonValue(static_cast<std::uint64_t>(p.l2Spec.walk)));
    s.set("max_candidates", JsonValue(p.l2Spec.maxCandidates));
    s.set("bloom", JsonValue(p.l2Spec.bloomRepeatFilter));
    s.set("victim_blocks", JsonValue(p.l2Spec.victimBlocks));
    s.set("tag_ratio", JsonValue(p.l2Spec.tagRatio));
    s.set("spec_seed", JsonValue(p.l2Spec.seed));
    o.set("l2_spec", std::move(s));

    const SystemConfig& b = p.base;
    JsonValue c = JsonValue::object();
    c.set("num_cores", JsonValue(b.numCores));
    c.set("frequency_ghz", JsonValue(b.frequencyGhz));
    c.set("line_bytes", JsonValue(b.lineBytes));
    c.set("l1_size", JsonValue(static_cast<std::uint64_t>(b.l1SizeBytes)));
    c.set("l1_ways", JsonValue(b.l1Ways));
    c.set("l1_latency", JsonValue(b.l1LatencyCycles));
    c.set("l2_size", JsonValue(b.l2SizeBytes));
    c.set("l2_banks", JsonValue(b.l2Banks));
    c.set("l2_serial", JsonValue(b.l2SerialLookup));
    c.set("l1_to_l2", JsonValue(b.l1ToL2Cycles));
    c.set("upgrade_cycles", JsonValue(b.upgradeCycles));
    c.set("mem_controllers", JsonValue(b.memControllers));
    c.set("mem_latency", JsonValue(b.memLatencyCycles));
    c.set("code_lines", JsonValue(b.codeLines));
    c.set("code_jump_prob", JsonValue(b.codeJumpProb));
    c.set("instr_per_code_line", JsonValue(b.instrPerCodeLine));
    c.set("code_next_use", JsonValue(b.codeNextUseDistance));
    c.set("walk_throttle", JsonValue(b.walkThrottle));
    c.set("walk_token_window", JsonValue(b.walkTokenWindow));
    c.set("epoch_instr", JsonValue(b.epochInstr));
    c.set("seed", JsonValue(b.seed));
    o.set("base", std::move(c));
    return o;
}

JsonValue
entryToJson(std::size_t index, const RunOutcome& e)
{
    JsonValue o = JsonValue::object();
    o.set("index", JsonValue(static_cast<std::uint64_t>(index)));
    o.set("ok", JsonValue(e.ok));
    o.set("attempts", JsonValue(e.attempts));
    o.set("timed_out", JsonValue(e.timedOut));
    o.set("error", JsonValue(e.error));
    if (e.ok) o.set("result", runResultToJson(e.result));
    return o;
}

Expected<RunOutcome>
entryFromJson(const JsonValue& v)
{
    auto bad = [](const char* what) {
        return Status::corruption(
            std::string("journal record: missing or mistyped field '") +
            what + "'");
    };
    if (!v.isObject()) {
        return Status::corruption("journal record: not a JSON object");
    }
    RunOutcome e;
    const JsonValue* idx = v.find("index");
    if (!idx || idx->kind() != JsonValue::Kind::U64) return bad("index");
    e.index = static_cast<std::size_t>(idx->asU64());
    const JsonValue* ok = v.find("ok");
    if (!ok || ok->kind() != JsonValue::Kind::Bool) return bad("ok");
    e.ok = ok->asBool();
    const JsonValue* att = v.find("attempts");
    if (!att || att->kind() != JsonValue::Kind::U64) return bad("attempts");
    e.attempts = static_cast<std::uint32_t>(att->asU64());
    const JsonValue* to = v.find("timed_out");
    if (!to || to->kind() != JsonValue::Kind::Bool) return bad("timed_out");
    e.timedOut = to->asBool();
    const JsonValue* err = v.find("error");
    if (!err || err->kind() != JsonValue::Kind::Str) return bad("error");
    e.error = err->asString();
    if (e.ok) {
        const JsonValue* res = v.find("result");
        if (!res) return bad("result");
        auto r = runResultFromJson(*res);
        if (!r) return r.status();
        e.result = std::move(*r);
    }
    return e;
}

/**
 * The line framing itself (TAG <crc32hex> <payload>\n, validation,
 * fsync'd append) lives in common/framed_log.hpp, shared with the zkv
 * persistence op log; these wrappers keep the journal's error prefix.
 */
Expected<std::string_view>
unframe(std::string_view line, const char* tag)
{
    return framed::unframeTextLine(line, tag);
}

Status
writeLine(std::FILE* f, const std::string& path, const char* tag,
          const std::string& payload)
{
    return framed::writeTextLine(f, "journal '" + path + "'", tag,
                                 payload);
}

std::string
headerPayload(const SweepSpec& spec)
{
    char fp[16];
    std::snprintf(fp, sizeof fp, "%08x", SweepJournal::fingerprint(spec));
    JsonValue h = JsonValue::object();
    h.set("version", JsonValue(kJournalVersion));
    h.set("name", JsonValue(spec.name));
    h.set("points", JsonValue(static_cast<std::uint64_t>(spec.size())));
    h.set("base_seed", JsonValue(spec.baseSeed));
    h.set("fingerprint", JsonValue(std::string(fp)));
    return h.str();
}

} // namespace

std::uint32_t
SweepJournal::fingerprint(const SweepSpec& spec)
{
    Crc32 crc;
    crc.update(spec.name.data(), spec.name.size());
    std::uint64_t meta[2] = {spec.baseSeed, spec.size()};
    crc.update(meta, sizeof meta);
    for (const SweepPoint& p : spec.points) {
        std::string s = paramsJson(p.params).str();
        crc.update(s.data(), s.size());
        JsonValue tags = JsonValue::object();
        for (const auto& [k, v] : p.tags) tags.set(k, v);
        std::string t = tags.str();
        crc.update(t.data(), t.size());
    }
    return crc.value();
}

Expected<SweepJournal>
SweepJournal::create(const std::string& path, const SweepSpec& spec)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) {
        return Status::ioError("journal '" + path +
                               "': cannot create: " + errnoMessage());
    }
    SweepJournal j;
    j.f_ = f;
    j.path_ = path;
    if (Status s = writeLine(f, path, "ZCJH", headerPayload(spec));
        !s.isOk()) {
        return s;
    }
    return j;
}

Expected<SweepJournal::Resumed>
SweepJournal::resume(const std::string& path, const SweepSpec& spec)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) {
        return Status::ioError("journal '" + path +
                               "': cannot open for resume: " +
                               errnoMessage());
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
        text.append(buf, n);
    }
    bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err) {
        return Status::ioError("journal '" + path +
                               "': read failed: " + errnoMessage());
    }

    Resumed out;
    std::size_t pos = 0;
    std::size_t valid_end = 0; ///< byte offset past the last clean record
    bool header_ok = false;
    Status tail_error = Status::ok();

    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            tail_error = Status::truncated(
                "journal '" + path + "': torn record at byte offset " +
                std::to_string(pos) + " (no trailing newline)");
            break;
        }
        std::string_view line(text.data() + pos, nl - pos);
        const char* tag = header_ok ? "ZCJR" : "ZCJH";
        auto payload = unframe(line, tag);
        if (!payload) {
            tail_error = Status::corruption(
                "journal '" + path + "': record at byte offset " +
                std::to_string(pos) + ": " + payload.status().message());
            break;
        }
        auto parsed = JsonValue::parse(*payload);
        if (!parsed) {
            tail_error = Status::corruption(
                "journal '" + path + "': record at byte offset " +
                std::to_string(pos) + ": unparseable JSON payload");
            break;
        }
        if (!header_ok) {
            // Header mismatches are refusals, not salvage: resuming a
            // different grid's journal would silently mix results.
            const JsonValue* ver = parsed->find("version");
            if (!ver || ver->kind() != JsonValue::Kind::U64 ||
                ver->asU64() != static_cast<std::uint64_t>(kJournalVersion)) {
                return Status::unsupported(
                    "journal '" + path +
                    "': unknown journal version (want " +
                    std::to_string(kJournalVersion) + ")");
            }
            const JsonValue* pts = parsed->find("points");
            const JsonValue* fp = parsed->find("fingerprint");
            char want_fp[16];
            std::snprintf(want_fp, sizeof want_fp, "%08x",
                          fingerprint(spec));
            if (!pts || pts->kind() != JsonValue::Kind::U64 ||
                pts->asU64() != spec.size() || !fp ||
                fp->kind() != JsonValue::Kind::Str ||
                fp->asString() != want_fp) {
                const JsonValue* nm = parsed->find("name");
                std::string whose =
                    nm && nm->kind() == JsonValue::Kind::Str
                        ? "'" + nm->asString() + "'"
                        : "<unnamed>";
                return Status::invalidArgument(
                    "journal '" + path + "': belongs to sweep " + whose +
                    " with a different grid (fingerprint mismatch); "
                    "refusing to resume — delete it or pass the journal "
                    "for this exact sweep");
            }
            header_ok = true;
        } else {
            auto entry = entryFromJson(*parsed);
            if (!entry) {
                tail_error = Status::corruption(
                    "journal '" + path + "': record at byte offset " +
                    std::to_string(pos) + ": " + entry.status().message());
                break;
            }
            if (entry->index >= spec.size()) {
                tail_error = Status::corruption(
                    "journal '" + path + "': record at byte offset " +
                    std::to_string(pos) + ": point index " +
                    std::to_string(entry->index) + " out of range");
                break;
            }
            out.entries.push_back(std::move(*entry));
        }
        pos = nl + 1;
        valid_end = pos;
    }

    if (!header_ok) {
        if (!tail_error.isOk()) return tail_error;
        return Status::corruption("journal '" + path +
                                  "': empty file (missing header)");
    }
    if (!tail_error.isOk()) {
        // Salvage: keep the clean prefix, drop the damaged tail, warn.
        std::fprintf(stderr,
                     "warning: %s; salvaged %zu completed point(s), "
                     "truncating to %zu bytes and re-running the rest\n",
                     tail_error.str().c_str(), out.entries.size(),
                     valid_end);
        if (::truncate(path.c_str(),
                       static_cast<off_t>(valid_end)) != 0) {
            return Status::ioError("journal '" + path +
                                   "': cannot truncate damaged tail: " +
                                   errnoMessage());
        }
    }

    std::FILE* af = std::fopen(path.c_str(), "ab");
    if (!af) {
        return Status::ioError("journal '" + path +
                               "': cannot reopen for append: " +
                               errnoMessage());
    }
    out.journal.f_ = af;
    out.journal.path_ = path;
    return out;
}

Status
SweepJournal::append(std::size_t index, const RunOutcome& o)
{
    if (!f_) {
        return Status::internal("journal append on a closed journal");
    }
    if (ZC_INJECT_FAULT("journal.write")) {
        return Status::ioError(
            "fault injection: induced journal write failure at site "
            "'journal.write'");
    }
    return writeLine(f_, path_, "ZCJR", entryToJson(index, o).str());
}

} // namespace zc
