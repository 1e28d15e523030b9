#include "compress/codec.hpp"

#include <algorithm>

#include "common/fault_injection.hpp"
#include "common/log.hpp"

namespace zc {
namespace {

/**
 * Stream layout (both codecs' compress output): one scheme byte, a
 * u16 LE original-length field, then the scheme's payload. The
 * header makes every stream self-describing, so decompress needs no
 * out-of-band metadata and can validate internal consistency —
 * the property the Corruption error paths rest on.
 */
constexpr std::size_t kHeaderBytes = 3;

/** Payload size cap imposed by the u16 length field. */
constexpr std::size_t kMaxPayload = 0xffff;

enum Scheme : std::uint8_t {
    kRaw = 0,    ///< verbatim copy (incompressible fallback)
    kZeros = 1,  ///< all bytes zero: header only
    kRep8 = 2,   ///< one u64 word repeated: header + 8 bytes
    kB8D1 = 3,   ///< u64 base + 1-byte deltas
    kB8D2 = 4,   ///< u64 base + 2-byte deltas
    kB8D4 = 5,   ///< u64 base + 4-byte deltas
    kB4D1 = 6,   ///< u32 base + 1-byte deltas
    kB4D2 = 7,   ///< u32 base + 2-byte deltas
    kSchemeCount = 8,
};

void
putHeader(std::uint8_t* dst, Scheme s, std::size_t orig)
{
    dst[0] = static_cast<std::uint8_t>(s);
    dst[1] = static_cast<std::uint8_t>(orig & 0xff);
    dst[2] = static_cast<std::uint8_t>((orig >> 8) & 0xff);
}

/** Load the padded word at word index @p i (zero-padded past n). */
template <typename Word>
Word
paddedWord(const std::uint8_t* src, std::size_t n, std::size_t i)
{
    Word w = 0;
    std::size_t off = i * sizeof(Word);
    std::size_t take = std::min(sizeof(Word), n - off);
    std::memcpy(&w, src + off, take);
    return w;
}

template <typename Word>
std::size_t
wordCount(std::size_t n)
{
    return (n + sizeof(Word) - 1) / sizeof(Word);
}

/**
 * Try a base+delta encoding with @p DeltaBytes-wide deltas over
 * @p Word-sized words. The base is the first word (the common BDI
 * simplification); a payload fits iff every word's signed delta from
 * the base fits DeltaBytes. Returns the encoded size, or 0 on no fit.
 * The size is known before any delta is checked, so the encoding is
 * written to @p dst only when it beats the raw fallback: @p dst may
 * hold no more than maxCompressedSize(n) = kHeaderBytes + n bytes.
 */
template <typename Word, std::size_t DeltaBytes>
std::size_t
tryBaseDelta(const std::uint8_t* src, std::size_t n, std::uint8_t* dst)
{
    const std::size_t words = wordCount<Word>(n);
    const std::size_t size =
        kHeaderBytes + sizeof(Word) + words * DeltaBytes;
    std::uint8_t* out = size < kHeaderBytes + n ? dst + kHeaderBytes
                                                : nullptr;
    const Word base = paddedWord<Word>(src, n, 0);
    const std::int64_t lo = -(std::int64_t{1} << (8 * DeltaBytes - 1));
    const std::int64_t hi = (std::int64_t{1} << (8 * DeltaBytes - 1)) - 1;
    if (out != nullptr) {
        std::memcpy(out, &base, sizeof(Word));
        out += sizeof(Word);
    }
    for (std::size_t i = 0; i < words; i++) {
        // Two's-complement difference: u64 words can be a full 64 bits
        // apart, where a signed subtraction would overflow.
        const Word w = paddedWord<Word>(src, n, i);
        const auto delta = static_cast<std::int64_t>(
            std::uint64_t{w} - std::uint64_t{base});
        if (delta < lo || delta > hi) return 0;
        if (out == nullptr) continue; // fit check only
        const auto d = static_cast<std::uint64_t>(delta);
        std::memcpy(out, &d, DeltaBytes);
        out += DeltaBytes;
    }
    return size;
}

template <typename Word, std::size_t DeltaBytes>
bool
decodeBaseDelta(const std::uint8_t* src, std::size_t n, std::uint8_t* dst,
                std::size_t orig)
{
    const std::size_t words = wordCount<Word>(orig);
    if (n != sizeof(Word) + words * DeltaBytes) return false;
    Word base = 0;
    std::memcpy(&base, src, sizeof(Word));
    std::size_t off = sizeof(Word);
    std::size_t written = 0;
    for (std::size_t i = 0; i < words; i++) {
        std::uint64_t raw = 0;
        std::memcpy(&raw, src + off, DeltaBytes);
        off += DeltaBytes;
        // Sign-extend the delta.
        const std::uint64_t sign = std::uint64_t{1} << (8 * DeltaBytes - 1);
        const std::uint64_t delta = (raw ^ sign) - sign;
        const Word w = static_cast<Word>(std::uint64_t{base} + delta);
        const std::size_t take = std::min(sizeof(Word), orig - written);
        std::memcpy(dst + written, &w, take);
        written += take;
    }
    return written == orig;
}

class NullCodec final : public Codec
{
  public:
    CodecKind kind() const override { return CodecKind::None; }
    std::string name() const override { return "none"; }

    /** Pure passthrough: no header, size == n, ratio exactly 1. */
    std::size_t
    maxCompressedSize(std::size_t n) const override
    {
        return n;
    }

    Expected<std::size_t>
    compress(const std::uint8_t* src, std::size_t n, std::uint8_t* dst,
             std::size_t cap) const override
    {
        if (cap < n) {
            return Status::invalidArgument(
                "codec none: output capacity " + std::to_string(cap) +
                " < payload " + std::to_string(n));
        }
        if (n != 0) std::memcpy(dst, src, n); // n==0 may carry null ptrs
        return n;
    }

    Expected<std::size_t>
    decompress(const std::uint8_t* src, std::size_t n, std::uint8_t* dst,
               std::size_t cap) const override
    {
        if (ZC_INJECT_FAULT("compress.codec")) {
            return Status::corruption(
                "codec none: injected decompress failure "
                "(compress.codec)");
        }
        if (cap < n) {
            return Status::corruption(
                "codec none: stream length " + std::to_string(n) +
                " exceeds output capacity " + std::to_string(cap));
        }
        if (n != 0) std::memcpy(dst, src, n); // n==0 may carry null ptrs
        return n;
    }
};

class BdiCodec final : public Codec
{
  public:
    CodecKind kind() const override { return CodecKind::Bdi; }
    std::string name() const override { return "bdi"; }

    /** Raw fallback bounds the worst case: header + verbatim bytes. */
    std::size_t
    maxCompressedSize(std::size_t n) const override
    {
        return kHeaderBytes + n;
    }

    Expected<std::size_t>
    compress(const std::uint8_t* src, std::size_t n, std::uint8_t* dst,
             std::size_t cap) const override
    {
        if (n > kMaxPayload) {
            return Status::invalidArgument(
                "codec bdi: payload " + std::to_string(n) +
                " exceeds the u16 length field (" +
                std::to_string(kMaxPayload) + ")");
        }
        if (cap < maxCompressedSize(n)) {
            return Status::invalidArgument(
                "codec bdi: output capacity " + std::to_string(cap) +
                " < maxCompressedSize " +
                std::to_string(maxCompressedSize(n)));
        }
        if (n == 0) {
            putHeader(dst, kZeros, 0);
            return kHeaderBytes;
        }

        // Degenerate schemes first: all-zero, then one repeated u64.
        bool all_zero = true;
        for (std::size_t i = 0; i < n && all_zero; i++) {
            all_zero = src[i] == 0;
        }
        if (all_zero) {
            putHeader(dst, kZeros, n);
            return kHeaderBytes;
        }
        const std::size_t w8 = wordCount<std::uint64_t>(n);
        const std::uint64_t first = paddedWord<std::uint64_t>(src, n, 0);
        bool repeated = true;
        for (std::size_t i = 1; i < w8 && repeated; i++) {
            repeated = paddedWord<std::uint64_t>(src, n, i) == first;
        }
        if (repeated && n >= 8) {
            // n < 8 is one padded word: "repeated" trivially holds but
            // the 8-byte literal would exceed maxCompressedSize(n).
            putHeader(dst, kRep8, n);
            std::memcpy(dst + kHeaderBytes, &first, 8);
            return kHeaderBytes + 8;
        }

        // Base+delta schemes, narrowest delta first; keep the best.
        std::size_t best = 0;
        Scheme best_scheme = kRaw;
        auto consider = [&](Scheme s, std::size_t size) {
            if (size != 0 && (best == 0 || size < best)) {
                best = size;
                best_scheme = s;
            }
        };
        consider(kB8D1, tryBaseDelta<std::uint64_t, 1>(src, n, dst));
        if (best == 0) {
            consider(kB4D1, tryBaseDelta<std::uint32_t, 1>(src, n, dst));
        }
        if (best == 0) {
            consider(kB8D2, tryBaseDelta<std::uint64_t, 2>(src, n, dst));
        }
        if (best == 0) {
            consider(kB4D2, tryBaseDelta<std::uint32_t, 2>(src, n, dst));
        }
        if (best == 0) {
            consider(kB8D4, tryBaseDelta<std::uint64_t, 4>(src, n, dst));
        }
        if (best != 0 && best < kHeaderBytes + n) {
            putHeader(dst, best_scheme, n);
            return best;
        }

        // Incompressible: raw fallback (the passthrough guarantee).
        putHeader(dst, kRaw, n);
        std::memcpy(dst + kHeaderBytes, src, n);
        return kHeaderBytes + n;
    }

    Expected<std::size_t>
    decompress(const std::uint8_t* src, std::size_t n, std::uint8_t* dst,
               std::size_t cap) const override
    {
        if (ZC_INJECT_FAULT("compress.codec")) {
            return Status::corruption(
                "codec bdi: injected decompress failure "
                "(compress.codec)");
        }
        if (n < kHeaderBytes) {
            return Status::corruption(
                "codec bdi: stream of " + std::to_string(n) +
                " byte(s) is shorter than the 3-byte header");
        }
        const std::uint8_t scheme = src[0];
        const std::size_t orig =
            static_cast<std::size_t>(src[1]) |
            (static_cast<std::size_t>(src[2]) << 8);
        if (scheme >= kSchemeCount) {
            return Status::corruption(
                "codec bdi: unknown scheme byte " +
                std::to_string(scheme));
        }
        if (orig > cap) {
            return Status::corruption(
                "codec bdi: declared payload " + std::to_string(orig) +
                " exceeds output capacity " + std::to_string(cap));
        }
        const std::uint8_t* body = src + kHeaderBytes;
        const std::size_t body_n = n - kHeaderBytes;
        bool ok = false;
        switch (static_cast<Scheme>(scheme)) {
          case kRaw: // orig == 0 may carry a null dst, like NullCodec
            ok = body_n == orig;
            if (ok && orig != 0) std::memcpy(dst, body, orig);
            break;
          case kZeros:
            ok = body_n == 0;
            if (ok && orig != 0) std::memset(dst, 0, orig);
            break;
          case kRep8: {
            ok = body_n == 8 && orig > 0;
            if (ok) {
                for (std::size_t off = 0; off < orig; off += 8) {
                    std::memcpy(dst + off, body,
                                std::min<std::size_t>(8, orig - off));
                }
            }
            break;
          }
          case kB8D1:
            ok = decodeBaseDelta<std::uint64_t, 1>(body, body_n, dst, orig);
            break;
          case kB8D2:
            ok = decodeBaseDelta<std::uint64_t, 2>(body, body_n, dst, orig);
            break;
          case kB8D4:
            ok = decodeBaseDelta<std::uint64_t, 4>(body, body_n, dst, orig);
            break;
          case kB4D1:
            ok = decodeBaseDelta<std::uint32_t, 1>(body, body_n, dst, orig);
            break;
          case kB4D2:
            ok = decodeBaseDelta<std::uint32_t, 2>(body, body_n, dst, orig);
            break;
          case kSchemeCount:
            break;
        }
        if (!ok) {
            return Status::corruption(
                "codec bdi: scheme " + std::to_string(scheme) +
                " stream body of " + std::to_string(body_n) +
                " byte(s) is inconsistent with declared payload " +
                std::to_string(orig));
        }
        return orig;
    }
};

/** splitmix64, the repo's standard deterministic mixer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::unique_ptr<Codec>
makeCodec(CodecKind kind)
{
    switch (kind) {
      case CodecKind::None: return std::make_unique<NullCodec>();
      case CodecKind::Bdi: return std::make_unique<BdiCodec>();
    }
    zc_panic("unknown codec kind");
}

void
ContentModel::fill(std::uint64_t addr, std::uint8_t* dst,
                   std::size_t n) const
{
    const std::uint64_t h = mix64(addr ^ seed);
    const std::uint32_t pick = static_cast<std::uint32_t>(h % 100);
    if (pick < zeroPct) {
        std::memset(dst, 0, n);
        return;
    }
    if (pick < zeroPct + repeatPct) {
        const std::uint64_t word = mix64(h);
        for (std::size_t off = 0; off < n; off += 8) {
            std::memcpy(dst + off, &word,
                        std::min<std::size_t>(8, n - off));
        }
        return;
    }
    if (pick < zeroPct + repeatPct + deltaPct) {
        // Base word plus small (1-byte-delta) per-word offsets.
        const std::uint64_t base = mix64(h ^ 0xba5eULL);
        for (std::size_t i = 0; i * 8 < n; i++) {
            const std::uint64_t w =
                base + (mix64(h + i) & 0x3f); // deltas in [0, 63]
            std::memcpy(dst + i * 8, &w,
                        std::min<std::size_t>(8, n - i * 8));
        }
        return;
    }
    // Incompressible: a full-width splitmix stream.
    for (std::size_t i = 0; i * 8 < n; i++) {
        const std::uint64_t w = mix64((h ^ 0x7a11ULL) + i);
        std::memcpy(dst + i * 8, &w, std::min<std::size_t>(8, n - i * 8));
    }
}

std::string
ContentModel::label() const
{
    return "z" + std::to_string(zeroPct) + "r" + std::to_string(repeatPct) +
           "d" + std::to_string(deltaPct);
}

} // namespace zc
