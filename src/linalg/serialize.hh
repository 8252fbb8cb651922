/**
 * @file
 * Bit-exact binary serialization primitives.
 *
 * The session snapshot/restore path (runtime controller state,
 * service tenant sessions) needs round trips that are *exact*: a
 * restored controller must reproduce the uninterrupted run's
 * accepted-config schedule bit for bit, so every double travels as
 * its IEEE-754 bit pattern, never through a decimal conversion.
 *
 * Format rules:
 *  - All integers are fixed-width little-endian, so the format is
 *    identical across hosts.
 *  - Doubles are the 8 bytes of their bit pattern (via
 *    std::bit_cast to std::uint64_t), preserving NaN payloads and
 *    signed zeros.
 *  - Containers are a u64 length followed by the elements.
 *
 * On a little-endian host that format is the in-memory layout, so
 * vec() and indexVec() move a whole element array with one append on
 * write and one copy on read; other hosts pack byte by byte. The
 * bytes are the same either way (linalg_test's ByteCodec golden test
 * pins them).
 *
 * ByteReader never throws: a truncated or malformed buffer flips
 * ok() to false and every subsequent read returns zero values, so
 * callers validate once at the end (the pattern the no-throw
 * controller restore path requires). A container count larger than
 * the bytes left fails before anything is allocated.
 */

#ifndef LEO_LINALG_SERIALIZE_HH
#define LEO_LINALG_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/vector.hh"

namespace leo::linalg
{

/** Append-only binary encoder (see the format rules above). */
class ByteWriter
{
  public:
    /** Make room for `more` bytes past those written, in one
     *  allocation. */
    void reserve(std::size_t more);

    /** Append one byte. */
    void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }

    /** Append a 32-bit little-endian integer. */
    void u32(std::uint32_t v);

    /** Append a 64-bit little-endian integer. */
    void u64(std::uint64_t v);

    /** Append a double as its exact IEEE-754 bit pattern. */
    void f64(double v);

    /** Append a length-prefixed byte string. */
    void str(const std::string &s);

    /** Append a length-prefixed vector of doubles (bit patterns). */
    void vec(const Vector &v);

    /** Append a length-prefixed vector of u64 indices. */
    void indexVec(const std::vector<std::size_t> &v);

    /** @return The encoded buffer. */
    const std::string &bytes() const { return bytes_; }

    /** Move the encoded buffer out. */
    std::string take() { return std::move(bytes_); }

  private:
    /** Append n raw bytes. */
    void append(const char *p, std::size_t n);

    /** Append count 8-byte words (doubles or indices), no prefix. */
    template <typename T>
    void words(const T *p, std::size_t count);

    std::string bytes_;
};

/**
 * Sequential binary decoder over a borrowed buffer.
 *
 * Never throws; check ok() after the final read. The borrowed buffer
 * must outlive the reader.
 */
class ByteReader
{
  public:
    /** @param bytes The encoded buffer (borrowed). */
    explicit ByteReader(const std::string &bytes) : bytes_(&bytes) {}

    /** @return False once any read ran past the end. */
    bool ok() const { return ok_; }

    /**
     * Mark the stream failed (e.g. a version or sanity check the
     * caller performed on decoded values); every later read returns
     * zero values, as after a range failure.
     */
    void fail() { ok_ = false; }

    /** @return True iff every byte has been consumed. */
    bool atEnd() const { return pos_ == bytes_->size(); }

    /** @return The number of bytes consumed so far. */
    std::size_t position() const { return pos_; }

    /** Read one byte (0 after a failure). */
    std::uint8_t u8();

    /** Read a 32-bit little-endian integer. */
    std::uint32_t u32();

    /** Read a 64-bit little-endian integer. */
    std::uint64_t u64();

    /** Read a double from its bit pattern. */
    double f64();

    /** Read a length-prefixed byte string. */
    std::string str();

    /** Read a length-prefixed vector of doubles. */
    Vector vec();

    /** Read a length-prefixed vector of u64 indices. */
    std::vector<std::size_t> indexVec();

  private:
    /** Claim n bytes; nullptr (and ok_ = false) when exhausted. */
    const char *claim(std::size_t n);

    /** True iff n elements of `width` bytes remain; otherwise fail
     *  (ok_ = false) without allocating. */
    bool fits(std::uint64_t n, std::uint64_t width);

    /** Read count 8-byte words into out (left as is on failure). */
    template <typename T>
    void words(T *out, std::size_t count);

    const std::string *bytes_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace leo::linalg

#endif // LEO_LINALG_SERIALIZE_HH
