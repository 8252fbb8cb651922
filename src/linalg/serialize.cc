/**
 * @file
 * Implementation of the bit-exact serialization primitives.
 *
 * On a little-endian host the wire format is the in-memory layout of
 * the integers and doubles, so whole arrays move with one append or
 * one memcpy; elsewhere every word is packed byte by byte. Both paths
 * produce the same bytes.
 */

#include "linalg/serialize.hh"

#include <bit>
#include <cstring>
#include <type_traits>

namespace leo::linalg
{

namespace
{

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

/** Pack v into out[0, sizeof(T)) least significant byte first. */
template <typename T>
void
packLe(char *out, T v)
{
    if constexpr (kLittleEndian) {
        std::memcpy(out, &v, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            out[i] = static_cast<char>(
                static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

/** Inverse of packLe. */
template <typename T>
T
unpackLe(const char *in)
{
    T v = 0;
    if constexpr (kLittleEndian) {
        std::memcpy(&v, in, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(static_cast<std::uint8_t>(in[i]))
                 << (8 * i);
    }
    return v;
}

/** True when an array of T is byte for byte its u64 wire form. */
template <typename T>
constexpr bool kWireLayout = kLittleEndian && sizeof(T) == 8;

} // namespace

void
ByteWriter::reserve(std::size_t more)
{
    bytes_.reserve(bytes_.size() + more);
}

void
ByteWriter::append(const char *p, std::size_t n)
{
    bytes_.append(p, n);
}

void
ByteWriter::u32(std::uint32_t v)
{
    char b[4];
    packLe(b, v);
    append(b, 4);
}

void
ByteWriter::u64(std::uint64_t v)
{
    char b[8];
    packLe(b, v);
    append(b, 8);
}

void
ByteWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
ByteWriter::str(const std::string &s)
{
    u64(s.size());
    append(s.data(), s.size());
}

template <typename T>
void
ByteWriter::words(const T *p, std::size_t count)
{
    if constexpr (kWireLayout<T>) {
        append(reinterpret_cast<const char *>(p), count * 8);
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            if constexpr (std::is_floating_point_v<T>)
                f64(p[i]);
            else
                u64(static_cast<std::uint64_t>(p[i]));
        }
    }
}

void
ByteWriter::vec(const Vector &v)
{
    u64(v.size());
    words(v.data(), v.size());
}

void
ByteWriter::indexVec(const std::vector<std::size_t> &v)
{
    u64(v.size());
    words(v.data(), v.size());
}

const char *
ByteReader::claim(std::size_t n)
{
    if (!ok_ || bytes_->size() - pos_ < n) {
        ok_ = false;
        return nullptr;
    }
    const char *p = bytes_->data() + pos_;
    pos_ += n;
    return p;
}

bool
ByteReader::fits(std::uint64_t n, std::uint64_t width)
{
    // Divide instead of multiplying, so that no product can wrap: a
    // corrupt count fails here, before any allocation.
    if (!ok_ || n > (bytes_->size() - pos_) / width) {
        ok_ = false;
        return false;
    }
    return true;
}

template <typename T>
void
ByteReader::words(T *out, std::size_t count)
{
    const char *p = claim(count * 8);
    if (!p)
        return;
    if constexpr (kWireLayout<T>) {
        if (count != 0)
            std::memcpy(out, p, count * 8);
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t w = unpackLe<std::uint64_t>(p + 8 * i);
            if constexpr (std::is_floating_point_v<T>)
                out[i] = std::bit_cast<double>(w);
            else
                out[i] = static_cast<T>(w);
        }
    }
}

std::uint8_t
ByteReader::u8()
{
    const char *p = claim(1);
    return p ? static_cast<std::uint8_t>(*p) : 0;
}

std::uint32_t
ByteReader::u32()
{
    const char *p = claim(4);
    return p ? unpackLe<std::uint32_t>(p) : 0;
}

std::uint64_t
ByteReader::u64()
{
    const char *p = claim(8);
    return p ? unpackLe<std::uint64_t>(p) : 0;
}

double
ByteReader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
ByteReader::str()
{
    const std::uint64_t n = u64();
    if (!fits(n, 1))
        return std::string{};
    return std::string(claim(static_cast<std::size_t>(n)),
                       static_cast<std::size_t>(n));
}

Vector
ByteReader::vec()
{
    const std::uint64_t n = u64();
    if (!fits(n, 8))
        return Vector{};
    Vector v(static_cast<std::size_t>(n));
    words(v.data(), v.size());
    return v;
}

std::vector<std::size_t>
ByteReader::indexVec()
{
    const std::uint64_t n = u64();
    if (!fits(n, 8))
        return {};
    std::vector<std::size_t> v(static_cast<std::size_t>(n));
    words(v.data(), v.size());
    return v;
}

} // namespace leo::linalg
