// The writer reads 'last_size' as a sizing hint and no reader
// restores it: a serializer mentions the field, yet a round trip
// drops it, so snapshot-completeness must flag it.
struct ByteWriter
{
    void reserve(unsigned long long bytes);
    void u64(unsigned long long v);
};

struct ByteReader
{
    unsigned long long u64();
};

struct Blob
{
    unsigned long long kept = 0;
    unsigned long long last_size = 0;
};

void
saveBlob(ByteWriter &w, const Blob &b)
{
    w.reserve(b.last_size);
    w.u64(b.kept);
}

Blob
loadBlob(ByteReader &r)
{
    Blob b;
    b.kept = r.u64();
    return b;
}
