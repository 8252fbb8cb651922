// The same sizing-hint field, now written and read back: a reader
// mentions it, so the round trip keeps it and the pair is complete.
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
    w.u64(b.last_size);
}

Blob
loadBlob(ByteReader &r)
{
    Blob b;
    b.kept = r.u64();
    b.last_size = r.u64();
    return b;
}
