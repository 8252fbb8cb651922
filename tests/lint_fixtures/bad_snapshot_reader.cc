// The reader takes a context struct ahead of building its subject:
// the subject is the returned Blob, so the field both serializers
// miss is Blob's 'dropped', and the Context it only reads is no
// serializer subject at all.
struct ByteWriter
{
    void u64(unsigned long long v);
};

struct ByteReader
{
    unsigned long long u64();
};

struct Context
{
    unsigned long long salt = 0;
};

struct Blob
{
    unsigned long long kept = 0;
    unsigned long long dropped = 0;
};

void
saveBlob(ByteWriter &w, const Blob &b)
{
    w.u64(b.kept);
}

Blob
loadBlob(ByteReader &r, const Context *ctx)
{
    Blob b;
    b.kept = r.u64() ^ ctx->salt;
    return b;
}
